"""Gradient engine tests.

Every differentiable primitive is checked against central finite
differences (the independent oracle), plus hand-computed values for the
small cases and exactness properties that finite differences cannot see
(gradient reversal, masking, determinism).
"""

import math
import threading

import numpy as np
import pytest

from mdrank.autodiff import (
    ShapeError,
    _relu_mask,
    Tape,
    Tensor,
    add,
    attention,
    backward,
    concat_cols,
    cross_entropy,
    grad_check,
    gradient_reversal,
    layer_norm,
    linear,
    put_rows,
    relu,
    scale,
    segment_cross_entropy,
    take_rows,
)
from mdrank.models import build, forward
from tests.conftest import make_session, mul_const, reduce_sum, tiny_config

N_INSTANCES = 25  # random instances per primitive for the FD oracle
FD_TOL = 1e-4
EXACT = 1e-12


def _param(rng, *shape, away_from_zero=False):
    vals = rng.normal(size=shape)
    if away_from_zero:
        # keep relu inputs off the kink so finite differences are valid
        vals = np.where(np.abs(vals) < 0.1, vals + 0.2 * np.sign(vals) + 0.2, vals)
    return Tensor(vals, requires_grad=True)


def _weighted_sum(y, w):
    """Scalar ``sum(w * y)`` for a fixed ``w``: a non-uniform upstream gradient."""
    return reduce_sum(mul_const(y, w))


# ---------------------------------------------------------------------------
# finite-difference oracle, one primitive at a time


def test_add_and_constant_op_gradients():
    for i in range(N_INSTANCES):
        rng = np.random.default_rng(200 + i)
        a = _param(rng, 3, 4)
        b = _param(rng, 3, 4)

        gate = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))

        def fn():
            y = add(a, b)
            y = mul_const(y, gate)
            y = scale(y, 0.5)
            return _weighted_sum(y, w)

        assert grad_check(fn, [a, b]) < FD_TOL


def test_add_rejects_broadcast():
    with pytest.raises(ShapeError):
        add(Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)))


def test_relu_gradients_away_from_kink():
    for i in range(N_INSTANCES):
        rng = np.random.default_rng(300 + i)
        x = _param(rng, 4, 3, away_from_zero=True)
        w = rng.normal(size=(4, 3))
        assert grad_check(lambda: _weighted_sum(relu(x), w), [x]) < FD_TOL


def test_softmax_and_cross_entropy_gradients():
    for i in range(N_INSTANCES):
        rng = np.random.default_rng(400 + i)
        x = _param(rng, 3, 5)
        w = rng.normal(size=(3, 5))
        for axis in (0, 1):
            assert grad_check(lambda: cross_entropy(x, w, axis=axis), [x]) < FD_TOL
        s = _param(rng, 7, 1)
        t = rng.normal(size=(7, 1))
        assert grad_check(lambda: segment_cross_entropy(s, t, [2, 1, 4]), [s]) < FD_TOL


def test_softmax_axis_zero_gradients():
    """The softmax over items (axis 0, and a segment of a stacked vector)."""
    rng = np.random.default_rng(55)
    x = _param(rng, 4, 3)
    w = rng.normal(size=(4, 3))
    assert grad_check(lambda: cross_entropy(x, w, axis=0), [x]) < FD_TOL
    v = _param(rng, 4)
    assert grad_check(lambda: segment_cross_entropy(v, w[:, 0], [4]), [v]) < FD_TOL


def test_layer_norm_gradients():
    for i in range(N_INSTANCES):
        rng = np.random.default_rng(500 + i)
        x = _param(rng, 3, 6)
        gain = _param(rng, 6)
        bias = _param(rng, 6)
        weight = rng.normal(size=(3, 6))

        def fn():
            return _weighted_sum(layer_norm(x, gain, bias), weight)

        assert grad_check(fn, [x, gain, bias]) < FD_TOL


def test_shape_op_gradients():
    for i in range(N_INSTANCES):
        rng = np.random.default_rng(600 + i)
        a = _param(rng, 3, 4)
        b = _param(rng, 3, 2)
        w = rng.normal(size=(2, 6))

        def fn():
            y = concat_cols(a, b)                                   # 3x6
            top, rest = take_rows(y, [2]), take_rows(y, [0, 1])
            y = put_rows([rest, top], [[2, 0], [1]], 3)             # rows permuted
            return _weighted_sum(take_rows(y, [1, 2]), w[:2])

        assert grad_check(fn, [a, b]) < FD_TOL


def test_linear_layer_gradients():
    for i in range(N_INSTANCES):
        rng = np.random.default_rng(700 + i)
        x = _param(rng, 4, 3)
        w = _param(rng, 3, 2)
        b = _param(rng, 2)
        c = rng.normal(size=(4, 2))
        assert grad_check(lambda: _weighted_sum(linear(x, w, b), c), [x, w, b]) < FD_TOL


def test_attention_gradients_single_and_multi_head():
    for i in range(N_INSTANCES):
        rng = np.random.default_rng(800 + i)
        t = _param(rng, 3, 4)
        wq = _param(rng, 4, 4)
        wk = _param(rng, 4, 4)
        wv = _param(rng, 4, 4)
        heads = 1 if i % 2 == 0 else 2
        c = rng.normal(size=(3, 4))

        def fn():
            return _weighted_sum(attention(t, wq, wk, wv, [3], heads=heads), c)

        assert grad_check(fn, [t, wq, wk, wv]) < FD_TOL


def test_attention_gradients_with_mask():
    """Ragged sessions: the shorter ones are padded and their padding masked."""
    for i in range(10):
        rng = np.random.default_rng(900 + i)
        t = _param(rng, 6, 4)
        wq = _param(rng, 4, 4)
        wk = _param(rng, 4, 4)
        wv = _param(rng, 4, 4)
        lengths = [1, 3, 2] if i % 2 == 0 else [4, 2]
        c = rng.normal(size=(6, 4))

        def fn():
            return _weighted_sum(attention(t, wq, wk, wv, lengths, heads=1 + i % 2), c)

        assert grad_check(fn, [t, wq, wk, wv]) < FD_TOL


# ---------------------------------------------------------------------------
# hand-computed values


def test_relu_hand_values():
    out = relu(Tensor([[-1.0, 0.0, 2.0]]))
    assert out.values.tolist() == [[0.0, 0.0, 2.0]]


def _softmax_via_cross_entropy(x: np.ndarray) -> np.ndarray:
    """Row softmax read off the cross-entropy gradient: with a one-hot
    target t per row, d/dx CE = softmax(x) - t."""
    t = np.zeros_like(x)
    t[:, 0] = 1.0
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        backward(tape, cross_entropy(xt, t, axis=1))
    return xt.grad + t


def test_softmax_hand_values():
    assert abs(cross_entropy(Tensor([[0.0, 0.0]]), [[1.0, 0.0]], axis=1).item()
               - math.log(2.0)) < 1e-15
    assert np.allclose(_softmax_via_cross_entropy(np.array([[0.0, 0.0]])), [[0.5, 0.5]],
                       atol=1e-15)
    logits = np.array([[math.log(1.0), math.log(3.0)]])
    assert np.allclose(_softmax_via_cross_entropy(logits), [[0.25, 0.75]], atol=1e-12)
    assert abs(cross_entropy(Tensor(logits), [[0.0, 1.0]], axis=1).item()
               + math.log(0.75)) < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        out = _softmax_via_cross_entropy(rng.normal(scale=5.0, size=(4, 6)))
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_invalid_axis_raises():
    with pytest.raises(ShapeError):
        cross_entropy(Tensor(np.zeros((2, 2))), np.zeros((2, 2)), axis=5)


def test_segment_cross_entropy_matches_per_segment_cross_entropy():
    rng = np.random.default_rng(12)
    lengths = [3, 1, 5, 2]
    x = rng.normal(size=(11, 1))
    t = rng.uniform(size=(11, 1))
    g = rng.normal()
    whole = Tensor(x, requires_grad=True)
    with Tape() as tape:
        backward(tape, scale(segment_cross_entropy(whole, t, lengths), g))
    total = 0.0
    grad = np.zeros_like(x)
    for lo, hi in zip(np.cumsum([0, *lengths[:-1]]), np.cumsum(lengths)):
        part = Tensor(x[lo:hi], requires_grad=True)
        with Tape() as tape:
            loss = scale(cross_entropy(part, t[lo:hi], axis=0), g)
            backward(tape, loss)
        total += loss.item()
        grad[lo:hi] = part.grad
    assert abs(scale(segment_cross_entropy(Tensor(x), t, lengths), g).item() - total) < EXACT
    assert np.max(np.abs(whole.grad - grad)) < EXACT


@pytest.mark.parametrize("lengths", [[5], [3], [0, 4], [4, -1, 1]])
def test_segment_cross_entropy_rejects_bad_lengths(lengths):
    with pytest.raises(ShapeError):
        segment_cross_entropy(Tensor(np.zeros(4)), np.zeros(4), lengths)


def test_segment_cross_entropy_rejects_matrix_scores():
    with pytest.raises(ShapeError):
        segment_cross_entropy(Tensor(np.zeros((4, 2))), np.zeros((4, 2)), [2, 2])


def test_take_and_put_rows_round_trip():
    x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    rows = [[3, 1], [0, 2]]
    with Tape() as tape:
        parts = [take_rows(x, r) for r in rows]
        y = put_rows(parts, rows, 4)
        backward(tape, _weighted_sum(y, np.arange(12.0).reshape(4, 3)))
    assert np.array_equal(parts[0].values, x.values[[3, 1]])
    assert np.array_equal(y.values, x.values)
    assert np.array_equal(x.grad, np.arange(12.0).reshape(4, 3))
    with pytest.raises(ShapeError, match=r"^take_rows: need distinct row indices into shape \(4, 3\)$"):
        take_rows(x, [1, 1])
    with pytest.raises(ShapeError):
        put_rows(parts, [[3, 1], [0, 0]], 4)


def test_sum_gradient_is_all_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        loss = reduce_sum(x)
        backward(tape, loss)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_linear_hand_values_and_bias_gradient():
    x = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], requires_grad=True)
    w = Tensor([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]], requires_grad=True)
    b = Tensor([0.5, -1.0, 2.0], requires_grad=True)
    g = np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 4.0], [2.0, -3.0, 0.25]])
    with Tape() as tape:
        y = linear(x, w, b)
        loss = _weighted_sum(y, g)
        backward(tape, loss)
    assert [node.op for node in tape.nodes] == ["linear", "mul_const", "reduce_sum"]
    assert y.values.tolist() == [[1.5, 1.0, 2.0], [3.5, 3.0, 4.0], [5.5, 5.0, 6.0]]
    assert np.array_equal(b.grad, g.sum(axis=0))
    assert np.array_equal(x.grad, g @ w.values.T)
    assert np.array_equal(w.grad, x.values.T @ g)


def test_linear_rejects_mismatched_bias():
    with pytest.raises(ShapeError):
        linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)))


def test_gradient_accumulates_across_reuse():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with Tape() as tape:
        loss = reduce_sum(add(x, x))
        backward(tape, loss)
    assert x.grad.tolist() == [[2.0, 2.0]]


# ---------------------------------------------------------------------------
# attention semantics


def _attention_loop_oracle(tokens, wq, wk, wv, lengths, heads):
    """Brute-force attention with explicit python loops: row i attends to
    the rows of its own session only."""
    n, d = tokens.shape
    dh = d // heads
    q = tokens @ wq
    k = tokens @ wk
    v = tokens @ wv
    session = np.repeat(np.arange(len(lengths)), lengths)
    out = np.zeros((n, d))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        for i in range(n):
            weights = np.zeros(n)
            for j in range(n):
                if session[j] != session[i]:
                    weights[j] = -np.inf
                else:
                    weights[j] = float(q[i, sl] @ k[j, sl]) / math.sqrt(dh)
            weights = np.exp(weights - np.max(weights[np.isfinite(weights)]))
            weights[~np.isfinite(weights)] = 0.0
            weights = weights / weights.sum()
            for j in range(n):
                out[i, sl] += weights[j] * v[j, sl]
    return out


@pytest.mark.parametrize("heads", [1, 2])
def test_attention_matches_loop_oracle(heads):
    rng = np.random.default_rng(17)
    for trial in range(10):
        lengths = [3] if trial % 2 == 0 else [1, 3, 2]
        tokens = rng.normal(size=(sum(lengths), 4))
        wq, wk, wv = (rng.normal(size=(4, 4)) for _ in range(3))
        got = attention(Tensor(tokens), Tensor(wq), Tensor(wk), Tensor(wv),
                        lengths, heads=heads).values
        want = _attention_loop_oracle(tokens, wq, wk, wv, lengths, heads)
        assert np.allclose(got, want, atol=1e-12)


def _attention_reference(tokens, wq, wk, wv, heads):
    """One session's attention in plain vectorized numpy."""
    dh = tokens.shape[1] // heads
    q, k, v = tokens @ wq, tokens @ wk, tokens @ wv
    out = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        logits = q[:, sl] @ k[:, sl].T / math.sqrt(dh)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        out.append((e / e.sum(axis=1, keepdims=True)) @ v[:, sl])
    return np.hstack(out)


@pytest.mark.parametrize("heads", [1, 2])
def test_fused_attention_matches_per_session_reference_and_finite_differences(heads):
    rng = np.random.default_rng(31 + heads)
    for lengths in ([4], [3, 3], [1, 5, 2], [6, 1]):
        n = sum(lengths)
        t = _param(rng, n, 4)
        wq, wk, wv = (_param(rng, 4, 4) for _ in range(3))
        got = attention(t, wq, wk, wv, lengths, heads).values
        start = 0
        for length in lengths:
            want = _attention_reference(t.values[start:start + length], wq.values,
                                        wk.values, wv.values, heads)
            assert np.max(np.abs(got[start:start + length] - want)) <= EXACT
            start += length
        c = rng.normal(size=(n, 4))
        fn = lambda: _weighted_sum(attention(t, wq, wk, wv, lengths, heads), c)
        assert grad_check(fn, [t, wq, wk, wv]) < FD_TOL


def test_attention_records_one_node():
    rng = np.random.default_rng(4)
    t = _param(rng, 5, 4)
    w = _param(rng, 4, 4)
    with Tape() as tape:
        attention(t, w, w, w, [2, 3], heads=2)
    assert [node.op for node in tape.nodes] == ["attention"]


def test_attention_single_token_equals_value_projection():
    rng = np.random.default_rng(5)
    tokens = rng.normal(size=(3, 4))
    wq, wk, wv = (Tensor(rng.normal(size=(4, 4))) for _ in range(3))
    assert np.allclose(attention(Tensor(tokens[:1]), wq, wk, wv, [1]).values,
                       tokens[:1] @ wv.values, atol=1e-12)
    # three one-token sessions in one batch
    out = attention(Tensor(tokens), wq, wk, wv, [1, 1, 1])
    assert np.allclose(out.values, tokens @ wv.values, atol=1e-12)


def test_attention_identical_tokens_get_identical_outputs():
    rng = np.random.default_rng(6)
    row = rng.normal(size=4)
    tokens = Tensor(np.stack([row, row]))
    wq, wk, wv = (Tensor(rng.normal(size=(4, 4))) for _ in range(3))
    out = attention(tokens, wq, wk, wv, [2]).values
    assert np.allclose(out[0], out[1], atol=1e-12)


def test_attention_masked_positions_match_sublist():
    """Padding and the rows of other sessions must not influence a
    session's attention: each session of a ragged batch gets what it gets
    alone."""
    rng = np.random.default_rng(8)
    tokens = rng.normal(size=(9, 4))
    wq, wk, wv = (Tensor(rng.normal(size=(4, 4))) for _ in range(3))
    lengths = [2, 5, 1, 1]
    full = attention(Tensor(tokens), wq, wk, wv, lengths, heads=2).values
    start = 0
    for length in lengths:
        sub = attention(Tensor(tokens[start:start + length]), wq, wk, wv, [length], heads=2)
        assert np.allclose(full[start:start + length], sub.values, atol=1e-12)
        start += length


def test_attention_all_masked_raises():
    """A session without rows (every position padding) is an error."""
    rng = np.random.default_rng(9)
    tokens = Tensor(rng.normal(size=(2, 4)))
    wq, wk, wv = (Tensor(rng.normal(size=(4, 4))) for _ in range(3))
    with pytest.raises(ValueError):
        attention(tokens, wq, wk, wv, [2, 0])
    with pytest.raises(ValueError):
        attention(tokens, wq, wk, wv, [3])


def test_attention_head_mismatch_raises():
    tokens = Tensor(np.zeros((2, 4)))
    w = Tensor(np.zeros((4, 4)))
    with pytest.raises(ShapeError):
        attention(tokens, w, w, w, [2], heads=3)


# ---------------------------------------------------------------------------
# gradient reversal


def test_gradient_reversal_forward_is_identity():
    x = Tensor([[1.5, -2.0]])
    out = gradient_reversal(x)
    assert np.array_equal(out.values, x.values)


@pytest.mark.parametrize("lam", [1.0, 0.0, 2.5])
def test_gradient_reversal_scales_gradient_by_minus_lambda(lam):
    x = Tensor([[1.0, -4.0, 2.0]], requires_grad=True)
    w = np.array([[2.0, 3.0, 5.0]])
    with Tape() as tape:
        y = gradient_reversal(x, lam=lam)
        loss = _weighted_sum(y, w)
        backward(tape, loss)
    assert np.array_equal(x.grad, -lam * w)


def test_gradient_reversal_negative_lambda_rejected():
    with pytest.raises(ValueError):
        gradient_reversal(Tensor([[1.0]]), lam=-0.5)


def test_reversed_network_gradient_is_negated_twin():
    """Same network with and without the reversal node: identical forward
    values, exactly negated upstream gradients."""
    rng = np.random.default_rng(11)
    x_vals = rng.normal(size=(3, 4))
    w_vals = rng.normal(size=(4, 2))
    c = rng.normal(size=(3, 2))

    def run(with_reversal, lam=1.0):
        x = Tensor(x_vals)
        w = Tensor(w_vals, requires_grad=True)
        with Tape() as tape:
            h = linear(x, w, Tensor(np.zeros(2)))
            if with_reversal:
                h = gradient_reversal(h, lam=lam)
            loss = _weighted_sum(h, c)
            backward(tape, loss)
        return loss.values.copy(), w.grad.copy()

    plain_loss, plain_grad = run(False)
    rev_loss, rev_grad = run(True, lam=1.0)
    assert np.array_equal(plain_loss, rev_loss)
    assert np.max(np.abs(rev_grad + plain_grad)) <= 1e-12

    _, rev2 = run(True, lam=2.0)
    assert np.max(np.abs(rev2 + 2.0 * plain_grad)) <= 1e-12


def test_grad_check_refuses_reversal_nodes():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with pytest.raises(ValueError, match="sign-flip"):
        grad_check(lambda: reduce_sum(gradient_reversal(x)), [x])


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        y = scale(x, 2.0)
        with pytest.raises(ShapeError):
            backward(tape, y)


def test_backward_requires_loss_on_tape():
    x = Tensor(np.ones((1, 1)), requires_grad=True)
    with Tape() as tape:
        scale(x, 2.0)
        stray = Tensor([[1.0]])
        with pytest.raises(ValueError):
            backward(tape, stray)


def test_tapes_do_not_nest():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass


def test_tape_is_per_thread():
    """A thread scoring while another thread's tape is active records
    nothing onto that tape, and finds no tape of its own."""
    model = build(tiny_config(), seed=1)
    session = make_session(np.random.default_rng(2), 4, feature_dim=5)
    entered, scored = threading.Event(), threading.Event()
    seen = {}

    def hold_tape():
        with Tape() as tape:
            entered.set()
            scored.wait(timeout=30)
            seen["nodes"] = list(tape.nodes)

    def score():
        entered.wait(timeout=30)
        forward(model, [session])
        with Tape() as own:  # no tape active in this thread
            forward(model, [session])
        seen["own"] = len(own.nodes)
        scored.set()

    threads = [threading.Thread(target=hold_tape), threading.Thread(target=score)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
        assert not th.is_alive()
    assert seen["nodes"] == []
    assert seen["own"] > 0


def test_ops_outside_tape_compute_values_only():
    x = Tensor([[2.0]], requires_grad=True)
    y = mul_const(x, [[2.0]])
    assert y.values.tolist() == [[4.0]]
    assert x.grad is None


def test_backward_is_deterministic():
    def run():
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        c = rng.normal(size=(4, 3))
        with Tape() as tape:
            h = attention(relu(x), w, w, w, [3, 1])
            loss = _weighted_sum(h, c)
            backward(tape, loss)
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


def test_grad_check_on_small_network():
    rng = np.random.default_rng(23)
    x = Tensor(rng.normal(size=(3, 4)))
    w1 = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    b1 = Tensor(np.zeros(4), requires_grad=True)
    w2 = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
    b2 = Tensor(np.zeros(1), requires_grad=True)

    def fn():
        h = relu(linear(x, w1, b1))
        return reduce_sum(linear(h, w2, b2))

    assert grad_check(fn, [w1, b1, w2, b2]) < FD_TOL


# ---------------------------------------------------------------------------
# linear with relu as one node

# a lone model, and a stack of 3 with an empty block
FUSED_LAYOUTS = (None, [3, 0, 4])


def _linear_params(rng, members, d=4, n=3, away_from_kink=False):
    """``x``, ``w`` and ``b`` for ``linear``; with ``away_from_kink`` every
    entry of ``x @ w + b`` lies at least 0.05 from 0, so that finite
    differences do not cross relu's kink."""
    lead = () if members is None else (len(members),)
    while True:
        x = _param(rng, sum(members or [5]), d)
        w, b = _param(rng, *lead, d, n), _param(rng, *lead, n)
        pre = linear(x, w, b, members=members).values
        if not away_from_kink or np.abs(pre).min() >= 0.05:
            return x, w, b


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("members", FUSED_LAYOUTS)
def test_fused_relu_linear_equals_relu_of_linear_bit_for_bit(members):
    """Values, and the gradients of ``x``, ``w`` and ``b`` under an upstream
    gradient holding NaN, inf, -inf and -0.0, have the bits of the
    composite ``relu(linear(...))``."""
    rng = np.random.default_rng(81)
    params = _linear_params(rng, members)
    upstream = rng.normal(size=linear(*params, members=members).shape)
    upstream.flat[:5] = [np.nan, np.inf, -np.inf, -0.0, 0.0]
    upstream[-1] = -0.0
    got = {}
    for fused in (True, False):
        copies = [Tensor(p.values.copy(), requires_grad=True) for p in params]
        with Tape() as tape:
            out = (linear(*copies, members=members, relu=True) if fused
                   else relu(linear(*copies, members=members)))
            backward(tape, reduce_sum(mul_const(out, upstream)))
        assert [node.op for node in tape.nodes][0] == "linear"
        assert len(tape.nodes) == (3 if fused else 4)
        got[fused] = [out.values.tobytes(), *(c.grad.tobytes() for c in copies),
                      *(str(c.grad_members) for c in copies)]
    assert got[True] == got[False]


@pytest.mark.parametrize("members", FUSED_LAYOUTS)
def test_fused_relu_linear_passes_grad_check(members):
    for i in range(N_INSTANCES):
        rng = np.random.default_rng(300 + i)
        x, w, b = _linear_params(rng, members, away_from_kink=True)
        c = rng.normal(size=(x.shape[0], 3))
        fn = lambda: _weighted_sum(linear(x, w, b, members=members, relu=True), c)
        assert grad_check(fn, [x, w, b]) < FD_TOL


@pytest.mark.parametrize("size", [1, 100, 8191, 8192, 8193, 480 * 24, 1200 * 24])
def test_relu_mask_has_the_bits_of_where(size):
    """The bit mask equals ``np.where(values > 0.0, g, 0.0)`` byte for byte,
    below and above the 8,192 elements where ``np.where`` slows down, with
    NaN, infinities and signed zeros on both sides."""
    rng = np.random.default_rng(size)
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0]
    values, g = rng.normal(size=size), rng.normal(size=size)
    values[rng.integers(0, size, size // 7)] = rng.choice(specials, size // 7)
    g[rng.integers(0, size, size // 5)] = rng.choice(specials, size // 5)
    for shape in ((size,), (1, size)):
        want = np.where(values.reshape(shape) > 0.0, g.reshape(shape), 0.0)
        got = _relu_mask(g.reshape(shape), values.reshape(shape))
        assert got.dtype == np.float64 and got.shape == shape
        assert got.tobytes() == want.tobytes()
    strided = rng.normal(size=(size, 2))[:, 0]
    assert _relu_mask(strided, values).tobytes() == np.where(values > 0.0, strided, 0.0).tobytes()


def test_first_gradient_is_written_into_the_grad_buffer():
    """A parameter's first gradient lands in its ``grad_buffer``, whatever
    the buffer held, with the bits it has without a buffer; a second use
    adds to it there."""
    rng = np.random.default_rng(83)
    x, w, b = _linear_params(rng, [2, 3])
    c = rng.normal(size=(5, 3))
    grads = {}
    for buffered in (True, False):
        for p in (w, b):
            p.zero_grad()
            p.grad_buffer = np.full_like(p.values, np.nan) if buffered else None
        with Tape() as tape:
            backward(tape, _weighted_sum(linear(x, w, b, members=[2, 3], relu=True), c))
        if buffered:
            assert w.grad is w.grad_buffer and b.grad is b.grad_buffer
        grads[buffered] = (w.grad.tobytes(), b.grad.tobytes())
    assert grads[True] == grads[False]
    b.zero_grad()
    b.grad_buffer = np.full_like(b.values, np.nan)
    with Tape() as tape:
        y = linear(x, w, b, members=[2, 3])
        backward(tape, reduce_sum(add(y, linear(x, w, b, members=[2, 3]))))
    assert b.grad is b.grad_buffer
    assert b.grad.tobytes() == (np.stack([np.full(3, 4.0), np.full(3, 6.0)])).tobytes()


# ---------------------------------------------------------------------------
# member blocks: parameters with a leading member axis, block m using slice m


MEMBER_LAYOUTS = (
    [[2, 3], [1], [3, 1, 2]],  # spans 3, 1, 3: members 0 and 2 share a padded layout
    [[2], [1, 2], [2, 2]],     # one span: every session in one layout
    [[2, 1], [], [3]],         # an empty block: no gradient reaches member 1
)


def _member_op(op, x, params, lengths, members=None, heads=1):
    if op == "linear":
        return linear(x, *params, members=members)
    if op == "layer_norm":
        return layer_norm(x, *params, members=members)
    return attention(x, *params, lengths, heads=heads, members=members)


def _member_params(rng, op, n_members, d=4):
    shapes = {"linear": [(d, 3), (3,)], "layer_norm": [(d,), (d,)],
              "attention": [(d, d)] * 3}[op]
    return [_param(rng, n_members, *shape) for shape in shapes]


@pytest.mark.parametrize("op, heads", [("linear", 1), ("layer_norm", 1),
                                       ("attention", 1), ("attention", 2)])
@pytest.mark.parametrize("layout", MEMBER_LAYOUTS)
def test_member_blocks_match_each_member_alone_and_finite_differences(op, heads, layout):
    rng = np.random.default_rng(61 + len(layout[0]))
    lengths = [n for member in layout for n in member]
    members = [sum(member) for member in layout]
    x = _param(rng, sum(lengths), 4)
    params = _member_params(rng, op, len(layout))
    c = rng.normal(size=_member_op(op, x, params, lengths, members, heads).shape)
    fn = lambda: _weighted_sum(_member_op(op, x, params, lengths, members, heads), c)
    assert grad_check(fn, [x, *params]) < FD_TOL

    for t in (x, *params):
        t.zero_grad()
    with Tape() as tape:
        out = fn()
        stacked = tape.nodes[0].out.values.copy()
        backward(tape, out)
    reached = np.array([n > 0 for n in members])
    for p in params:
        assert (p.grad_members is None) == reached.all()
        if p.grad_members is not None:
            assert np.array_equal(p.grad_members, reached)
    start = 0
    for m, member in enumerate(layout):
        rows = slice(start, start + sum(member))
        start = rows.stop
        if not member:
            continue
        xm = Tensor(x.values[rows], requires_grad=True)
        pm = [Tensor(p.values[m], requires_grad=True) for p in params]
        with Tape() as tape:
            alone = _weighted_sum(_member_op(op, xm, pm, member, heads=heads), c[rows])
            backward(tape, alone)
        assert np.max(np.abs(tape.nodes[0].out.values - stacked[rows]), initial=0.0) <= EXACT
        assert np.max(np.abs(xm.grad - x.grad[rows])) <= EXACT
        for p, q in zip(params, pm):
            assert np.max(np.abs(q.grad - p.grad[m])) <= EXACT


@pytest.mark.parametrize("op", ["cross_entropy", "segment_cross_entropy"])
def test_member_losses_are_one_sum_per_member(op):
    """Each member's loss and gradient equal its block's loss alone; a
    member whose targets are all zero gets no gradient."""
    rng = np.random.default_rng(71)
    members, lengths = [3, 4, 2], [1, 2, 4, 2]
    x = _param(rng, 9, 3 if op == "cross_entropy" else 1)
    target = rng.uniform(size=x.shape)
    target[7:] = 0.0

    with Tape() as tape:
        out = (cross_entropy(x, target, axis=1, members=members) if op == "cross_entropy"
               else segment_cross_entropy(x, target, lengths, members))
        backward(tape, out)
    assert out.shape == (3,)
    assert np.array_equal(x.grad_members, [True, True, False])
    for m, (r0, r1, seg) in enumerate(((0, 3, [1, 2]), (3, 7, [4]), (7, 9, [2]))):
        xm = Tensor(x.values[r0:r1], requires_grad=True)
        with Tape() as tape:
            alone = (cross_entropy(xm, target[r0:r1], axis=1) if op == "cross_entropy"
                     else segment_cross_entropy(xm, target[r0:r1], seg))
            backward(tape, alone)
        assert out.values[m] == alone.values
        assert np.array_equal(xm.grad, x.grad[r0:r1])
