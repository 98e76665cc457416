"""Gradient engine tests.

Every differentiable primitive is checked against central finite
differences (the independent oracle), plus hand-computed values for the
small cases and exactness properties that finite differences cannot see
(gradient reversal, masking, determinism).
"""

import math

import numpy as np
import pytest

from mdrank.autodiff import (
    ShapeError,
    Tape,
    Tensor,
    add,
    add_const,
    attention,
    backward,
    concat_cols,
    cross_entropy,
    grad_check,
    gradient_reversal,
    layer_norm,
    linear,
    matmul,
    mul_const,
    reduce_sum,
    relu,
    scale,
    slice_cols,
    softmax,
    transpose,
)

N_INSTANCES = 25  # random instances per primitive for the FD oracle
FD_TOL = 1e-4


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


def test_matmul_gradients_match_finite_differences():
    for i in range(N_INSTANCES):
        rng = np.random.default_rng(100 + i)
        a = _param(rng, 3, 4)
        b = _param(rng, 4, 2)
        w = rng.normal(size=(3, 2))
        assert grad_check(lambda: _weighted_sum(matmul(a, b), w), [a, b]) < FD_TOL


def test_add_and_constant_op_gradients():
    for i in range(N_INSTANCES):
        rng = np.random.default_rng(200 + i)
        a = _param(rng, 3, 4)
        b = _param(rng, 3, 4)

        shift = rng.normal(size=(3, 4))
        gate = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))

        def fn():
            y = add(a, b)
            y = add_const(y, shift)
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
        assert grad_check(lambda: _weighted_sum(softmax(x, axis=-1), w), [x]) < FD_TOL
        for axis in (0, 1):
            assert grad_check(lambda: cross_entropy(x, w, axis=axis), [x]) < FD_TOL


def test_softmax_axis_zero_gradients():
    rng = np.random.default_rng(55)
    x = _param(rng, 4, 3)
    w = rng.normal(size=(4, 3))
    assert grad_check(lambda: _weighted_sum(softmax(x, axis=0), w), [x]) < FD_TOL


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
        w = rng.normal(size=(4, 3))

        def fn():
            y = concat_cols(a, b)            # 3x6
            y = slice_cols(y, 1, 5)          # 3x4
            y = transpose(y)                 # 4x3
            return _weighted_sum(y, w)

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
            return _weighted_sum(attention(t, wq, wk, wv, heads=heads), c)

        assert grad_check(fn, [t, wq, wk, wv]) < FD_TOL


def test_attention_gradients_with_mask():
    for i in range(10):
        rng = np.random.default_rng(900 + i)
        t = _param(rng, 4, 4)
        wq = _param(rng, 4, 4)
        wk = _param(rng, 4, 4)
        wv = _param(rng, 4, 4)
        mask = [False, False, True, True]  # last two positions are padding
        c = rng.normal(size=(4, 4))

        def fn():
            return _weighted_sum(attention(t, wq, wk, wv, mask=mask), c)

        assert grad_check(fn, [t, wq, wk, wv]) < FD_TOL


# ---------------------------------------------------------------------------
# hand-computed values


def test_matmul_hand_values():
    ident = Tensor(np.eye(2))
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(matmul(ident, b).values, b.values)

    a = Tensor([[1.0, 2.0]])
    c = Tensor([[3.0], [4.0]])
    assert matmul(a, c).values.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError) as exc:
        matmul(a, b)
    assert "(2, 3)" in str(exc.value)


def test_relu_hand_values():
    out = relu(Tensor([[-1.0, 0.0, 2.0]]))
    assert out.values.tolist() == [[0.0, 0.0, 2.0]]


def test_softmax_hand_values():
    out = softmax(Tensor([[0.0, 0.0]]))
    assert np.allclose(out.values, [[0.5, 0.5]], atol=1e-15)

    out = softmax(Tensor([[math.log(1.0), math.log(3.0)]]))
    assert np.allclose(out.values, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = Tensor(rng.normal(scale=5.0, size=(4, 6)))
        out = softmax(x, axis=-1)
        assert np.all(out.values >= 0)
        assert np.allclose(out.values.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_invalid_axis_raises():
    with pytest.raises(ShapeError):
        softmax(Tensor(np.zeros((2, 2))), axis=5)


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


def _attention_loop_oracle(tokens, wq, wk, wv, mask, heads):
    """Brute-force attention with explicit python loops."""
    n, d = tokens.shape
    dh = d // heads
    q = tokens @ wq
    k = tokens @ wk
    v = tokens @ wv
    out = np.zeros((n, d))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        for i in range(n):
            weights = np.zeros(n)
            for j in range(n):
                if mask is not None and mask[j]:
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
        tokens = rng.normal(size=(3, 4))
        wq, wk, wv = (rng.normal(size=(4, 4)) for _ in range(3))
        mask = None if trial % 2 == 0 else [False, True, False]
        got = attention(Tensor(tokens), Tensor(wq), Tensor(wk), Tensor(wv),
                        mask=mask, heads=heads).values
        want = _attention_loop_oracle(tokens, wq, wk, wv, mask, heads)
        assert np.allclose(got, want, atol=1e-12)


def test_attention_single_token_equals_value_projection():
    rng = np.random.default_rng(5)
    tokens = rng.normal(size=(1, 4))
    wq, wk, wv = (Tensor(rng.normal(size=(4, 4))) for _ in range(3))
    out = attention(Tensor(tokens), wq, wk, wv)
    assert np.allclose(out.values, tokens @ wv.values, atol=1e-12)


def test_attention_identical_tokens_get_identical_outputs():
    rng = np.random.default_rng(6)
    row = rng.normal(size=4)
    tokens = Tensor(np.stack([row, row]))
    wq, wk, wv = (Tensor(rng.normal(size=(4, 4))) for _ in range(3))
    out = attention(tokens, wq, wk, wv).values
    assert np.allclose(out[0], out[1], atol=1e-12)


def test_attention_masked_positions_match_sublist():
    """Masked-out rows must not influence the attention of real rows."""
    rng = np.random.default_rng(8)
    tokens = rng.normal(size=(5, 4))
    wq, wk, wv = (rng.normal(size=(4, 4)) for _ in range(3))
    keep = [0, 2, 3]
    mask = [i not in keep for i in range(5)]

    full = attention(Tensor(tokens), Tensor(wq), Tensor(wk), Tensor(wv), mask=mask).values
    sub = attention(Tensor(tokens[keep]), Tensor(wq), Tensor(wk), Tensor(wv)).values
    assert np.allclose(full[keep], sub, atol=1e-12)


def test_attention_all_masked_raises():
    rng = np.random.default_rng(9)
    tokens = Tensor(rng.normal(size=(2, 4)))
    wq, wk, wv = (Tensor(rng.normal(size=(4, 4))) for _ in range(3))
    with pytest.raises(ValueError):
        attention(tokens, wq, wk, wv, mask=[True, True])


def test_attention_head_mismatch_raises():
    tokens = Tensor(np.zeros((2, 4)))
    w = Tensor(np.zeros((4, 4)))
    with pytest.raises(ShapeError):
        attention(tokens, w, w, w, heads=3)


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
            h = matmul(x, w)
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
            h = softmax(matmul(relu(x), w), axis=-1)
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
