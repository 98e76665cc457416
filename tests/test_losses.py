"""Loss definitions and the gradient structure they induce per variant."""

import math

import numpy as np
import pytest

from mdrank.autodiff import Tape, Tensor, backward, grad_check, scale
from mdrank.data import QuerySession
from mdrank.losses import batch_loss, domain_loss, listwise_loss
from mdrank.models import build, forward, stack
from tests.conftest import make_session, tiny_config

SHARED_PREFIXES = ("trunk.", "score.", "token.", "transformer.")


def _session_with_labels(labels, feature_dim=5, domain=0, seed=0):
    rng = np.random.default_rng(seed)
    return QuerySession("q", domain, 0, rng.normal(size=(len(labels), feature_dim)), labels)


# ---------------------------------------------------------------------------
# listwise ranking loss


def test_listwise_loss_hand_values():
    # four tied scores, one positive: -log(1/4)
    loss = listwise_loss([0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
    assert abs(loss.item() - math.log(4.0)) < 1e-12

    # uniform target against uniform prediction: ln 2
    loss = listwise_loss([0.0, 0.0], [1.0, 1.0])
    assert abs(loss.item() - math.log(2.0)) < 1e-12


def test_listwise_loss_vanishes_for_confident_correct_ranking():
    loss = listwise_loss([40.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert loss.item() < 1e-12


def test_listwise_loss_shift_invariance():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=6)
    labels = [0, 1, 0, 1, 0, 0]
    a = listwise_loss(scores, labels).item()
    b = listwise_loss(scores + 123.456, labels).item()
    assert abs(a - b) < 1e-9


def test_listwise_loss_permutation_invariance():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=7)
    labels = (rng.random(7) < 0.4).astype(float)
    labels[0] = 1.0
    perm = rng.permutation(7)
    a = listwise_loss(scores, labels).item()
    b = listwise_loss(scores[perm], labels[perm]).item()
    # summation order shifts the last ulp, nothing more
    assert abs(a - b) < 1e-12


def test_listwise_loss_skips_all_zero_labels():
    assert listwise_loss([1.0, 2.0], [0.0, 0.0]) is None


def test_listwise_loss_rejects_bad_labels():
    with pytest.raises(ValueError):
        listwise_loss([1.0, 2.0], [1.0, -0.5])
    with pytest.raises(ValueError):
        listwise_loss([1.0], [1.0, 0.0])


def test_listwise_loss_is_differentiable():
    rng = np.random.default_rng(3)
    scores = Tensor(rng.normal(size=(5, 1)), requires_grad=True)
    labels = [1.0, 0.0, 1.0, 0.0, 0.0]
    assert grad_check(lambda: listwise_loss(scores, labels), [scores]) < 1e-4


@pytest.mark.parametrize("shape", [(6,), (6, 1)])
def test_listwise_loss_gradient_is_softmax_minus_target(shape):
    """ListNet's closed form: d/ds of g * CE(softmax(s), y/sum(y)) is
    g * (softmax(s) - y/sum(y))."""
    rng = np.random.default_rng(5)
    s = rng.normal(size=shape)
    labels = np.array([2.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    g = -1.7
    scores = Tensor(s, requires_grad=True)
    with Tape() as tape:
        loss = scale(listwise_loss(scores, labels), g)
        backward(tape, loss)
    flat = s.reshape(-1)
    softmax = np.exp(flat - flat.max()) / np.exp(flat - flat.max()).sum()
    want = g * (softmax - labels / labels.sum())
    assert scores.grad.shape == shape
    assert np.max(np.abs(scores.grad.reshape(-1) - want)) < 1e-12


# ---------------------------------------------------------------------------
# domain classification loss


def test_domain_loss_uniform_logits():
    logits = Tensor(np.zeros((3, 2)))
    assert abs(domain_loss(logits, 0).item() - math.log(2.0)) < 1e-12


def test_domain_loss_confident_correct():
    logits = Tensor(np.array([[30.0, 0.0], [30.0, 0.0]]))
    assert domain_loss(logits, 0).item() < 1e-12


def test_domain_loss_matches_loop_oracle():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(3, 2))
    for dom in (0, 1):
        got = domain_loss(Tensor(logits), dom).item()
        want = 0.0
        for row in logits:
            z = [math.exp(v - max(row)) for v in row]
            want += -math.log(z[dom] / sum(z))
        want /= len(logits)
        assert abs(got - want) < 1e-12


def test_domain_loss_rejects_out_of_range_domain():
    logits = Tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        domain_loss(logits, 2)
    with pytest.raises(ValueError):
        domain_loss(logits, -1)


# ---------------------------------------------------------------------------
# combined objective per variant


def test_baseline_breakdown_has_no_domain_loss(rng):
    model = build(tiny_config(), seed=1)
    session = make_session(rng, 6, feature_dim=5)
    breakdown, total = batch_loss(model, [session])
    assert breakdown.domain_loss is None
    assert breakdown.total == breakdown.ranking_loss
    assert breakdown.sessions_used == 1


def test_classifier_breakdown_combines_both_terms(rng):
    model = build(tiny_config("domain_specialist", domain_loss_weight=0.7), seed=1)
    session = make_session(rng, 6, feature_dim=5, domain=1)
    breakdown, total = batch_loss(model, [session])
    assert breakdown.domain_loss is not None
    assert abs(breakdown.total - (breakdown.ranking_loss + 0.7 * breakdown.domain_loss)) < 1e-12


def test_adversarial_and_specialist_loss_values_match(rng):
    """Loss values are forward quantities; the reversal changes neither."""
    adv = build(tiny_config("domain_adversarial"), seed=6)
    dds = build(tiny_config("domain_specialist"), seed=6)
    session = make_session(rng, 5, feature_dim=5, domain=1)
    ba, _ = batch_loss(adv, [session])
    bs, _ = batch_loss(dds, [session])
    assert ba.ranking_loss == bs.ranking_loss
    assert ba.domain_loss == bs.domain_loss
    assert ba.total == bs.total


def _grads(model, session, which):
    """Gradient of one loss term w.r.t. every parameter, as a dict."""
    model.zero_grad()
    with Tape() as tape:
        scored = forward(model, [session])
        if which == "ranking":
            loss = listwise_loss(scored.scores, session.labels())
        elif which == "domain":
            loss = domain_loss(scored.domain_logits, session.domain)
        else:
            _, loss = batch_loss(model, [session])
        backward(tape, loss)
    return {
        name: (None if t.grad is None else t.grad.copy())
        for name, t in model.parameters.items()
    }


def test_reversal_negates_domain_gradients_on_shared_layers(rng):
    adv = build(tiny_config("domain_adversarial", grl_lambda=1.0), seed=8)
    dds = build(tiny_config("domain_specialist"), seed=8)
    session = make_session(rng, 6, feature_dim=5, domain=1)

    ga = _grads(adv, session, "domain")
    gs = _grads(dds, session, "domain")
    # only the trunk feeds the classifier; downstream ranking layers see nothing
    trunk = [n for n in ga if n.startswith("trunk.")]
    assert trunk
    for name in trunk:
        assert ga[name] is not None and gs[name] is not None
        assert np.max(np.abs(ga[name] + gs[name])) <= 1e-12, name
    for name in ga:
        if name.startswith(("score.", "token.", "transformer.", "final.")):
            assert ga[name] is None and gs[name] is None, name
    # classifier sits below the reversal point: same gradients on both
    for name in ga:
        if name.startswith("classifier."):
            assert np.array_equal(ga[name], gs[name]), name


def test_ranking_gradients_identical_with_and_without_reversal(rng):
    adv = build(tiny_config("domain_adversarial"), seed=8)
    dds = build(tiny_config("domain_specialist"), seed=8)
    session = make_session(rng, 6, feature_dim=5, domain=0)
    ga = _grads(adv, session, "ranking")
    gs = _grads(dds, session, "ranking")
    for name in ga:
        if name.startswith("classifier."):
            continue
        assert np.array_equal(ga[name], gs[name]), name


def test_combined_gradient_difference_is_twice_weighted_domain_term(rng):
    w = 0.7
    adv = build(tiny_config("domain_adversarial", domain_loss_weight=w, grl_lambda=1.0), seed=12)
    dds = build(tiny_config("domain_specialist", domain_loss_weight=w), seed=12)
    session = make_session(rng, 7, feature_dim=5, domain=1)

    g_adv = _grads(adv, session, "combined")
    g_dds = _grads(dds, session, "combined")
    g_dom = _grads(dds, session, "domain")  # no reversal on this side

    for name in g_adv:
        if not name.startswith(SHARED_PREFIXES):
            continue
        diff = g_adv[name] - g_dds[name]
        dom = g_dom[name] if g_dom[name] is not None else np.zeros_like(diff)
        assert np.max(np.abs(diff + 2.0 * w * dom)) < 1e-9, name


def test_specialist_with_zero_weight_matches_baseline_gradients(rng):
    """With the domain term weighted to zero, shared layers see exactly the
    gradients the plain model would."""
    base = build(tiny_config("baseline"), seed=13)
    dds = build(tiny_config("domain_specialist", domain_loss_weight=0.0), seed=13)
    session = make_session(rng, 6, feature_dim=5, domain=0)

    gb = _grads(base, session, "combined")
    gs = _grads(dds, session, "combined")
    for name in gb:
        if name.startswith("final."):
            continue  # same values, checked below
        assert np.array_equal(gb[name], gs[name]), name
    assert np.array_equal(gb["final.0.w"], gs["final.0.w"])


def test_multihead_off_domain_heads_get_exactly_zero_gradient(rng):
    model = build(tiny_config("multihead"), seed=14)
    sessions = [make_session(rng, 5, feature_dim=5, domain=0, query_id=f"q{i}") for i in range(3)]

    model.zero_grad()
    with Tape() as tape:
        breakdown, total = batch_loss(model, sessions)
        backward(tape, total)

    touched = untouched = 0
    for name, t in model.parameters.items():
        if name.startswith("head.1."):
            assert t.grad is None or not np.any(t.grad), name
            untouched += 1
        elif name.startswith("head.0."):
            assert t.grad is not None and np.any(t.grad), name
            touched += 1
    assert touched and untouched


# ---------------------------------------------------------------------------
# batch reduction


@pytest.mark.parametrize(
    "variant", ["baseline", "multihead", "domain_adversarial", "domain_specialist"]
)
def test_batch_tape_records_one_node_per_loss_term(rng, variant):
    model = build(tiny_config(variant), seed=3)
    batch = [make_session(rng, 5, feature_dim=5, domain=i % 2, query_id=f"q{i}")
             for i in range(4)]
    with Tape() as tape:
        batch_loss(model, batch)
    ops = [node.op for node in tape.nodes]
    assert not {"reshape", "log_softmax", "mul_const"} & set(ops)
    assert ops.count("segment_cross_entropy") == 1
    assert ops.count("cross_entropy") == (1 if model.config.variant.has_classifier else 0)


@pytest.mark.parametrize(
    "variant", ["baseline", "multihead", "domain_adversarial", "domain_specialist"]
)
def test_lone_model_losses_run_on_one_block(rng, variant):
    """A lone model's loss ops get no member blocks, like every op of its
    forward pass: each loss is a scalar, equal bit for bit to the loss of
    each member of a stack of the same model."""
    model = build(tiny_config(variant), seed=4)
    batch = [make_session(rng, 5, feature_dim=5, domain=i % 2, query_id=f"q{i}")
             for i in range(4)]
    with Tape() as tape:
        breakdown, loss = batch_loss(model, batch)
    assert loss.shape == ()
    assert all(node.out.shape == () for node in tape.nodes if "cross_entropy" in node.op)
    breakdowns, stacked = batch_loss(stack([model, model.copy()]), batch + batch, [4, 4])
    assert stacked.shape == (2,)
    assert stacked.values.tobytes() == np.repeat(loss.values, 2).tobytes()
    assert breakdowns == [breakdown, breakdown]


def test_batch_loss_averages_over_contributing_sessions(rng):
    model = build(tiny_config(), seed=15)
    sessions = [make_session(rng, 4, feature_dim=5, query_id=f"q{i}") for i in range(4)]
    singles = [batch_loss(model, [s])[0].ranking_loss for s in sessions]
    breakdown, total = batch_loss(model, sessions)
    assert abs(breakdown.ranking_loss - np.mean(singles)) < 1e-12
    assert breakdown.sessions_used == 4


def test_batch_loss_skips_unlabeled_sessions_for_ranking_only(rng):
    model = build(tiny_config("domain_specialist"), seed=16)
    good = make_session(rng, 4, feature_dim=5, domain=0)
    blank = _session_with_labels([0.0, 0.0, 0.0], domain=1)
    breakdown, total = batch_loss(model, [good, blank])
    # ranking ignores the unlabeled session, domain term still sees it
    assert breakdown.sessions_used == 1
    solo, _ = batch_loss(model, [good])
    assert abs(breakdown.ranking_loss - solo.ranking_loss) < 1e-12
    assert breakdown.domain_loss is not None
    two_dom = 0.5 * (
        batch_loss(model, [good])[0].domain_loss + batch_loss(model, [blank])[0].domain_loss
    )
    assert abs(breakdown.domain_loss - two_dom) < 1e-12


def test_batch_loss_with_no_labeled_sessions_gives_no_tensor():
    model = build(tiny_config(), seed=17)
    blank = _session_with_labels([0.0, 0.0])
    breakdown, total = batch_loss(model, [blank])
    assert total is None
    assert breakdown.sessions_used == 0
