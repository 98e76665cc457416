"""The batched model path: one forward pass over a whole batch of sessions
must give every session what it gets alone, and one batch loss must equal
the mean of single-session losses, gradients included."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from mdrank.autodiff import Tape, backward
from mdrank.losses import batch_loss
from mdrank.models import build, forward
from tests.conftest import make_session, tiny_config

VARIANTS = ("baseline", "multihead", "domain_adversarial", "domain_specialist")
TOL = 1e-9

batches = st.lists(
    st.tuples(st.integers(1, 7), st.integers(0, 2)), min_size=1, max_size=5
)


def _model_and_batch(variant, heads, shape, seed):
    model = build(tiny_config(variant, n_domains=3, heads=heads), seed=seed % 5)
    rng = np.random.default_rng(seed)
    batch = [make_session(rng, n, feature_dim=5, domain=d, query_id=f"q{i}")
             for i, (n, d) in enumerate(shape)]
    return model, batch


@settings(max_examples=40, deadline=None)
@given(variant=st.sampled_from(VARIANTS), heads=st.sampled_from([1, 2]), shape=batches,
       seed=st.integers(0, 10_000), data=st.data())
def test_session_scores_do_not_depend_on_batch_composition_or_order(
    variant, heads, shape, seed, data
):
    model, batch = _model_and_batch(variant, heads, shape, seed)
    alone = [forward(model, [s]).session_scores()[0] for s in batch]
    together = forward(model, batch).session_scores()
    order = data.draw(st.permutations(range(len(batch))))
    shuffled = forward(model, [batch[i] for i in order]).session_scores()
    for i, want in enumerate(alone):
        assert np.max(np.abs(together[i] - want)) <= TOL
        assert np.max(np.abs(shuffled[order.index(i)] - want)) <= TOL


@settings(max_examples=40, deadline=None)
@given(variant=st.sampled_from(VARIANTS), heads=st.sampled_from([1, 2]), shape=batches,
       seed=st.integers(0, 10_000), data=st.data())
def test_scores_are_permutation_equivariant_within_a_session(variant, heads, shape, seed, data):
    model, batch = _model_and_batch(variant, heads, shape, seed)
    target = data.draw(st.integers(0, len(batch) - 1))
    session = batch[target]
    perm = list(data.draw(st.permutations(range(session.grades.size))))
    moved = list(batch)
    moved[target] = replace(session, features=session.features[perm],
                            grades=session.grades[perm])
    base = forward(model, batch).session_scores()[target]
    got = forward(model, moved).session_scores()[target]
    assert np.max(np.abs(got - base[perm])) <= TOL


def _loss_and_grads(model, sessions):
    model.zero_grad()
    with Tape() as tape:
        breakdown, loss = batch_loss(model, sessions)
        backward(tape, loss)
    grads = {name: np.zeros_like(p.values) if p.grad is None else p.grad.copy()
             for name, p in model.parameters.items()}
    return breakdown, grads


@settings(max_examples=30, deadline=None)
@given(variant=st.sampled_from(VARIANTS), heads=st.sampled_from([1, 2]), shape=batches,
       seed=st.integers(0, 10_000))
def test_batch_loss_and_gradients_are_the_mean_over_single_sessions(variant, heads, shape, seed):
    model, batch = _model_and_batch(variant, heads, shape, seed)
    whole, grads = _loss_and_grads(model, batch)
    singles = [_loss_and_grads(model, [s]) for s in batch]
    assert abs(whole.total - np.mean([b.total for b, _ in singles])) <= TOL
    assert abs(whole.ranking_loss - np.mean([b.ranking_loss for b, _ in singles])) <= TOL
    if model.config.variant.has_classifier:
        assert abs(whole.domain_loss - np.mean([b.domain_loss for b, _ in singles])) <= TOL
    for name, g in grads.items():
        mean = np.mean([single[name] for _, single in singles], axis=0)
        assert np.max(np.abs(g - mean)) <= TOL, name
