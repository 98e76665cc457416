"""NDCG@k and per-domain evaluation against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdrank import evaluation
from mdrank.data import MAX_LIST_LENGTH, QuerySession
from mdrank.evaluation import (
    NonFiniteScoreError,
    evaluate,
    ndcg_at_k,
    ranked_indices,
    score_sessions,
)
from mdrank.models import build, forward
from tests.conftest import make_session, tiny_config


def _ndcg_oracle(scores, labels, k):
    """Exhaustive reference: explicit sort, explicit discounted sums."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    dcg = 0.0
    for rank, idx in enumerate(order[:k]):
        dcg += labels[idx] / math.log2(rank + 2)
    ideal = sorted(labels, reverse=True)
    idcg = 0.0
    for rank, gain in enumerate(ideal[:k]):
        idcg += gain / math.log2(rank + 2)
    if idcg == 0.0:
        return None
    return dcg / idcg


def test_perfect_ranking_scores_one():
    assert ndcg_at_k([3.0, 2.0, 1.0], [1.0, 0.0, 0.0], k=3) == 1.0


def test_positive_in_second_place_hand_value():
    got = ndcg_at_k([2.0, 1.0], [0.0, 1.0], k=2)
    assert abs(got - 1.0 / math.log2(3.0)) < 1e-15


def test_matches_brute_force_oracle_on_random_instances():
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        # integer scores force plenty of ties
        scores = rng.integers(0, 6, size=n).astype(float)
        labels = (rng.random(n) < 0.3).astype(float)
        k = int(rng.choice([1, 5, 16]))
        got = ndcg_at_k(scores, labels, k)
        want = _ndcg_oracle(list(scores), list(labels), k)
        if want is None:
            assert got is None
        else:
            assert abs(got - want) <= 1e-12
            assert 0.0 <= got <= 1.0
            checked += 1
    assert checked > 500


def test_ties_break_by_original_index():
    # equal scores leave items in input order: positive at index 1 lands rank 2
    got = ndcg_at_k([1.0, 1.0, 1.0], [0.0, 1.0, 0.0], k=3)
    assert abs(got - 1.0 / math.log2(3.0)) < 1e-15


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=40))
def test_ranked_indices_match_the_sorted_rule_on_ties(values):
    """Highest score first, equal scores (0.0 and -0.0 alike) by index."""
    s = np.array(values)
    assert ranked_indices(s).tolist() == sorted(range(s.size), key=lambda i: (-s[i], i))


def test_all_zero_labels_are_excluded():
    assert ndcg_at_k([1.0, 2.0], [0.0, 0.0], k=2) is None


def test_cutoff_beyond_list_length_is_fine():
    assert ndcg_at_k([2.0, 1.0], [1.0, 0.0], k=50) == 1.0


def test_invalid_k_rejected():
    with pytest.raises(ValueError):
        ndcg_at_k([1.0], [1.0], k=0)


def test_positive_outside_cutoff_scores_zero():
    scores = [5.0, 4.0, 3.0, 2.0, 1.0]
    labels = [0.0, 0.0, 0.0, 0.0, 1.0]
    assert ndcg_at_k(scores, labels, k=2) == 0.0


def test_invariant_under_monotone_score_transforms():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 20))
        scores = rng.normal(size=n)
        labels = (rng.random(n) < 0.4).astype(float)
        labels[int(rng.integers(n))] = 1.0
        base = ndcg_at_k(scores, labels, k=8)
        assert ndcg_at_k(3.0 * scores + 11.0, labels, k=8) == base
        assert ndcg_at_k(np.exp(scores), labels, k=8) == base


def test_single_positive_closed_form():
    # one positive at rank r (within k): NDCG = 1 / log2(r + 1)
    n = 10
    scores = np.arange(n, 0, -1, dtype=float)
    for r in range(1, n + 1):
        labels = np.zeros(n)
        labels[r - 1] = 1.0
        got = ndcg_at_k(scores, labels, k=n)
        assert abs(got - 1.0 / math.log2(r + 1)) < 1e-15


# ---------------------------------------------------------------------------
# dataset-level evaluation


def _label_scorer(session):
    return session.labels()


def test_oracle_scorer_reaches_one_everywhere(rng):
    sessions = [
        make_session(rng, int(rng.integers(2, 9)), 4, domain=int(rng.integers(2)), query_id=f"q{i}")
        for i in range(40)
    ]
    summary = evaluate(_label_scorer, sessions, k=16)
    assert summary.per_domain[0] == 1.0
    assert summary.per_domain[1] == 1.0
    assert summary.overall == 1.0


def test_evaluate_matches_per_session_averaging(rng):
    sessions = [
        make_session(rng, int(rng.integers(2, 12)), 4, domain=int(rng.integers(2)), query_id=f"q{i}")
        for i in range(60)
    ]

    def scorer(session):
        local = np.random.default_rng(abs(hash(session.query_id)) % 2**32)
        return local.normal(size=session.grades.size)

    summary = evaluate(scorer, sessions, k=5)
    by_domain = {0: [], 1: []}
    for s in sessions:
        v = ndcg_at_k(scorer(s), s.labels(), 5)
        if v is not None:
            by_domain[s.domain].append(v)
    for d in (0, 1):
        assert abs(summary.per_domain[d] - np.mean(by_domain[d])) < 1e-12
        assert summary.per_domain_sessions[d] == len(by_domain[d])
    total = by_domain[0] + by_domain[1]
    assert abs(summary.overall - np.mean(total)) < 1e-12
    assert summary.sessions_evaluated == len(total)


def test_evaluate_is_shuffle_invariant(rng):
    sessions = [
        make_session(rng, 5, 4, domain=int(rng.integers(2)), query_id=f"q{i}") for i in range(30)
    ]
    shuffled = [sessions[i] for i in rng.permutation(len(sessions))]
    a = evaluate(_label_scorer, sessions, k=4)
    b = evaluate(_label_scorer, shuffled, k=4)
    assert a.per_domain == b.per_domain
    assert abs(a.overall - b.overall) < 1e-12


def test_evaluate_omits_empty_domains(rng):
    sessions = [make_session(rng, 4, 4, domain=0, query_id=f"q{i}") for i in range(5)]
    summary = evaluate(_label_scorer, sessions, k=4)
    assert 1 not in summary.per_domain
    assert set(summary.per_domain) == {0}


def test_evaluate_excludes_unlabeled_sessions(rng):
    labeled = make_session(rng, 4, 4, domain=0)
    blank = QuerySession("z", 0, 0, [np.zeros(4), np.ones(4)], [0.0, 0.0])
    summary = evaluate(_label_scorer, [labeled, blank], k=4)
    assert summary.per_domain_sessions[0] == 1
    assert summary.sessions_evaluated == 1


def test_antioracle_scorer_closed_form(rng):
    """Scoring by negated labels pushes the single positive to the bottom."""
    n = 6
    session = QuerySession("q", 0, 0, np.zeros((n, 2)), np.eye(n)[0])

    def anti(s):
        return -s.labels()

    # positive ends at rank n via index tie-breaks among the zeros
    within = evaluate(anti, [session], k=n)
    assert abs(within.per_domain[0] - 1.0 / math.log2(n + 1)) < 1e-15
    outside = evaluate(anti, [session], k=n - 1)
    assert outside.per_domain[0] == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_scores_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        ndcg_at_k([1.0, bad, 0.5], [0.0, 1.0, 0.0], k=3)
    with pytest.raises(ValueError, match="finite"):
        ndcg_at_k([bad, 0.5], [0.0, 0.0], k=2)


# ---------------------------------------------------------------------------
# batched scoring


def test_long_sessions_are_scored_in_chunks_within_the_cell_cap(rng, monkeypatch):
    model = build(tiny_config("multihead"), seed=2)
    lengths = [*rng.integers(100, MAX_LIST_LENGTH + 1, size=8), MAX_LIST_LENGTH, 5, 3, 5, 1]
    sessions = [make_session(rng, int(n), 5, domain=i % 2, query_id=f"q{i}")
                for i, n in enumerate(lengths)]
    chunks = []
    real = evaluation.forward

    def spy(model, batch, **kwargs):
        chunks.append([s.grades.size for s in batch])
        return real(model, batch, **kwargs)

    monkeypatch.setattr(evaluation, "forward", spy)
    scores = score_sessions(model, sessions)
    monkeypatch.undo()
    assert sorted(n for chunk in chunks for n in chunk) == sorted(lengths)
    assert all(len(c) * max(c) ** 2 <= evaluation._ATTENTION_CELLS for c in chunks)
    assert [1, 3, 5, 5] in [c[:4] for c in chunks]  # short sessions share one pass
    assert len(chunks) < len(sessions)
    for session, got in zip(sessions, scores):
        want = forward(model, [session]).session_scores()[0]
        assert np.max(np.abs(got - want)) <= 1e-9


def test_model_and_scorer_give_the_same_summary(rng):
    model = build(tiny_config("domain_specialist"), seed=3)
    sessions = [make_session(rng, int(rng.integers(1, 12)), 5, domain=i % 2, query_id=f"q{i}")
                for i in range(30)]
    batched = evaluate(model, sessions, k=5)
    single = evaluate(lambda s: forward(model, [s]).session_scores()[0], sessions, k=5)
    assert batched.per_domain_sessions == single.per_domain_sessions
    for d, value in single.per_domain.items():
        assert abs(batched.per_domain[d] - value) <= 1e-12


def test_model_with_nan_weights_raises_non_finite(rng):
    model = build(tiny_config(), seed=3)
    model.parameters["final.1.b"].values[:] = np.nan
    with pytest.raises(NonFiniteScoreError):
        evaluate(model, [make_session(rng, 4, 5)], k=4)
