"""NDCG@k and per-domain evaluation against brute-force oracles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdrank import evaluation
from mdrank.data import MAX_LIST_LENGTH, QuerySession
from mdrank.evaluation import (
    NonFiniteScoreError,
    as_scorer,
    evaluate,
    ndcg_at_k,
    ranked_indices,
    score_sessions,
)
from mdrank.models import Model, build, forward, stack
from tests.conftest import make_session, tiny_config


def _ndcg_oracle(scores, labels, k):
    """The textbook loop: rank by score descending with ties by index, add
    each discounted gain rank by rank from 0.0, the same for the ideal
    order, and divide in float64 (so signed grades with IDCG 0 give inf or
    NaN).  None iff no label is non-zero."""
    s = np.asarray(scores, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.float64)
    if not lab.any():
        return None
    depth = min(k, s.size)
    order = sorted(range(s.size), key=lambda i: (-s[i], i))
    dcg = 0.0
    for rank in range(depth):
        dcg += lab[order[rank]] / math.log2(rank + 2)
    ideal = np.sort(lab)[::-1]
    idcg = 0.0
    for rank in range(depth):
        idcg += ideal[rank] / math.log2(rank + 2)
    return float(np.float64(dcg) / idcg)


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
        assert got == want
        if want is not None:
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
    real = evaluation._score_members

    def spy(model, batch):
        chunks.append([s.grades.size for s in batch])
        return real(model, batch)

    monkeypatch.setattr(evaluation, "_score_members", spy)
    scores = score_sessions(model, sessions)
    monkeypatch.undo()
    assert sorted(n for chunk in chunks for n in chunk) == sorted(lengths)
    assert all(len(c) * max(c) ** 2 <= evaluation._ATTENTION_CELLS for c in chunks)
    assert [1, 3, 5, 5] in [c[:4] for c in chunks]  # short sessions share one pass
    assert len(chunks) < len(sessions)
    for session, got in zip(sessions, scores):
        want = forward(model, [session]).session_scores()[0]
        assert np.max(np.abs(got - want)) <= 1e-9


def test_a_lone_model_scores_without_building_a_scored_batch(rng, monkeypatch):
    """``evaluate`` and ``score_sessions`` of a lone model score through
    ``models._score_members``, whose scores are plain arrays: no
    ``ScoredBatch`` is built on the way."""
    model = build(tiny_config("multihead"), seed=2)
    sessions = [make_session(rng, n, 5, domain=n % 2, query_id=f"q{n}") for n in (2, 7, 3, 11)]
    summary = evaluate(model, sessions, k=5)
    scores = score_sessions(model, sessions)

    def refuse(*args, **kwargs):
        raise AssertionError("a ScoredBatch was built")

    monkeypatch.setattr("mdrank.models.ScoredBatch", refuse)
    assert evaluate(model, sessions, k=5) == summary
    got = score_sessions(model, sessions)
    assert [g.tobytes() for g in got] == [s.tobytes() for s in scores]


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


def test_a_stack_scores_without_copying_its_members(rng, monkeypatch):
    """``evaluate`` of a stack never builds ``member(m)``, and gives each
    member the summary of that member evaluated alone."""
    model = stack([build(tiny_config("multihead"), seed=s) for s in (1, 2, 3)])
    sessions = [make_session(rng, n, 5, domain=n % 2, query_id=f"q{n}") for n in (2, 7, 3, 11)]
    alone = [evaluate(model.member(m), sessions, k=5) for m in range(3)]
    calls = []
    monkeypatch.setattr(Model, "member", lambda self, m: calls.append(m))
    assert evaluate(model, sessions, k=5) == alone
    assert calls == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_score_names_its_member(rng):
    models = [build(tiny_config(), seed=s) for s in (1, 2, 3)]
    models[1].parameters["final.1.b"].values[:] = np.nan
    with pytest.raises(NonFiniteScoreError, match="scores must be finite") as caught:
        evaluate(stack(models), [make_session(rng, 4, 5), make_session(rng, 9, 5)], k=4)
    assert caught.value.member == 1


def test_as_scorer_is_the_batched_scoring_path_on_one_session(rng):
    model = build(tiny_config("domain_specialist"), seed=4)
    sessions = [make_session(rng, n, 5, domain=n % 2, query_id=f"q{n}") for n in (1, 3, 9)]
    scorer = as_scorer(model)
    for session in sessions:
        got = scorer(session)
        assert got.tobytes() == score_sessions(model, [session])[0].tobytes()
        want = forward(model, [session]).session_scores()[0]
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="a stack of 2 members"):
        as_scorer(stack([model, build(tiny_config("domain_specialist"), seed=5)]))
    model.parameters["final.1.b"].values[:] = np.nan
    with pytest.raises(NonFiniteScoreError):
        scorer(sessions[0])


def test_as_scorer_checks_a_callables_scores(rng):
    session = make_session(rng, 3, 5, query_id="q3")
    assert as_scorer(lambda s: [0.5, -1.0, 2.0])(session).tobytes() == \
        np.array([0.5, -1.0, 2.0]).tobytes()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteScoreError, match="'q3': scores must be finite") as caught:
            as_scorer(lambda s: np.full(3, bad))(session)
        assert caught.value.member == 0
    for shape in ((5,), (), (3, 1)):
        with pytest.raises(ValueError, match=rf"'q3': scores of shape {re.escape(str(shape))} "
                                             r"for 3 labels"):
            as_scorer(lambda s: np.zeros(shape))(session)


# ---------------------------------------------------------------------------
# batched NDCG against the loop oracle

_TIED_SCORES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
                         st.floats(-1e6, 1e6, allow_nan=False))
_GRADES = st.sampled_from([0.0, -0.0, 0.0, 1.0, 2.0, 0.5, 3.0])
# ndcg_at_k takes any finite grade; data files hold non-negative ones
_SIGNED_GRADES = st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, 3.0])


@st.composite
def _scored_sessions(draw, equal_lengths=False, grade=_GRADES):
    """Sessions with tied (0.0 against -0.0 too) and all-zero-label rows,
    single items, ragged or equal lengths, each with its own scores."""
    count = draw(st.integers(1, 8))
    fixed = draw(st.integers(1, 24))
    sessions, scores = [], {}
    for i in range(count):
        n = fixed if equal_lengths else draw(st.integers(1, 24))
        grades = draw(st.one_of(st.lists(grade, min_size=n, max_size=n),
                                st.just([0.0] * n)))
        qid = f"q{i}"
        scores[qid] = np.array(draw(st.lists(_TIED_SCORES, min_size=n, max_size=n)))
        sessions.append(QuerySession(qid, draw(st.integers(0, 2)), 0, np.zeros((n, 1)), grades))
    return sessions, scores


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # signed grades can make IDCG 0
@settings(max_examples=300, deadline=None)
@given(st.builds(dict, equal_lengths=st.booleans(), grade=st.sampled_from([_GRADES, _SIGNED_GRADES]))
       .flatmap(lambda kw: _scored_sessions(**kw)), st.integers(1, 30))
def test_batched_evaluate_equals_the_mean_of_ndcg_at_k_exactly(case, k):
    """Against the loop oracle, per session for ``ndcg_at_k`` and
    ``_ndcg_rows`` and per domain for ``evaluate``.  Equality is by repr,
    which tells every float apart (0.0 from -0.0 too) and matches NaN to
    NaN."""
    sessions, scores = case

    def scorer(session):
        return scores[session.query_id]

    summary = evaluate(scorer, sessions, k)
    want = [_ndcg_oracle(scores[s.query_id], s.labels(), k) for s in sessions]
    assert repr([ndcg_at_k(scores[s.query_id], s.labels(), k) for s in sessions]) == repr(want)
    sums, counts = {}, {}
    for s, value in zip(sessions, want):
        if value is not None:
            sums[s.domain] = sums.get(s.domain, 0.0) + value
            counts[s.domain] = counts.get(s.domain, 0) + 1
    assert repr(summary.per_domain) == repr({d: sums[d] / counts[d] for d in sorted(sums)})
    assert summary.per_domain_sessions == {d: counts[d] for d in sorted(counts)}
    total = sum(counts.values())
    assert summary.sessions_evaluated == total
    assert repr(summary.overall) == repr(sum(sums.values()) / total if total else None)
    # per session, where evaluate's sums would hide -0.0
    values, evaluable = evaluation._ndcg_rows([scores[s.query_id] for s in sessions],
                                              [s.labels() for s in sessions], k)
    assert evaluable.tolist() == [w is not None for w in want]
    assert repr(values.tolist()) == repr([w for w in want if w is not None])


@settings(max_examples=200, deadline=None)
@given(_scored_sessions(), st.integers(1, 30))
def test_ndcg_lies_in_the_unit_interval(case, k):
    sessions, scores = case
    for s in sessions:
        value = ndcg_at_k(scores[s.query_id], s.labels(), k)
        assert value is None or 0.0 <= value <= 1.0
    summary = evaluate(lambda s: scores[s.query_id], sessions, k)
    assert all(0.0 <= v <= 1.0 for v in summary.per_domain.values())


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 24), st.integers(1, 30))
def test_ndcg_is_invariant_when_distinctly_scored_items_are_permuted(data, n, k):
    # unique=True also keeps 0.0 and -0.0, which tie, out of one list
    scores = np.array(data.draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                                         min_size=n, max_size=n, unique=True)))
    grades = np.array(data.draw(st.lists(_GRADES, min_size=n, max_size=n)))
    perm = np.array(data.draw(st.permutations(range(n))))
    before = ndcg_at_k(scores, grades, k)
    after = ndcg_at_k(scores[perm], grades[perm], k)
    assert before == after
    session = QuerySession("q", 0, 0, np.zeros((n, 1)), grades[perm])
    batched = evaluate(lambda s: scores[perm], [session], k)
    assert batched.overall == before


def test_evaluate_checks_k_and_score_shapes(rng):
    session = make_session(rng, 4, 4)
    with pytest.raises(ValueError, match="k must be >= 1"):
        evaluate(_label_scorer, [session], k=0)
    with pytest.raises(ValueError, match="scores of shape"):
        evaluate(lambda s: np.zeros(3), [session], k=4)
