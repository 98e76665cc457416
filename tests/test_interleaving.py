"""Team-draft interleaving, user simulation, and the sign test."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdrank.data import QuerySession
from mdrank.evaluation import NonFiniteScoreError
from mdrank.interleaving import (
    InterleavedList,
    UserModel,
    run_interleaving,
    sign_test_p,
    simulate_session,
    team_draft,
)
from mdrank.models import build
from tests.conftest import tiny_config


def _sessions(rng, n, n_items=6, feature_dim=3):
    out = []
    for i in range(n):
        feats = rng.normal(size=(n_items, feature_dim))
        labels = np.zeros(n_items)
        labels[rng.integers(n_items)] = 1.0
        out.append(QuerySession(f"q{i}", 0, 0, feats, labels))
    return out


# ---------------------------------------------------------------------------
# drafting


def _coins(seed, k):
    """``k`` fair coin outcomes from ``seed``, enough for a draft of ``k`` picks."""
    return np.random.default_rng(seed).integers(0, 2, size=k).astype(bool)


def test_team_draft_hand_trace():
    # coin says A first: A drafts 1, then B (fewer picks) drafts its best
    # remaining, which is 2
    page = team_draft([1, 2], [2, 1], k=2, coins=[True])
    assert page.items == [1, 2]
    assert page.team_of == ["A", "B"]

    page = team_draft([1, 2], [2, 1], k=2, coins=[False])
    assert page.items == [2, 1]
    assert page.team_of == ["B", "A"]


def test_team_draft_identical_rankings_echo_the_ranking():
    rank = [4, 2, 7, 1]
    for seed in range(5):
        page = team_draft(rank, rank, k=4, coins=_coins(seed, 4))
        assert page.items == rank
        counts = {t: page.team_of.count(t) for t in "AB"}
        assert counts["A"] == counts["B"] == 2


def test_team_draft_requires_matching_item_sets():
    with pytest.raises(ValueError):
        team_draft([1, 2], [1, 3], k=2, coins=_coins(0, 2))
    with pytest.raises(ValueError):
        team_draft([1, 2], [1], k=2, coins=_coins(0, 2))


def test_team_draft_never_duplicates_and_stays_balanced():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        items = list(rng.permutation(n))
        other = list(rng.permutation(n))
        k = int(rng.integers(1, n + 1))
        page = team_draft(items, other, k, coins=_coins(int(rng.integers(1 << 30)), k))
        assert len(page.items) == k
        assert len(set(page.items)) == k
        # the draft alternates in pairs, so pick counts never drift apart
        assert abs(page.team_of.count("A") - page.team_of.count("B")) <= 1


def test_team_draft_truncates_to_available_items():
    page = team_draft([1, 2], [2, 1], k=10, coins=_coins(0, 10))
    assert len(page.items) == 2


def test_team_draft_deterministic_given_seed():
    a = team_draft(list(range(8)), list(range(7, -1, -1)), k=8, coins=_coins(5, 8))
    b = team_draft(list(range(8)), list(range(7, -1, -1)), k=8, coins=_coins(5, 8))
    assert a.items == b.items and a.team_of == b.team_of


# ---------------------------------------------------------------------------
# user model


def test_user_model_validation():
    with pytest.raises(ValueError):
        UserModel(())
    with pytest.raises(ValueError):
        UserModel((0.5, 0.8))  # increasing
    with pytest.raises(ValueError):
        UserModel((1.0, 0.0))  # zero not allowed
    with pytest.raises(ValueError):
        UserModel((1.2,))


def test_position_decay_curve():
    user = UserModel.position_decay(4, eta=1.0)
    assert user.examination == (1.0, 0.5, 1.0 / 3.0, 0.25)
    steep = UserModel.position_decay(3, eta=2.0)
    assert steep.examination == (1.0, 0.25, 1.0 / 9.0)


def test_simulate_session_degenerate_cases():
    user = UserModel((1.0, 0.5))
    page = InterleavedList(items=[0, 1], team_of=["A", "B"])
    none = simulate_session(page, user, [0.0, 0.0], seed=3)
    assert none.tolist() == [0, 0]
    certain = simulate_session(InterleavedList([0], ["A"]), UserModel((1.0,)), [1.0], seed=3)
    assert certain.tolist() == [1]


def test_simulate_session_validates_inputs():
    user = UserModel((1.0,))
    with pytest.raises(ValueError):
        simulate_session(InterleavedList([0], ["A"]), user, [1.5])
    with pytest.raises(ValueError):
        simulate_session(InterleavedList([0, 1], ["A", "B"]), user, [0.5, 0.5])


def test_simulate_session_purchase_rates_match_probabilities():
    """Monte-Carlo check: empirical rate within 3 binomial sigmas."""
    user = UserModel((1.0, 0.5, 0.25))
    page = InterleavedList(items=[0, 1, 2], team_of=["A", "B", "A"])
    rel = [0.8, 0.6, 0.4]
    n = 20_000
    hits = np.zeros(3)
    for i in range(n):
        hits += simulate_session(page, user, rel, seed=i)
    probs = np.array([1.0 * 0.8, 0.5 * 0.6, 0.25 * 0.4])
    sigma = np.sqrt(probs * (1 - probs) / n)
    assert np.all(np.abs(hits / n - probs) < 3 * sigma)


# ---------------------------------------------------------------------------
# sign test


def test_sign_test_closed_form_ten_zero():
    assert sign_test_p(10, 0) == 0.001953125  # 2 * (1/2)**10, exactly
    assert sign_test_p(0, 10) == 0.001953125


def test_sign_test_edge_cases():
    assert sign_test_p(0, 0) == 1.0
    assert sign_test_p(5, 5) == 1.0
    assert sign_test_p(3, 2) == sign_test_p(2, 3)
    assert 0.0 < sign_test_p(60, 40) <= 1.0
    with pytest.raises(ValueError):
        sign_test_p(-1, 3)


# ---------------------------------------------------------------------------
# full experiment


def _feature_sum_scorer(session):
    return session.feature_matrix().sum(axis=1)


def test_interleaving_credit_is_conserved():
    """With certain examination and relevance, every shown item is bought:
    total credit must equal impressions x page size."""
    rng = np.random.default_rng(40)
    sessions = _sessions(rng, 5)
    user = UserModel((1.0, 1.0, 1.0, 1.0))
    rel = [np.ones(s.grades.size) for s in sessions]
    report = run_interleaving(
        _feature_sum_scorer, lambda s: -_feature_sum_scorer(s), sessions, user,
        n_impressions=50, seed=1, k=4, relevance=rel,
    )
    assert report.credit_a + report.credit_b == 50 * 4
    assert report.impressions == 50


def test_identical_rankers_split_credit_fairly():
    rng = np.random.default_rng(41)
    sessions = _sessions(rng, 20)
    user = UserModel.position_decay(8)
    report = run_interleaving(
        _feature_sum_scorer, _feature_sum_scorer, sessions, user,
        n_impressions=10_000, seed=7, k=8,
    )
    assert report.p_value > 0.05
    assert report.credit_gain is not None
    assert abs(report.credit_gain) < 0.05
    assert not report.inconclusive


def test_better_ranker_wins_decisively():
    rng = np.random.default_rng(42)
    sessions = _sessions(rng, 10)

    def oracle(s):
        return s.labels()

    def antioracle(s):
        return -s.labels()

    report = run_interleaving(
        oracle, antioracle, sessions, UserModel.position_decay(6),
        n_impressions=2_000, seed=3, k=6,
    )
    assert report.credit_gain > 0
    assert report.p_value < 0.01


def test_swapping_rankers_mirrors_the_experiment_exactly():
    rng = np.random.default_rng(43)
    sessions = _sessions(rng, 8)
    user = UserModel.position_decay(6)

    def strong(s):
        return s.labels() + 0.01 * _feature_sum_scorer(s)

    ab = run_interleaving(strong, _feature_sum_scorer, sessions, user,
                          n_impressions=500, seed=9, k=6)
    ba = run_interleaving(_feature_sum_scorer, strong, sessions, user,
                          n_impressions=500, seed=9, k=6, mirror_coins=True)
    assert ab.credit_a == ba.credit_b
    assert ab.credit_b == ba.credit_a
    assert ab.credit_gain == -ba.credit_gain
    assert ab.p_value == ba.p_value
    assert ab.queries_used == ba.queries_used


def test_moving_a_relevant_item_up_never_hurts():
    """Monotonicity probe on a constructed instance: promoting the most
    relevant item in A's ranking cannot lower A's expected credit."""
    session = QuerySession("q", 0, 0, np.zeros((4, 2)), np.zeros(4))
    rel = [np.array([1.0, 0.3, 0.1, 0.05])]
    user = UserModel.position_decay(4)
    b_scores = np.array([0.05, 0.1, 0.3, 1.0])  # B ranks worst-first

    def ranker_from(order):
        scores = np.zeros(4)
        for rank, item in enumerate(order):
            scores[item] = 4 - rank
        return lambda s: scores

    worse = run_interleaving(ranker_from([1, 0, 2, 3]), lambda s: b_scores,
                             [session], user, n_impressions=4_000, seed=5, k=4,
                             relevance=rel)
    better = run_interleaving(ranker_from([0, 1, 2, 3]), lambda s: b_scores,
                              [session], user, n_impressions=4_000, seed=5, k=4,
                              relevance=rel)
    assert better.credit_a >= worse.credit_a


def test_zero_credit_is_flagged_inconclusive():
    rng = np.random.default_rng(44)
    sessions = _sessions(rng, 3)
    rel = [np.zeros(s.grades.size) for s in sessions]
    report = run_interleaving(
        _feature_sum_scorer, _feature_sum_scorer, sessions,
        UserModel.position_decay(4), n_impressions=20, seed=2, k=4, relevance=rel,
    )
    assert report.inconclusive
    assert report.credit_gain is None
    assert report.p_value == 1.0


def test_run_interleaving_validates_arguments():
    rng = np.random.default_rng(45)
    sessions = _sessions(rng, 2)
    user = UserModel.position_decay(4)
    with pytest.raises(ValueError):
        run_interleaving(_feature_sum_scorer, _feature_sum_scorer, [], user, 10, k=4)
    with pytest.raises(ValueError):
        run_interleaving(_feature_sum_scorer, _feature_sum_scorer, sessions, user, 10, k=9)
    with pytest.raises(ValueError):
        run_interleaving(_feature_sum_scorer, _feature_sum_scorer, sessions, user, 10, k=4,
                         relevance=[np.ones(3)])


@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_raise(bad_value):
    """A ranker with NaN or infinite scores has no ranking to draft from."""
    sessions = _sessions(np.random.default_rng(3), 5)
    good = lambda s: s.feature_matrix().sum(axis=1)
    bad = lambda s: np.full(s.grades.size, bad_value)
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(NonFiniteScoreError):
            run_interleaving(a, b, sessions, UserModel.position_decay(6),
                             n_impressions=50, seed=0, k=6)


def test_model_with_nan_scores_raises():
    sessions = _sessions(np.random.default_rng(4), 3, feature_dim=5)
    good = build(tiny_config(), seed=1)
    broken = build(tiny_config(), seed=1)
    broken.parameters["score.0.w"].values[:] = np.nan
    with pytest.raises(NonFiniteScoreError):
        run_interleaving(good, broken, sessions, UserModel.position_decay(6),
                         n_impressions=10, seed=0, k=6)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 14), st.integers(1, 20))
def test_team_draft_invariants(data, n, k):
    """No item twice, team sizes within one, and each team's picks in the
    order of its own ranking, for any two rankings and coin sequence."""
    rank_a = data.draw(st.permutations(range(n)))
    rank_b = data.draw(st.permutations(range(n)))
    coins = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
    page = team_draft(rank_a, rank_b, k, coins=coins)
    assert len(page.items) == min(k, n) == len(page.team_of)
    assert len(set(page.items)) == len(page.items)
    assert abs(page.team_of.count("A") - page.team_of.count("B")) <= 1
    for team, ranking in (("A", rank_a), ("B", rank_b)):
        picks = [ranking.index(item) for item, t in zip(page.items, page.team_of) if t == team]
        assert picks == sorted(picks)
