"""Team-draft interleaving, user simulation, and the sign test."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdrank.data import QuerySession
from mdrank.evaluation import NonFiniteScoreError
from mdrank.evaluation import ranked_indices, score_sessions
from mdrank.interleaving import (
    InterleaveReport,
    UserModel,
    _draft_pages,
    _impression_streams,
    run_interleaving,
    sign_test_p,
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


def _feature_sum_scorer(session):
    return session.feature_matrix().sum(axis=1)


# ---------------------------------------------------------------------------
# drafting


def team_draft(rank_a, rank_b, k, coins):
    """The page-by-page oracle.  The team with fewer picks drafts next; on
    equal counts the next coin decides, True meaning team A drafts first.
    The drafting team contributes its highest-ranked item not yet placed.
    Returns the page's items and the team ("A" or "B") of each."""
    coin_iter = iter(coins)
    placed = set()
    items, teams = [], []
    ia = ib = count_a = count_b = 0
    while len(items) < min(k, len(rank_a)):
        if count_a != count_b:
            turn = "A" if count_a < count_b else "B"
        else:
            turn = "A" if next(coin_iter) else "B"
        if turn == "A":
            while rank_a[ia] in placed:
                ia += 1
            pick = rank_a[ia]
            count_a += 1
        else:
            while rank_b[ib] in placed:
                ib += 1
            pick = rank_b[ib]
            count_b += 1
        placed.add(pick)
        items.append(pick)
        teams.append(turn)
    return items, teams


def _draft(rank_a, rank_b, k, coins):
    """One page of the shipped kernel ``_draft_pages``, each coin naming the
    team that drafts a pair of positions as in ``run_interleaving``;
    returns the page's items and the team of each, like ``team_draft``."""
    position = np.arange(min(k, len(rank_a)))
    a_turn = np.asarray(coins, dtype=bool)[position // 2] ^ (position % 2 == 1)
    pair = (np.array(rank_a), np.array(rank_b))
    items = _draft_pages([pair], np.zeros(1, dtype=np.int64), a_turn[None])[0]
    return items.tolist(), ["A" if a else "B" for a in a_turn.tolist()]


def _coins(seed, k):
    """``k`` fair coin outcomes from ``seed``, enough for a draft of ``k`` picks."""
    return np.random.default_rng(seed).integers(0, 2, size=k).astype(bool)


def test_team_draft_hand_trace():
    """Rankings [1, 2, 0] and [2, 1, 0] (session 0) and [0, 1] and [1, 0]
    (session 1), all pages three positions wide."""
    ranks = [(np.array([1, 2, 0]), np.array([2, 1, 0])), (np.array([0, 1]), np.array([1, 0]))]
    a_turn = np.array([[True, False, True],    # coin True: A drafts 1, B its best left, 2
                       [False, True, False],   # coin False: B drafts 2, then A drafts 1
                       [True, False, True]])   # a page longer than its session
    items = _draft_pages(ranks, np.array([0, 0, 1]), a_turn)
    assert items.tolist() == [[1, 2, 0], [2, 1, 0], [0, 1, 0]]  # past the end: item 0


def test_team_draft_identical_rankings_echo_the_ranking():
    rank = [3, 1, 0, 2]
    for seed in range(5):
        items, teams = _draft(rank, rank, k=4, coins=_coins(seed, 4))
        assert items == rank
        assert teams.count("A") == teams.count("B") == 2


def test_team_draft_never_duplicates_and_stays_balanced():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        items = list(rng.permutation(n))
        other = list(rng.permutation(n))
        k = int(rng.integers(1, n + 1))
        page, teams = _draft(items, other, k, coins=_coins(int(rng.integers(1 << 30)), k))
        assert len(page) == k
        assert len(set(page)) == k
        # the draft alternates in pairs, so pick counts never drift apart
        assert abs(teams.count("A") - teams.count("B")) <= 1


def test_team_draft_truncates_to_available_items():
    """A page shows min(k, items) positions; with certain purchases (all
    labels 1) it sells exactly those."""
    rng = np.random.default_rng(30)
    sessions = [QuerySession(f"q{i}", 0, 0, rng.normal(size=(n, 3)), np.ones(n))
                for i, n in enumerate((2, 5, 1))]
    report = run_interleaving(
        _feature_sum_scorer, lambda s: -_feature_sum_scorer(s), sessions,
        UserModel((1.0,) * 4), n_impressions=30, seed=4, k=4,
    )
    assert report.credit_a + report.credit_b == 10 * (2 + 4 + 1)


def test_team_draft_deterministic_given_seed():
    sessions = _sessions(np.random.default_rng(32), 4)
    args = (_feature_sum_scorer, lambda s: -_feature_sum_scorer(s), sessions,
            UserModel.position_decay(6))
    a = run_interleaving(*args, n_impressions=200, seed=5, k=6)
    assert run_interleaving(*args, n_impressions=200, seed=5, k=6) == a


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


def test_purchase_rates_match_probabilities():
    """Monte-Carlo check: identical rankers show the ranking itself, and
    with relevance at one position only, that position's purchases over n
    impressions lie within 3 binomial sigmas of n * examination * relevance."""
    user = UserModel((1.0, 0.5, 0.25))
    session = QuerySession("q", 0, 0, np.zeros((3, 2)), np.zeros(3))
    ranking = lambda s: np.array([3.0, 2.0, 1.0])
    n = 20_000
    for t, r in enumerate((0.8, 0.6, 0.4)):
        rel = np.zeros(3)
        rel[t] = r
        report = run_interleaving(ranking, ranking, [session], user, n_impressions=n,
                                  seed=t, k=3, relevance=[rel])
        p = user.examination[t] * r
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(report.credit_a + report.credit_b - n * p) < 3 * sigma


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


def test_sign_test_is_scipys_binomial_tail_bit_for_bit():
    """``2 * binom.cdf`` capped at 1, for every split of up to 300 queries
    and for a few at 10**4, 10**6 and 2**32 queries."""
    from scipy.stats import binom

    def want(a, b):
        return min(1.0, 2.0 * binom.cdf(min(a, b), a + b, 0.5))

    a, b = np.array([(a, n - a) for n in range(301) for a in range(n + 1)]).T
    expected = np.minimum(1.0, 2.0 * binom.cdf(np.minimum(a, b), a + b, 0.5))
    assert expected[a + b == 300].min() < 1e-80 and expected.max() == 1.0
    assert [sign_test_p(x, y) for x, y in zip(a.tolist(), b.tolist())] == expected.tolist()
    for n, ks in [(10**4, (0, 1, 4850, 4900, 4950, 4999, 5000)),
                  (10**6, (0, 498_500, 499_000, 499_900, 499_999, 500_000)),
                  (2**32, (0, 2**31 - 150_000, 2**31 - 50_000, 2**31 - 1, 2**31))]:
        for k in ks:
            assert sign_test_p(k, n - k) == sign_test_p(n - k, k) == want(k, n - k)


def _public_route(monkeypatch):
    """Make ``sign_test_p``'s import of the private ufunc fail, as on a scipy
    without it, so that it takes ``scipy.stats.binom``."""
    import scipy.stats  # noqa: F401  -- loaded before the ufunc module is hidden

    monkeypatch.setitem(sys.modules, "scipy.special._ufuncs", None)


def test_binom_cdf_calls_the_ufunc_sign_test_p_calls(monkeypatch):
    """``binom.cdf`` reaches ``scipy.special._ufuncs._binom_cdf``, the ufunc
    ``sign_test_p`` calls; a scipy that reroutes it fails here."""
    import scipy.special._ufuncs as ufuncs
    from scipy.stats import _discrete_distns, binom

    assert _discrete_distns.scu is ufuncs
    calls = []
    real = ufuncs._binom_cdf

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ufuncs, "_binom_cdf", counted)
    assert binom.cdf(3, 10, 0.5) == real(3.0, 10.0, 0.5)
    assert len(calls) == 1
    assert sign_test_p(3, 7) == min(1.0, 2.0 * real(3.0, 10.0, 0.5))
    assert len(calls) == 2


def test_sign_test_public_route_gives_the_same_p_values(monkeypatch):
    """Without the private ufunc, ``scipy.stats.binom`` gives every p-value
    of up to 300 queries unchanged."""
    splits = [(a, n - a) for n in range(301) for a in range(n + 1)]
    private = [sign_test_p(a, b) for a, b in splits]
    _public_route(monkeypatch)
    assert [sign_test_p(a, b) for a, b in splits] == private
    with pytest.raises(ImportError):
        from scipy.special._ufuncs import _binom_cdf  # noqa: F401


@st.composite
def _splits(draw):
    """Win counts summing to at most 2**53, half of them within a few
    standard deviations of an even split."""
    n = draw(st.integers(0, 2**53))
    if draw(st.booleans()):
        a = n // 2 - draw(st.integers(0, min(n // 2, 4 * math.isqrt(n) + 1)))
    else:
        a = draw(st.integers(0, n))
    return (a, n - a) if draw(st.booleans()) else (n - a, a)


@settings(max_examples=300, deadline=None)
@given(_splits())
@example((0, 2**53))
@example((2**52, 2**52))
@example((2**52 - 10**8, 2**52 + 10**8))
def test_sign_test_routes_agree_up_to_2_53(split):
    private = sign_test_p(*split)
    with pytest.MonkeyPatch.context() as mp:
        _public_route(mp)
        public = sign_test_p(*split)
    assert private == public
    assert 0.0 <= private <= 1.0


@pytest.mark.parametrize("a, b", [
    (float("nan"), 1), (1, 2.5), (10.0, 3), (True, 3), (3, False), ("3", 1), (None, 0),
])
def test_sign_test_takes_integer_counts_only(a, b):
    with pytest.raises(TypeError, match="must be an integer"):
        sign_test_p(a, b)


@pytest.mark.parametrize("a, b", [
    (3, -1), (2**53, 1), (2**63, 2**63),
    (128723967901106566, 128723967901771755),  # a nan cdf in float64
])
def test_sign_test_rejects_negative_and_inexact_counts(a, b):
    with pytest.raises(ValueError):
        sign_test_p(a, b)


def test_sign_test_takes_numpy_integers_and_2_53_queries():
    assert sign_test_p(np.int64(3), np.uint32(7)) == sign_test_p(3, 7)
    assert sign_test_p(2**53, 0) == sign_test_p(0, 2**53) == 0.0


@pytest.mark.parametrize("public", [False, True])
def test_sign_test_never_returns_a_p_value_from_a_nan_cdf(monkeypatch, public):
    import scipy.special._ufuncs as ufuncs

    if public:
        _public_route(monkeypatch)
    monkeypatch.setattr(ufuncs, "_binom_cdf", lambda *args: np.float64(np.nan))
    with pytest.raises(FloatingPointError):
        sign_test_p(3, 7)


# ---------------------------------------------------------------------------
# full experiment


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
    # impression indices stay single SeedSequence words; nothing this large runs
    with pytest.raises(ValueError, match="n_impressions"):
        run_interleaving(_feature_sum_scorer, _feature_sum_scorer, sessions, user,
                         2**32 + 1, k=4)
    with pytest.raises(ValueError, match="seed"):
        run_interleaving(_feature_sum_scorer, _feature_sum_scorer, sessions, user, 10,
                         seed=-1, k=4)
    with pytest.raises(TypeError):
        run_interleaving(_feature_sum_scorer, _feature_sum_scorer, sessions, user, 10,
                         seed=1.5, k=4)
    for n_impressions in (10.0, 10.5):
        with pytest.raises(TypeError, match="n_impressions"):
            run_interleaving(_feature_sum_scorer, _feature_sum_scorer, sessions, user,
                             n_impressions, k=4)
    for k in (2.5, True):
        with pytest.raises(TypeError, match="k must be an integer"):
            run_interleaving(_feature_sum_scorer, _feature_sum_scorer, sessions, user, 10,
                             k=k)


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
    items, teams = _draft(rank_a, rank_b, k, coins=coins)
    assert (items, teams) == team_draft(rank_a, rank_b, k, coins)
    assert len(items) == min(k, n) == len(teams)
    assert len(set(items)) == len(items)
    assert abs(teams.count("A") - teams.count("B")) <= 1
    for team, ranking in (("A", rank_a), ("B", rank_b)):
        picks = [ranking.index(item) for item, t in zip(items, teams) if t == team]
        assert picks == sorted(picks)


def test_bad_relevance_is_rejected_naming_the_session():
    """NaN relevance used to read as "never bought"; a vector on a session
    no impression reaches used to go unchecked."""
    sessions = _sessions(np.random.default_rng(46), 3)
    user = UserModel.position_decay(4)

    def run(rel, n_impressions=50):
        return run_interleaving(_feature_sum_scorer, lambda s: -_feature_sum_scorer(s),
                                sessions, user, n_impressions, seed=0, k=4, relevance=rel)

    good = [np.full(s.grades.size, 0.5) for s in sessions]
    for bad in (np.nan, np.inf, -np.inf, -0.1, 1.5):
        rel = list(good)
        rel[1] = np.full(sessions[1].grades.size, bad)
        with pytest.raises(ValueError, match="relevance of session 'q1'"):
            run(rel)
    rel = list(good)
    rel[2] = np.full(sessions[2].grades.size, 2.0)
    with pytest.raises(ValueError, match="relevance of session 'q2'"):
        run(rel, n_impressions=2)  # impressions 0 and 1 never reach session 2
    rel[2] = np.full(sessions[2].grades.size - 1, 0.5)
    with pytest.raises(ValueError, match="relevance of session 'q2'"):
        run(rel, n_impressions=2)


def test_examination_curve_needs_the_longest_page_only():
    """Pages of six items need six positions of the curve, whatever k is."""
    sessions = _sessions(np.random.default_rng(48), 3)
    scorer, reverse = _feature_sum_scorer, lambda s: -_feature_sum_scorer(s)
    run = lambda user, k: run_interleaving(scorer, reverse, sessions, user, 40, seed=1, k=k)
    assert run(UserModel.position_decay(6), 10**12) == run(UserModel.position_decay(9), 6)
    with pytest.raises(ValueError, match="page size 6 exceeds the examination curve"):
        run(UserModel.position_decay(5), 10**12)


def test_scores_must_be_one_per_item():
    sessions = _sessions(np.random.default_rng(47), 2)
    short = lambda s: np.zeros(s.grades.size - 1)
    with pytest.raises(ValueError, match="scores of shape"):
        run_interleaving(short, short, sessions, UserModel.position_decay(4),
                         n_impressions=4, seed=0, k=4)


# one, two and three or more SeedSequence entropy words
_SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                   st.integers(2**64, 2**130))


@settings(max_examples=80, deadline=None)
@given(seed=_SEEDS, n_impressions=st.integers(1, 12), k=st.integers(1, 17),
       short=st.integers(0, 16))
@example(seed=0, n_impressions=3, k=16, short=0)
@example(seed=2**32 - 1, n_impressions=3, k=7, short=2)
@example(seed=2**32, n_impressions=3, k=8, short=5)
@example(seed=2**64, n_impressions=3, k=5, short=0)
def test_array_streams_equal_numpy_per_impression_generators(seed, n_impressions, k, short):
    """Coins and draws equal numpy's own per-impression streams bit for bit,
    also on pages ``short`` items shorter than k; a numpy release that
    changes SeedSequence or PCG64 fails here."""
    n_shown = max(1, k - short)
    coins, draws = _impression_streams(seed, n_impressions, k, k)
    assert coins.shape == (n_impressions, k) and coins.dtype == bool
    assert draws.shape == (n_impressions, k) and draws.dtype == np.float64
    for i in range(n_impressions):
        coin_rng = np.random.default_rng(np.random.SeedSequence([seed, i, 0]))
        assert coins[i].tolist() == coin_rng.integers(0, 2, size=k).astype(bool).tolist()
        draw_rng = np.random.default_rng(np.random.SeedSequence([seed, i, 1]))
        assert draws[i, :n_shown].tobytes() == draw_rng.random(n_shown).tobytes()


def _loop_interleaving(model_a, model_b, sessions, user, n_impressions, seed, k,
                       relevance, mirror_coins):
    """The experiment page by page: ``team_draft`` on the coin stream, then
    one purchase draw per shown position on the draw stream, as
    ``run_interleaving`` documents."""
    ranks_a = [ranked_indices(s).tolist() for s in score_sessions(model_a, sessions)]
    ranks_b = [ranked_indices(s).tolist() for s in score_sessions(model_b, sessions)]
    if relevance is None:
        relevance = [np.clip(s.labels(), 0.0, 1.0) for s in sessions]
    credit_a = credit_b = wins_a = wins_b = 0
    for i in range(n_impressions):
        si = i % len(sessions)
        coins = np.random.default_rng(np.random.SeedSequence([seed, i, 0])).integers(0, 2, size=k)
        coins = coins.astype(bool)
        if mirror_coins:
            coins = ~coins
        items, teams = team_draft(ranks_a[si], ranks_b[si], k, coins)
        rel = np.asarray(relevance[si], dtype=np.float64)
        probs = np.array([user.examination[t] * rel[item] for t, item in enumerate(items)])
        draws = np.random.default_rng(np.random.SeedSequence([seed, i, 1])).random(len(items))
        bought = draws < probs
        pa = int(bought[[t == "A" for t in teams]].sum())
        pb = int(bought.sum()) - pa
        credit_a += pa
        credit_b += pb
        wins_a += pa > pb
        wins_b += pb > pa
    total = credit_a + credit_b
    return InterleaveReport(
        credit_a=float(credit_a),
        credit_b=float(credit_b),
        credit_gain=(credit_a - credit_b) / total if total > 0 else None,
        p_value=sign_test_p(wins_a, wins_b),
        queries_used=wins_a + wins_b,
        impressions=n_impressions,
        inconclusive=total == 0,
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_batched_interleaving_equals_the_page_by_page_loop(data):
    """Ragged sessions (one item, fewer items than the page), tied scores,
    fewer or more impressions than sessions, mirrored coins and any eta."""
    lengths = data.draw(st.lists(st.integers(1, 10), min_size=1, max_size=5), label="lengths")
    sessions = [
        QuerySession(
            f"q{j}", 0, 0,
            data.draw(st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2),
                               min_size=n, max_size=n)),
            data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=n, max_size=n)),
        )
        for j, n in enumerate(lengths)
    ]
    if data.draw(st.booleans(), label="explicit relevance"):
        relevance = [
            data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)) for n in lengths
        ]
    else:
        relevance = None
    k = data.draw(st.integers(1, 8), label="k")
    eta = data.draw(st.floats(0.0, 2.0), label="eta")
    user = UserModel.position_decay(k + data.draw(st.integers(0, 2)), eta)
    args = dict(
        n_impressions=data.draw(st.integers(1, 3 * len(sessions) + 2), label="impressions"),
        seed=data.draw(_SEEDS, label="seed"),
        k=k,
        relevance=relevance,
        mirror_coins=data.draw(st.booleans(), label="mirror"),
    )
    score_a = lambda s: s.features[:, 0]
    score_b = lambda s: s.features[:, 1] - s.features[:, 0]
    assert (run_interleaving(score_a, score_b, sessions, user, **args)
            == _loop_interleaving(score_a, score_b, sessions, user, **args))
