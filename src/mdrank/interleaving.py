"""Team-draft interleaving with a position-biased purchase model and an
exact binomial sign test over per-query winners."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from .data import QuerySession
from .evaluation import Scorer, as_scorer
from .models import Model

__all__ = [
    "UserModel",
    "InterleavedList",
    "InterleaveReport",
    "team_draft",
    "simulate_session",
    "sign_test_p",
    "run_interleaving",
]


@dataclass(frozen=True)
class UserModel:
    """Position-biased purchase behaviour: the user examines position i with
    probability ``examination[i]`` and purchases an examined item with
    probability equal to its relevance."""

    examination: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "examination", tuple(float(p) for p in self.examination))
        if not self.examination:
            raise ValueError("UserModel: empty examination curve")
        prev = 1.0
        for p in self.examination:
            if not (0.0 < p <= 1.0):
                raise ValueError(f"UserModel: examination probability {p} outside (0, 1]")
            if p > prev + 1e-12:
                raise ValueError("UserModel: examination curve must be non-increasing")
            prev = p

    @classmethod
    def position_decay(cls, positions: int, eta: float = 1.0) -> "UserModel":
        """The classic 1 / (rank ** eta) examination curve."""
        if positions < 1:
            raise ValueError("UserModel: need at least one position")
        return cls(tuple(1.0 / (i + 1) ** eta for i in range(positions)))


@dataclass
class InterleavedList:
    """Blended ranking plus, per position, the team that drafted the item."""

    items: list
    team_of: list[str]


@dataclass
class InterleaveReport:
    credit_a: float
    credit_b: float
    credit_gain: float | None
    p_value: float
    queries_used: int
    impressions: int
    inconclusive: bool


def team_draft(
    rank_a: Sequence,
    rank_b: Sequence,
    k: int,
    coins: Sequence[bool],
) -> InterleavedList:
    """Blend two rankings of the same items by team drafting.

    The team with fewer picks drafts next; on equal counts the next entry of
    ``coins`` decides, True meaning team A drafts first (so teams alternate
    within each coin-decided round).  The drafting team contributes its
    highest-ranked item not yet placed.
    """
    if k < 1:
        raise ValueError(f"team_draft: k must be >= 1, got {k}")
    if len(rank_a) != len(rank_b) or set(rank_a) != set(rank_b):
        raise ValueError("team_draft: rankings must cover the same item set")
    coin_iter = iter(coins)

    placed: set = set()
    items: list = []
    teams: list[str] = []
    ia = ib = count_a = count_b = 0
    limit = min(k, len(rank_a))
    while len(items) < limit:
        if count_a < count_b:
            turn = "A"
        elif count_b < count_a:
            turn = "B"
        else:
            try:
                first_a = bool(next(coin_iter))
            except StopIteration:
                raise ValueError("team_draft: ran out of coin outcomes") from None
            turn = "A" if first_a else "B"
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
    return InterleavedList(items=items, team_of=teams)


def simulate_session(
    interleaved: InterleavedList,
    user: UserModel,
    relevance: Sequence[float],
    seed: int | np.random.SeedSequence = 0,
) -> np.ndarray:
    """Draw an independent purchase decision per displayed position.

    ``relevance`` is indexed by item (the entries of ``interleaved.items``
    must be valid indices into it) and must lie in [0, 1].
    """
    rel = np.asarray(relevance, dtype=np.float64)
    if np.any(rel < 0.0) or np.any(rel > 1.0):
        raise ValueError("simulate_session: relevance must lie in [0, 1]")
    n = len(interleaved.items)
    if n > len(user.examination):
        raise ValueError(
            f"simulate_session: {n} positions exceed the examination curve "
            f"({len(user.examination)} positions)"
        )
    probs = np.array(
        [user.examination[pos] * rel[item] for pos, item in enumerate(interleaved.items)]
    )
    draws = np.random.default_rng(seed).random(n)
    return (draws < probs).astype(np.int64)


def sign_test_p(wins_a: int, wins_b: int) -> float:
    """Two-sided exact binomial sign test against a fair coin."""
    if wins_a < 0 or wins_b < 0:
        raise ValueError("sign_test_p: negative win counts")
    n = wins_a + wins_b
    if n == 0:
        return 1.0
    return float(min(1.0, 2.0 * binom.cdf(min(wins_a, wins_b), n, 0.5)))


def _ranked_indices(scores: np.ndarray) -> list[int]:
    return sorted(range(scores.size), key=lambda i: (-scores[i], i))


def run_interleaving(
    model_a: Model | Scorer,
    model_b: Model | Scorer,
    sessions: Sequence[QuerySession],
    user: UserModel,
    n_impressions: int,
    seed: int = 0,
    k: int = 16,
    relevance: Sequence[Sequence[float]] | None = None,
    mirror_coins: bool = False,
) -> InterleaveReport:
    """Simulate an online comparison of two rankers.

    Impressions cycle deterministically through the sessions; each one
    drafts a fresh interleaved page (coin seeded per impression), samples
    purchases from the user model, and credits each purchase to the team
    that drafted the purchased item.  The per-query winner is the side with
    more credit on that impression (ties excluded), feeding the sign test.

    ``relevance`` defaults to the items' labels clipped to [0, 1].
    ``mirror_coins`` inverts every coin outcome; running (B, A) with the
    same seed and mirrored coins reproduces the (A, B) experiment exactly
    with the team labels swapped.
    """
    if not sessions:
        raise ValueError("run_interleaving: no sessions")
    if n_impressions < 1:
        raise ValueError("run_interleaving: n_impressions must be >= 1")
    if k < 1:
        raise ValueError("run_interleaving: k must be >= 1")
    if k > len(user.examination):
        raise ValueError(
            f"run_interleaving: page size {k} exceeds the examination curve "
            f"({len(user.examination)} positions)"
        )
    score_a = as_scorer(model_a)
    score_b = as_scorer(model_b)
    ranks_a = [_ranked_indices(score_a(s)) for s in sessions]
    ranks_b = [_ranked_indices(score_b(s)) for s in sessions]
    if relevance is not None:
        if len(relevance) != len(sessions):
            raise ValueError("run_interleaving: one relevance vector per session required")
        rels = [np.asarray(r, dtype=np.float64) for r in relevance]
    else:
        rels = [np.clip(s.labels(), 0.0, 1.0) for s in sessions]
    for s, r in zip(sessions, rels):
        if r.size != len(s.items):
            raise ValueError("run_interleaving: relevance length mismatch")

    credit_a = credit_b = 0
    wins_a = wins_b = 0
    for i in range(n_impressions):
        si = i % len(sessions)
        coin_rng = np.random.default_rng(np.random.SeedSequence([seed, i, 0]))
        coin_bits = coin_rng.integers(0, 2, size=k).astype(bool)
        if mirror_coins:
            coin_bits = ~coin_bits
        page = team_draft(ranks_a[si], ranks_b[si], k, coin_bits)
        purchases = simulate_session(
            page, user, rels[si], seed=np.random.SeedSequence([seed, i, 1])
        )
        pa = int(purchases[[t == "A" for t in page.team_of]].sum())
        pb = int(purchases.sum()) - pa
        credit_a += pa
        credit_b += pb
        if pa > pb:
            wins_a += 1
        elif pb > pa:
            wins_b += 1

    total = credit_a + credit_b
    gain = (credit_a - credit_b) / total if total > 0 else None
    return InterleaveReport(
        credit_a=float(credit_a),
        credit_b=float(credit_b),
        credit_gain=gain,
        p_value=sign_test_p(wins_a, wins_b),
        queries_used=wins_a + wins_b,
        impressions=n_impressions,
        inconclusive=total == 0,
    )
