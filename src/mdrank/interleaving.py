"""Team-draft interleaving with a position-biased purchase model and an
exact binomial sign test over per-query winners."""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import QuerySession, _is_integer
from .evaluation import Scorer, ranked_indices, score_sessions
from .models import Model

__all__ = [
    "UserModel",
    "InterleaveReport",
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
class InterleaveReport:
    credit_a: float
    credit_b: float
    credit_gain: float | None
    p_value: float
    queries_used: int
    impressions: int
    inconclusive: bool


def _integer(name: str, value) -> int:
    """``value`` as a Python int: an int or numpy integer, never a bool."""
    if not _is_integer(value):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def sign_test_p(wins_a: int, wins_b: int) -> float:
    """Two-sided exact binomial sign test against a fair coin:
    ``min(1, 2 * binom.cdf(min(wins_a, wins_b), wins_a + wins_b, 0.5))`` bit
    for bit.  The counts are integers, not bools, at least 0, and sum to at
    most 2**53, so that float64 holds every count exactly."""
    wins_a = _integer("sign_test_p: wins_a", wins_a)
    wins_b = _integer("sign_test_p: wins_b", wins_b)
    if wins_a < 0 or wins_b < 0:
        raise ValueError("sign_test_p: negative win counts")
    n = wins_a + wins_b
    if n > 2**53:
        raise ValueError(f"sign_test_p: {n} queries exceed 2**53")
    if n == 0:
        return 1.0
    k = min(wins_a, wins_b)
    # binom.cdf(k, n, p) computes np.clip(_binom_cdf(floor(k), n, p), 0, 1),
    # and k < n skips its edge cases.  The ufunc alone loads 66 scipy modules
    # and about 22 MiB; scipy.stats loads 490 and about 70 MiB.  A scipy that
    # does not have the private name takes the public route.
    try:
        from scipy.special._ufuncs import _binom_cdf
    except ImportError:
        from scipy.stats import binom

        cdf = binom.cdf(k, n, 0.5)
    else:
        cdf = np.clip(_binom_cdf(float(k), float(n), 0.5), 0.0, 1.0)
    if not np.isfinite(cdf):
        raise FloatingPointError(f"sign_test_p: binomial cdf of {k} in {n} is {cdf}")
    return float(min(1.0, 2.0 * cdf))


# numpy's SeedSequence and PCG64 as array operations over impressions.  They
# mirror numpy/random/bit_generator.pyx (``SeedSequence``: ``hashmix``, ``mix``,
# ``mix_entropy``, ``generate_state``), numpy/random/src/pcg64/pcg64.h
# (``pcg64_srandom_r``, ``pcg64_random_r``, ``pcg64_next32``) and
# numpy/random/src/distributions/distributions.c (``next_double``,
# ``buffered_bounded_lemire_uint32``).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))  # (high, low)


def _hash_constants(init: int, mult: int):
    """The (xor, multiplier) pair of each successive hash call; they do not
    depend on the data."""
    while True:
        nxt = init * mult & _MASK32
        yield init, nxt
        init = nxt


def _hashmix(value: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    return out ^ (out >> 16)


def _mul128(a, b):
    """(high, low) uint64 pairs multiplied mod 2**128; the high word of the
    low words' product comes from 32-bit limbs."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a0, a1 = a_lo & _MASK32, a_lo >> 32
    b0, b1 = b_lo & _MASK32, b_lo >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    high = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + a_lo * b_hi + a_hi * b_lo
    return high, a_lo * b_lo


def _add128(a, b):
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _pcg64_seeded(seed: int, n_impressions: int):
    """The seeded PCG64 ``(state, inc)`` of ``SeedSequence([seed, i, j])``
    for streams j = 0 and 1, each a (high, low) pair of uint64 arrays over
    the impressions i."""
    # SeedSequence: entropy words [seed words..., i, j] hashed into a pool
    # of four uint32 words, then four uint64 words drawn from the pool.
    shape = (2, n_impressions)
    seed_words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(shape, w, dtype=np.uint32) for w in seed_words]
    entropy.append(np.broadcast_to(np.arange(n_impressions, dtype=np.uint32), shape))
    entropy.append(np.broadcast_to(np.arange(2, dtype=np.uint32)[:, None], shape))
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(entropy[w] if w < len(entropy) else np.zeros(shape, np.uint32), constants)
            for w in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))
    constants = _hash_constants(_INIT_B, _MULT_B)
    words = []
    for w in range(0, 8, 2):
        low = _hashmix(pool[w % 4], constants).astype(np.uint64)
        words.append(low | _hashmix(pool[(w + 1) % 4], constants).astype(np.uint64) << 32)

    # PCG64 seeding: inc = 2·initseq + 1, state = (inc + initstate)·M + inc.
    inc = ((words[2] << 1) | (words[3] >> 63), (words[3] << 1) | 1)
    state = _add128(_mul128(_add128(inc, (words[0], words[1])), _PCG_MULT), inc)
    return [((state[0][j], state[1][j]), (inc[0][j], inc[1][j])) for j in range(2)]


def _pcg64_outputs(state, inc, count: int) -> np.ndarray:
    """The next ``count`` 64-bit outputs of each generator, one column per
    generator: each output steps the state, then applies XSL-RR (in place,
    to keep transient arrays few)."""
    high = np.empty((count, state[0].size), dtype=np.uint64)
    low = np.empty_like(high)
    for t in range(count):
        state = _add128(_mul128(state, _PCG_MULT), inc)
        high[t], low[t] = state
    low ^= high
    high >>= 58  # the rotation
    out = low >> high
    np.subtract(64, high, out=high)
    high &= 63
    low <<= high
    out |= low
    return out


def _impression_streams(
    seed: int, n_impressions: int, n_coins: int, n_draws: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every impression's coins and purchase draws, computed as arrays.

    Row i of the ``(n_impressions, n_coins)`` coins equals, bit for bit,
    ``default_rng(SeedSequence([seed, i, 0])).integers(0, 2, size=n_coins)``,
    and row i of the ``(n_impressions, n_draws)`` draws equals
    ``default_rng(SeedSequence([seed, i, 1])).random(n_draws)``, of which
    ``random(n)`` is the first n values.  Impression indices stay below
    2**32, where ``SeedSequence`` gives them one entropy word.
    """
    coin_stream, draw_stream = _pcg64_seeded(seed, n_impressions)
    # A coin is the top bit of a 32-bit half, low half first: for a range of
    # 2 the Lemire method never rejects.
    words = _pcg64_outputs(*coin_stream, (n_coins + 1) // 2)
    coins = np.stack([(words >> 31) & 1, words >> 63], axis=1).reshape(-1, n_impressions)
    words = _pcg64_outputs(*draw_stream, n_draws)
    words >>= 11
    return coins[:n_coins].T.astype(bool), words.T * (1.0 / 9007199254740992.0)


def _draft_pages(
    ranks: Sequence[tuple[np.ndarray, np.ndarray]],
    session_of: np.ndarray,
    a_turn: np.ndarray,
) -> np.ndarray:
    """Team-draft one page per impression, all impressions at once.

    ``ranks[s]`` holds the item orders of rankers A and B on session s,
    ``session_of[i]`` the session of impression i, and ``a_turn[i, t]``
    whether team A drafts position t of page i.  Returns the ``(I, width)``
    item drafted at each position, ``width`` being ``a_turn``'s; positions
    past a session's length hold item 0.

    A team's pick at position t is among its own first t + 1 items, of
    which at most t are placed, so each team only tracks its top ``width``:
    ``placed[team, i, r]`` marks rank r of that team's order as placed on
    page i, with column ``width`` absorbing items ranked below the top.
    """
    n_impressions, width = a_turn.shape
    n_max = max(order.size for pair in ranks for order in pair)
    top = np.zeros((2, len(ranks), width), dtype=np.int64)
    rank_of = np.full((2, len(ranks), n_max), width, dtype=np.int64)
    for s, pair in enumerate(ranks):
        for team, order in enumerate(pair):
            head_items = order[:width]
            top[team, s, :head_items.size] = head_items
            rank_of[team, s, head_items] = np.arange(head_items.size)

    rows = np.arange(n_impressions)
    teams = np.arange(2)[:, None]
    placed = np.zeros((2, n_impressions, width + 1), dtype=bool)
    items = np.empty((n_impressions, width), dtype=np.int64)
    for t in range(width):
        first = np.argmin(placed[:, :, : t + 1], axis=2)  # first unplaced, per team
        picks = top[teams, session_of, first]
        item = np.where(a_turn[:, t], picks[0], picks[1])
        items[:, t] = item
        placed[teams, rows, rank_of[teams, session_of, item]] = True
    return items


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
    drafts a fresh page of ``min(k, items)`` positions by team draft: the
    team with fewer picks drafts next, on equal counts the impression's next
    coin decides (True: A first), and the drafting team contributes its
    highest-ranked item not yet placed.  Position t is bought when its
    uniform draw falls below ``examination[t] * relevance[item]``, and each
    purchase credits the team that drafted the item.  The per-query winner
    is the side with more credit on that impression (ties excluded),
    feeding the sign test.  A NaN or infinite score from either ranker
    raises ``NonFiniteScoreError``.

    The examination curve needs a probability for each position of the
    longest page.  ``relevance`` defaults to the items' labels clipped to
    [0, 1]; every vector must have one finite value in [0, 1] per item.
    ``mirror_coins`` inverts every coin outcome; running (B, A) with the
    same seed and mirrored coins reproduces the (A, B) experiment exactly
    with the team labels swapped.

    All pages are drafted and simulated at once, and so are the random
    streams: ``_impression_streams`` computes numpy's SeedSequence and
    PCG64 as array operations over the impressions.  Impression i's coins
    equal ``default_rng(SeedSequence([seed, i, 0])).integers(0, 2, ...)``
    and its purchase draws ``default_rng(SeedSequence([seed, i, 1])).random(...)``
    bit for bit, so the report equals, exactly, that of drafting and
    buying page by page, position by position, on those generators.
    ``seed``, ``n_impressions`` and ``k`` are integers, not bools.  ``seed``
    may be any non-negative integer; ``n_impressions`` is at most 2**32,
    which keeps each impression index one SeedSequence word.
    """
    if not sessions:
        raise ValueError("run_interleaving: no sessions")
    n_impressions = _integer("run_interleaving: n_impressions", n_impressions)
    if not 1 <= n_impressions <= 2**32:
        raise ValueError("run_interleaving: n_impressions must lie in [1, 2**32]")
    seed = _integer("run_interleaving: seed", seed)
    if seed < 0:
        raise ValueError(f"run_interleaving: seed must be >= 0, got {seed}")
    k = _integer("run_interleaving: k", k)
    if k < 1:
        raise ValueError("run_interleaving: k must be >= 1")
    lengths = np.array([s.grades.size for s in sessions])
    width = min(k, int(lengths.max()))  # the longest page
    if width > len(user.examination):
        raise ValueError(
            f"run_interleaving: page size {width} exceeds the examination curve "
            f"({len(user.examination)} positions)"
        )
    if relevance is not None:
        if len(relevance) != len(sessions):
            raise ValueError("run_interleaving: one relevance vector per session required")
        rels = [np.asarray(r, dtype=np.float64) for r in relevance]
    else:
        rels = [np.clip(s.labels(), 0.0, 1.0) for s in sessions]
    for s, r in zip(sessions, rels):
        if r.shape != s.grades.shape:
            raise ValueError(
                f"run_interleaving: relevance of session {s.query_id!r} has shape "
                f"{r.shape} for {s.grades.size} items"
            )
        if not np.all((r >= 0.0) & (r <= 1.0)):
            raise ValueError(
                f"run_interleaving: relevance of session {s.query_id!r} must be "
                "finite and lie in [0, 1]"
            )
    ranks = [
        (ranked_indices(a), ranked_indices(b))
        for a, b in zip(score_sessions(model_a, sessions), score_sessions(model_b, sessions))
    ]

    session_of = np.arange(n_impressions) % len(sessions)
    shown = np.minimum(lengths, k)[session_of]
    coins, draws = _impression_streams(seed, n_impressions, (width + 1) // 2, width)
    position = np.arange(width)
    # A draw of 1.0 is never below a purchase probability, so positions past
    # the end of a page buy nothing.
    draws[position >= shown[:, None]] = 1.0
    if mirror_coins:
        coins = ~coins
    # Pick counts are equal before every even position, so coin t // 2
    # names the team drafting position t and the other team drafts t + 1.
    a_turn = coins[:, position // 2] ^ (position % 2 == 1)
    items = _draft_pages(ranks, session_of, a_turn)

    rel = np.zeros((len(sessions), int(lengths.max())))
    for s, r in enumerate(rels):
        rel[s, : r.size] = r
    probs = np.array(user.examination[:width]) * rel[session_of[:, None], items]
    bought = draws < probs
    per_a = np.count_nonzero(bought & a_turn, axis=1)
    per_b = np.count_nonzero(bought & ~a_turn, axis=1)
    credit_a = int(per_a.sum())
    credit_b = int(per_b.sum())
    wins_a = int(np.count_nonzero(per_a > per_b))
    wins_b = int(np.count_nonzero(per_b > per_a))

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
