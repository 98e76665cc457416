"""Offline ranking quality: NDCG@k per session, aggregated per domain, and
the batched scoring path that evaluation and interleaving share."""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .data import QuerySession
from .models import Model, _score_members, forward

__all__ = [
    "NonFiniteScoreError",
    "ranked_indices",
    "ndcg_at_k",
    "EvalSummary",
    "evaluate",
    "as_scorer",
    "score_sessions",
]

Scorer = Callable[[QuerySession], np.ndarray]

# Most attention cells (sessions x longest list squared) one scoring pass
# holds: 3 sessions of the longest lists, hundreds of short ones.
_ATTENTION_CELLS = 65_536


class NonFiniteScoreError(ValueError):
    """A ranker produced a NaN or infinite score, which has no rank;
    ``member`` is the index of the offending member of a stacked model."""

    def __init__(self, message: str, member: int = 0):
        super().__init__(message)
        self.member = member


def ranked_indices(scores: np.ndarray) -> np.ndarray:
    """Indices by score descending; equal scores (0.0 and -0.0 too) keep index order."""
    return np.lexsort((np.arange(scores.size), -scores))


def ndcg_at_k(scores: Sequence[float], labels: Sequence[float], k: int) -> float | None:
    """NDCG at cutoff k with raw labels as gains.

    Items sort by score descending, ties broken by original index ascending.
    Returns None for sessions whose labels are all zero (the metric is
    undefined there and such sessions are excluded from averages).  Raises
    ``NonFiniteScoreError`` on a NaN or infinite score.  This is the
    one-session case of ``_ndcg_rows``, which ``evaluate`` runs over all
    its sessions at once.
    """
    s = np.asarray(scores, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.float64)
    if s.ndim != 1 or lab.ndim != 1 or s.size != lab.size:
        raise ValueError(f"ndcg_at_k: {s.size} scores vs {lab.size} labels")
    if s.size == 0:
        raise ValueError("ndcg_at_k: empty session")
    if k < 1:
        raise ValueError(f"ndcg_at_k: k must be >= 1, got {k}")
    if not np.all(np.isfinite(s)):
        raise NonFiniteScoreError("ndcg_at_k: scores must be finite")
    values, evaluable = _ndcg_rows([s], [lab], k)
    return float(values[0]) if evaluable[0] else None


def as_scorer(model_or_fn: Model | Scorer) -> Scorer:
    """Adapt a Model (or any session -> scores callable) to a scorer.

    A one-member Model scores through ``score_sessions``.  Either way a NaN
    or infinite score raises ``NonFiniteScoreError``, and scores that are
    not one per item raise ``ValueError``.
    """
    if isinstance(model_or_fn, Model):
        model = model_or_fn
        if len(model.seeds) != 1:
            raise ValueError(f"as_scorer: a stack of {len(model.seeds)} members; "
                             f"score one member() at a time")
        return lambda session: score_sessions(model, [session])[0]
    if callable(model_or_fn):
        fn = model_or_fn
        return lambda session: _checked(session, np.asarray(fn(session), dtype=np.float64))
    raise TypeError(f"cannot score with {type(model_or_fn).__name__}")


def _checked(session: QuerySession, scores: np.ndarray, member: int = 0) -> np.ndarray:
    """``scores`` when they are finite and one per item of ``session``."""
    if not np.all(np.isfinite(scores)):
        raise NonFiniteScoreError(
            f"session {session.query_id!r}: scores must be finite", member=member)
    if scores.shape != session.grades.shape:
        raise ValueError(f"session {session.query_id!r}: scores of shape "
                         f"{scores.shape} for {session.grades.size} labels")
    return scores


def _length_chunks(sessions: Sequence[QuerySession]):
    """Session indices in chunks of similar length, each within
    ``_ATTENTION_CELLS``; a chunk pads its sessions to its longest one."""
    chunk: list[int] = []
    for i in sorted(range(len(sessions)), key=lambda i: sessions[i].features.shape[0]):
        longest = sessions[i].features.shape[0]
        if chunk and (len(chunk) + 1) * longest * longest > _ATTENTION_CELLS:
            yield chunk
            chunk = []
        chunk.append(i)
    if chunk:
        yield chunk


def _member_scores(
    model_or_fn: Model | Scorer, sessions: Sequence[QuerySession]
) -> list[list[np.ndarray]]:
    """Scores of every session per member (a callable is one member),
    checked as ``score_sessions`` documents.

    The members of a stack score one at a time, each on views of its
    parameters in the stack's arena (``models._score_members``).  One
    stacked forward over all members' rows measured no faster than that,
    and raised the protocol's peak RSS by about 1 MiB.
    """
    if not isinstance(model_or_fn, Model):
        scorer = as_scorer(model_or_fn)  # checks each session's scores
        return [[scorer(session) for session in sessions]]
    model = model_or_fn
    scores: list[list[np.ndarray]] = [[None] * len(sessions) for _ in model.seeds]
    finite = [True] * len(model.seeds)
    for chunk in _length_chunks(sessions):
        batch = [sessions[i] for i in chunk]
        scored = ([forward(model, batch, domain_logits=False)] if len(model.seeds) == 1
                  else _score_members(model, batch))
        for m, member in enumerate(scored):
            finite[m] = finite[m] and bool(np.isfinite(member.scores.values).all())
            for i, v in zip(chunk, member.session_scores()):
                scores[m][i] = v
    # A model's scores have its sessions' shapes; a non-finite one is named.
    for m, member_scores in enumerate(scores):
        if not finite[m]:
            for session, values in zip(sessions, member_scores):
                _checked(session, values, member=m)
    return scores


def score_sessions(
    model_or_fn: Model | Scorer, sessions: Sequence[QuerySession]
) -> list[np.ndarray]:
    """Scores of every session, in session order.

    A one-member Model scores chunks of sessions in one forward pass each,
    without its domain classifier; a callable is called per session.
    Raises ``NonFiniteScoreError`` on a NaN or infinite score and
    ``ValueError`` on scores that are not one per item.
    """
    if isinstance(model_or_fn, Model) and len(model_or_fn.seeds) != 1:
        raise ValueError(f"score_sessions: a stack of {len(model_or_fn.seeds)} members; "
                         f"score one member() at a time")
    return _member_scores(model_or_fn, sessions)[0]


@dataclass
class EvalSummary:
    """Mean NDCG@k per domain and overall.

    Domains with no evaluable session (no sessions at all, or none with a
    positive label) are absent from ``per_domain`` rather than reported as
    zero.  ``overall`` averages across every evaluable session and is None
    when there are none.
    """

    k: int
    per_domain: dict[int, float]
    per_domain_sessions: dict[int, int]
    overall: float | None
    sessions_evaluated: int


@functools.lru_cache(maxsize=None)
def _discounts(depth: int) -> np.ndarray:
    """``log2(rank + 2)`` for ranks below ``depth``, each from ``math.log2``;
    read-only, since every caller shares it."""
    disc = np.array([math.log2(r + 2) for r in range(depth)])
    disc.flags.writeable = False
    return disc


def _ndcg_rows(scores: Sequence[np.ndarray], labels: Sequence[np.ndarray], k: int):
    """NDCG@k of every session at once, bit for bit the textbook loop
    (``dcg += gain / math.log2(rank + 2)`` rank by rank from ``0.0``, the
    same for the ideal order, then ``dcg / idcg`` in float64).

    Returns the values of the sessions with a non-zero label and a mask of
    those sessions.  Sessions of equal length are one reshape; otherwise
    each row pads past its length, so that padding ranks last: ``+inf`` in
    the sort keys, 0 in the labels and ``-inf`` in the labels sorted for
    the ideal order (zeroed once sorted).  Each row's discounted gains add
    up left to right with ``np.add.accumulate`` (``np.cumsum``), the
    loop's order, where ``np.sum`` would add pairwise; the final ``+ 0.0``
    turns the ``-0.0`` that a row of ``-0.0`` gains sums to into the
    loop's ``0.0``.
    """
    n = len(scores)
    lengths = [s.size for s in scores]
    span = max(lengths)
    key = -np.concatenate(scores)
    lab = np.concatenate(labels)
    if min(lengths) == span:
        key = key.reshape(-1, span)
        lab = ideal = lab.reshape(-1, span)
        pad = None
    else:
        pad = np.arange(span) >= np.array(lengths)[:, None]
        key = _padded(key, pad, np.inf)
        ideal = _padded(lab, pad, -np.inf)
        lab = _padded(lab, pad, 0.0)
    depth = min(k, span)
    rows = np.arange(n)[:, None]
    ranked = lab[rows, key.argsort(axis=1, kind="stable")[:, :depth]]
    ideal = np.sort(ideal, axis=1)[:, : -depth - 1 : -1]
    if pad is not None:
        ideal = np.where(pad[:, :depth], 0.0, ideal)
    gains = np.concatenate([ranked, ideal]) / _discounts(depth)
    sums = np.add.accumulate(gains, axis=1)[:, -1] + 0.0
    dcg, idcg = sums[:n], sums[n:]
    evaluable = lab.any(axis=1)
    return dcg[evaluable] / idcg[evaluable], evaluable


def _padded(flat: np.ndarray, pad: np.ndarray, fill: float) -> np.ndarray:
    out = np.full(pad.shape, fill)
    out[~pad] = flat
    return out


def evaluate(
    model_or_fn: Model | Scorer, sessions: Sequence[QuerySession], k: int
) -> EvalSummary | list[EvalSummary]:
    """Score every session and average NDCG@k per domain.

    NDCG runs over all sessions at once (``_ndcg_rows``, of which
    ``ndcg_at_k`` is the one-session case); sessions whose labels are all
    zero are left out.  A stack of several members gives one summary per
    member: its members score one at a time, and NDCG runs over all of
    them at once.
    """
    if k < 1:
        raise ValueError(f"evaluate: k must be >= 1, got {k}")
    scores = _member_scores(model_or_fn, sessions)
    labels = [session.labels() for session in sessions]
    for session, lab in zip(sessions, labels):
        if not lab.size:
            raise ValueError(f"session {session.query_id!r}: no items to rank")
    # the values of the evaluable sessions, member by member
    values, keep = iter(()), []
    if sessions:
        ndcg, evaluable = _ndcg_rows([v for member in scores for v in member],
                                     labels * len(scores), k)
        values, keep = iter(ndcg.tolist()), evaluable.tolist()
    summaries = []
    for m in range(len(scores)):
        sums: dict[int, float] = {}
        counts: dict[int, int] = {}
        for session, kept in zip(sessions, keep[m * len(sessions) :]):
            if kept:
                sums[session.domain] = sums.get(session.domain, 0.0) + next(values)
                counts[session.domain] = counts.get(session.domain, 0) + 1
        per_domain = {d: sums[d] / counts[d] for d in sorted(sums)}
        total_sessions = sum(counts.values())
        overall = sum(sums.values()) / total_sessions if total_sessions else None
        summaries.append(EvalSummary(
            k=k,
            per_domain=per_domain,
            per_domain_sessions={d: counts[d] for d in sorted(counts)},
            overall=overall,
            sessions_evaluated=total_sessions,
        ))
    return summaries[0] if len(summaries) == 1 else summaries
