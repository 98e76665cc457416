"""Offline ranking quality: NDCG@k per session, aggregated per domain, and
the batched scoring path that evaluation and interleaving share."""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .data import QuerySession
from .models import Model, forward

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
    """A ranker produced a NaN or infinite score, which has no rank."""


def ranked_indices(scores: np.ndarray) -> np.ndarray:
    """Indices by score descending; equal scores (0.0 and -0.0 too) keep index order."""
    return np.lexsort((np.arange(scores.size), -scores))


def ndcg_at_k(scores: Sequence[float], labels: Sequence[float], k: int) -> float | None:
    """NDCG at cutoff k with raw labels as gains.

    Items sort by score descending, ties broken by original index ascending.
    Returns None for sessions whose labels are all zero (the metric is
    undefined there and such sessions are excluded from averages).  Raises
    ``NonFiniteScoreError`` on a NaN or infinite score.
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
    if not lab.any():
        return None
    n = s.size
    depth = min(k, n)
    order = ranked_indices(s)
    dcg = 0.0
    for rank in range(depth):
        dcg += lab[order[rank]] / math.log2(rank + 2)
    ideal = np.sort(lab)[::-1]
    idcg = 0.0
    for rank in range(depth):
        idcg += ideal[rank] / math.log2(rank + 2)
    return float(dcg / idcg)


def as_scorer(model_or_fn: Model | Scorer) -> Scorer:
    """Adapt a Model (or any session -> scores callable) to a scorer."""
    if isinstance(model_or_fn, Model):
        model = model_or_fn

        def score(session: QuerySession) -> np.ndarray:
            return forward(model, [session], domain_logits=False).session_scores()[0]

        return score
    if callable(model_or_fn):
        fn = model_or_fn
        return lambda session: np.asarray(fn(session), dtype=np.float64)
    raise TypeError(f"cannot score with {type(model_or_fn).__name__}")


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


def score_sessions(
    model_or_fn: Model | Scorer, sessions: Sequence[QuerySession]
) -> list[np.ndarray]:
    """Scores of every session, in session order.

    A Model scores chunks of sessions in one forward pass each, without
    its domain classifier; a callable is called per session.  Raises
    ``NonFiniteScoreError`` on a NaN or infinite score.
    """
    if isinstance(model_or_fn, Model):
        scores: list[np.ndarray] = [None] * len(sessions)
        for chunk in _length_chunks(sessions):
            batch = forward(model_or_fn, [sessions[i] for i in chunk], domain_logits=False)
            for i, values in zip(chunk, batch.session_scores()):
                scores[i] = values
    else:
        scorer = as_scorer(model_or_fn)
        scores = [scorer(session) for session in sessions]
    for session, values in zip(sessions, scores):
        if not np.all(np.isfinite(values)):
            raise NonFiniteScoreError(f"session {session.query_id!r}: scores must be finite")
    return scores


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


def evaluate(
    model_or_fn: Model | Scorer, sessions: Sequence[QuerySession], k: int
) -> EvalSummary:
    """Score every session and average NDCG@k per domain."""
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for session, scores in zip(sessions, score_sessions(model_or_fn, sessions)):
        value = ndcg_at_k(scores, session.labels(), k)
        if value is None:
            continue
        sums[session.domain] = sums.get(session.domain, 0.0) + float(value)
        counts[session.domain] = counts.get(session.domain, 0) + 1
    per_domain = {d: sums[d] / counts[d] for d in sorted(sums)}
    total_sessions = sum(counts.values())
    overall = sum(sums.values()) / total_sessions if total_sessions else None
    return EvalSummary(
        k=k,
        per_domain=per_domain,
        per_domain_sessions={d: counts[d] for d in sorted(counts)},
        overall=overall,
        sessions_evaluated=total_sessions,
    )
