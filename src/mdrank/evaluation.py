"""Offline ranking quality: NDCG@k per session, aggregated per domain."""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .data import QuerySession
from .models import Model, forward

__all__ = ["NonFiniteScoreError", "ndcg_at_k", "EvalSummary", "evaluate", "as_scorer"]

Scorer = Callable[[QuerySession], np.ndarray]


class NonFiniteScoreError(ValueError):
    """A ranker produced a NaN or infinite score, which has no rank."""


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
    order = sorted(range(n), key=lambda i: (-s[i], i))
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
            return forward(model, session).final_scores

        return score
    if callable(model_or_fn):
        fn = model_or_fn
        return lambda session: np.asarray(fn(session), dtype=np.float64)
    raise TypeError(f"cannot score with {type(model_or_fn).__name__}")


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
    scorer = as_scorer(model_or_fn)
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for session in sessions:
        value = ndcg_at_k(scorer(session), session.labels(), k)
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
