"""Listwise ranking loss, per-item domain-classification loss, and their
weighted combination.

The ranking loss is softmax cross-entropy between the score distribution
and the normalized label distribution.  Sessions whose labels are all zero
carry no ranking signal; the loss functions report that with ``None`` (a
skip signal, not a value) and ``batch_loss`` leaves such sessions out of the
ranking average while still counting their domain term.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, add, log_softmax, mul_const, reduce_sum, reshape, scale
from .data import QuerySession
from .models import Model, ScoredSession, forward

__all__ = ["LossBreakdown", "listwise_loss", "domain_loss", "batch_loss"]


def _as_score_vector(scores) -> Tensor:
    t = scores if isinstance(scores, Tensor) else Tensor(scores)
    if t.values.ndim == 2 and t.shape[1] == 1:
        t = reshape(t, (t.shape[0],))
    if t.values.ndim != 1:
        raise ValueError(f"listwise_loss: scores must be a vector, got shape {t.shape}")
    return t


def listwise_loss(scores, labels: Sequence[float]) -> Tensor | None:
    """Cross-entropy between softmax(scores) and labels/sum(labels).

    Returns a scalar tensor, or None when every label is zero (the session
    cannot be ranked and should be skipped).
    """
    t = _as_score_vector(scores)
    lab = np.asarray(labels, dtype=np.float64)
    if lab.ndim != 1 or lab.size != t.values.size:
        raise ValueError(
            f"listwise_loss: {lab.size} labels for {t.values.size} scores"
        )
    if np.any(lab < 0) or not np.all(np.isfinite(lab)):
        raise ValueError("listwise_loss: labels must be finite and non-negative")
    total = lab.sum()
    if total == 0.0:
        return None
    target = lab / total
    return scale(reduce_sum(mul_const(log_softmax(t, axis=0), target)), -1.0)


def domain_loss(domain_logits: Tensor, domain: int) -> Tensor:
    """Mean over items of cross-entropy against the session's domain id."""
    if not isinstance(domain_logits, Tensor):
        domain_logits = Tensor(domain_logits)
    if domain_logits.values.ndim != 2:
        raise ValueError(
            f"domain_loss: logits must be (items, n_domains), got {domain_logits.shape}"
        )
    n, k = domain_logits.shape
    if not (0 <= domain < k):
        raise ValueError(f"domain_loss: domain {domain} out of range [0, {k})")
    picks = np.zeros((n, k))
    picks[:, domain] = -1.0 / n
    return reduce_sum(mul_const(log_softmax(domain_logits, axis=1), picks))


@dataclass
class LossBreakdown:
    """Scalar views of one loss evaluation.

    ``total = ranking_loss + domain_loss_weight * domain_loss`` when the
    domain term exists, else ``total = ranking_loss``.  ``sessions_used``
    counts sessions that contributed to the ranking term.
    """

    ranking_loss: float
    domain_loss: float | None
    total: float
    sessions_used: int


def batch_loss(
    model: Model, sessions: Sequence[QuerySession]
) -> tuple[LossBreakdown, Tensor | None]:
    """Combined loss over a batch of sessions.

    The ranking term averages over sessions with at least one positive
    label; the domain term (classifier variants only) averages over every
    session.  Returns the breakdown plus the loss tensor to backpropagate,
    which is None when nothing in the batch contributes.
    """
    if not sessions:
        raise ValueError("batch_loss: empty batch")
    cfg = model.config
    weighted = cfg.variant.has_classifier
    rank_terms: list[Tensor] = []
    dom_terms: list[Tensor] = []
    for session in sessions:
        scored: ScoredSession = forward(model, session)
        rl = listwise_loss(scored.final_scores_tensor, session.labels())
        if rl is not None:
            rank_terms.append(rl)
        if weighted:
            dom_terms.append(domain_loss(scored.domain_logits_tensor, session.domain))

    pieces: list[Tensor] = []
    rank_value = 0.0
    if rank_terms:
        total = rank_terms[0]
        for term in rank_terms[1:]:
            total = add(total, term)
        rank_mean = scale(total, 1.0 / len(rank_terms))
        rank_value = rank_mean.item()
        pieces.append(rank_mean)
    dom_value: float | None = None
    if dom_terms:
        total = dom_terms[0]
        for term in dom_terms[1:]:
            total = add(total, term)
        dom_mean = scale(total, 1.0 / len(dom_terms))
        dom_value = dom_mean.item()
        pieces.append(scale(dom_mean, cfg.domain_loss_weight))

    if not pieces:
        return LossBreakdown(0.0, dom_value, 0.0, 0), None
    loss = pieces[0]
    for piece in pieces[1:]:
        loss = add(loss, piece)
    return (
        LossBreakdown(
            ranking_loss=rank_value,
            domain_loss=dom_value,
            total=loss.item(),
            sessions_used=len(rank_terms),
        ),
        loss,
    )
