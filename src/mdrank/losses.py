"""Listwise ranking loss, per-item domain-classification loss, and their
weighted combination over a batch.

The ranking loss is softmax cross-entropy between the score distribution
and the normalized label distribution, per session.  Sessions whose labels
are all zero carry no ranking signal: the ranking term leaves them out of
its average (and is None, a skip signal, when no session is left) while the
domain term still counts them.  Both losses take stacked scores cut into
sessions by ``lengths`` and record one tape node each.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _segments, add, cross_entropy, scale, segment_cross_entropy
from .data import QuerySession
from .models import Model, forward

__all__ = ["LossBreakdown", "listwise_loss", "domain_loss", "batch_loss"]


def listwise_loss(scores, labels: Sequence[float], lengths=None) -> Tensor | None:
    """Cross-entropy between softmax(scores) and labels/sum(labels) within
    each session, averaged over the sessions with a positive label.

    ``scores`` is an (n,) or (n, 1) vector; ``lengths`` cuts it into
    consecutive sessions (default: one session).  Returns a scalar tensor,
    or None when every label is zero (nothing can be ranked).
    """
    t = scores if isinstance(scores, Tensor) else Tensor(scores)
    if not (t.values.ndim == 1 or t.values.ndim == 2 and t.shape[1] == 1):
        raise ValueError(f"listwise_loss: scores must be a vector, got shape {t.shape}")
    lab = np.asarray(labels, dtype=np.float64)
    if lab.ndim != 1 or lab.size != t.values.size:
        raise ValueError(
            f"listwise_loss: {lab.size} labels for {t.values.size} scores"
        )
    if np.any(lab < 0) or not np.all(np.isfinite(lab)):
        raise ValueError("listwise_loss: labels must be finite and non-negative")
    lens = _segments([lab.size] if lengths is None else lengths, lab.size, "listwise_loss")
    totals = np.add.reduceat(lab, np.cumsum(lens) - lens)
    used = totals > 0.0
    if not used.any():
        return None
    norm = np.repeat(np.where(used, totals, 1.0) * used.sum(), lens)
    return segment_cross_entropy(t, (lab / norm).reshape(t.shape), lens)


def domain_loss(domain_logits: Tensor, domain, lengths=None) -> Tensor:
    """Cross-entropy of each item's logits against its session's domain id,
    averaged over each session's items, then over sessions.

    ``domain`` is one id, or one per session of ``lengths`` (default: all
    rows form one session).
    """
    if not isinstance(domain_logits, Tensor):
        domain_logits = Tensor(domain_logits)
    if domain_logits.values.ndim != 2:
        raise ValueError(
            f"domain_loss: logits must be (items, n_domains), got {domain_logits.shape}"
        )
    n, k = domain_logits.shape
    lens = _segments([n] if lengths is None else lengths, n, "domain_loss")
    doms = np.broadcast_to(np.asarray(domain, dtype=np.int64), lens.shape)
    if np.any(doms < 0) or np.any(doms >= k):
        raise ValueError(f"domain_loss: domain {doms.tolist()} out of range [0, {k})")
    target = np.zeros((n, k))
    target[np.arange(n), np.repeat(doms, lens)] = 1.0 / np.repeat(lens * lens.size, lens)
    return cross_entropy(domain_logits, target, axis=1)


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
    """Combined loss over a batch of sessions, scored in one forward pass.

    The ranking term averages over sessions with at least one positive
    label; the domain term (classifier variants only) averages over every
    session.  Returns the breakdown plus the loss tensor to backpropagate,
    which is None when nothing in the batch contributes.
    """
    if not sessions:
        raise ValueError("batch_loss: empty batch")
    cfg = model.config
    scored = forward(model, sessions)
    lens = scored.lengths
    labels = np.concatenate([s.labels() for s in sessions])
    rank = listwise_loss(scored.scores, labels, lens)
    pieces: list[Tensor] = []
    rank_value = 0.0
    sessions_used = 0
    if rank is not None:
        rank_value = rank.item()
        sessions_used = int(np.count_nonzero(np.add.reduceat(labels, np.cumsum(lens) - lens)))
        pieces.append(rank)
    dom_value: float | None = None
    if cfg.variant.has_classifier:
        dom = domain_loss(scored.domain_logits, [s.domain for s in sessions], lens)
        dom_value = dom.item()
        pieces.append(scale(dom, cfg.domain_loss_weight))

    if not pieces:
        return LossBreakdown(0.0, dom_value, 0.0, 0), None
    loss = pieces[0] if len(pieces) == 1 else add(*pieces)
    return (
        LossBreakdown(
            ranking_loss=rank_value,
            domain_loss=dom_value,
            total=loss.item(),
            sessions_used=sessions_used,
        ),
        loss,
    )
