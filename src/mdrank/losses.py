"""Listwise ranking loss, per-item domain-classification loss, and their
weighted combination over a batch.

The ranking loss is softmax cross-entropy between the score distribution
and the normalized label distribution, per session.  Sessions whose labels
are all zero carry no ranking signal: the ranking term leaves them out of
its average (and is None, a skip signal, when no session is left) while the
domain term still counts them.  ``listwise_loss`` and ``domain_loss``
score one session; ``batch_loss`` scores a batch in one forward pass and
takes its layout from it (``ScoredBatch`` ``lengths``, ``members`` and
``rows``), so each loss records one tape node over the batch.  For a stack
of models each loss is one value per member, computed exactly as for that
member alone; a lone model's losses are scalars, as every op of its forward
pass runs on one block.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _segments, add, cross_entropy, scale, segment_cross_entropy
from .data import QuerySession
from .models import Model, forward

__all__ = ["LossBreakdown", "listwise_loss", "domain_loss", "batch_loss"]


def listwise_loss(scores, labels: Sequence[float]) -> Tensor | None:
    """Cross-entropy between softmax(scores) and labels/sum(labels) over
    one session.

    ``scores`` is an (n,) or (n, 1) vector.  Returns a scalar tensor, or
    None when every label is zero (nothing can be ranked).
    """
    t = scores if isinstance(scores, Tensor) else Tensor(scores)
    if not (t.values.ndim == 1 or t.values.ndim == 2 and t.shape[1] == 1):
        raise ValueError(f"listwise_loss: scores must be a vector, got shape {t.shape}")
    lab = np.asarray(labels, dtype=np.float64)
    if lab.ndim != 1 or lab.size != t.values.size:
        raise ValueError(
            f"listwise_loss: {lab.size} labels for {t.values.size} scores"
        )
    lens = _segments([lab.size], lab.size, "listwise_loss")
    return _listwise_loss(t, lab, lens, (1,), None)[0]


def _listwise_loss(t: Tensor, lab: np.ndarray, lens: np.ndarray, members: Sequence[int],
                   rows) -> tuple[Tensor | None, list[int]]:
    """The ranking loss of sessions of checked lengths ``lens``, averaged
    over the sessions with a positive label of each member (``members[m]``
    consecutive sessions, ``rows`` as ``forward`` passed them to its ops),
    and each member's count of those sessions.  A member without one gets
    no gradient."""
    if np.any(lab < 0) or not np.all(np.isfinite(lab)):
        raise ValueError("listwise_loss: labels must be finite and non-negative")
    totals = np.add.reduceat(lab, np.cumsum(lens) - lens)
    used = totals > 0.0
    used_count = np.add.reduceat(used, np.cumsum(members) - members, dtype=np.int64)
    if not used.any():
        return None, used_count.tolist()
    norm = np.repeat(np.where(used, totals, 1.0) * np.repeat(np.maximum(used_count, 1),
                                                             members), lens)
    loss = segment_cross_entropy(t, (lab / norm).reshape(t.shape), lens, rows)
    return loss, used_count.tolist()


def domain_loss(domain_logits: Tensor, domain) -> Tensor:
    """Cross-entropy of each item's logits against the session's domain
    id, averaged over the items of one session."""
    if not isinstance(domain_logits, Tensor):
        domain_logits = Tensor(domain_logits)
    if domain_logits.values.ndim != 2:
        raise ValueError(
            f"domain_loss: logits must be (items, n_domains), got {domain_logits.shape}"
        )
    n = domain_logits.shape[0]
    return _domain_loss(domain_logits, domain, _segments([n], n, "domain_loss"), (1,), None)


def _domain_loss(domain_logits: Tensor, domain, lens: np.ndarray, members: Sequence[int],
                 rows) -> Tensor:
    """``domain_loss`` of each session (``domain`` is one id, or one per
    session), averaged over each member's sessions, laid out as for
    ``_listwise_loss``."""
    n, k = domain_logits.shape
    doms = np.broadcast_to(np.asarray(domain, dtype=np.int64), lens.shape)
    if np.any(doms < 0) or np.any(doms >= k):
        raise ValueError(f"domain_loss: domain {doms.tolist()} out of range [0, {k})")
    target = np.zeros((n, k))
    target[np.arange(n), np.repeat(doms, lens)] = 1.0 / np.repeat(
        lens * np.repeat(members, members), lens)
    return cross_entropy(domain_logits, target, axis=1, members=rows)


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
    model: Model, sessions: Sequence[QuerySession], members: Sequence[int] | None = None,
) -> tuple[LossBreakdown | list[LossBreakdown], Tensor | None]:
    """Combined loss over a batch of sessions, scored in one forward pass.

    The ranking term averages over sessions with at least one positive
    label; the domain term (classifier variants only) averages over every
    session.  Returns the breakdown plus the loss tensor to backpropagate:
    a scalar for a lone model, one loss per member of a stack, and None
    when nothing in the batch contributes.

    A stack of several members gives one breakdown per member; ``members``
    splits the sessions into the members' batches.  A member whose batch
    contributes nothing has the breakdown of a skipped step and no
    gradient.
    """
    if not sessions:
        raise ValueError("batch_loss: empty batch")
    cfg = model.config
    scored = forward(model, sessions, members=members)
    layout = scored.lengths, scored.members, scored.rows  # as forward checked them
    labels = np.concatenate([s.labels() for s in sessions])
    rank, used = _listwise_loss(scored.scores, labels, *layout)
    dom = weighted = None
    if cfg.variant.has_classifier:
        dom = _domain_loss(scored.domain_logits, [s.domain for s in sessions], *layout)
        weighted = scale(dom, cfg.domain_loss_weight)
    pieces = [t for t in (rank, weighted) if t is not None]
    loss = None if not pieces else pieces[0] if len(pieces) == 1 else add(*pieces)
    # one value per member; a lone model's losses are scalars
    rank_v, dom_v, loss_v, weighted_v = (None if t is None else t.values.reshape(-1)
                                         for t in (rank, dom, loss, weighted))
    breakdowns = []
    for m, n_used in enumerate(used):
        total = loss_v[m] if n_used else 0.0 if dom is None else weighted_v[m]
        breakdowns.append(LossBreakdown(
            ranking_loss=float(rank_v[m]) if n_used else 0.0,
            domain_loss=None if dom is None else float(dom_v[m]),
            total=float(total),
            sessions_used=n_used,
        ))
    return (breakdowns if len(breakdowns) > 1 else breakdowns[0]), loss
