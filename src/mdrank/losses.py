"""Listwise ranking loss, per-item domain-classification loss, and their
weighted combination over a batch.

The ranking loss is softmax cross-entropy between the score distribution
and the normalized label distribution, per session.  Sessions whose labels
are all zero carry no ranking signal: the ranking term leaves them out of
its average (and is None, a skip signal, when no session is left) while the
domain term still counts them.  Both losses take stacked scores cut into
sessions by ``lengths`` and record one tape node each.  For a stack of
models, ``members`` splits the sessions into the members' consecutive
batches, and each loss is one value per member, computed exactly as for
that member alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _segments, add, cross_entropy, scale, segment_cross_entropy
from .data import QuerySession
from .models import Model, forward

__all__ = ["LossBreakdown", "listwise_loss", "domain_loss", "batch_loss"]


def _member_ids(members, lens: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The member index of each session (``members[m]`` consecutive
    sessions belong to member m) and each member's row count."""
    counts = np.asarray(members, dtype=np.int64)
    if counts.ndim != 1 or np.any(counts < 1) or int(counts.sum()) != lens.size:
        raise ValueError(f"member batches {counts.tolist()} do not split {lens.size} sessions")
    ids = np.repeat(np.arange(counts.size), counts)
    rows = np.bincount(ids, weights=lens, minlength=counts.size).astype(np.int64).tolist()
    return ids, rows


def listwise_loss(scores, labels: Sequence[float], lengths=None,
                  members=None) -> Tensor | None:
    """Cross-entropy between softmax(scores) and labels/sum(labels) within
    each session, averaged over the sessions with a positive label.

    ``scores`` is an (n,) or (n, 1) vector; ``lengths`` cuts it into
    consecutive sessions (default: one session).  Returns a scalar tensor,
    or None when every label is zero (nothing can be ranked).  With
    ``members`` it returns one loss per member, each averaged over its own
    sessions; a member without a positive label gets no gradient.
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
    if members is None:
        norm = np.repeat(np.where(used, totals, 1.0) * used.sum(), lens)
        return segment_cross_entropy(t, (lab / norm).reshape(t.shape), lens)
    ids, rows = _member_ids(members, lens)
    used_count = np.bincount(ids[used], minlength=len(rows))
    norm = np.repeat(np.where(used, totals, 1.0) * np.maximum(used_count, 1)[ids], lens)
    return segment_cross_entropy(t, (lab / norm).reshape(t.shape), lens, rows)


def domain_loss(domain_logits: Tensor, domain, lengths=None, members=None) -> Tensor:
    """Cross-entropy of each item's logits against its session's domain id,
    averaged over each session's items, then over sessions (one value per
    member with ``members``).

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
    sessions, rows = lens.size, None
    if members is not None:
        ids, rows = _member_ids(members, lens)
        sessions = np.asarray(members)[ids]
    target = np.zeros((n, k))
    target[np.arange(n), np.repeat(doms, lens)] = 1.0 / np.repeat(lens * sessions, lens)
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
    session.  Returns the breakdown plus the loss tensor to backpropagate,
    which is None when nothing in the batch contributes.

    A stack of several members gives one breakdown per member and a vector
    of member losses; ``members`` splits the sessions into the members'
    batches.  A member whose batch contributes nothing has the breakdown
    of a skipped step and no gradient.
    """
    if not sessions:
        raise ValueError("batch_loss: empty batch")
    cfg = model.config
    n_members = len(model.seeds)
    scored = forward(model, sessions, members=members)
    members = None if n_members == 1 else scored.members  # one scalar loss alone
    lens = scored.lengths
    labels = np.concatenate([s.labels() for s in sessions])
    rank = listwise_loss(scored.scores, labels, lens, members)
    session_used = np.add.reduceat(labels, np.cumsum(lens) - lens) > 0.0
    used = np.bincount(np.repeat(np.arange(n_members), scored.members)[session_used],
                       minlength=n_members).tolist()
    pieces: list[Tensor] = []
    if rank is not None:
        pieces.append(rank)
    dom = None
    if cfg.variant.has_classifier:
        dom = domain_loss(scored.domain_logits, [s.domain for s in sessions], lens, members)
        pieces.append(scale(dom, cfg.domain_loss_weight))

    loss = None if not pieces else pieces[0] if len(pieces) == 1 else add(*pieces)
    breakdowns = []
    for m in range(n_members):
        if used[m]:
            total = loss.values.reshape(-1)[m]
        elif dom is not None:
            total = pieces[-1].values.reshape(-1)[m]
        else:
            total = 0.0
        breakdowns.append(LossBreakdown(
            ranking_loss=float(rank.values.reshape(-1)[m]) if used[m] else 0.0,
            domain_loss=None if dom is None else float(dom.values.reshape(-1)[m]),
            total=float(total),
            sessions_used=used[m],
        ))
    return (breakdowns if n_members > 1 else breakdowns[0]), loss
