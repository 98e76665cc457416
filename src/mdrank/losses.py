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

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor, _segments, add, cross_entropy, scale, segment_cross_entropy
from .data import QuerySession
from .models import Model, forward

__all__ = ["LossBreakdown", "listwise_loss", "domain_loss", "batch_loss"]


class _Layout(NamedTuple):
    """A batch's sessions and member batches, worked out once for both
    losses: session lengths, each session's first row, sessions per member,
    each member's first session, and each member's row count (None without
    ``members``, so the loss ops get no member blocks)."""

    lens: np.ndarray
    starts: np.ndarray
    counts: list[int]
    first: list[int]
    rows: list[int] | None


def _layout(lens: np.ndarray, members) -> _Layout:
    """The layout of sessions of checked lengths ``lens``, of which
    ``members[m]`` consecutive ones belong to member m (default: one member
    holds every session)."""
    starts = np.cumsum(lens) - lens
    if members is None:
        return _Layout(lens, starts, [lens.size], [0], None)
    counts = [int(c) for c in members]
    if not counts or min(counts) < 1 or sum(counts) != lens.size:
        raise ValueError(f"member batches {counts} do not split {lens.size} sessions")
    first = [0, *itertools.accumulate(counts)][:-1]
    return _Layout(lens, starts, counts, first, np.add.reduceat(lens, first).tolist())


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
    return _listwise_loss(t, lab, _layout(_segments(
        [lab.size] if lengths is None else lengths, lab.size, "listwise_loss"), members))[0]


def _listwise_loss(t: Tensor, lab: np.ndarray,
                   layout: _Layout) -> tuple[Tensor | None, list[int]]:
    """``listwise_loss`` on a checked layout, and each member's count of
    sessions with a positive label."""
    if np.any(lab < 0) or not np.all(np.isfinite(lab)):
        raise ValueError("listwise_loss: labels must be finite and non-negative")
    lens = layout.lens
    totals = np.add.reduceat(lab, layout.starts)
    used = totals > 0.0
    used_count = np.add.reduceat(used, layout.first, dtype=np.int64)
    if not used.any():
        return None, used_count.tolist()
    norm = np.repeat(np.where(used, totals, 1.0) * np.repeat(np.maximum(used_count, 1),
                                                             layout.counts), lens)
    loss = segment_cross_entropy(t, (lab / norm).reshape(t.shape), lens, layout.rows)
    return loss, used_count.tolist()


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
    n = domain_logits.shape[0]
    lens = _segments([n] if lengths is None else lengths, n, "domain_loss")
    return _domain_loss(domain_logits, domain, _layout(lens, members))


def _domain_loss(domain_logits: Tensor, domain, layout: _Layout) -> Tensor:
    """``domain_loss`` on a checked layout."""
    n, k = domain_logits.shape
    lens, counts = layout.lens, layout.counts
    doms = np.broadcast_to(np.asarray(domain, dtype=np.int64), lens.shape)
    if np.any(doms < 0) or np.any(doms >= k):
        raise ValueError(f"domain_loss: domain {doms.tolist()} out of range [0, {k})")
    target = np.zeros((n, k))
    target[np.arange(n), np.repeat(doms, lens)] = 1.0 / np.repeat(
        lens * np.repeat(counts, counts), lens)
    return cross_entropy(domain_logits, target, axis=1, members=layout.rows)


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
    one loss per member of the model, which is None when nothing in the
    batch contributes.

    A stack of several members gives one breakdown per member; ``members``
    splits the sessions into the members' batches.  A member whose batch
    contributes nothing has the breakdown of a skipped step and no
    gradient.
    """
    if not sessions:
        raise ValueError("batch_loss: empty batch")
    cfg = model.config
    n_members = len(model.seeds)
    scored = forward(model, sessions, members=members)
    layout = _layout(scored.lengths, scored.members)  # forward checked the lengths
    labels = np.concatenate([s.labels() for s in sessions])
    rank, used = _listwise_loss(scored.scores, labels, layout)
    pieces: list[Tensor] = []
    if rank is not None:
        pieces.append(rank)
    dom = None
    if cfg.variant.has_classifier:
        dom = _domain_loss(scored.domain_logits, [s.domain for s in sessions], layout)
        pieces.append(scale(dom, cfg.domain_loss_weight))

    loss = None if not pieces else pieces[0] if len(pieces) == 1 else add(*pieces)
    breakdowns = []
    for m in range(n_members):
        total = loss.values[m] if used[m] else 0.0 if dom is None else pieces[-1].values[m]
        breakdowns.append(LossBreakdown(
            ranking_loss=float(rank.values[m]) if used[m] else 0.0,
            domain_loss=None if dom is None else float(dom.values[m]),
            total=float(total),
            sessions_used=used[m],
        ))
    return (breakdowns if n_members > 1 else breakdowns[0]), loss
