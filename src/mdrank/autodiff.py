"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records every differentiable operation executed inside its
context manager; ``backward`` replays the records in reverse to accumulate
gradients into each tensor's ``grad`` buffer.  Graphs are flat and rebuilt
from scratch on every training step, so control flow in the forward pass
needs no special handling.

Operations called while no tape is active still compute values (useful for
inference and finite differences) but record nothing.  The active tape is
per thread (a ``contextvars`` variable), so a thread scoring without a tape
never records onto another thread's tape.

Member blocks: the ops that hold parameters (``linear``, ``layer_norm``,
``attention``) and the loss sums (``cross_entropy``,
``segment_cross_entropy``) take an optional ``members``, the row counts of
consecutive member blocks of a stack of models trained in lockstep.  Their
parameters then carry a leading member axis, block m uses member m's slice
only, and each loss is one sum per member.  Every block goes through the
same numpy calls it would alone, so a member's values and gradients are
bit-identical to running it by itself.  A gradient records which members
it reaches (``Tensor.grad_members``): a member without rows in a parameter
op, or whose loss targets are all zero, gets no gradient there, as a model
run alone would not.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from contextvars import ContextVar

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "Node",
    "ShapeError",
    "backward",
    "grad_check",
    "add",
    "scale",
    "relu",
    "cross_entropy",
    "segment_cross_entropy",
    "layer_norm",
    "concat_cols",
    "take_rows",
    "put_rows",
    "gradient_reversal",
    "linear",
    "attention",
]

# Additive logit penalty for padded attention keys.  Large enough that
# exp() underflows to exactly 0.0, small enough to stay finite in float64.
_MASK_FILL = -1e30


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class Tensor:
    """Dense float64 array plus an optional gradient buffer.

    ``grad`` is set by the backward pass and has the same shape as
    ``values``.  It is a fresh array, or the tensor's ``grad_buffer`` when
    one is set: a model's parameters hold views into one gradient vector
    there, which the first gradient of each backward pass overwrites.
    ``grad_members`` is None when the gradient reaches every member, else
    the boolean mask of the members it reaches.  Tensors are never mutated
    by operations; optimizers may update ``values`` in place between steps.
    """

    __slots__ = ("values", "grad", "requires_grad", "grad_buffer", "grad_members")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.grad_buffer: np.ndarray | None = None
        self.grad_members: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.values.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None
        self.grad_members = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Node:
    """One recorded operation: its name, output, and backward rule."""

    __slots__ = ("op", "out", "backward_fn")

    def __init__(self, op: str, out: Tensor, backward_fn: Callable[[np.ndarray], None]):
        self.op = op
        self.out = out
        self.backward_fn = backward_fn


_active_tape: ContextVar["Tape | None"] = ContextVar("mdrank_active_tape", default=None)
# The members reached by the gradient whose backward rule is running.
_upstream_members: ContextVar["np.ndarray | None"] = ContextVar(
    "mdrank_upstream_members", default=None)


class Tape:
    """Topologically ordered record of one forward pass.

    Nodes are appended in execution order, so every node's inputs are
    produced by earlier nodes (or are leaves).  Only one tape may be active
    at a time in a thread; nesting raises.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._token = None

    def __enter__(self) -> "Tape":
        if _active_tape.get() is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        self._token = _active_tape.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _active_tape.reset(self._token)
        self._token = None
        return False


def _record(op: str, out: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
    if out.requires_grad:
        tape = _active_tape.get()
        if tape is not None:
            tape.nodes.append(Node(op, out, backward_fn))


def _accumulate(t: Tensor, g: np.ndarray, members: np.ndarray | None = None) -> None:
    """Add ``g`` to ``t.grad``; ``members`` masks the members it reaches
    (None: every member the upstream gradient reaches)."""
    if not t.requires_grad:
        return
    upstream = _upstream_members.get()
    if upstream is not None:
        members = upstream if members is None else members & upstream
    if t.grad is None:
        # g + 0.0 has the bits of zeros + g and overwrites a stale buffer
        buf = t.grad_buffer if t.grad_buffer is not None else np.empty_like(t.values)
        t.grad = np.add(g, 0.0, out=buf)
        t.grad_members = members
    else:
        t.grad += g
        if t.grad_members is not None:
            t.grad_members = None if members is None else t.grad_members | members


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into every tensor recorded on the tape.

    ``loss`` is a scalar, or a vector of the member losses of a stack, each
    seeded with gradient 1.  Gradients add up across multiple uses of the
    same tensor and across repeated backward calls; zero them explicitly
    between steps.
    """
    if loss.values.ndim > 1:
        raise ShapeError(f"backward needs a scalar or member-loss vector, got shape {loss.shape}")
    if not any(node.out is loss for node in tape.nodes):
        raise ValueError("loss tensor was not recorded on this tape")
    loss.grad = np.ones_like(loss.values)
    upstream = None
    try:
        for node in reversed(tape.nodes):
            out = node.out
            if out.grad is not None:
                if out.grad_members is not upstream:
                    upstream = out.grad_members
                    _upstream_members.set(upstream)
                node.backward_fn(out.grad)
    finally:
        _upstream_members.set(None)


def _blocks(members, n_rows: int, n_members: int, where: str):
    """Row ranges of the member blocks of ``members`` (row counts), and the
    mask of members with rows (None when all have some)."""
    counts = [int(c) for c in members]
    if len(counts) != n_members or min(counts) < 0 or sum(counts) != n_rows:
        raise ShapeError(f"{where}: member blocks {counts} do not split {n_rows} rows "
                         f"among {n_members} members")
    ends = list(itertools.accumulate(counts))
    present = None if all(counts) else np.array([c > 0 for c in counts])
    return list(zip([0, *ends], ends)), present


def _by_member(ufunc, rows: np.ndarray, values: np.ndarray, blocks, out=None) -> np.ndarray:
    """``ufunc(rows[block], values[m])`` for every member block m."""
    if out is None:
        out = np.empty(rows.shape)
    for (r0, r1), vm in zip(blocks, values):
        ufunc(rows[r0:r1], vm, out=out[r0:r1])
    return out


def _member_loss(prod: np.ndarray, target: np.ndarray, blocks):
    """``-sum(prod)`` per member block, and the mask of members whose
    targets are not all zero (None when all are): a zero target is an
    identically zero loss, which a model run alone never records."""
    value = np.array([prod[r0:r1].sum() for r0, r1 in blocks]) * -1.0
    live = [bool(target[r0:r1].any()) for r0, r1 in blocks]
    return value, None if all(live) else np.array(live)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.values + b.values, a.requires_grad or b.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    _record("add", out, bwd)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor, members=None) -> Tensor:
    """Dense layer ``x @ w + b`` with a (n,) bias broadcast over the rows.

    With ``members``, ``w`` is ``(S, d, n)`` and ``b`` ``(S, n)``, and
    member block m computes ``x[block] @ w[m] + b[m]``.
    """
    if members is not None:
        return _stacked_linear(x, w, b, members)
    if (x.values.ndim != 2 or w.values.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != (w.shape[1],)):
        raise ShapeError(f"linear: incompatible shapes {x.shape}, {w.shape} and {b.shape}")
    xv, wv = x.values, w.values
    out = Tensor(xv @ wv + b.values, x.requires_grad or w.requires_grad or b.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(b, np.add.reduce(g, axis=0))
        _accumulate(x, g @ wv.T)
        _accumulate(w, xv.T @ g)

    _record("linear", out, bwd)
    return out


def _stacked_linear(x: Tensor, w: Tensor, b: Tensor, members) -> Tensor:
    xv, wv, bv = x.values, w.values, b.values
    if (xv.ndim != 2 or wv.ndim != 3 or xv.shape[1] != wv.shape[1]
            or bv.shape != (wv.shape[0], wv.shape[2])):
        raise ShapeError(f"linear: incompatible shapes {x.shape}, {w.shape} and {b.shape}")
    blocks, present = _blocks(members, xv.shape[0], wv.shape[0], "linear")
    values = np.empty((xv.shape[0], wv.shape[2]))
    for (r0, r1), wm, bm in zip(blocks, wv, bv):
        part = values[r0:r1]
        np.matmul(xv[r0:r1], wm, out=part)
        part += bm
    out = Tensor(values, x.requires_grad or w.requires_grad or b.requires_grad)

    def bwd(g: np.ndarray) -> None:
        gb, gw = np.empty_like(bv), np.empty_like(wv)
        gx = np.empty_like(xv) if x.requires_grad else None
        for m, (r0, r1) in enumerate(blocks):
            gm = g[r0:r1]
            np.add.reduce(gm, axis=0, out=gb[m])
            if gx is not None:
                np.matmul(gm, wv[m].T, out=gx[r0:r1])
            np.matmul(xv[r0:r1].T, gm, out=gw[m])
        _accumulate(b, gb, present)
        if gx is not None:
            _accumulate(x, gx)
        _accumulate(w, gw, present)

    _record("linear", out, bwd)
    return out


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.values * c, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, c * g)

    _record("scale", out, bwd)
    return out


def relu(x: Tensor) -> Tensor:
    mask = x.values > 0.0
    # np.maximum (not np.where) so NaN inputs propagate instead of clipping to 0
    out = Tensor(np.maximum(x.values, 0.0), x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, np.where(mask, g, 0.0))

    _record("relu", out, bwd)
    return out


def _check_axis(x: Tensor, axis: int) -> int:
    nd = x.values.ndim
    if not isinstance(axis, int) or not (-nd <= axis < nd):
        raise ShapeError(f"invalid axis {axis!r} for shape {x.shape}")
    return axis % nd if nd else 0


def cross_entropy(x: Tensor, target, axis: int, members=None) -> Tensor:
    """``-sum(target * log_softmax(x, axis))`` as one node; ``target`` is a
    constant of ``x``'s shape.  The gradient is ``softmax(x) * sum(t) - t``
    along ``axis`` (for ListNet's normalized targets, ``softmax(s) - y/sum(y)``).
    With ``members`` (row blocks of a 2-d ``x``, softmax along axis 1) the
    result is one sum per member.
    """
    axis = _check_axis(x, axis)
    tv = np.asarray(target, dtype=np.float64)
    if tv.shape != x.shape:
        raise ShapeError(f"cross_entropy: target shape {tv.shape} != tensor shape {x.shape}")
    blocks = None
    if members is not None:
        if x.values.ndim != 2 or axis != 1:
            raise ShapeError("cross_entropy: member blocks need a 2-d tensor and axis 1")
        blocks, _ = _blocks(members, x.shape[0], len(members), "cross_entropy")
    shifted = x.values - np.maximum.reduce(x.values, axis=axis, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(shifted), axis=axis, keepdims=True))
    y = shifted - lse
    p = np.exp(y)
    value, live = (((y * tv).sum() * -1.0, None) if blocks is None
                   else _member_loss(y * tv, tv, blocks))
    out = Tensor(value, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        if blocks is not None:
            g = np.repeat(g, [r1 - r0 for r0, r1 in blocks])[:, None]
        gy = tv * (-1.0 * g)
        _accumulate(x, gy - p * np.add.reduce(gy, axis=axis, keepdims=True), live)

    _record("cross_entropy", out, bwd)
    return out


def _segments(lengths, total: int, where: str) -> np.ndarray:
    """``lengths`` as an int array of positive counts that add up to ``total``."""
    lens = np.asarray(lengths, dtype=np.int64)
    if lens.ndim != 1 or lens.size == 0 or np.any(lens < 1) or int(lens.sum()) != total:
        raise ShapeError(f"{where}: segment lengths {lens.tolist()} do not split {total} rows")
    return lens


def segment_cross_entropy(x: Tensor, target, lengths, members=None) -> Tensor:
    """``cross_entropy`` along a score vector cut into consecutive segments:
    the softmax runs within each segment (``lengths[i]`` entries), and the
    loss sums ``-target * log_softmax`` over every entry.  ``x`` is ``(n,)``
    or ``(n, 1)``; ``target`` is a constant of its shape.  With ``members``
    (row blocks) the result is one sum per member.
    """
    tv = np.asarray(target, dtype=np.float64)
    if tv.shape != x.shape or not (x.values.ndim == 1 or x.values.ndim == 2 and x.shape[1] == 1):
        raise ShapeError(
            f"segment_cross_entropy: need an (n,) or (n, 1) tensor and a target of its "
            f"shape, got {x.shape} and {tv.shape}"
        )
    lens = _segments(lengths, x.values.size, "segment_cross_entropy")
    blocks = None
    if members is not None:
        blocks, _ = _blocks(members, x.values.size, len(members), "segment_cross_entropy")
    starts = np.cumsum(lens) - lens
    xv = x.values.reshape(-1)
    t = tv.reshape(-1)
    shifted = xv - np.repeat(np.maximum.reduceat(xv, starts), lens)
    y = shifted - np.repeat(np.log(np.add.reduceat(np.exp(shifted), starts)), lens)
    p = np.exp(y)
    value, live = (((y * t).sum() * -1.0, None) if blocks is None
                   else _member_loss(y * t, t, blocks))
    out = Tensor(value, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        if blocks is not None:
            g = np.repeat(g, [r1 - r0 for r0, r1 in blocks])
        gy = t * (-1.0 * g)
        gx = gy - p * np.repeat(np.add.reduceat(gy, starts), lens)
        _accumulate(x, gx.reshape(x.shape), live)

    _record("segment_cross_entropy", out, bwd)
    return out


def _row_mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=1, keepdims=True)``: the same sum and division,
    without ``ndarray.mean``'s Python overhead."""
    return np.add.reduce(a, axis=1, keepdims=True) / a.shape[1]


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5,
               members=None) -> Tensor:
    """Normalize each row of a 2-d tensor to zero mean and unit variance,
    then apply a learned elementwise scale and shift (``(S, d)`` with
    ``members``, member m's rows using row m)."""
    if x.values.ndim != 2:
        raise ShapeError(f"layer_norm: expected 2-d input, got shape {x.shape}")
    d = x.shape[1]
    want = (d,) if members is None else (len(members), d)
    if gain.shape != want or bias.shape != want:
        raise ShapeError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} do not match width {d}"
        )
    blocks, present = (None, None) if members is None else _blocks(
        members, x.shape[0], len(members), "layer_norm")
    mu = _row_mean(x.values)
    var = _row_mean((x.values - mu) ** 2)
    r = 1.0 / np.sqrt(var + eps)
    n = (x.values - mu) * r
    gv, bv = gain.values, bias.values
    requires_grad = x.requires_grad or gain.requires_grad or bias.requires_grad
    if blocks is None:
        out = Tensor(n * gv, requires_grad)
        out.values += bv
    else:
        out = Tensor(_by_member(np.multiply, n, gv, blocks), requires_grad)
        _by_member(np.add, out.values, bv, blocks, out=out.values)

    def bwd(g: np.ndarray) -> None:
        dn = g * gv if blocks is None else _by_member(np.multiply, g, gv, blocks)
        _accumulate(
            x,
            r * (dn - _row_mean(dn) - n * _row_mean(dn * n)),
        )
        gn = g * n
        if blocks is None:
            _accumulate(gain, np.add.reduce(gn, axis=0))
            _accumulate(bias, np.add.reduce(g, axis=0))
            return
        g_gain, g_bias = np.empty_like(gv), np.empty_like(bv)
        for m, (r0, r1) in enumerate(blocks):
            np.add.reduce(gn[r0:r1], axis=0, out=g_gain[m])
            np.add.reduce(g[r0:r1], axis=0, out=g_bias[m])
        _accumulate(gain, g_gain, present)
        _accumulate(bias, g_bias, present)

    _record("layer_norm", out, bwd)
    return out


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: incompatible shapes {a.shape} and {b.shape}")
    na = a.shape[1]
    out = Tensor(np.hstack([a.values, b.values]), a.requires_grad or b.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g[:, :na])
        _accumulate(b, g[:, na:])

    _record("concat_cols", out, bwd)
    return out


def take_rows(x: Tensor, rows) -> Tensor:
    """The rows of a 2-d tensor at the distinct indices ``rows``, in order."""
    idx = np.asarray(rows, dtype=np.intp)
    if (x.values.ndim != 2 or idx.ndim != 1 or idx.size == 0 or idx.min() < 0
            or idx.max() >= x.shape[0] or np.unique(idx).size != idx.size):
        raise ShapeError(f"take_rows: need distinct row indices into shape {x.shape}")
    out = Tensor(x.values[idx], x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.values)
            full[idx] = g
            _accumulate(x, full)

    _record("take_rows", out, bwd)
    return out


def put_rows(parts: Sequence[Tensor], rows: Sequence, n_rows: int) -> Tensor:
    """The inverse of ``take_rows``: an ``(n_rows, cols)`` tensor whose rows
    ``rows[i]`` hold ``parts[i]``.  The row sets must partition
    ``range(n_rows)``."""
    idxs = [np.asarray(r, dtype=np.intp) for r in rows]
    if not parts or len(parts) != len(idxs):
        raise ShapeError(f"put_rows: {len(parts)} parts for {len(idxs)} row sets")
    cols = parts[0].shape[-1]
    for part, idx in zip(parts, idxs):
        if part.shape != (idx.size, cols):
            raise ShapeError(f"put_rows: part shape {part.shape} does not match "
                             f"{idx.size} rows of width {cols}")
    if not np.array_equal(np.sort(np.concatenate(idxs)), np.arange(n_rows)):
        raise ShapeError(f"put_rows: row sets do not partition {n_rows} rows")
    values = np.empty((n_rows, cols))
    for part, idx in zip(parts, idxs):
        values[idx] = part.values
    out = Tensor(values, any(part.requires_grad for part in parts))

    def bwd(g: np.ndarray) -> None:
        for part, idx in zip(parts, idxs):
            _accumulate(part, g[idx])

    _record("put_rows", out, bwd)
    return out


def gradient_reversal(x: Tensor, lam: float = 1.0) -> Tensor:
    """Identity in the forward direction; multiplies the upstream gradient
    by ``-lam`` in the backward direction.

    Finite differences cannot see this operation (the forward value is
    unchanged), so ``grad_check`` refuses networks containing it; test the
    sign-flip property directly instead.
    """
    lam = float(lam)
    if lam < 0.0:
        raise ValueError(f"gradient_reversal: lam must be non-negative, got {lam}")
    out = Tensor(x.values, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, -lam * g)

    _record("gradient_reversal", out, bwd)
    return out


def _attention_core(qkv: np.ndarray, lens: np.ndarray, heads: int):
    """Attention of the stacked projected rows ``qkv`` (queries, keys and
    values side by side) within each session, padded to the longest
    session.  Returns the output rows and the rule mapping their gradient
    to the gradient of ``qkv``."""
    n, d = qkv.shape[0], qkv.shape[1] // 3
    b, span, dh = lens.size, int(lens.max()), d // heads
    ragged = b * span != n
    c = 1.0 / math.sqrt(dh)
    if ragged:
        seg = np.repeat(np.arange(b), lens)
        pos = np.arange(n) - np.repeat(np.cumsum(lens) - lens, lens)
        padded = np.zeros((b, span, 3 * d))
        padded[seg, pos] = qkv
    else:
        padded = qkv.reshape(b, span, 3 * d)
    # (3, B, heads, L, dh): queries, keys, values
    q, k, v = padded.reshape(b, span, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    # (B, heads, L, L) is the largest array here: logits become weights in place
    weights = q @ k.swapaxes(-1, -2)
    weights *= c
    if ragged:
        weights += np.where(np.arange(span) < lens[:, None], 0.0, _MASK_FILL)[:, None, None, :]
    weights -= np.maximum.reduce(weights, axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights, axis=-1, keepdims=True)
    o = (weights @ v).transpose(0, 2, 1, 3).reshape(b, span, d)

    def back(g: np.ndarray) -> np.ndarray:
        if ragged:
            gp = np.zeros((b, span, d))
            gp[seg, pos] = g
        else:
            gp = g.reshape(b, span, d)
        go = gp.reshape(b, span, heads, dh).transpose(0, 2, 1, 3)
        ds = go @ v.swapaxes(-1, -2)  # d(weights), then d(logits) in place
        ds -= np.add.reduce(ds * weights, axis=-1, keepdims=True)
        ds *= weights
        ds *= c
        grads = np.stack([ds @ k, ds.swapaxes(-1, -2) @ q, weights.swapaxes(-1, -2) @ go])
        grads = grads.transpose(1, 3, 0, 2, 4).reshape(b, span, 3 * d)
        return grads[seg, pos] if ragged else grads.reshape(n, 3 * d)

    return (o[seg, pos] if ragged else o.reshape(n, d)), back


def _span_groups(lens: np.ndarray, blocks) -> list[tuple[object, np.ndarray]]:
    """The member blocks grouped by the length of their longest session,
    as (rows, session lengths) pairs: rows is a slice when the group's
    blocks are consecutive, else an index array.  Each group pads its
    sessions exactly as each of its members alone."""
    ends = np.cumsum(lens)
    cuts = np.searchsorted(ends, [r1 for _, r1 in blocks], side="right").tolist()
    groups: dict[int, list[tuple[int, int, int, int]]] = {}
    for (r0, r1), s0, s1 in zip(blocks, [0, *cuts], cuts):
        if r1 != (int(ends[s1 - 1]) if s1 else 0):
            raise ShapeError(f"attention: member block ({r0}, {r1}) cuts a session")
        if s1 > s0:
            groups.setdefault(int(lens[s0:s1].max()), []).append((r0, r1, s0, s1))
    out = []
    for parts in groups.values():
        if all(a[1] == b[0] for a, b in zip(parts, parts[1:])):
            out.append((slice(parts[0][0], parts[-1][1]), lens[parts[0][2] : parts[-1][3]]))
        else:
            out.append((np.concatenate([np.arange(r0, r1) for r0, r1, _, _ in parts]),
                        np.concatenate([lens[s0:s1] for _, _, s0, s1 in parts])))
    return out


def attention(
    tokens: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    lengths,
    heads: int = 1,
    members=None,
) -> Tensor:
    """Scaled dot-product self-attention within each session of a stacked
    batch, as one tape node.

    ``tokens`` holds the rows of consecutive sessions, ``lengths[b]`` rows
    for session b; a row attends only to the rows of its own session.
    Queries, keys and values are projected in one product and split across
    ``heads`` equal slices.  Internally the sessions are padded to a
    ``(B, heads, L, dh)`` layout in which padded keys get the logit
    ``_MASK_FILL``, hence exactly zero weight; when every session has the
    same length the padding is a reshape and no mask is built.  No matrix
    spans two sessions.  With ``members`` (row blocks, which must not cut
    a session) the weights are ``(S, d, d)``, and members whose longest
    sessions are equally long share one padded layout.

    A single-row session's output equals the value projection of that row
    (its attention weight is 1).
    """
    if tokens.values.ndim != 2:
        raise ShapeError(f"attention: expected 2-d tokens, got shape {tokens.shape}")
    n, d = tokens.shape
    lead = () if members is None else (len(members),)
    for name, w in (("wq", wq), ("wk", wk), ("wv", wv)):
        if w.shape != (*lead, d, d):
            raise ShapeError(f"attention: {name} shape {w.shape} does not match width {d}")
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"attention: width {d} is not divisible by {heads} heads")
    lens = _segments(lengths, n, "attention")
    xv = tokens.values
    w_all = np.concatenate([wq.values, wk.values, wv.values], axis=-1)
    requires_grad = tokens.requires_grad or wq.requires_grad or wk.requires_grad or wv.requires_grad
    if members is None:
        values, back = _attention_core(xv @ w_all, lens, heads)

        def bwd(g: np.ndarray) -> None:
            dqkv = back(g)
            _accumulate(tokens, dqkv @ w_all.T)
            dw_all = xv.T @ dqkv
            _accumulate(wq, dw_all[:, :d])
            _accumulate(wk, dw_all[:, d : 2 * d])
            _accumulate(wv, dw_all[:, 2 * d :])

        out = Tensor(values, requires_grad)
        _record("attention", out, bwd)
        return out

    blocks, present = _blocks(members, n, len(members), "attention")
    groups = _span_groups(lens, blocks)
    qkv = np.empty((n, 3 * d))
    for (r0, r1), wm in zip(blocks, w_all):
        np.matmul(xv[r0:r1], wm, out=qkv[r0:r1])
    if len(groups) == 1:
        values, back = _attention_core(qkv, lens, heads)
        backs = [back]
    else:
        values = np.empty((n, d))
        backs = []
        for rows, group_lens in groups:
            values[rows], back = _attention_core(qkv[rows], group_lens, heads)
            backs.append(back)

    def bwd(g: np.ndarray) -> None:
        if len(groups) == 1:
            dqkv = backs[0](g)
        else:
            dqkv = np.empty((n, 3 * d))
            for (rows, _), back in zip(groups, backs):
                dqkv[rows] = back(g[rows])
        gx, dw_all = np.empty_like(xv), np.empty_like(w_all)
        for m, (r0, r1) in enumerate(blocks):
            np.matmul(dqkv[r0:r1], w_all[m].T, out=gx[r0:r1])
            np.matmul(xv[r0:r1].T, dqkv[r0:r1], out=dw_all[m])
        _accumulate(tokens, gx)
        _accumulate(wq, dw_all[..., :d], present)
        _accumulate(wk, dw_all[..., d : 2 * d], present)
        _accumulate(wv, dw_all[..., 2 * d :], present)

    out = Tensor(values, requires_grad)
    _record("attention", out, bwd)
    return out


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(
    fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    step: float = 1e-5,
) -> float:
    """Compare analytic gradients of ``fn()`` against central differences.

    ``fn`` must rebuild the forward pass (returning a scalar loss) from the
    current values of ``params`` on every call.  Returns the maximum over
    all parameter entries of ``|analytic - numeric| / max(1, |numeric|)``.
    """
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = fn()
    if any(node.op == "gradient_reversal" for node in tape.nodes):
        raise ValueError(
            "grad_check: network contains a gradient_reversal node, which finite "
            "differences cannot observe; verify its sign-flip property separately"
        )
    backward(tape, loss)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.values) for p in params
    ]

    worst = 0.0
    for p, ga in zip(params, analytic):
        values = p.values  # indexed in place: a stack's parameters are strided views
        for i in np.ndindex(values.shape):
            orig = values[i]
            values[i] = orig + step
            f_plus = fn().item()
            values[i] = orig - step
            f_minus = fn().item()
            values[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            err = abs(ga[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
