"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records every differentiable operation executed inside its
context manager; ``backward`` replays the records in reverse to accumulate
gradients into each tensor's ``grad`` buffer.  Graphs are flat and rebuilt
from scratch on every training step, so control flow in the forward pass
needs no special handling.

Operations called while no tape is active still compute values (useful for
inference and finite differences) but record nothing.  The active tape is
per thread (a ``contextvars`` variable), so a thread scoring without a tape
never records onto another thread's tape.  Each op's forward arithmetic is
one kernel on plain arrays (``_linear``, ``_layer_norm``, ``_attention``,
...), which the op calls.  ``_ARRAY_OPS`` holds the kernels under the ops'
names and signatures, without the ops' checks, tensors or records; an
untaped ``models.forward`` runs it.

Member blocks: the ops that hold parameters (``linear``, ``layer_norm``,
``attention``) and the loss sums (``cross_entropy``,
``segment_cross_entropy``) take an optional ``members``, the row counts of
consecutive member blocks of a stack of models trained in lockstep.  Their
parameters then carry a leading member axis, block m uses member m's slice
only, and each loss is one sum per member.  Without ``members`` there is
one block of every row, and the parameters (without a member axis) are its
slice: a lone model is the one-block case of the same code.  Every block
goes through the same numpy calls it would alone, so a member's values and
gradients are bit-identical to running it by itself.  A gradient records
which members it reaches (``Tensor.grad_members``): a member without rows
in a parameter op, or whose loss targets are all zero, gets no gradient
there, as a model run alone would not.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
from collections.abc import Callable, Sequence
from contextvars import ContextVar
from types import SimpleNamespace

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

# glibc's mallopt parameter numbers.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# added to the variance in layer_norm, so a constant row stays finite
_LN_EPS = 1e-5


def _keep_freed_heap() -> None:
    """Have glibc keep freed memory for reuse instead of returning it.

    Train steps and scoring passes free temporaries that the next call
    allocates again.  By default glibc maps each block of 128 KiB or more
    afresh and returns the freed top of the heap, so every call faults the
    same pages in again.  Its dynamic policy raises both thresholds once a
    large mapped block is freed, to at most 32 MiB (mmap) and 64 MiB
    (trim); this sets those caps from the start, which turns the dynamic
    policy off.  Without ``mallopt`` (macOS, Windows) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_heap()

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


def _accumulate(t: Tensor, g: np.ndarray, members: np.ndarray | None = None,
                shared: bool = False) -> None:
    """Add ``g`` to ``t.grad``; ``members`` masks the members it reaches
    (None: every member the upstream gradient reaches).  A first gradient
    becomes ``t.grad`` as it is when the op wrote it into ``t``'s
    ``grad_buffer`` (see ``_grad_out``), or when ``t`` has no buffer and
    ``g`` is a fresh array of ``t``'s shape that no other tensor holds;
    ``shared`` says another one may.  Otherwise it is copied."""
    if not t.requires_grad:
        return
    upstream = _upstream_members.get()
    if upstream is not None:
        members = upstream if members is None else members & upstream
    if t.grad is None:
        buf = t.grad_buffer
        if g is buf or (buf is None and not shared and isinstance(g, np.ndarray)
                        and g.shape == t.values.shape):
            t.grad = g
        else:
            # The copy is g + 0.0, which turns -0.0 into +0.0; a gradient
            # kept as it is keeps -0.0.  Adam's moments start at +0.0 and
            # +0.0 + -0.0 is +0.0, so the parameters get the same bits.
            t.grad = np.add(g, 0.0, out=np.empty_like(t.values) if buf is None else buf)
        t.grad_members = members
    else:
        t.grad += g
        if t.grad_members is not None:
            t.grad_members = None if members is None else t.grad_members | members


def _grad_out(t: Tensor) -> np.ndarray | None:
    """Where an op may write the gradient of ``t`` that it is about to
    pass to ``_accumulate``: ``t``'s ``grad_buffer`` while ``t`` has no
    gradient yet, else None (a new array)."""
    return t.grad_buffer if t.grad is None and t.requires_grad else None


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


class _OneBlock:
    """Every row in one block, under parameters without a member axis: a
    lone model.  Each method is the numpy call one member block makes."""

    lead: tuple[int, ...] = ()  # the parameters' leading member axis
    present = None  # the mask of members with rows, None when all have some

    def matmul(self, rows, mat, transposed=False):
        return rows @ (mat.T if transposed else mat)

    def ufunc(self, ufunc, rows, vec, out=None):  # vec broadcast over the rows
        return ufunc(rows, vec, out=out)

    def sums(self, rows, out=None):  # the gradient of a vector broadcast over the rows
        return np.add.reduce(rows, axis=0, out=out)

    def outer(self, a, b, out=None):  # the gradient of a matrix applied to the rows
        return np.matmul(a.T, b, out=out)

    def losses(self, prod, target):
        """``-sum(prod)`` per member, and the mask of members whose targets
        are not all zero (None when all are)."""
        return prod.sum() * -1.0, None

    def spread(self, g, ndim):  # member-loss gradients over ndim-d rows
        return g

    def span_groups(self, lens):
        """The blocks grouped by the length of their longest session, as
        (rows, session lengths) pairs."""
        return [(slice(None), lens)]


class _MemberBlocks:
    """Consecutive row blocks, ``counts[m]`` rows for member m, under
    parameters with a leading member axis: ``_OneBlock``'s methods, with
    block m meeting slice m only."""

    present = None

    def __init__(self, counts: list[int]):
        ends = list(itertools.accumulate(counts))
        self.counts, self.spans, self.lead = counts, list(zip([0, *ends], ends)), (len(counts),)
        if not all(counts):
            self.present = np.array([c > 0 for c in counts])
            self.present.flags.writeable = False  # shared by every op of the layout

    def matmul(self, rows, mats, transposed=False):
        out = np.empty((rows.shape[0], mats.shape[-2 if transposed else -1]))
        for (r0, r1), mm in zip(self.spans, mats):
            np.matmul(rows[r0:r1], mm.T if transposed else mm, out=out[r0:r1])
        return out

    def ufunc(self, ufunc, rows, vecs, out=None):
        out = np.empty(rows.shape) if out is None else out
        for (r0, r1), vm in zip(self.spans, vecs):
            ufunc(rows[r0:r1], vm, out=out[r0:r1])
        return out

    def sums(self, rows, out=None):
        out = np.empty((len(self.spans), *rows.shape[1:])) if out is None else out
        for m, (r0, r1) in enumerate(self.spans):
            np.add.reduce(rows[r0:r1], axis=0, out=out[m])
        return out

    def outer(self, a, b, out=None):
        out = np.empty((len(self.spans), a.shape[1], b.shape[1])) if out is None else out
        for m, (r0, r1) in enumerate(self.spans):
            np.matmul(a[r0:r1].T, b[r0:r1], out=out[m])
        return out

    def losses(self, prod, target):
        # a zero target is an identically zero loss, which a model run
        # alone never records
        value = np.array([np.add.reduce(prod[r0:r1], axis=None) for r0, r1 in self.spans]) * -1.0
        live = [np.logical_or.reduce(target[r0:r1], axis=None) for r0, r1 in self.spans]
        return value, None if all(live) else np.array(live)

    def spread(self, g, ndim):
        return np.repeat(g, self.counts).reshape(-1, *[1] * (ndim - 1))

    def span_groups(self, lens):
        # each group pads its sessions exactly as each of its members alone;
        # rows is a slice when the group's blocks are consecutive
        ends = np.cumsum(lens)
        cuts = np.searchsorted(ends, [r1 for _, r1 in self.spans], side="right").tolist()
        groups: dict[int, list[tuple[int, int, int, int]]] = {}
        for (r0, r1), s0, s1 in zip(self.spans, [0, *cuts], cuts):
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


_ONE_BLOCK = _OneBlock()


def _blocks(members, n_rows: int, where: str) -> _OneBlock | _MemberBlocks:
    """The layout of ``members``, the row counts of consecutive member
    blocks; without ``members`` one block holds every row.  ``where`` names
    the op in the error a layout that does not split the rows raises."""
    if members is None:
        return _ONE_BLOCK
    try:
        return _member_blocks(tuple(members), n_rows)
    except ShapeError as exc:
        raise ShapeError(f"{where}: {exc}") from None


# A layout is built once per step, not once per op.  A step uses one layout
# for its member rows, plus one per domain present in a mixed multihead
# batch; batches vary, so older layouts are rarely met again.
@functools.lru_cache(maxsize=32)
def _member_blocks(counts: tuple, n_rows: int) -> _MemberBlocks:
    counts = [int(c) for c in counts]
    if not counts or min(counts) < 0 or sum(counts) != n_rows:
        raise ShapeError(f"member blocks {counts} do not split {n_rows} rows")
    return _MemberBlocks(counts)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(np.add(a.values, b.values), a.requires_grad or b.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g, shared=True)
        _accumulate(b, g, shared=True)

    _record("add", out, bwd)
    return out


def _linear(xv: np.ndarray, wv: np.ndarray, bv: np.ndarray, blocks, relu: bool) -> np.ndarray:
    values = blocks.matmul(xv, wv)
    blocks.ufunc(np.add, values, bv, out=values)
    if relu:
        np.maximum(values, 0.0, out=values)
    return values


def linear(x: Tensor, w: Tensor, b: Tensor, members=None, relu: bool = False) -> Tensor:
    """Dense layer ``x @ w + b`` with a (n,) bias broadcast over the rows,
    followed by ``relu`` of the result as the same node when ``relu``.

    With ``members``, ``w`` is ``(S, d, n)`` and ``b`` ``(S, n)``, and
    member block m computes ``x[block] @ w[m] + b[m]``.
    """
    xv, wv, bv = x.values, w.values, b.values
    if xv.ndim != 2:
        raise ShapeError(f"linear: incompatible shapes {x.shape}, {w.shape} and {b.shape}")
    blocks = _blocks(members, xv.shape[0], "linear")
    if wv.shape[:-1] != (*blocks.lead, xv.shape[1]) or bv.shape != (*blocks.lead, wv.shape[-1]):
        raise ShapeError(f"linear: incompatible shapes {x.shape}, {w.shape} and {b.shape}")
    values = _linear(xv, wv, bv, blocks, relu)
    out = Tensor(values, x.requires_grad or w.requires_grad or b.requires_grad)

    def bwd(g: np.ndarray) -> None:
        if relu:
            g = _relu_mask(g, values)
        _accumulate(b, blocks.sums(g, _grad_out(b)), blocks.present)
        if x.requires_grad:
            _accumulate(x, blocks.matmul(g, wv, transposed=True))
        _accumulate(w, blocks.outer(xv, g, _grad_out(w)), blocks.present)

    _record("linear", out, bwd)
    return out


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.values * c, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, c * g)

    _record("scale", out, bwd)
    return out


def _relu_mask(g: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.where(values > 0.0, g, 0.0)`` bit for bit (NaN, inf and -0.0 in
    ``g`` too): ``g``'s bits and-ed with all ones where ``values > 0.0``,
    else with zeros.  ``np.where`` takes 3-5 ns an element above 8,192
    elements against about 1 below; this stays near 1 on both sides."""
    keep = np.negative((values > 0.0).view(np.uint8), dtype=np.int64).view(np.uint64)
    return (g.view(np.uint64) & keep).view(np.float64)


def relu(x: Tensor) -> Tensor:
    # np.maximum (not np.where) so NaN inputs propagate instead of clipping to 0
    out = Tensor(np.maximum(x.values, 0.0), x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, _relu_mask(g, out.values))

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
    blocks = _blocks(members, x.shape[0], "cross_entropy")
    if blocks.lead and (x.values.ndim != 2 or axis != 1):
        raise ShapeError("cross_entropy: member blocks need a 2-d tensor and axis 1")
    shifted = x.values - np.maximum.reduce(x.values, axis=axis, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(shifted), axis=axis, keepdims=True))
    y = shifted - lse
    p = np.exp(y)
    value, live = blocks.losses(y * tv, tv)
    out = Tensor(value, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        gy = tv * (-1.0 * blocks.spread(g, tv.ndim))
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
    blocks = _blocks(members, x.values.size, "segment_cross_entropy")
    starts = np.cumsum(lens) - lens
    xv = x.values.reshape(-1)
    t = tv.reshape(-1)
    shifted = xv - np.repeat(np.maximum.reduceat(xv, starts), lens)
    y = shifted - np.repeat(np.log(np.add.reduceat(np.exp(shifted), starts)), lens)
    p = np.exp(y)
    value, live = blocks.losses(y * t, t)
    out = Tensor(value, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        gy = t * (-1.0 * blocks.spread(g, 1))
        gx = gy - p * np.repeat(np.add.reduceat(gy, starts), lens)
        _accumulate(x, gx.reshape(x.shape), live)

    _record("segment_cross_entropy", out, bwd)
    return out


def _row_mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=1, keepdims=True)``: the same sum and division,
    without ``ndarray.mean``'s Python overhead."""
    return np.add.reduce(a, axis=1, keepdims=True) / a.shape[1]


def _layer_norm(xv: np.ndarray, gv: np.ndarray, bv: np.ndarray, blocks):
    """The normalized rows scaled and shifted, the normalized rows, and the
    reciprocal of each row's deviation."""
    centred = xv - _row_mean(xv)
    r = 1.0 / np.sqrt(_row_mean(centred**2) + _LN_EPS)
    n = centred * r
    values = blocks.ufunc(np.multiply, n, gv)
    blocks.ufunc(np.add, values, bv, out=values)
    return values, n, r


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, members=None) -> Tensor:
    """Normalize each row of a 2-d tensor to zero mean and unit variance,
    then apply a learned elementwise scale and shift (``(S, d)`` with
    ``members``, member m's rows using row m)."""
    if x.values.ndim != 2:
        raise ShapeError(f"layer_norm: expected 2-d input, got shape {x.shape}")
    blocks = _blocks(members, x.shape[0], "layer_norm")
    d = x.shape[1]
    if gain.shape != (*blocks.lead, d) or bias.shape != (*blocks.lead, d):
        raise ShapeError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} do not match width {d}"
        )
    gv = gain.values
    values, n, r = _layer_norm(x.values, gv, bias.values, blocks)
    out = Tensor(values, x.requires_grad or gain.requires_grad or bias.requires_grad)

    def bwd(g: np.ndarray) -> None:
        dn = blocks.ufunc(np.multiply, g, gv)
        _accumulate(x, r * (dn - _row_mean(dn) - n * _row_mean(dn * n)))
        _accumulate(gain, blocks.sums(g * n, _grad_out(gain)), blocks.present)
        _accumulate(bias, blocks.sums(g, _grad_out(bias)), blocks.present)

    _record("layer_norm", out, bwd)
    return out


def _concat_cols(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.concatenate((a, b), axis=1)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: incompatible shapes {a.shape} and {b.shape}")
    na = a.shape[1]
    out = Tensor(_concat_cols(a.values, b.values), a.requires_grad or b.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g[:, :na], shared=True)
        _accumulate(b, g[:, na:], shared=True)

    _record("concat_cols", out, bwd)
    return out


def _take_rows(xv: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return xv[idx]


def take_rows(x: Tensor, rows) -> Tensor:
    """The rows of a 2-d tensor at the distinct indices ``rows``, in order."""
    idx = np.asarray(rows, dtype=np.intp)
    if (x.values.ndim != 2 or idx.ndim != 1 or idx.size == 0 or idx.min() < 0
            or idx.max() >= x.shape[0] or np.bincount(idx).max() > 1):
        raise ShapeError(f"take_rows: need distinct row indices into shape {x.shape}")
    out = Tensor(_take_rows(x.values, idx), x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.values)
            full[idx] = g
            _accumulate(x, full)

    _record("take_rows", out, bwd)
    return out


def _put_rows(parts: Sequence[np.ndarray], idxs: Sequence[np.ndarray], n_rows: int) -> np.ndarray:
    values = np.empty((n_rows, parts[0].shape[-1]))
    for part, idx in zip(parts, idxs):
        values[idx] = part
    return values


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
    out = Tensor(_put_rows([part.values for part in parts], idxs, n_rows),
                 any(part.requires_grad for part in parts))

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


def _attention(xv: np.ndarray, wq: np.ndarray, wk: np.ndarray, wv: np.ndarray,
               lens: np.ndarray, heads: int, blocks):
    """The attention rows of ``xv``, the stacked projection ``w_all``, and
    the rule mapping the rows' gradient to the gradient of ``xv @ w_all``."""
    n, d = xv.shape
    w_all = np.concatenate([wq, wk, wv], axis=-1)
    groups = blocks.span_groups(lens)
    qkv = blocks.matmul(xv, w_all)
    if len(groups) == 1:  # one padded layout holds every row
        values, back = _attention_core(qkv, groups[0][1], heads)
        return values, w_all, back
    values, backs = np.empty((n, d)), []
    for rows, group_lens in groups:
        values[rows], group_back = _attention_core(qkv[rows], group_lens, heads)
        backs.append(group_back)

    def back(g: np.ndarray) -> np.ndarray:
        dqkv = np.empty((n, 3 * d))
        for (rows, _), group_back in zip(groups, backs):
            dqkv[rows] = group_back(g[rows])
        return dqkv

    return values, w_all, back


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
    blocks = _blocks(members, n, "attention")
    for name, w in (("wq", wq), ("wk", wk), ("wv", wv)):
        if w.shape != (*blocks.lead, d, d):
            raise ShapeError(f"attention: {name} shape {w.shape} does not match width {d}")
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"attention: width {d} is not divisible by {heads} heads")
    lens = _segments(lengths, n, "attention")
    xv = tokens.values
    values, w_all, back = _attention(xv, wq.values, wk.values, wv.values, lens, heads, blocks)
    requires_grad = tokens.requires_grad or wq.requires_grad or wk.requires_grad or wv.requires_grad

    def bwd(g: np.ndarray) -> None:
        dqkv = back(g)
        _accumulate(tokens, blocks.matmul(dqkv, w_all, transposed=True))
        dw_all = blocks.outer(xv, dqkv)
        _accumulate(wq, dw_all[..., :d], blocks.present)
        _accumulate(wk, dw_all[..., d : 2 * d], blocks.present)
        _accumulate(wv, dw_all[..., 2 * d :], blocks.present)

    out = Tensor(values, requires_grad)
    _record("attention", out, bwd)
    return out


# ---------------------------------------------------------------------------
# op sets


def _taping() -> bool:
    """Whether a tape is active in this thread."""
    return _active_tape.get() is not None


def _array_linear(x, w, b, members=None, relu=False):
    return _linear(x, w, b, _blocks(members, x.shape[0], "linear"), relu)


def _array_layer_norm(x, gain, bias, members=None):
    return _layer_norm(x, gain, bias, _blocks(members, x.shape[0], "layer_norm"))[0]


def _array_attention(tokens, wq, wk, wv, lengths, heads=1, members=None):
    blocks = _blocks(members, tokens.shape[0], "attention")
    return _attention(tokens, wq, wk, wv, lengths, heads, blocks)[0]


# The ops a forward pass calls, by name: the Tensor ops, and the same ops on
# plain arrays.  An array op has its Tensor op's signature and runs its
# kernel alone: no operand check, Tensor, backward rule or record, so its
# caller checks the operands.
_TENSOR_OPS = SimpleNamespace(
    add=add, linear=linear, concat_cols=concat_cols, layer_norm=layer_norm,
    attention=attention, take_rows=take_rows, put_rows=put_rows,
    gradient_reversal=gradient_reversal,
)
_ARRAY_OPS = SimpleNamespace(
    add=np.add, linear=_array_linear, concat_cols=_concat_cols,
    layer_norm=_array_layer_norm, attention=_array_attention, take_rows=_take_rows,
    put_rows=_put_rows, gradient_reversal=lambda x, lam=1.0: x,
)


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
