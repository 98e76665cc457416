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
"""

from __future__ import annotations

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

    ``grad`` is lazily allocated by the backward pass and has the same shape
    as ``values``.  Tensors are never mutated by operations; optimizers may
    update ``values`` in place between steps.
    """

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.values.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

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


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad += g


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into every tensor recorded on the tape.

    Gradients add up across multiple uses of the same tensor and across
    repeated backward calls; zero them explicitly between steps.
    """
    if loss.values.ndim != 0:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not any(node.out is loss for node in tape.nodes):
        raise ValueError("loss tensor was not recorded on this tape")
    loss.grad = np.ones_like(loss.values)
    for node in reversed(tape.nodes):
        if node.out.grad is not None:
            node.backward_fn(node.out.grad)


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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Dense layer ``x @ w + b`` with a (n,) bias broadcast over the rows."""
    if (x.values.ndim != 2 or w.values.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != (w.shape[1],)):
        raise ShapeError(f"linear: incompatible shapes {x.shape}, {w.shape} and {b.shape}")
    xv, wv = x.values, w.values
    out = Tensor(xv @ wv + b.values, x.requires_grad or w.requires_grad or b.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(b, g.sum(axis=0))
        _accumulate(x, g @ wv.T)
        _accumulate(w, xv.T @ g)

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


def cross_entropy(x: Tensor, target, axis: int) -> Tensor:
    """``-sum(target * log_softmax(x, axis))`` as one node; ``target`` is a
    constant of ``x``'s shape.  The gradient is ``softmax(x) * sum(t) - t``
    along ``axis`` (for ListNet's normalized targets, ``softmax(s) - y/sum(y)``).
    """
    axis = _check_axis(x, axis)
    tv = np.asarray(target, dtype=np.float64)
    if tv.shape != x.shape:
        raise ShapeError(f"cross_entropy: target shape {tv.shape} != tensor shape {x.shape}")
    shifted = x.values - x.values.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    p = np.exp(y)
    out = Tensor((y * tv).sum() * -1.0, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        gy = tv * (-1.0 * g)
        _accumulate(x, gy - p * gy.sum(axis=axis, keepdims=True))

    _record("cross_entropy", out, bwd)
    return out


def _segments(lengths, total: int, where: str) -> np.ndarray:
    """``lengths`` as an int array of positive counts that add up to ``total``."""
    lens = np.asarray(lengths, dtype=np.int64)
    if lens.ndim != 1 or lens.size == 0 or np.any(lens < 1) or int(lens.sum()) != total:
        raise ShapeError(f"{where}: segment lengths {lens.tolist()} do not split {total} rows")
    return lens


def segment_cross_entropy(x: Tensor, target, lengths) -> Tensor:
    """``cross_entropy`` along a score vector cut into consecutive segments:
    the softmax runs within each segment (``lengths[i]`` entries), and the
    loss sums ``-target * log_softmax`` over every entry.  ``x`` is ``(n,)``
    or ``(n, 1)``; ``target`` is a constant of its shape.
    """
    tv = np.asarray(target, dtype=np.float64)
    if tv.shape != x.shape or not (x.values.ndim == 1 or x.values.ndim == 2 and x.shape[1] == 1):
        raise ShapeError(
            f"segment_cross_entropy: need an (n,) or (n, 1) tensor and a target of its "
            f"shape, got {x.shape} and {tv.shape}"
        )
    lens = _segments(lengths, x.values.size, "segment_cross_entropy")
    starts = np.cumsum(lens) - lens
    xv = x.values.reshape(-1)
    t = tv.reshape(-1)
    shifted = xv - np.repeat(np.maximum.reduceat(xv, starts), lens)
    y = shifted - np.repeat(np.log(np.add.reduceat(np.exp(shifted), starts)), lens)
    p = np.exp(y)
    out = Tensor((y * t).sum() * -1.0, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        gy = t * (-1.0 * g)
        gx = gy - p * np.repeat(np.add.reduceat(gy, starts), lens)
        _accumulate(x, gx.reshape(x.shape))

    _record("segment_cross_entropy", out, bwd)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of a 2-d tensor to zero mean and unit variance,
    then apply a learned elementwise scale and shift."""
    if x.values.ndim != 2:
        raise ShapeError(f"layer_norm: expected 2-d input, got shape {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} do not match width {d}"
        )
    mu = x.values.mean(axis=1, keepdims=True)
    var = ((x.values - mu) ** 2).mean(axis=1, keepdims=True)
    r = 1.0 / np.sqrt(var + eps)
    n = (x.values - mu) * r
    out = Tensor(n * gain.values, x.requires_grad or gain.requires_grad or bias.requires_grad)
    out.values += bias.values
    gv = gain.values

    def bwd(g: np.ndarray) -> None:
        dn = g * gv
        _accumulate(
            x,
            r * (dn - dn.mean(axis=1, keepdims=True) - n * (dn * n).mean(axis=1, keepdims=True)),
        )
        _accumulate(gain, (g * n).sum(axis=0))
        _accumulate(bias, g.sum(axis=0))

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


def attention(
    tokens: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    lengths,
    heads: int = 1,
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
    spans two sessions.

    A single-row session's output equals the value projection of that row
    (its attention weight is 1).
    """
    if tokens.values.ndim != 2:
        raise ShapeError(f"attention: expected 2-d tokens, got shape {tokens.shape}")
    n, d = tokens.shape
    for name, w in (("wq", wq), ("wk", wk), ("wv", wv)):
        if w.shape != (d, d):
            raise ShapeError(f"attention: {name} shape {w.shape} does not match width {d}")
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"attention: width {d} is not divisible by {heads} heads")
    lens = _segments(lengths, n, "attention")
    b, span, dh = lens.size, int(lens.max()), d // heads
    ragged = b * span != n
    c = 1.0 / math.sqrt(dh)
    xv = tokens.values
    w_all = np.hstack([wq.values, wk.values, wv.values])
    qkv = xv @ w_all
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
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    o = (weights @ v).transpose(0, 2, 1, 3).reshape(b, span, d)
    out = Tensor(
        o[seg, pos] if ragged else o.reshape(n, d),
        tokens.requires_grad or wq.requires_grad or wk.requires_grad or wv.requires_grad,
    )

    def bwd(g: np.ndarray) -> None:
        if ragged:
            gp = np.zeros((b, span, d))
            gp[seg, pos] = g
        else:
            gp = g.reshape(b, span, d)
        go = gp.reshape(b, span, heads, dh).transpose(0, 2, 1, 3)
        ds = go @ v.swapaxes(-1, -2)  # d(weights), then d(logits) in place
        ds -= (ds * weights).sum(axis=-1, keepdims=True)
        ds *= weights
        ds *= c
        grads = np.stack([ds @ k, ds.swapaxes(-1, -2) @ q, weights.swapaxes(-1, -2) @ go])
        grads = grads.transpose(1, 3, 0, 2, 4).reshape(b, span, 3 * d)
        dqkv = grads[seg, pos] if ragged else grads.reshape(n, 3 * d)
        _accumulate(tokens, dqkv @ w_all.T)
        dw_all = xv.T @ dqkv
        _accumulate(wq, dw_all[:, :d])
        _accumulate(wk, dw_all[:, d : 2 * d])
        _accumulate(wv, dw_all[:, 2 * d :])

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
        flat = p.values.reshape(-1)
        ga_flat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = fn().item()
            flat[i] = orig - step
            f_minus = fn().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            err = abs(ga_flat[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
