"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records every differentiable operation executed inside its
context manager; ``backward`` replays the records in reverse to accumulate
gradients into each tensor's ``grad`` buffer.  Graphs are flat and rebuilt
from scratch on every training step, so control flow in the forward pass
needs no special handling.

Operations called while no tape is active still compute values (useful for
inference and finite differences) but record nothing.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "Node",
    "ShapeError",
    "backward",
    "grad_check",
    "matmul",
    "add",
    "add_const",
    "mul",
    "mul_const",
    "scale",
    "relu",
    "softmax",
    "log_softmax",
    "layer_norm",
    "concat_cols",
    "slice_cols",
    "transpose",
    "reshape",
    "reduce_sum",
    "reduce_mean",
    "gradient_reversal",
    "linear",
    "attention",
]

# Additive logit penalty for masked attention positions.  Large enough that
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

    @property
    def size(self) -> int:
        return self.values.size

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


_active_tape: "Tape | None" = None


class Tape:
    """Topologically ordered record of one forward pass.

    Nodes are appended in execution order, so every node's inputs are
    produced by earlier nodes (or are leaves).  Only one tape may be active
    at a time; nesting raises.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Tape":
        global _active_tape
        if _active_tape is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _active_tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _active_tape
        _active_tape = None
        return False

    def __len__(self) -> int:
        return len(self.nodes)


def _record(op: str, out: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
    if _active_tape is not None and out.requires_grad:
        _active_tape.nodes.append(Node(op, out, backward_fn))


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    av, bv = a.values, b.values
    out = Tensor(av @ bv, a.requires_grad or b.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g @ bv.T)
        _accumulate(b, av.T @ g)

    _record("matmul", out, bwd)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a (n,) bias broadcast over rows of (m, n)."""
    if a.shape == b.shape:
        bias = False
    elif a.values.ndim == 2 and b.values.ndim == 1 and a.shape[1] == b.shape[0]:
        bias = True
    else:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.values + b.values, a.requires_grad or b.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g.sum(axis=0) if bias else g)

    _record("add", out, bwd)
    return out


def add_const(x: Tensor, c) -> Tensor:
    """Add a constant array (no gradient flows into the constant)."""
    cv = np.asarray(c, dtype=np.float64)
    if cv.shape != x.shape:
        raise ShapeError(f"add_const: constant shape {cv.shape} != tensor shape {x.shape}")
    out = Tensor(x.values + cv, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, g)

    _record("add_const", out, bwd)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    av, bv = a.values, b.values
    out = Tensor(av * bv, a.requires_grad or b.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, bv * g)
        _accumulate(b, av * g)

    _record("mul", out, bwd)
    return out


def mul_const(x: Tensor, c) -> Tensor:
    """Elementwise product with a constant array."""
    cv = np.asarray(c, dtype=np.float64)
    if cv.shape != x.shape:
        raise ShapeError(f"mul_const: constant shape {cv.shape} != tensor shape {x.shape}")
    out = Tensor(x.values * cv, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, cv * g)

    _record("mul_const", out, bwd)
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


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    axis = _check_axis(x, axis)
    shifted = x.values - x.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(p, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        dot = (g * p).sum(axis=axis, keepdims=True)
        _accumulate(x, p * (g - dot))

    _record("softmax", out, bwd)
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    axis = _check_axis(x, axis)
    shifted = x.values - x.values.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    p = np.exp(y)
    out = Tensor(y, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, g - p * g.sum(axis=axis, keepdims=True))

    _record("log_softmax", out, bwd)
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


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.values.ndim != 2 or not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"slice_cols: invalid range [{start}:{stop}] for shape {x.shape}")
    out = Tensor(x.values[:, start:stop].copy(), x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.values)
            full[:, start:stop] = g
            _accumulate(x, full)

    _record("slice_cols", out, bwd)
    return out


def transpose(x: Tensor) -> Tensor:
    if x.values.ndim != 2:
        raise ShapeError(f"transpose: expected 2-d input, got shape {x.shape}")
    out = Tensor(x.values.T.copy(), x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, g.T)

    _record("transpose", out, bwd)
    return out


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape, dtype=np.int64)) != x.values.size:
        raise ShapeError(f"reshape: cannot reshape {x.shape} to {shape}")
    old = x.shape
    out = Tensor(x.values.reshape(shape).copy(), x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, g.reshape(old))

    _record("reshape", out, bwd)
    return out


def reduce_sum(x: Tensor) -> Tensor:
    out = Tensor(x.values.sum(), x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, np.full_like(x.values, float(g)))

    _record("reduce_sum", out, bwd)
    return out


def reduce_mean(x: Tensor) -> Tensor:
    n = x.values.size
    out = Tensor(x.values.mean(), x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, np.full_like(x.values, float(g) / n))

    _record("reduce_mean", out, bwd)
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


# ---------------------------------------------------------------------------
# composites


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return add(matmul(x, w), b)


def attention(
    tokens: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    mask: Sequence[bool] | np.ndarray | None = None,
    heads: int = 1,
) -> Tensor:
    """Scaled dot-product self-attention over the rows of ``tokens``.

    Projects tokens to queries, keys and values, splits the width across
    ``heads`` equal slices, and re-concatenates the per-head outputs.
    ``mask[i]`` True marks row i as padding: it receives exactly zero
    attention weight as a key.  Masking every position is an error.

    With a single row and no mask the output equals the value projection
    of that row (its attention weight is 1).
    """
    if tokens.values.ndim != 2:
        raise ShapeError(f"attention: expected 2-d tokens, got shape {tokens.shape}")
    n, d = tokens.shape
    if n < 1:
        raise ShapeError("attention: need at least one token")
    for name, w in (("wq", wq), ("wk", wk), ("wv", wv)):
        if w.shape != (d, d):
            raise ShapeError(f"attention: {name} shape {w.shape} does not match width {d}")
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"attention: width {d} is not divisible by {heads} heads")

    bias = None
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if m.shape != (n,):
            raise ShapeError(f"attention: mask length {m.shape} does not match {n} tokens")
        if m.all():
            raise ValueError("attention: every position is masked")
        if m.any():
            bias = np.where(m[None, :], _MASK_FILL, 0.0) * np.ones((n, 1))

    q = matmul(tokens, wq)
    k = matmul(tokens, wk)
    v = matmul(tokens, wv)
    dh = d // heads
    outs = []
    for h in range(heads):
        if heads == 1:
            qh, kh, vh = q, k, v
        else:
            qh = slice_cols(q, h * dh, (h + 1) * dh)
            kh = slice_cols(k, h * dh, (h + 1) * dh)
            vh = slice_cols(v, h * dh, (h + 1) * dh)
        scores = scale(matmul(qh, transpose(kh)), 1.0 / math.sqrt(dh))
        if bias is not None:
            scores = add_const(scores, bias)
        weights = softmax(scores, axis=1)
        outs.append(matmul(weights, vh))
    result = outs[0]
    for part in outs[1:]:
        result = concat_cols(result, part)
    return result


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
