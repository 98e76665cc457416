"""Four listwise ranking architectures over one shared trunk/transformer
skeleton.

* ``baseline``: single scoring head, meant for single-domain training.
* ``multihead``: one scoring head per domain; each session's rows run
  through its domain's head only, so off-domain heads get no gradient from
  that session.
* ``domain_adversarial``: baseline plus a per-item domain classifier fed
  through a gradient-reversal node, pushing the trunk toward
  domain-agnostic representations.
* ``domain_specialist``: the same classifier without the reversal, pulling
  domain identity into the trunk representation instead.

Every item is scored in the context of its whole session: the trunk scores
items pointwise, a small transformer attends across the session's items
(no positional encoding, so scoring is permutation-equivariant), and a
final head combines both views.

``forward`` scores a whole batch of sessions at once: their rows are
stacked into one matrix, every row-wise layer runs once over it, and only
attention looks at session boundaries.

A ``Model`` is a stack of S members of one config, one per seed (S = 1 for
a model built or loaded on its own).  The members are trained in lockstep
and share nothing but the tape: their rows form consecutive member blocks,
and every layer with parameters applies member m's slice to member m's
block only (see ``autodiff``), so each member computes exactly what it
would alone.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .autodiff import _ARRAY_OPS, _TENSOR_OPS, ShapeError, Tensor
from .data import _MAX_FLOATS, ConfigError, QuerySession, _check_types, _is_integer

__all__ = [
    "Variant",
    "ConfigError",
    "ModelLoadError",
    "ModelConfig",
    "Model",
    "ScoredBatch",
    "build",
    "stack",
    "forward",
    "count_parameters",
    "save",
    "load",
]

_FORMAT_NAME = "mdrank-model"
_FORMAT_VERSION = 1
_WIDTH_FIELDS = ("trunk_hidden", "final_hidden", "classifier_hidden")
# Parameter tensors per member a config may ask for; a build makes one
# Python object, and a train step several calls, per tensor.
_MAX_TENSORS = 2**14


class ModelLoadError(ValueError):
    """A serialized model payload is corrupt, truncated, or unsupported."""


class Variant(str, Enum):
    BASELINE = "baseline"
    MULTI_HEAD = "multihead"
    DOMAIN_ADVERSARIAL = "domain_adversarial"
    DOMAIN_SPECIALIST = "domain_specialist"

    @property
    def has_classifier(self) -> bool:
        return self in (Variant.DOMAIN_ADVERSARIAL, Variant.DOMAIN_SPECIALIST)


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and variant switches for one ranker.

    ``grl_lambda`` only matters for ``domain_adversarial``;
    ``domain_loss_weight`` only for the two classifier-carrying variants.
    Only the variant and the widths (to tuples of ints) are cast:
    ``"heads": 1.9`` is not one head, and an integer ``grl_lambda`` stays
    an integer.  A config of more than ``_MAX_FLOATS`` parameters or
    ``_MAX_TENSORS`` parameter tensors per member is rejected.
    """

    variant: Variant
    feature_dim: int
    n_domains: int = 2
    trunk_hidden: tuple[int, ...] = (32,)
    token_dim: int = 16
    transformer_layers: int = 1
    heads: int = 1
    final_hidden: tuple[int, ...] = (16,)
    classifier_hidden: tuple[int, ...] = (16,)
    grl_lambda: float = 1.0
    domain_loss_weight: float = 0.5

    def __post_init__(self):
        try:
            object.__setattr__(self, "variant", Variant(self.variant))
        except ValueError:
            names = ", ".join(v.value for v in Variant)
            raise ConfigError(
                f"ModelConfig: unknown variant {self.variant!r}; expected one of {names}"
            ) from None
        _check_types(self, ints=("feature_dim", "n_domains", "token_dim", "transformer_layers",
                                 "heads"), reals=("grl_lambda", "domain_loss_weight"))
        for name in _WIDTH_FIELDS:
            widths = getattr(self, name)
            if not (isinstance(widths, (list, tuple)) and all(map(_is_integer, widths))):
                raise ConfigError(f"ModelConfig: {name} must list integer widths")
            object.__setattr__(self, name, tuple(int(w) for w in widths))
        for name in ("feature_dim", "n_domains", "token_dim", "transformer_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"ModelConfig: {name} must be positive")
        if self.variant is Variant.MULTI_HEAD and self.n_domains < 2:
            raise ConfigError("ModelConfig: multihead needs n_domains >= 2")
        if not self.trunk_hidden:
            raise ConfigError("ModelConfig: trunk_hidden needs at least one layer width")
        for w in (*self.trunk_hidden, *self.final_hidden, *self.classifier_hidden):
            if w < 1:
                raise ConfigError("ModelConfig: layer widths must be positive")
        if self.heads < 1 or self.token_dim % self.heads != 0:
            raise ConfigError(
                f"ModelConfig: token_dim {self.token_dim} not divisible by heads {self.heads}"
            )
        for name in ("grl_lambda", "domain_loss_weight"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ConfigError(f"ModelConfig: {name} must be finite and non-negative")
        parameters, tensors = _parameter_count(self)
        if parameters > _MAX_FLOATS:
            raise ConfigError(f"ModelConfig: {parameters} parameters per member, "
                              f"above the bound of {_MAX_FLOATS}")
        if tensors > _MAX_TENSORS:
            raise ConfigError(f"ModelConfig: {tensors} parameter tensors per member, "
                              f"above the bound of {_MAX_TENSORS}")

    def to_json_obj(self) -> dict:
        """The fields in declaration order, as JSON values."""
        obj = {name: getattr(self, name) for name in self.__dataclass_fields__}
        obj["variant"] = self.variant.value
        for name in _WIDTH_FIELDS:
            obj[name] = list(obj[name])
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ModelConfig":
        """The config a model file holds, which must name every field."""
        try:
            return cls(**{name: obj[name] for name in cls.__dataclass_fields__})
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid model config: {exc}") from exc


@dataclass
class ScoredBatch:
    """Model outputs for a batch of sessions, rows stacked in session order.

    ``scores`` is ``(N, 1)`` and ``domain_logits`` ``(N, n_domains)`` (None
    without a classifier, or when not asked for); ``lengths[b]`` rows belong
    to session b, and ``members[m]`` consecutive sessions to member m of the
    model.  ``rows[m]`` counts member m's rows, as every op of the forward
    pass was given them (None for a lone model, whose ops run on one
    block).  The tensors stay attached to the active tape so losses can
    backpropagate through them.
    """

    scores: Tensor
    domain_logits: Tensor | None
    lengths: np.ndarray
    members: tuple[int, ...]
    rows: tuple[int, ...] | None

    def session_scores(self) -> list[np.ndarray]:
        """Final scores per session, as detached 1-d arrays."""
        flat = self.scores.values[:, 0].copy()
        ends = list(itertools.accumulate(self.lengths.tolist()))
        return [flat[start:end] for start, end in zip([0, *ends], ends)]


class Model:
    """A built ranker, or a stack of rankers of one config: config, seeds
    and named parameter tensors.

    ``seeds[m]`` names member m.  A one-member model's parameters have
    their natural shapes; a stack's have a leading member axis of length
    ``len(seeds)``.  Parameter iteration order is fixed by construction,
    which keeps initialization, optimization, and serialization
    deterministic.

    The constructor packs every parameter into one float64 arena
    ``values`` (``(P,)``, or ``(S, P)`` with member m's parameters in row
    m), in that order: each tensor's ``values`` becomes a reshaped view
    into it (``slices[i]`` locates parameter i along the last axis), and
    its ``grad_buffer`` the matching view into the parallel arena
    ``grads``.  Write parameter values in place; rebinding one detaches it
    from the arena the optimizer updates.
    """

    def __init__(self, config: ModelConfig, parameters: dict[str, Tensor], seeds: Sequence[int]):
        self.config = config
        self.parameters = parameters
        self.seeds = tuple(int(seed) for seed in seeds)
        n = len(self.seeds)
        lead = () if n == 1 else (n,)
        if not n or any(t.values.shape[: len(lead)] != lead for t in parameters.values()):
            raise ValueError(f"Model: parameters need a leading axis of {n} members")
        sizes = [t.values.size // n for t in parameters.values()]
        ends = np.cumsum(sizes).tolist()
        self.slices = [slice(end - size, end) for end, size in zip(ends, sizes)]
        self.values = np.empty((*lead, ends[-1]))
        self.grads = np.zeros_like(self.values)
        for sl, t in zip(self.slices, parameters.values()):
            shape = t.values.shape
            self.values[..., sl] = t.values.reshape(*lead, -1)
            t.values = self.values[..., sl].reshape(shape, copy=False)
            t.grad_buffer = self.grads[..., sl].reshape(shape, copy=False)

    def zero_grad(self) -> None:
        for p in self.parameters.values():
            p.zero_grad()

    def copy(self) -> "Model":
        """A model with the same parameter values in an arena of its own."""
        params = {name: Tensor(t.values, requires_grad=True)
                  for name, t in self.parameters.items()}
        return Model(self.config, params, self.seeds)

    def member(self, m: int) -> "Model":
        """Member m as a one-member model, in an arena of its own."""
        if not 0 <= m < len(self.seeds):
            raise IndexError(f"member {m} is outside the {len(self.seeds)} members of this model")
        if len(self.seeds) == 1:
            return self.copy()
        params = {name: Tensor(t.values[m], requires_grad=True)
                  for name, t in self.parameters.items()}
        return Model(self.config, params, self.seeds[m : m + 1])

    def param_values(self) -> np.ndarray:
        return self.values.copy()

    def load_values(self, values: np.ndarray) -> None:
        """Write a ``param_values()`` snapshot back in place."""
        self.values[:] = values

    def __repr__(self) -> str:
        return (f"Model(variant={self.config.variant.value}, seeds={list(self.seeds)}, "
                f"parameters={count_parameters(self)})")


def _dense_specs(prefix: str, dims: tuple[int, ...]) -> list[tuple[str, str, tuple[int, ...]]]:
    specs = []
    for i in range(len(dims) - 1):
        specs.append((f"{prefix}.{i}.w", "weight", (dims[i], dims[i + 1])))
        specs.append((f"{prefix}.{i}.b", "bias", (dims[i + 1],)))
    return specs


def _transformer_specs(p: str, d: int) -> list[tuple[str, str, tuple[int, ...]]]:
    return [
        (f"{p}.norm1.gain", "ln_gain", (d,)),
        (f"{p}.norm1.bias", "ln_bias", (d,)),
        *[(f"{p}.{name}", "weight", (d, d)) for name in ("wq", "wk", "wv")],
        *_dense_specs(f"{p}.attn_out", (d, d)),
        (f"{p}.norm2.gain", "ln_gain", (d,)),
        (f"{p}.norm2.bias", "ln_bias", (d,)),
        *_dense_specs(f"{p}.ffn", (d, d, d)),
    ]


def _parameter_blocks(config: ModelConfig):
    """The parameters in build order as ``(copies, specs)`` blocks:
    ``specs(i)`` lists the (name, kind, shape) of copy i, and every copy
    has the shapes of copy 0."""
    h, d = config.trunk_hidden[-1], config.token_dim
    final_dims = (1 + d, *config.final_hidden, 1)
    blocks = [
        (1, lambda _: [*_dense_specs("trunk", (config.feature_dim, *config.trunk_hidden)),
                       *_dense_specs("score", (h, 1)), *_dense_specs("token", (h + 1, d))]),
        (config.transformer_layers, lambda l: _transformer_specs(f"transformer.{l}", d)),
    ]
    if config.variant is Variant.MULTI_HEAD:
        blocks.append((config.n_domains, lambda dom: _dense_specs(f"head.{dom}", final_dims)))
    else:
        blocks.append((1, lambda _: _dense_specs("final", final_dims)))
    if config.variant.has_classifier:
        dims = (h, *config.classifier_hidden, config.n_domains)
        blocks.append((1, lambda _: _dense_specs("classifier", dims)))
    return blocks


def _parameter_specs(config: ModelConfig):
    """(name, kind, shape) for every parameter, in build order, lazily: a
    payload that lacks one is rejected without listing the rest."""
    for copies, specs in _parameter_blocks(config):
        for i in range(copies):
            yield from specs(i)


def _parameter_count(config: ModelConfig) -> tuple[int, int]:
    """(parameters, tensors) per member, from one copy of each block."""
    parameters = tensors = 0
    for copies, specs in _parameter_blocks(config):
        sizes = [math.prod(shape) for _, _, shape in specs(0)]
        parameters += copies * sum(sizes)
        tensors += copies * len(sizes)
    return parameters, tensors


def build(config: ModelConfig, seed: int) -> Model:
    """Initialize a one-member model deterministically from (config, seed).

    Weights draw from a uniform range scaled by fan-in; biases start at
    zero, layer-norm gains at one.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, kind, shape in _parameter_specs(config):
        if kind == "weight":
            bound = 1.0 / math.sqrt(shape[0])
            values = rng.uniform(-bound, bound, size=shape)
        elif kind == "bias" or kind == "ln_bias":
            values = np.zeros(shape)
        else:  # ln_gain
            values = np.ones(shape)
        params[name] = Tensor(values, requires_grad=True)
    return Model(config, params, (seed,))


def stack(models: Sequence[Model]) -> Model:
    """One model whose members are ``models``, in order; the models must
    share one config and have one member each."""
    if not models:
        raise ValueError("stack: no models")
    config = models[0].config
    if any(m.config != config or len(m.seeds) != 1 for m in models):
        raise ConfigError("stack: needs one-member models of one config")
    if len(models) == 1:
        return models[0].copy()
    params = {name: Tensor(np.stack([m.parameters[name].values for m in models]),
                           requires_grad=True)
              for name in models[0].parameters}
    return Model(config, params, [m.seeds[0] for m in models])


@functools.lru_cache(maxsize=32)
def _parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter of a lone model, by name."""
    return {name: shape for name, _, shape in _parameter_specs(config)}


def _parameter_arrays(model: Model, member: int) -> dict[str, np.ndarray]:
    """Member ``member``'s parameter values by name (views of a stack's
    arena), once their shapes are checked as a lone model's: the array ops
    broadcast where the Tensor ops would raise."""
    arrays = {name: t.values for name, t in model.parameters.items()}
    if len(model.seeds) > 1:
        arrays = {name: a[member] for name, a in arrays.items()}
    shapes = _parameter_shapes(model.config)
    if {name: a.shape for name, a in arrays.items()} != shapes:
        for name, shape in shapes.items():
            if arrays[name].shape != shape:
                raise ShapeError(f"forward: parameter {name} has shape {arrays[name].shape}, "
                                 f"expected {shape}")
    return arrays


def _mlp(ops, p: dict, x, prefix: str, n_layers: int, rows):
    out = x
    for i in range(n_layers):
        out = ops.linear(out, p[f"{prefix}.{i}.w"], p[f"{prefix}.{i}.b"], rows,
                         relu=i < n_layers - 1)
    return out


def _session_arrays(cfg: ModelConfig, sessions: Sequence[QuerySession]):
    """The row count and the domain of every session, once the sessions are
    checked against ``cfg``."""
    if not sessions:
        raise ValueError("forward: no sessions")
    lengths = np.array([s.features.shape[0] for s in sessions], dtype=np.int64)
    if not lengths.all():
        raise ValueError("forward: session has no items")
    domains = np.array([s.domain for s in sessions], dtype=np.int64)
    bad = domains[(domains < 0) | (domains >= cfg.n_domains)]
    if bad.size:
        raise ValueError(f"forward: session domain {bad[0]} out of range [0, {cfg.n_domains})")
    widths = {s.features.shape[1] for s in sessions}
    if widths != {cfg.feature_dim}:
        raise ShapeError(f"forward: feature widths {sorted(widths)} do not match config "
                         f"feature_dim {cfg.feature_dim}")
    return lengths, domains


def forward(
    model: Model, sessions: Sequence[QuerySession], domain_logits: bool = True,
    members: Sequence[int] | None = None,
) -> ScoredBatch:
    """Score every item of a batch of sessions in one pass.

    A stack of several members needs ``members``: the sessions are then
    the consecutive batches of its members, ``members[m]`` sessions for
    member m.  The pass runs the Tensor ops, which record on the active
    Tape, if any, so the returned tensors are differentiable inside one.
    Untaped scoring goes through ``_score_members`` instead, which
    ``evaluation`` calls.  ``domain_logits=False`` skips the domain
    classifier, whose logits only feed the training loss.
    """
    cfg = model.config
    n_members = len(model.seeds)
    lengths, domains = _session_arrays(cfg, sessions)
    members = (len(sessions),) if members is None else tuple(int(c) for c in members)
    if len(members) != n_members or min(members) < 1 or sum(members) != len(sessions):
        raise ValueError(f"forward: member batches {list(members)} do not split "
                         f"{len(sessions)} sessions among {n_members} members")
    rows = None  # one member: parameters without a member axis
    if n_members > 1:
        ends = np.cumsum(lengths)[np.cumsum(members) - 1].tolist()
        rows = tuple(end - start for start, end in zip([0, *ends], ends))
    x = Tensor(np.concatenate([s.features for s in sessions]))
    y, logits = _layers(_TENSOR_OPS, model.parameters, cfg, x, lengths, domains, rows,
                        domain_logits)
    return ScoredBatch(scores=y, domain_logits=logits, lengths=lengths, members=members,
                       rows=rows)


def _score_members(model: Model, sessions: Sequence[QuerySession]) -> list[np.ndarray]:
    """Every member's ``(N,)`` scores of the sessions' stacked rows, with
    the bits of ``forward(model.member(m), sessions, domain_logits=False)``,
    without a tape: the sessions are checked once, and each member runs the
    ops' array kernels on its parameter values (views of a stack's arena).
    A lone model is the one-member case."""
    cfg = model.config
    lengths, domains = _session_arrays(cfg, sessions)
    x = np.concatenate([s.features for s in sessions])
    return [_layers(_ARRAY_OPS, _parameter_arrays(model, m), cfg, x, lengths, domains, None,
                    False)[0][:, 0]
            for m in range(len(model.seeds))]


def _layers(ops, p: dict, cfg: ModelConfig, h, lengths: np.ndarray, domains: np.ndarray,
            rows, domain_logits: bool):
    """The scores and the domain logits (None when not asked for or without
    a classifier) of the stacked session rows ``h``, through ``ops`` on the
    parameters ``p``, with ``rows`` as ``forward`` passes it to the ops."""
    for i in range(len(cfg.trunk_hidden)):
        h = ops.linear(h, p[f"trunk.{i}.w"], p[f"trunk.{i}.b"], rows, relu=True)
    s = ops.linear(h, p["score.0.w"], p["score.0.b"], rows)

    t = ops.linear(ops.concat_cols(h, s), p["token.0.w"], p["token.0.b"], rows)
    for l in range(cfg.transformer_layers):
        pre = f"transformer.{l}"
        attended = ops.attention(
            ops.layer_norm(t, p[f"{pre}.norm1.gain"], p[f"{pre}.norm1.bias"], members=rows),
            p[f"{pre}.wq"],
            p[f"{pre}.wk"],
            p[f"{pre}.wv"],
            lengths,
            heads=cfg.heads,
            members=rows,
        )
        t = ops.add(t, ops.linear(attended, p[f"{pre}.attn_out.0.w"],
                                  p[f"{pre}.attn_out.0.b"], rows))
        ff = ops.layer_norm(t, p[f"{pre}.norm2.gain"], p[f"{pre}.norm2.bias"], members=rows)
        ff = ops.linear(ops.linear(ff, p[f"{pre}.ffn.0.w"], p[f"{pre}.ffn.0.b"], rows, relu=True),
                        p[f"{pre}.ffn.1.w"], p[f"{pre}.ffn.1.b"], rows)
        t = ops.add(t, ff)

    final_in = ops.concat_cols(s, t)
    n_final = len(cfg.final_hidden) + 1
    if cfg.variant is not Variant.MULTI_HEAD:
        y = _mlp(ops, p, final_in, "final", n_final, rows)
    elif (domains == domains[0]).all():
        y = _mlp(ops, p, final_in, f"head.{domains[0]}", n_final, rows)
    else:
        # each domain's rows run through its head, member by member
        row_domain = np.repeat(domains, lengths)
        present = np.flatnonzero(np.bincount(domains))
        row_sets = [np.flatnonzero(row_domain == d) for d in present]
        head_rows = [None] * len(row_sets)
        if rows is not None:
            row_member = np.repeat(np.arange(len(rows)), rows)
            head_rows = [np.bincount(row_member[r], minlength=len(rows)).tolist()
                         for r in row_sets]
        parts = [_mlp(ops, p, ops.take_rows(final_in, r), f"head.{d}", n_final, hr)
                 for d, r, hr in zip(present, row_sets, head_rows)]
        y = ops.put_rows(parts, row_sets, row_domain.size)

    logits = None
    if domain_logits and cfg.variant.has_classifier:
        clf_in = h
        if cfg.variant is Variant.DOMAIN_ADVERSARIAL:
            clf_in = ops.gradient_reversal(h, cfg.grl_lambda)
        logits = _mlp(ops, p, clf_in, "classifier", len(cfg.classifier_hidden) + 1, rows)
    return y, logits


def count_parameters(model: Model, deployed: bool = False) -> int:
    """Parameter count of one member; ``deployed`` drops the domain
    classifier, which only exists to shape training."""
    total = 0
    for name, t in model.parameters.items():
        if deployed and name.startswith("classifier."):
            continue
        total += t.values.size // len(model.seeds)
    return total


def save(model: Model) -> bytes:
    """Serialize a one-member model to a self-describing, versioned JSON
    payload (save a stack's members one ``member()`` at a time).

    Floats round-trip exactly through their shortest decimal repr, so
    save -> load -> save is byte-identical.  Non-finite weights raise
    ValueError instead of being written as bare NaN/Infinity tokens.
    """
    if len(model.seeds) != 1:
        raise ValueError(f"save: a stack of {len(model.seeds)} members; save one member() each")
    doc = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "seed": model.seeds[0],
        "config": model.config.to_json_obj(),
        "parameters": {
            name: {"shape": list(t.shape), "values": t.values.reshape(-1).tolist()}
            for name, t in model.parameters.items()
        },
    }
    return json.dumps(doc, separators=(",", ":"), allow_nan=False).encode("utf-8")


def load(raw: bytes) -> Model:
    """The model a ``save`` payload describes; raises ModelLoadError on a
    payload that is corrupt, truncated, of another version, or whose
    fields have the wrong types, shapes or values."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelLoadError(f"corrupt model payload: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT_NAME:
        raise ModelLoadError("payload is not a serialized model")
    version = doc.get("version")
    if not _is_integer(version) or version != _FORMAT_VERSION:
        raise ModelLoadError(
            f"unsupported model format version {version!r} (expected {_FORMAT_VERSION})"
        )
    try:
        config = ModelConfig.from_json_obj(doc["config"])
        seed = doc["seed"]
        raw_params = doc["parameters"]
    except KeyError as exc:
        raise ModelLoadError(f"missing field in model payload: {exc}") from exc
    except ConfigError as exc:
        raise ModelLoadError(str(exc)) from exc
    if not _is_integer(seed) or seed < 0:
        raise ModelLoadError(f"model seed must be a non-negative integer, got {seed!r}")
    if not isinstance(raw_params, dict):
        raise ModelLoadError("model parameters must be an object of named entries")

    params: dict[str, Tensor] = {}
    for name, kind, shape in _parameter_specs(config):
        entry = raw_params.get(name)
        if entry is None:
            raise ModelLoadError(f"model payload is missing parameter {name!r}")
        if not isinstance(entry, dict):
            raise ModelLoadError(f"parameter {name!r} is not an object")
        got_shape = entry.get("shape")
        if (not isinstance(got_shape, list) or not all(map(_is_integer, got_shape))
                or tuple(got_shape) != shape):
            raise ModelLoadError(f"parameter {name!r} has shape {got_shape!r}, expected {shape}")
        values = entry.get("values")
        expected = math.prod(shape)
        if not isinstance(values, list) or len(values) != expected:
            count = len(values) if isinstance(values, list) else 0
            raise ModelLoadError(f"parameter {name!r} holds {count} values, expected {expected}")
        if not {*map(type, values)} <= {int, float}:
            raise ModelLoadError(f"parameter {name!r} holds non-numeric values")
        try:
            arr = np.asarray(values, dtype=np.float64).reshape(shape)
        except OverflowError:  # an integer beyond the float range
            raise ModelLoadError(f"parameter {name!r} holds a value beyond the float range") from None
        if not np.isfinite(arr).all():
            raise ModelLoadError(f"parameter {name!r} holds non-finite values")
        params[name] = Tensor(arr, requires_grad=True)
    extra = set(raw_params) - set(params)
    if extra:
        raise ModelLoadError(f"model payload has unexpected parameters: {sorted(extra)}")
    return Model(config, params, (seed,))
