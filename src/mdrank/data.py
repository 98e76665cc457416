"""Session data: line-delimited JSON IO, time-based splits, feature
normalization, and a seeded synthetic two-domain generator.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

__all__ = [
    "QuerySession",
    "DatasetFormatError",
    "load_dataset",
    "write_dataset",
    "split_by_time",
    "FeatureStats",
    "normalize_features",
    "SyntheticSpec",
    "SyntheticDataset",
    "generate_synthetic",
    "MAX_LIST_LENGTH",
]

MAX_LIST_LENGTH = 130
# Floats a config may ask for: 1 GiB of float64, the bound on a model's
# parameters per member and on a synthetic spec's per-domain weights.
_MAX_FLOATS = 2**27

_SPLIT_NAMES = ("train", "valid", "test")
_SPLIT_WINDOW = 1_000_000


class DatasetFormatError(ValueError):
    """A dataset file violates the one-session-per-line JSON contract."""


class ConfigError(ValueError):
    """A model or experiment configuration is invalid."""


def _is_integer(value) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_types(config, ints=(), optional_ints=(), reals=()) -> None:
    """Raise a ConfigError naming the first field of the dataclass
    ``config`` that does not hold its JSON type: an integer for ``ints``,
    an integer or None for ``optional_ints``, and a number within the float
    range for ``reals``.  A bool is none of them."""
    owner = type(config).__name__
    for name in ints:
        if not _is_integer(getattr(config, name)):
            raise ConfigError(f"{owner}: {name} must be an integer")
    for name in optional_ints:
        if not (getattr(config, name) is None or _is_integer(getattr(config, name))):
            raise ConfigError(f"{owner}: {name} must be an integer or null")
    for name in reals:
        value = getattr(config, name)
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or isinstance(value, int) and abs(value) > sys.float_info.max):
            raise ConfigError(f"{owner}: {name} must be a number, got {value!r}")


@dataclass(frozen=True)
class QuerySession:
    """All candidates shown for one query, with its domain and timestamp.

    Row i of ``features`` (n, d) and ``grades`` (n,) is one candidate, and
    ``texts[i]`` its raw (query, title) strings, either of which may be
    None; ``texts`` is None when no row has text.  Both arrays are float64
    read-only copies, which ``feature_matrix()`` and ``labels()`` return.
    """

    query_id: str
    domain: int
    timestamp: int
    features: np.ndarray
    grades: np.ndarray
    texts: tuple[tuple[str | None, str | None], ...] | None = None

    def __post_init__(self):
        for name in ("features", "grades"):
            values = np.array(getattr(self, name), dtype=np.float64)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        n = self.grades.size
        if self.features.ndim != 2 or self.grades.shape != (n,) or len(self.features) != n:
            raise ValueError(f"QuerySession: need features (n, d) and grades (n,), got "
                             f"{self.features.shape} and {self.grades.shape}")
        if self.texts is not None and len(self.texts) != n:
            raise ValueError(f"QuerySession: {len(self.texts)} texts for {n} rows")

    def labels(self) -> np.ndarray:
        return self.grades

    def feature_matrix(self) -> np.ndarray:
        return self.features


# ---------------------------------------------------------------------------
# line-delimited JSON IO


def _session_to_obj(session: QuerySession) -> dict:
    items = []
    texts = session.texts or [(None, None)] * session.grades.size
    for feats, label, (q, t) in zip(session.features.tolist(), session.grades.tolist(), texts):
        obj = {"features": feats, "label": label}
        if q is not None:
            obj["q"] = q
        if t is not None:
            obj["t"] = t
        items.append(obj)
    return {
        "query_id": session.query_id,
        "domain": session.domain,
        "ts": session.timestamp,
        "items": items,
    }


def write_dataset(sessions: Iterable[QuerySession], path) -> int:
    """Write one session per line; returns the number of lines written.
    Every line is serialized before the file opens, so a session holding a
    non-finite number, which ``load_dataset`` would reject, raises
    ValueError and leaves ``path`` as it was."""
    lines = [json.dumps(_session_to_obj(session), separators=(",", ":"), allow_nan=False)
             + "\n" for session in sessions]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return len(lines)


def _parse_session(obj: dict, where: str) -> QuerySession:
    """One decoded jsonl line as a session.

    The items parse as arrays (``_item_arrays``).  Its checks hold for a
    list only if they hold for every item, so once a prefix of a rejected
    list fails, every longer one fails: bisecting the prefixes finds the
    first bad item, and the message of the prefix it ends is that item's.
    """
    if not isinstance(obj, dict):
        raise DatasetFormatError(f"{where}: expected a JSON object per line")
    for key in ("query_id", "domain", "ts", "items"):
        if key not in obj:
            raise DatasetFormatError(f"{where}: missing field {key!r}")
    qid = obj["query_id"]
    if not isinstance(qid, str):
        raise DatasetFormatError(f"{where}: query_id must be a string")
    domain = obj["domain"]
    if not isinstance(domain, int) or isinstance(domain, bool) or domain < 0:
        raise DatasetFormatError(f"{where}: domain must be a non-negative integer")
    ts = obj["ts"]
    if not isinstance(ts, int) or isinstance(ts, bool):
        raise DatasetFormatError(f"{where}: ts must be an integer")
    raw_items = obj["items"]
    if not isinstance(raw_items, list) or len(raw_items) < 1:
        raise DatasetFormatError(f"{where}: items must be a non-empty list")
    if len(raw_items) > MAX_LIST_LENGTH:
        raise DatasetFormatError(
            f"{where}: {len(raw_items)} items exceeds the maximum list length {MAX_LIST_LENGTH}"
        )
    parsed = _item_arrays(raw_items)
    if isinstance(parsed, str):
        j = bisect_left(range(len(raw_items)), True,
                        key=lambda i: isinstance(_item_arrays(raw_items[:i + 1]), str))
        raise DatasetFormatError(f"{where}, item {j}: {_item_arrays(raw_items[:j + 1])}")
    return QuerySession(qid, domain, ts, *parsed)


_NUMBER_TYPES = {int, float}
_TEXT_TYPES = {str, type(None)}


def _item_arrays(raw_items: list) -> tuple[np.ndarray, np.ndarray, tuple | None] | str:
    """The items' ``(n, d)`` features and ``(n,)`` labels as float64 arrays
    with their ``(q, t)`` pairs (None when no item has text), or the message
    of the first check an item fails.

    The checks run in the order of their messages: keys, feature types,
    finiteness and length, label type and range, ``q``, ``t``.  Set scans of
    exact types replace per-value checks (so a ``bool``, whose type is not
    ``int``, is rejected), and each array is one ``np.fromiter`` conversion.
    """
    try:
        feats = [raw["features"] for raw in raw_items]
        labels = [raw["label"] for raw in raw_items]
    except (KeyError, TypeError):  # an item that is not an object or lacks a key
        return "each item needs 'features' and 'label'"
    if ({*map(type, feats)} != {list}
            or not {*map(type, chain.from_iterable(feats))} <= _NUMBER_TYPES):
        return "features must be a list of numbers"
    widths = [*map(len, feats)]
    # finiteness first, on the flat chain: an item may fail both checks
    try:
        flat = np.fromiter(chain.from_iterable(feats), np.float64, sum(widths))
    except OverflowError:  # a JSON integer beyond the float64 range
        return "features must be finite"
    if not np.isfinite(flat).all():
        return "features must be finite"
    d = widths[0]
    if widths.count(d) != len(widths):
        return f"feature length {next(w for w in widths if w != d)} != {d} in same session"
    if not {*map(type, labels)} <= _NUMBER_TYPES:
        return "label must be a number"
    try:
        grades = np.fromiter(labels, np.float64, len(labels))
    except OverflowError:  # a JSON integer beyond the float64 range
        return "label must be finite and non-negative"
    if not (np.isfinite(grades).all() and (grades >= 0.0).all()):
        return "label must be finite and non-negative"
    texts = [(raw.get("q"), raw.get("t")) for raw in raw_items]
    text_types = {*map(type, chain.from_iterable(texts))}
    if not text_types <= _TEXT_TYPES:  # one scan of both; split only on failure
        bad_q = not {type(q) for q, _ in texts} <= _TEXT_TYPES
        return "q must be a string" if bad_q else "t must be a string"
    return flat.reshape(len(widths), d), grades, tuple(texts) if str in text_types else None


def load_dataset(path) -> list[QuerySession]:
    """Parse a line-delimited JSON session file; errors carry line numbers."""
    sessions: list[QuerySession] = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                where = f"{path}:{lineno}"
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatasetFormatError(f"{where}: invalid JSON ({exc.msg})") from exc
                sessions.append(_parse_session(obj, where))
        except UnicodeDecodeError as exc:
            # no line number: the reader decodes ahead in chunks, so lineno may lag
            raise DatasetFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return sessions


def split_by_time(
    sessions: Sequence[QuerySession], train_end: int, valid_end: int
) -> tuple[list[QuerySession], list[QuerySession], list[QuerySession]]:
    """Half-open boundaries: ts < train_end trains, train_end <= ts < valid_end
    validates, the rest tests."""
    if train_end >= valid_end:
        raise ValueError(f"split_by_time: need train_end < valid_end, got {train_end} >= {valid_end}")
    train, valid, test = [], [], []
    for s in sessions:
        if s.timestamp < train_end:
            train.append(s)
        elif s.timestamp < valid_end:
            valid.append(s)
        else:
            test.append(s)
    return train, valid, test


# ---------------------------------------------------------------------------
# feature normalization


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature training mean/std plus a flag for near-constant features
    that are passed through unscaled."""

    mean: np.ndarray
    std: np.ndarray
    passthrough: np.ndarray

    EPS = 1e-12

    def to_json(self) -> bytes:
        """One JSON line of ``mean``, ``std`` and ``passthrough``.  Floats
        are written as their shortest repr, so ``from_json`` gives back the
        same bits and the same statistics always give the same bytes."""
        doc = {"mean": self.mean.tolist(), "std": self.std.tolist(),
               "passthrough": self.passthrough.tolist()}
        return (json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n").encode("utf-8")

    @classmethod
    def from_json(cls, raw: bytes, width: int) -> FeatureStats:
        """The statistics of ``width`` features that ``to_json`` wrote.
        Raises ValueError unless ``raw`` is a JSON object of exactly
        ``mean``, ``std`` and ``passthrough``, each a list of ``width``
        values: finite numbers, ``std`` at least ``EPS``, and bools."""
        try:
            doc = json.loads(raw)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ValueError(f"invalid JSON ({exc})") from exc
        if not isinstance(doc, dict) or set(doc) != {"mean", "std", "passthrough"}:
            raise ValueError("need an object of exactly mean, std and passthrough")
        arrays = {}
        for key in ("mean", "std"):
            values = doc[key]
            if (type(values) is not list or len(values) != width
                    or not {*map(type, values)} <= _NUMBER_TYPES):
                raise ValueError(f"{key} must be a list of {width} numbers")
            try:
                arrays[key] = np.fromiter(values, np.float64, width)
            except OverflowError:  # a JSON integer beyond the float64 range
                raise ValueError(f"{key} must be finite") from None
            if not np.isfinite(arrays[key]).all():
                raise ValueError(f"{key} must be finite")
        if not (arrays["std"] >= cls.EPS).all():
            raise ValueError(f"std must be at least {cls.EPS}")
        flags = doc["passthrough"]
        if type(flags) is not list or len(flags) != width or not {*map(type, flags)} <= {bool}:
            raise ValueError(f"passthrough must be a list of {width} bools")
        return cls(arrays["mean"], arrays["std"], np.array(flags, dtype=bool))


def _apply_stats(sessions: Sequence[QuerySession], stats: FeatureStats) -> list[QuerySession]:
    """``sessions`` standardized by ``stats`` in one pass over their stacked
    rows.  The ops are elementwise, so every row gets the bits that the
    same ops on its session alone give it."""
    d = stats.mean.size
    bad = next((s.features.shape[1] for s in sessions if s.features.shape[1] != d), None)
    if bad is not None:
        raise ValueError(f"normalize_features: feature width {bad} != {d}")
    if not sessions:
        return []
    mat = np.concatenate([s.features for s in sessions])
    out = np.where(stats.passthrough, mat, (mat - stats.mean) / stats.std)
    ends = np.cumsum([s.grades.size for s in sessions]).tolist()
    return [QuerySession(s.query_id, s.domain, s.timestamp, out[start:end], s.grades, s.texts)
            for s, start, end in zip(sessions, [0, *ends], ends)]


def normalize_features(
    train: Sequence[QuerySession], *others: Sequence[QuerySession]
) -> tuple[list[list[QuerySession]], FeatureStats]:
    """Standardize features using statistics from the training split only.

    Returns ``([train'] + [others'...], stats)``.  Features whose training
    std falls below ``FeatureStats.EPS`` are flagged and left untouched.
    """
    if not train:
        raise ValueError("normalize_features: empty training split")
    mat = np.vstack([s.features for s in train])
    mean = mat.mean(axis=0)
    std = mat.std(axis=0)
    passthrough = std < FeatureStats.EPS
    safe_std = np.where(passthrough, 1.0, std)
    stats = FeatureStats(mean=mean, std=safe_std, passthrough=passthrough)
    normalized = [_apply_stats(train, stats)]
    for split in others:
        normalized.append(_apply_stats(split, stats))
    return normalized, stats


# ---------------------------------------------------------------------------
# synthetic generator


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a seeded multi-domain ranking dataset.

    Row relevance is ``sigmoid(x . (s1 * w_shared + s2 * w_domain))`` with
    hidden weight vectors drawn once per seed; exactly one item per session
    gets label 1 (the top-relevance item, or a uniformly random one with
    probability ``label_noise``).  ``domain_shift_scale`` offsets each
    domain's feature mean along a fixed random unit direction so that the
    domain is statistically identifiable from the features alone; 0 keeps
    all domains identically distributed.

    ``sessions_per_domain`` maps each split name to either one count shared
    by every domain or a per-domain list (supporting imbalanced domains).
    ``n_domains * feature_dim``, the size of the hidden per-domain weights,
    is at most ``_MAX_FLOATS``, the bound a model's parameters have too,
    and so is the size of the largest feature matrices the spec can ask
    for: all sessions times ``list_length[1]`` times ``feature_dim``.
    """

    n_domains: int = 2
    sessions_per_domain: Mapping[str, int | Sequence[int]] = field(
        default_factory=lambda: {"train": 600, "valid": 200, "test": 200}
    )
    feature_dim: int = 8
    shared_weight_scale: float = 1.0
    domain_weight_scale: float = 1.0
    domain_shift_scale: float = 0.0
    list_length: tuple[int, int] = (20, 130)
    label_noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        _check_types(self, ints=("n_domains", "feature_dim", "seed"),
                     reals=("shared_weight_scale", "domain_weight_scale", "domain_shift_scale",
                            "label_noise"))
        if self.n_domains < 1:
            raise ConfigError("SyntheticSpec: n_domains must be >= 1")
        if self.feature_dim < 1:
            raise ConfigError("SyntheticSpec: feature_dim must be >= 1")
        if self.n_domains * self.feature_dim > _MAX_FLOATS:
            raise ConfigError(f"SyntheticSpec: n_domains * feature_dim is "
                              f"{self.n_domains * self.feature_dim}, above the bound of "
                              f"{_MAX_FLOATS}")
        if self.seed < 0:
            raise ConfigError("SyntheticSpec: seed must be >= 0")
        if (not isinstance(self.sessions_per_domain, Mapping)
                or set(self.sessions_per_domain) != set(_SPLIT_NAMES)):
            raise ConfigError(
                f"SyntheticSpec: sessions_per_domain needs exactly the keys {_SPLIT_NAMES}"
            )
        for split in _SPLIT_NAMES:
            raw = self.sessions_per_domain[split]
            shared = _is_integer(raw)  # checked once, not once per domain
            counts = [raw] if shared else raw
            if not (isinstance(counts, (list, tuple)) and (shared or len(counts) == self.n_domains)
                    and all(_is_integer(c) and c >= 0 for c in counts)):
                raise ConfigError(
                    f"SyntheticSpec: {split!r} needs one count or {self.n_domains} per-domain "
                    "counts, each a non-negative integer"
                )
        lengths = self.list_length
        if not (isinstance(lengths, (list, tuple)) and len(lengths) == 2
                and all(map(_is_integer, lengths)) and 1 <= lengths[0] <= lengths[1]):
            raise ConfigError(f"SyntheticSpec: list_length must be integers 1 <= lo <= hi, "
                              f"got {lengths!r}")
        if lengths[1] > MAX_LIST_LENGTH:
            raise ConfigError(f"SyntheticSpec: list_length above {MAX_LIST_LENGTH}")
        object.__setattr__(self, "list_length", tuple(lengths))
        sessions = sum(raw * self.n_domains if _is_integer(raw) else sum(raw)
                       for raw in self.sessions_per_domain.values())
        if sessions * lengths[1] * self.feature_dim > _MAX_FLOATS:
            raise ConfigError(f"SyntheticSpec: sessions * list_length[1] * feature_dim is "
                              f"{sessions * lengths[1] * self.feature_dim} ({sessions} "
                              f"sessions), above the bound of {_MAX_FLOATS}")
        if not (0.0 <= self.label_noise < 1.0):
            raise ConfigError("SyntheticSpec: label_noise must lie in [0, 1)")
        scales = (self.shared_weight_scale, self.domain_weight_scale, self.domain_shift_scale)
        if not all(math.isfinite(s) and s >= 0 for s in scales):
            raise ConfigError("SyntheticSpec: weight and shift scales must be finite and >= 0")
        if self.shared_weight_scale == 0 and self.domain_weight_scale == 0:
            raise ConfigError("SyntheticSpec: at least one weight scale must be positive")

    def _counts(self, split: str) -> list[int]:
        """The session count of each domain in ``split``."""
        raw = self.sessions_per_domain[split]
        return [int(raw)] * self.n_domains if _is_integer(raw) else [int(c) for c in raw]


@dataclass
class SyntheticDataset:
    """Generated splits plus the hidden weights that produced them, kept so
    tests can build oracle rankers."""

    spec: SyntheticSpec
    train: list[QuerySession]
    valid: list[QuerySession]
    test: list[QuerySession]
    shared_weights: np.ndarray
    domain_weights: np.ndarray
    domain_shifts: np.ndarray

    def splits(self) -> tuple[list[QuerySession], list[QuerySession], list[QuerySession]]:
        return self.train, self.valid, self.test

    def ranking_weights(self, domain: int) -> np.ndarray:
        """The hidden linear ranker for one domain."""
        return (
            self.spec.shared_weight_scale * self.shared_weights
            + self.spec.domain_weight_scale * self.domain_weights[domain]
        )

    def relevance(self, session: QuerySession) -> np.ndarray:
        """True per-item relevance in (0, 1) under the generating model."""
        logits = session.features @ self.ranking_weights(session.domain)
        return 1.0 / (1.0 + np.exp(-logits))


def generate_synthetic(spec: SyntheticSpec) -> SyntheticDataset:
    """Deterministically expand a spec into train/valid/test sessions.

    Timestamps are assigned in disjoint windows per split (train < valid <
    test), so re-splitting the concatenated sessions with ``split_by_time``
    at the window boundaries reproduces the same partition.
    """
    rng = np.random.default_rng(spec.seed)
    f = spec.feature_dim
    w_shared = rng.standard_normal(f)
    w_domain = rng.standard_normal((spec.n_domains, f))
    directions = rng.standard_normal((spec.n_domains, f))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    shifts = spec.domain_shift_scale * directions / norms

    lo, hi = spec.list_length
    out: dict[str, list[QuerySession]] = {name: [] for name in _SPLIT_NAMES}
    weights = [
        spec.shared_weight_scale * w_shared + spec.domain_weight_scale * w_domain[d]
        for d in range(spec.n_domains)
    ]
    for si, split in enumerate(_SPLIT_NAMES):
        counts = spec._counts(split)
        base_ts = si * _SPLIT_WINDOW
        serial = 0
        for d in range(spec.n_domains):
            for i in range(counts[d]):
                n = int(rng.integers(lo, hi + 1))
                feats = rng.standard_normal((n, f)) + shifts[d]
                scores = feats @ weights[d]
                pos = int(np.argmax(scores))
                if rng.random() < spec.label_noise:
                    pos = int(rng.integers(n))
                out[split].append(
                    QuerySession(
                        query_id=f"{split}-d{d}-{i:05d}",
                        domain=d,
                        timestamp=base_ts + serial,
                        features=feats,
                        grades=np.arange(n) == pos,
                    )
                )
                serial += 1
    return SyntheticDataset(
        spec=spec,
        train=out["train"],
        valid=out["valid"],
        test=out["test"],
        shared_weights=w_shared,
        domain_weights=w_domain,
        domain_shifts=shifts,
    )
