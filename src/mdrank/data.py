"""Session data: line-delimited JSON IO, time-based splits, text-similarity
features, feature normalization, and a seeded synthetic two-domain generator.
"""

from __future__ import annotations

import json
import math
import numbers
import zlib
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "QuerySession",
    "DatasetFormatError",
    "load_dataset",
    "write_dataset",
    "split_by_time",
    "text_similarity",
    "add_text_similarity_features",
    "FeatureStats",
    "normalize_features",
    "SyntheticSpec",
    "SyntheticDataset",
    "generate_synthetic",
    "MAX_LIST_LENGTH",
]

MAX_LIST_LENGTH = 130

_SPLIT_NAMES = ("train", "valid", "test")
_SPLIT_WINDOW = 1_000_000


class DatasetFormatError(ValueError):
    """A dataset file violates the one-session-per-line JSON contract."""


def _is_integer(value) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
    """Write one session per line; returns the number of lines written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for session in sessions:
            fh.write(json.dumps(_session_to_obj(session), separators=(",", ":")))
            fh.write("\n")
            n += 1
    return n


def _parse_session(obj: dict, where: str, n_domains: int | None) -> QuerySession:
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
    if n_domains is not None and domain >= n_domains:
        raise DatasetFormatError(f"{where}: domain {domain} out of range [0, {n_domains})")
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

    rows: list[np.ndarray] = []
    labels: list[float] = []
    texts: list[tuple[str | None, str | None]] = []
    dim: int | None = None
    for j, raw in enumerate(raw_items):
        iw = f"{where}, item {j}"
        if not isinstance(raw, dict) or "features" not in raw or "label" not in raw:
            raise DatasetFormatError(f"{iw}: each item needs 'features' and 'label'")
        feats = raw["features"]
        if not isinstance(feats, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in feats
        ):
            raise DatasetFormatError(f"{iw}: features must be a list of numbers")
        try:
            vec = np.asarray(feats, dtype=np.float64)
        except OverflowError:  # a JSON integer beyond the float64 range
            vec = None
        if vec is None or not np.all(np.isfinite(vec)):
            raise DatasetFormatError(f"{iw}: features must be finite")
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise DatasetFormatError(f"{iw}: feature length {vec.size} != {dim} in same session")
        label = raw["label"]
        if isinstance(label, bool) or not isinstance(label, (int, float)):
            raise DatasetFormatError(f"{iw}: label must be a number")
        try:
            label = float(label)
        except OverflowError:  # a JSON integer beyond the float64 range
            label = math.inf
        if not math.isfinite(label) or label < 0.0:
            raise DatasetFormatError(f"{iw}: label must be finite and non-negative")
        q = raw.get("q")
        t = raw.get("t")
        if q is not None and not isinstance(q, str):
            raise DatasetFormatError(f"{iw}: q must be a string")
        if t is not None and not isinstance(t, str):
            raise DatasetFormatError(f"{iw}: t must be a string")
        rows.append(vec)
        labels.append(label)
        texts.append((q, t))
    has_text = any(pair != (None, None) for pair in texts)
    return QuerySession(qid, domain, ts, rows, labels, tuple(texts) if has_text else None)


def load_dataset(path, n_domains: int | None = None) -> list[QuerySession]:
    """Parse a line-delimited JSON session file; errors carry line numbers."""
    sessions: list[QuerySession] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"{where}: invalid JSON ({exc.msg})") from exc
            sessions.append(_parse_session(obj, where, n_domains))
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
# text similarity features


def _trigram_counts(text: str, n_buckets: int) -> np.ndarray:
    counts = np.zeros(n_buckets, dtype=np.float64)
    if len(text) >= 3:
        grams = [text[i : i + 3] for i in range(len(text) - 2)]
    elif text:
        grams = [text]
    else:
        grams = []
    for g in grams:
        counts[zlib.crc32(g.encode("utf-8")) % n_buckets] += 1.0
    return counts


def text_similarity(query: str, title: str, n_buckets: int = 64) -> np.ndarray:
    """Cheap stand-in for a learned sentence encoder: hashed character-trigram
    cosine similarity plus token-set Jaccard, returned as a feature vector.

    Both components live in [0, 1]; an empty string yields 0 similarity.
    """
    if n_buckets < 1:
        raise ValueError("text_similarity: n_buckets must be positive")
    a = _trigram_counts(query, n_buckets)
    b = _trigram_counts(title, n_buckets)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        cosine = 0.0
    elif np.array_equal(a, b):
        cosine = 1.0
    else:
        cosine = min(1.0, max(0.0, float(a @ b) / (na * nb)))
    qt = set(query.split())
    tt = set(title.split())
    union = qt | tt
    jaccard = len(qt & tt) / len(union) if union else 0.0
    return np.array([cosine, jaccard], dtype=np.float64)


def add_text_similarity_features(
    sessions: Sequence[QuerySession], n_buckets: int = 64
) -> list[QuerySession]:
    """Append the text-similarity vector to every row's features.

    Rows without both text fields get zeros, keeping feature width uniform.
    Input sessions are not mutated.
    """
    out: list[QuerySession] = []
    for s in sessions:
        extra = np.zeros((s.features.shape[0], 2), dtype=np.float64)
        for j, (q, t) in enumerate(s.texts or ()):
            if q is not None and t is not None:
                extra[j] = text_similarity(q, t, n_buckets)
        out.append(replace(s, features=np.hstack([s.features, extra])))
    return out


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


def _apply_stats(sessions: Sequence[QuerySession], stats: FeatureStats) -> list[QuerySession]:
    out = []
    for s in sessions:
        if s.features.shape[1] != stats.mean.size:
            raise ValueError(
                f"normalize_features: feature width {s.features.shape[1]} != {stats.mean.size}"
            )
        scaled = (s.features - stats.mean) / stats.std
        out.append(replace(s, features=np.where(stats.passthrough, s.features, scaled)))
    return out


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
        for name in ("n_domains", "feature_dim", "seed"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"SyntheticSpec: {name} must be an integer")
        if self.n_domains < 1:
            raise ValueError("SyntheticSpec: n_domains must be >= 1")
        if self.feature_dim < 1:
            raise ValueError("SyntheticSpec: feature_dim must be >= 1")
        if self.seed < 0:
            raise ValueError("SyntheticSpec: seed must be >= 0")
        if set(self.sessions_per_domain) != set(_SPLIT_NAMES):
            raise ValueError(
                f"SyntheticSpec: sessions_per_domain needs exactly the keys {_SPLIT_NAMES}"
            )
        for split in _SPLIT_NAMES:
            self._counts(split)
        lengths = self.list_length
        if not (isinstance(lengths, (list, tuple)) and len(lengths) == 2
                and all(map(_is_integer, lengths)) and 1 <= lengths[0] <= lengths[1]):
            raise ValueError(f"SyntheticSpec: list_length must be integers 1 <= lo <= hi, "
                             f"got {lengths!r}")
        if lengths[1] > MAX_LIST_LENGTH:
            raise ValueError(f"SyntheticSpec: list_length above {MAX_LIST_LENGTH}")
        object.__setattr__(self, "list_length", tuple(lengths))
        if not (0.0 <= self.label_noise < 1.0):
            raise ValueError("SyntheticSpec: label_noise must lie in [0, 1)")
        scales = (self.shared_weight_scale, self.domain_weight_scale, self.domain_shift_scale)
        if not all(math.isfinite(s) and s >= 0 for s in scales):
            raise ValueError("SyntheticSpec: weight and shift scales must be finite and >= 0")
        if self.shared_weight_scale == 0 and self.domain_weight_scale == 0:
            raise ValueError("SyntheticSpec: at least one weight scale must be positive")

    def _counts(self, split: str) -> list[int]:
        raw = self.sessions_per_domain[split]
        if _is_integer(raw):
            raw = [raw] * self.n_domains
        if not (isinstance(raw, (list, tuple)) and len(raw) == self.n_domains
                and all(_is_integer(c) and c >= 0 for c in raw)):
            raise ValueError(
                f"SyntheticSpec: {split!r} needs one count or {self.n_domains} per-domain "
                "counts, each a non-negative integer"
            )
        return [int(c) for c in raw]


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
