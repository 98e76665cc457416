"""Mini-batch training with listwise + domain losses, checkpoint selection
on validation NDCG, and the multi-seed comparison protocol."""

from __future__ import annotations

import math
import os
from collections.abc import Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tape, backward
from .data import QuerySession
from .evaluation import EvalSummary, NonFiniteScoreError, evaluate
from .losses import batch_loss
from .models import ConfigError, Model, ModelConfig, Variant, build

__all__ = [
    "TrainConfig",
    "TrainingDiverged",
    "HistoryRecord",
    "Adam",
    "train",
    "VariantSpec",
    "DataSplits",
    "RunRecord",
    "VariantDomainStats",
    "EvalReport",
    "baseline_names",
    "gain_pct",
    "run_protocol",
]


class TrainingDiverged(RuntimeError):
    """The training loss left the finite range; the run cannot continue."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 3
    batch_size: int = 8
    learning_rate: float = 1e-3
    eval_every: int = 100
    k: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("TrainConfig: epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("TrainConfig: batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("TrainConfig: learning_rate must be finite and non-negative")
        if self.eval_every < 1:
            raise ValueError("TrainConfig: eval_every must be >= 1")
        if self.k < 1:
            raise ValueError("TrainConfig: k must be >= 1")
        if self.seed < 0:
            raise ValueError("TrainConfig: seed must be >= 0")


@dataclass
class HistoryRecord:
    step: int
    ranking_loss: float
    domain_loss: float | None
    total_loss: float
    valid_ndcg: float | None = None


class Adam:
    """Adaptive-moment optimizer with the usual defaults.

    The moments ``m`` and ``v`` are flat vectors parallel to the model's
    parameter arena.  A step updates the whole arena at once when every
    parameter has a gradient in its buffer, and otherwise each parameter
    that has one, so a parameter whose ``grad`` is None (a multihead head
    whose domain was absent from the batch) keeps its values and moments.
    """

    def __init__(self, model: Model, learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.model = model
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(model.values)
        self.v = np.zeros_like(model.values)

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        model = self.model
        params = model.parameters.values()
        if all(p.grad is p.grad_buffer for p in params):
            self._update(model.values, model.grads, self.m, self.v, b1c, b2c)
            return
        for sl, p in zip(model.slices, params):
            if p.grad is not None:
                shape = p.values.shape
                self._update(p.values, p.grad, self.m[sl].reshape(shape),
                             self.v[sl].reshape(shape), b1c, b2c)

    def _update(self, values, g, m, v, b1c: float, b2c: float) -> None:
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        values -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def train(
    model: Model,
    train_sessions: Sequence[QuerySession],
    valid_sessions: Sequence[QuerySession],
    config: TrainConfig,
) -> tuple[Model, list[HistoryRecord]]:
    """Optimize in place, tracking the best validation checkpoint.

    Validation NDCG@k runs every ``eval_every`` steps and once after the
    final step; the returned model carries the parameters of the best
    checkpoint (earliest wins on ties).  Raises TrainingDiverged when the
    loss or a validation score stops being finite.
    """
    if not train_sessions:
        raise ValueError("train: no training sessions")
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model, config.learning_rate)
    history: list[HistoryRecord] = []
    best_ndcg = -math.inf
    best_values = model.param_values()
    step = 0

    def validate() -> float | None:
        try:
            summary: EvalSummary = evaluate(model, valid_sessions, config.k)
        except NonFiniteScoreError as exc:
            raise TrainingDiverged(f"step {step}: non-finite validation score ({exc})") from exc
        return summary.overall

    for _ in range(config.epochs):
        order = rng.permutation(len(train_sessions))
        for batch_idx in _batches(len(train_sessions), config.batch_size, order):
            batch = [train_sessions[i] for i in batch_idx]
            model.zero_grad()
            with Tape() as tape:
                breakdown, loss = batch_loss(model, batch)
                if loss is not None:
                    backward(tape, loss)
            if not math.isfinite(breakdown.total):
                raise TrainingDiverged(
                    f"step {step}: non-finite loss (ranking={breakdown.ranking_loss}, "
                    f"domain={breakdown.domain_loss})"
                )
            if loss is not None:
                optimizer.step()
            step += 1
            record = HistoryRecord(
                step=step,
                ranking_loss=breakdown.ranking_loss,
                domain_loss=breakdown.domain_loss,
                total_loss=breakdown.total,
            )
            if step % config.eval_every == 0:
                ndcg = validate()
                record.valid_ndcg = ndcg
                if ndcg is not None and ndcg > best_ndcg:
                    best_ndcg = ndcg
                    best_values = model.param_values()
            history.append(record)

    if history and history[-1].valid_ndcg is None:
        ndcg = validate()
        history[-1].valid_ndcg = ndcg
        if ndcg is not None and ndcg > best_ndcg:
            best_ndcg = ndcg
            best_values = model.param_values()

    best_model = model.copy()
    best_model.load_values(best_values)
    return best_model, history


# ---------------------------------------------------------------------------
# multi-seed protocol


@dataclass(frozen=True)
class VariantSpec:
    """One protocol entry: a model config plus an optional training domain.

    ``train_domain`` restricts the train/valid/test sessions to one domain,
    which is how per-domain baselines are expressed.
    """

    config: ModelConfig
    train_domain: int | None = None


@dataclass(frozen=True)
class DataSplits:
    train: tuple[QuerySession, ...]
    valid: tuple[QuerySession, ...]
    test: tuple[QuerySession, ...]

    def __init__(self, train, valid, test):
        object.__setattr__(self, "train", tuple(train))
        object.__setattr__(self, "valid", tuple(valid))
        object.__setattr__(self, "test", tuple(test))

    def restrict(self, domain: int | None) -> "DataSplits":
        if domain is None:
            return self
        return DataSplits(
            [s for s in self.train if s.domain == domain],
            [s for s in self.valid if s.domain == domain],
            [s for s in self.test if s.domain == domain],
        )


def baseline_names(variants: Mapping[str, VariantSpec]) -> dict[int, str]:
    """Per domain, the name of the first ``baseline`` spec trained on it;
    that model anchors the gains of every model in the domain."""
    names: dict[int, str] = {}
    for name, spec in variants.items():
        if spec.config.variant is Variant.BASELINE and spec.train_domain is not None:
            names.setdefault(spec.train_domain, name)
    return names


def gain_pct(value: float, base: float | None) -> float | None:
    """Percentage gain of ``value`` over ``base``; None when ``base`` is
    missing or zero."""
    if not base:
        return None
    return 100.0 * (value - base) / base


@dataclass
class RunRecord:
    variant: str
    seed: int
    per_domain: dict[int, float]
    overall: float | None


@dataclass
class VariantDomainStats:
    """Across-seed distribution of one (variant, domain) cell, plus its gain
    over the matching single-domain baseline (median vs median)."""

    variant: str
    domain: int
    values: tuple[float, ...]
    median: float
    q1: float
    q3: float
    minimum: float
    maximum: float
    gain_pct: float | None


@dataclass
class EvalReport:
    """Everything the protocol measured, with deterministic renderings."""

    k: int
    seeds: tuple[int, ...]
    runs: list[RunRecord]
    stats: list[VariantDomainStats]
    baseline_of_domain: dict[int, str] = field(default_factory=dict)

    def table_text(self) -> str:
        lines = [
            f"test NDCG@{self.k}, median over seeds {list(self.seeds)}",
            f"{'domain':<8}{'model':<24}{'median':>10}{'q1':>10}{'q3':>10}{'gain':>10}",
        ]
        for st in self.stats:
            gain = "-" if st.gain_pct is None else f"{st.gain_pct:+.2f}%"
            lines.append(
                f"{st.domain:<8}{st.variant:<24}{st.median:>10.4f}{st.q1:>10.4f}"
                f"{st.q3:>10.4f}{gain:>10}"
            )
        return "\n".join(lines) + "\n"

    def csv_rows(self) -> list[str]:
        rows = ["variant,domain,seed,ndcg,gain_pct"]
        by_run = {(run.variant, run.seed): run.per_domain for run in self.runs}
        for run in self.runs:
            for domain in sorted(run.per_domain):
                base_key = (self.baseline_of_domain.get(domain), run.seed)
                gain = gain_pct(run.per_domain[domain], by_run.get(base_key, {}).get(domain))
                gain_cell = "" if gain is None else f"{gain:.6f}"
                rows.append(
                    f"{run.variant},{domain},{run.seed},{run.per_domain[domain]:.10f},{gain_cell}"
                )
        return rows

    def boxplot_rows(self) -> list[str]:
        rows = ["variant,domain,min,q1,median,q3,max"]
        for st in self.stats:
            rows.append(
                f"{st.variant},{st.domain},{st.minimum:.10f},{st.q1:.10f},"
                f"{st.median:.10f},{st.q3:.10f},{st.maximum:.10f}"
            )
        return rows


def _run_one(args) -> tuple[str, int, dict[int, float], float | None]:
    name, spec, splits, train_config, seed, k = args
    model = build(spec.config, seed)
    data = splits.restrict(spec.train_domain)
    if not data.train:
        raise ValueError(f"protocol: variant {name!r} has no training sessions")
    best, _ = train(model, data.train, data.valid, replace(train_config, seed=seed))
    summary = evaluate(best, data.test, k)
    return name, seed, summary.per_domain, summary.overall


def run_protocol(
    variants: Mapping[str, VariantSpec],
    splits: DataSplits,
    seeds: Sequence[int],
    train_config: TrainConfig,
    k: int = 16,
    workers: int | None = None,
) -> EvalReport:
    """Train every (variant, seed) pair and summarize test NDCG@k.

    Per-domain baselines (variant=baseline with a train_domain) anchor the
    percentage gains of the consolidated models in the same domain.  Runs
    are independent, so they may fan out across ``workers`` processes
    (default: the ``MDRANK_WORKERS`` environment variable, else 1); results
    are assembled in a fixed order either way.
    """
    if not variants:
        raise ValueError("run_protocol: no variants")
    if not seeds:
        raise ValueError("run_protocol: no seeds")
    if len(set(seeds)) != len(seeds):
        raise ValueError("run_protocol: duplicate seeds")
    if workers is None:
        raw_workers = os.environ.get("MDRANK_WORKERS", "1")
        try:
            workers = int(raw_workers)
        except ValueError:
            raise ConfigError(f"MDRANK_WORKERS must be an integer, got {raw_workers!r}") from None

    jobs = [
        (name, spec, splits, train_config, seed, k)
        for name, spec in variants.items()
        for seed in seeds
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_run_one, jobs))
    else:
        raw = [_run_one(job) for job in jobs]
    by_key = {(name, seed): (per_domain, overall) for name, seed, per_domain, overall in raw}

    runs: list[RunRecord] = []
    for name in variants:
        for seed in seeds:
            per_domain, overall = by_key[(name, seed)]
            runs.append(RunRecord(variant=name, seed=seed, per_domain=per_domain, overall=overall))

    cells: dict[tuple[str, int], list[float]] = {}
    for run in runs:
        for domain, value in run.per_domain.items():
            cells.setdefault((run.variant, domain), []).append(value)
    medians = {key: float(np.median(values)) for key, values in cells.items()}
    baseline_of_domain = baseline_names(variants)
    order = {name: i for i, name in enumerate(variants)}

    stats: list[VariantDomainStats] = []
    for name, domain in sorted(cells, key=lambda key: (order[key[0]], key[1])):
        arr = np.asarray(cells[name, domain])
        median = medians[name, domain]
        stats.append(
            VariantDomainStats(
                variant=name,
                domain=domain,
                values=tuple(cells[name, domain]),
                median=median,
                q1=float(np.percentile(arr, 25)),
                q3=float(np.percentile(arr, 75)),
                minimum=float(arr.min()),
                maximum=float(arr.max()),
                gain_pct=gain_pct(median, medians.get((baseline_of_domain.get(domain), domain))),
            )
        )
    return EvalReport(
        k=k,
        seeds=tuple(seeds),
        runs=runs,
        stats=stats,
        baseline_of_domain=baseline_of_domain,
    )
