"""Mini-batch training with listwise + domain losses, checkpoint selection
on validation NDCG, and the multi-seed comparison protocol.

``train`` steps every member of a model in lockstep: one forward, backward
and Adam update per step serve all of them, while each member keeps its
own seed, batch order, history, best checkpoint and divergence check.  A
one-member model is the S = 1 case of the same loop; the protocol trains
all seeds of a variant as one stacked model.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, backward
from .data import QuerySession, _check_types
from .evaluation import EvalSummary, NonFiniteScoreError, evaluate
from .losses import LossBreakdown, batch_loss
from .models import ConfigError, Model, ModelConfig, Variant, build, stack

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


_log = logging.getLogger(__name__)
# Adam's moment decay rates and the term that keeps its step finite
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    """The training loss left the finite range; the run cannot continue."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings.  ``seed`` is the seed the ``train`` command
    builds its models with; ``train`` draws each member's batch order from
    that member's own seed.  An integer ``learning_rate`` becomes a float."""

    epochs: int = 3
    batch_size: int = 8
    learning_rate: float = 1e-3
    eval_every: int = 100
    k: int = 16
    seed: int = 0

    def __post_init__(self):
        _check_types(self, ints=("epochs", "batch_size", "eval_every", "k", "seed"),
                     reals=("learning_rate",))
        object.__setattr__(self, "learning_rate", float(self.learning_rate))
        for name in ("epochs", "batch_size", "eval_every", "k"):
            if getattr(self, name) < 1:
                raise ConfigError(f"TrainConfig: {name} must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError("TrainConfig: learning_rate must be finite and non-negative")
        if self.seed < 0:
            raise ConfigError("TrainConfig: seed must be >= 0")


@dataclass
class HistoryRecord:
    step: int
    ranking_loss: float
    domain_loss: float | None
    total_loss: float
    valid_ndcg: float | None = None


class Adam:
    """Adaptive-moment optimizer with the usual fixed decay rates and eps.

    The moments ``m`` and ``v`` are arrays parallel to the model's
    parameter arena (one row per member of a stack), and ``t`` counts each
    member's steps.  A step updates the whole arena at once when every
    parameter of every member has a gradient, and otherwise only the
    (member, parameter) slices that have one, so a parameter whose
    gradient does not reach a member (a multihead head whose domain was
    absent from the member's batch) keeps that member's values and
    moments.  A member that no gradient reaches does not step.
    """

    def __init__(self, model: Model, learning_rate: float):
        self.model = model
        self.lr = learning_rate
        n = len(model.seeds)
        self.t = [0] * n
        self.m = np.zeros_like(model.values)
        self.v = np.zeros_like(model.values)
        # one row per member: views of the arenas
        self._rows = [a.reshape(n, -1) for a in (model.values, model.grads, self.m, self.v)]
        self._sizes = [sl.stop - sl.start for sl in model.slices]

    def step(self) -> None:
        params = self.model.parameters.values()
        values, g, m_rows, v_rows = self._rows
        mask = None
        if all(p.grad is not None and p.grad_members is None for p in params):
            self.t = [t + 1 for t in self.t]
        else:
            touched = np.zeros((len(self.t), len(params)), dtype=bool)
            for i, p in enumerate(params):
                if p.grad is not None:
                    touched[:, i] = True if p.grad_members is None else p.grad_members
            mask = np.repeat(touched, self._sizes, axis=1)
            self.t = [t + int(stepped) for t, stepped in zip(self.t, touched.any(axis=1))]
        # a member that never stepped is masked out; t = 1 keeps it finite
        b1c = np.array([1.0 - _BETA1 ** max(t, 1) for t in self.t])[:, None]
        b2c = np.array([1.0 - _BETA2 ** max(t, 1) for t in self.t])[:, None]
        m, v = (m_rows, v_rows) if mask is None else (m_rows.copy(), v_rows.copy())
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        update = self.lr * (m / b1c) / (np.sqrt(v / b2c) + _EPS)
        if mask is None:
            values -= update
        else:
            np.copyto(m_rows, m, where=mask)
            np.copyto(v_rows, v, where=mask)
            np.subtract(values, update, out=values, where=mask)


def _has_positive_label(sessions: Sequence[QuerySession]) -> bool:
    """Whether a session of ``sessions`` has a positive label, so that
    validation NDCG can select a checkpoint."""
    return any((s.labels() > 0.0).any() for s in sessions)


def train(
    model: Model,
    train_sessions: Sequence[QuerySession],
    valid_sessions: Sequence[QuerySession],
    config: TrainConfig,
) -> tuple[Model, list[HistoryRecord] | list[list[HistoryRecord]]]:
    """Optimize every member of ``model`` in place, in lockstep, tracking
    each member's best validation checkpoint.

    Member m draws its batch order from ``default_rng(model.seeds[m])``.
    Validation NDCG@k runs every ``eval_every`` steps and once after the
    final step; the returned model carries each member's parameters at its
    best checkpoint (earliest wins on ties).  Returns the history of a
    one-member model, or one history per member of a stack.  Raises
    TrainingDiverged, naming the member's seed and the step, when a loss or
    a validation score stops being finite.  Raises ValueError before the
    first step when there is no training session, or no validation session
    with a positive label: no checkpoint could be selected, and the model
    returned would hold its initial parameters.
    """
    if not train_sessions:
        raise ValueError("train: no training sessions")
    if not _has_positive_label(valid_sessions):
        raise ValueError("train: no validation session has a positive label")
    seeds = model.seeds
    rngs = [np.random.default_rng(seed) for seed in seeds]
    optimizer = Adam(model, config.learning_rate)
    histories: list[list[HistoryRecord]] = [[] for _ in seeds]
    best_ndcg = [-math.inf] * len(seeds)
    best_values = model.param_values()
    member_values = model.values.reshape(len(seeds), -1)
    best_rows = best_values.reshape(len(seeds), -1)
    step = 0

    def validate() -> None:
        try:
            summaries = evaluate(model, valid_sessions, config.k)
        except NonFiniteScoreError as exc:
            raise TrainingDiverged(f"seed {seeds[exc.member]}, step {step}: "
                                   f"non-finite validation score ({exc})") from exc
        if isinstance(summaries, EvalSummary):
            summaries = [summaries]
        for m, summary in enumerate(summaries):
            ndcg = summary.overall
            histories[m][-1].valid_ndcg = ndcg
            if ndcg is not None and ndcg > best_ndcg[m]:
                best_ndcg[m] = ndcg
                best_rows[m] = member_values[m]

    n = len(train_sessions)
    for _ in range(config.epochs):
        orders = [rng.permutation(n) for rng in rngs]
        for start in range(0, n, config.batch_size):
            batch = [train_sessions[i] for order in orders
                     for i in order[start : start + config.batch_size]]
            members = [len(batch) // len(seeds)] * len(seeds)
            model.zero_grad()
            with Tape() as tape:
                breakdowns, loss = batch_loss(model, batch, members)
                if loss is not None:
                    backward(tape, loss)
            if isinstance(breakdowns, LossBreakdown):
                breakdowns = [breakdowns]
            for seed, breakdown in zip(seeds, breakdowns):
                if not math.isfinite(breakdown.total):
                    raise TrainingDiverged(
                        f"seed {seed}, step {step}: non-finite loss (ranking="
                        f"{breakdown.ranking_loss}, domain={breakdown.domain_loss})"
                    )
            if loss is not None:
                optimizer.step()
            step += 1
            for history, breakdown in zip(histories, breakdowns):
                history.append(HistoryRecord(
                    step=step,
                    ranking_loss=breakdown.ranking_loss,
                    domain_loss=breakdown.domain_loss,
                    total_loss=breakdown.total,
                ))
            if step % config.eval_every == 0:
                validate()

    if histories[0][-1].valid_ndcg is None:
        validate()

    best_model = model.copy()
    best_model.load_values(best_values)
    return best_model, histories if len(seeds) > 1 else histories[0]


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

    def __post_init__(self):
        _check_types(self, optional_ints=("train_domain",))
        domain, n_domains = self.train_domain, self.config.n_domains
        if domain is not None and not 0 <= domain < n_domains:
            raise ConfigError(f"VariantSpec: train_domain {domain} out of range "
                              f"[0, {n_domains})")


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


def _run_variant(args):
    """Train all seeds of one variant as one stack and score its test
    split.  Returns each member's (per-domain, overall) test NDCG, the
    steps taken, each member's best validation NDCG and the seconds."""
    name, spec, splits, train_config, seeds, k = args
    start = time.perf_counter()
    data = splits.restrict(spec.train_domain)
    model = stack([build(spec.config, seed) for seed in seeds])
    try:
        best, histories = train(model, data.train, data.valid, train_config)
    except (TrainingDiverged, ValueError) as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    summaries = evaluate(best, data.test, k)
    if len(seeds) == 1:
        histories, summaries = [histories], [summaries]
    best_valid = [max((r.valid_ndcg for r in h if r.valid_ndcg is not None), default=None)
                  for h in histories]
    return ([(s.per_domain, s.overall) for s in summaries], len(histories[0]), best_valid,
            time.perf_counter() - start)


# The two statistics below take sorted values and give the bits of
# np.median and np.percentile (method "linear"), which load numpy.ma.


def _median(ordered: Sequence[float]) -> float:
    """The median of the sorted values, as ``np.median`` computes it."""
    half = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[half])
    return float((ordered[half - 1] + ordered[half]) / 2)


def _quantile(ordered: Sequence[float], q: float) -> float:
    """The ``q`` quantile of the sorted values, as ``np.percentile(…, 100 * q)``
    computes it: numpy's ``_lerp`` between the neighbours of ``(n - 1) * q``."""
    pos = (len(ordered) - 1) * q
    i = math.floor(pos)
    t = pos - i
    a, b = ordered[i], ordered[min(i + 1, len(ordered) - 1)]
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


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
    percentage gains of the consolidated models in the same domain.  All
    seeds of a variant train as one stacked model; variants are
    independent, so they may fan out across ``workers`` processes
    (default: the ``MDRANK_WORKERS`` environment variable, else 1; fewer
    than 1 is a ConfigError).  Results are assembled in a fixed order
    either way, and each finished variant logs one INFO record on
    ``mdrank.training``.
    """
    if not variants:
        raise ValueError("run_protocol: no variants")
    if not seeds:
        raise ValueError("run_protocol: no seeds")
    if len(set(seeds)) != len(seeds):
        raise ValueError("run_protocol: duplicate seeds")
    source = "workers"
    if workers is None:
        source = "MDRANK_WORKERS"
        raw_workers = os.environ.get("MDRANK_WORKERS", "1")
        try:
            workers = int(raw_workers)
        except ValueError:
            raise ConfigError(f"MDRANK_WORKERS must be an integer, got {raw_workers!r}") from None
    if workers < 1:
        raise ConfigError(f"{source} must be at least 1, got {workers}")

    jobs = [(name, spec, splits, train_config, tuple(seeds), k) for name, spec in variants.items()]
    runs: list[RunRecord] = []
    pool = None
    if workers > 1:  # imported here: a one-worker run never loads the process pool
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned, not forked: a forked child may inherit a lock that one of
        # this process's BLAS threads held
        pool = ProcessPoolExecutor(max_workers=min(workers, len(jobs)),
                                   mp_context=multiprocessing.get_context("spawn"))
    with pool or contextlib.nullcontext():
        for name, (tests, steps, best_valid, seconds) in zip(
                variants, pool.map(_run_variant, jobs) if pool else map(_run_variant, jobs)):
            _log.info(
                "protocol: %s trained seeds %s for %d steps in %.3f s; best valid NDCG %s",
                name, list(seeds), steps, seconds,
                ["n/a" if v is None else round(v, 6) for v in best_valid],
                extra={"variant": name, "seeds": tuple(seeds), "steps": steps,
                       "best_valid_ndcg": tuple(best_valid), "seconds": seconds},
            )
            runs += [RunRecord(variant=name, seed=seed, per_domain=per_domain, overall=overall)
                     for seed, (per_domain, overall) in zip(seeds, tests)]

    cells: dict[tuple[str, int], list[float]] = {}
    for run in runs:
        for domain, value in run.per_domain.items():
            cells.setdefault((run.variant, domain), []).append(value)
    ordered = {key: sorted(values) for key, values in cells.items()}
    medians = {key: _median(values) for key, values in ordered.items()}
    baseline_of_domain = baseline_names(variants)
    order = {name: i for i, name in enumerate(variants)}

    stats: list[VariantDomainStats] = []
    for name, domain in sorted(cells, key=lambda key: (order[key[0]], key[1])):
        values = ordered[name, domain]
        median = medians[name, domain]
        stats.append(
            VariantDomainStats(
                variant=name,
                domain=domain,
                values=tuple(cells[name, domain]),
                median=median,
                q1=_quantile(values, 0.25),
                q3=_quantile(values, 0.75),
                minimum=float(values[0]),
                maximum=float(values[-1]),
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
