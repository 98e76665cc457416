"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the seed in ``setup``, then runs one
job at a time: the next job starts when the previous one returns.  Jobs go
through mdrank's public entry points only, with ``workers=1``.

* ``protocol``: ``run_protocol`` over the five criterion-6 models on the
  criterion-6 data recipe, cut down to two seeds and one epoch.  Nearly all
  of its time is tape autodiff, model forward and losses on tiny arrays.
* ``serve``: one ``evaluate`` request per session and model for a
  ``multihead`` and a ``domain_specialist`` ranker built from fixed seeds
  over four domains and 100-130 item lists, then one ``run_interleaving``
  between them.  No tape, backward or Adam runs.
* ``pipeline``: ``mdrank.cli.main`` in-process for generate, train,
  evaluate and interleave, with a ``paths`` + ``normalize`` config over the
  generated jsonl files and a fresh output directory per job.  The only
  workload that writes and reads data and model files.

``check`` returns the problems found in one job's outputs; an empty list
means the job was correct.  ``stats`` holds per-call timings behind the
printed workload metrics; the runner clears it after the warm-up job.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mdrank.cli as cli
import mdrank.data as data
import mdrank.evaluation as evaluation
import mdrank.interleaving as interleaving
import mdrank.models as models
import mdrank.training as training

K = 16
BATCH = 8
REFERENCE_FILE = Path(__file__).with_name("reference.json")
# Inputs for the reference checks; independent of the run's seed.
CANARY_SEED = 424242
CANARY_SESSIONS = 16

C6_DIMS = dict(
    feature_dim=8, n_domains=2, trunk_hidden=[24], token_dim=8,
    transformer_layers=1, heads=1, final_hidden=[16],
)
C6_TRAIN = dict(epochs=1, batch_size=BATCH, learning_rate=0.003, eval_every=8, seed=0)
SERVE_DIMS = {**C6_DIMS, "n_domains": 4}
SERVE_MODEL_SEEDS = {"multihead": 11, "specialist": 12}


@dataclass(frozen=True)
class Sizes:
    """Per-job input sizes.  Train counts are multiples of the batch size,
    so every step sees a full batch and tape counts repeat exactly."""

    protocol_train: tuple[int, int] = (96, 32)
    protocol_valid: int = 16
    protocol_test: int = 32
    protocol_seeds: tuple[int, ...] = (1, 2)
    serve_sessions: int = 16
    serve_impressions: int = 1000
    pipeline_train: tuple[int, int] = (48, 16)
    pipeline_valid: int = 8
    pipeline_test: int = 16
    pipeline_impressions: int = 250


FULL = Sizes()
TINY = Sizes(
    protocol_train=(16, 8), protocol_valid=4, protocol_test=4, protocol_seeds=(1,),
    serve_sessions=2, serve_impressions=20,
    pipeline_train=(16, 8), pipeline_valid=4, pipeline_test=4, pipeline_impressions=20,
)


def c6_spec(seed: int, train, valid: int, test: int) -> dict:
    """Criterion-6 data recipe, as the keyword arguments of SyntheticSpec."""
    return dict(
        n_domains=2,
        sessions_per_domain={"train": list(train), "valid": valid, "test": test},
        feature_dim=8, shared_weight_scale=0.2, domain_weight_scale=1.5,
        domain_shift_scale=3.0, list_length=[10, 20], label_noise=0.05, seed=seed,
    )


def c6_models(dims: dict = C6_DIMS) -> dict[str, dict]:
    """The five criterion-6 models in the CLI config form."""
    return {
        "baseline_d0": {"variant": "baseline", "train_domain": 0, **dims},
        "baseline_d1": {"variant": "baseline", "train_domain": 1, **dims},
        "multihead": {"variant": "multihead", **dims},
        "adversarial": {"variant": "domain_adversarial", "classifier_hidden": [16],
                        "domain_loss_weight": 1.0, **dims},
        "specialist": {"variant": "domain_specialist", "classifier_hidden": [16],
                       "domain_loss_weight": 0.5, **dims},
    }


def model_config(entry: dict) -> models.ModelConfig:
    return models.ModelConfig(**{k: v for k, v in entry.items() if k != "train_domain"})


def in_unit_range(value) -> bool:
    return value is not None and math.isfinite(value) and 0.0 <= value <= 1.0


def reference_ndcg(scores: np.ndarray, labels: np.ndarray, k: int) -> float | None:
    """NDCG@k written independently of mdrank: score descending, ties by
    index, raw labels as gains."""
    if not labels.any():
        return None
    order = np.lexsort((np.arange(scores.size), -scores))
    depth = min(k, scores.size)
    discounts = 1.0 / np.log2(np.arange(2, depth + 2))
    dcg = labels[order][:depth] @ discounts
    ideal = np.sort(labels)[::-1][:depth] @ discounts
    return float(dcg / ideal)


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def serve_models() -> dict[str, models.Model]:
    entries = c6_models(SERVE_DIMS)
    return {
        name: models.build(model_config(entries[name]), seed)
        for name, seed in SERVE_MODEL_SEEDS.items()
    }


def serve_spec(seed: int, sessions: int) -> data.SyntheticSpec:
    return data.SyntheticSpec(
        n_domains=4, sessions_per_domain={"train": 0, "valid": 0, "test": sessions},
        feature_dim=8, list_length=(100, data.MAX_LIST_LENGTH), seed=seed,
    )


def serve_data(seed: int, sessions: int):
    """Test sessions plus each item's true purchase probability, which
    drives the simulated user (labels mark a single item per session)."""
    ds = data.generate_synthetic(serve_spec(seed, sessions))
    return ds.test, [ds.relevance(s) for s in ds.test]


def serve_outputs(mdl: dict[str, models.Model], seed: int, sessions: int, impressions: int) -> dict:
    """Per-domain NDCG@16 of each model and the interleaving credits."""
    test, relevance = serve_data(seed, sessions)
    out = {}
    for name, model in mdl.items():
        summary = evaluation.evaluate(model, test, K)
        out[name] = {str(d): v for d, v in summary.per_domain.items()}
    report = interleaving.run_interleaving(
        mdl["multihead"], mdl["specialist"], test,
        interleaving.UserModel.position_decay(K), n_impressions=impressions, seed=seed, k=K,
        relevance=relevance,
    )
    out["credits"] = [report.credit_a, report.credit_b]
    return out


class Protocol:
    name = "protocol"

    def __init__(self, seed: int, sizes: Sizes, run_dir: Path):
        self.seed = seed
        self.sizes = sizes
        self.run_dir = run_dir
        self.stats: dict[str, list[float]] = {}

    def setup(self) -> None:
        s = self.sizes
        ds = data.generate_synthetic(data.SyntheticSpec(
            **c6_spec(self.seed, s.protocol_train, s.protocol_valid, s.protocol_test)))
        self.splits = training.DataSplits(ds.train, ds.valid, ds.test)
        self.variants = {
            name: training.VariantSpec(model_config(entry), entry.get("train_domain"))
            for name, entry in c6_models().items()
        }
        self.train_config = training.TrainConfig(k=K, **C6_TRAIN)

    def job(self):
        return training.run_protocol(
            self.variants, self.splits, self.sizes.protocol_seeds, self.train_config,
            k=K, workers=1,
        )

    def check(self, report) -> list[str]:
        problems = []
        expected = len(self.variants) * len(self.sizes.protocol_seeds)
        if len(report.runs) != expected:
            problems.append(f"{len(report.runs)} runs, expected {expected}")
        for run in report.runs:
            for value in (*run.per_domain.values(), run.overall):
                if not in_unit_range(value):
                    problems.append(f"{run.variant} seed {run.seed}: NDCG {value}")
        return problems

    def fingerprint(self, report):
        return [(r.variant, r.seed, sorted(r.per_domain.items()), r.overall) for r in report.runs]

    def steps_per_job(self) -> int:
        per_seed = sum(
            math.ceil(len(self.splits.restrict(spec.train_domain).train) / BATCH)
            for spec in self.variants.values()
        )
        return per_seed * self.train_config.epochs * len(self.sizes.protocol_seeds)

    def detail(self, times, first) -> dict:
        wall = statistics.median(times)
        return {
            "protocol_wall_s": (wall, "s"),
            "train_steps_per_s": (self.steps_per_job() / wall, "steps/s"),
            "protocol_ndcg": (statistics.fmean(r.overall for r in first.runs), "1"),
        }

    def final_checks(self) -> list[str]:
        """Quality guard: the mean test NDCG of the full-size job on the
        canary seed may not fall more than 0.02 below the reference."""
        canary = Protocol(CANARY_SEED, FULL, self.run_dir)
        canary.setup()
        report = canary.job()
        problems = canary.check(report)
        value = statistics.fmean(r.overall for r in report.runs)
        floor = load_reference()["protocol_canary_ndcg"] - 0.02
        if not value >= floor:
            problems.append(f"canary protocol NDCG {value:.6f} below {floor:.6f}")
        return problems

    def sweep(self) -> None:
        """Interleaving is the layer this job does not reach."""
        entries = c6_models()
        mdl = {
            name: models.build(model_config(entries[name]), seed)
            for name, seed in SERVE_MODEL_SEEDS.items()
        }
        interleaving.run_interleaving(
            mdl["multihead"], mdl["specialist"], self.splits.test,
            interleaving.UserModel.position_decay(K), n_impressions=200, seed=self.seed, k=K,
        )
        cli_sweep(self.seed, self.run_dir)


class Serve:
    name = "serve"

    def __init__(self, seed: int, sizes: Sizes, run_dir: Path):
        self.seed = seed
        self.sizes = sizes
        self.run_dir = run_dir
        self.stats = {"requests": [], "interleave": []}

    def setup(self) -> None:
        self.sessions, self.relevance = serve_data(self.seed, self.sizes.serve_sessions)
        self.models = serve_models()
        self.user = interleaving.UserModel.position_decay(K)

    def job(self):
        ndcg = {}
        for name, model in self.models.items():
            values = []
            for session in self.sessions:
                t0 = time.perf_counter()
                summary = evaluation.evaluate(model, [session], K)
                self.stats["requests"].append(time.perf_counter() - t0)
                values.append((session.domain, summary.overall))
            ndcg[name] = values
        t0 = time.perf_counter()
        report = interleaving.run_interleaving(
            self.models["multihead"], self.models["specialist"], self.sessions, self.user,
            n_impressions=self.sizes.serve_impressions, seed=self.seed, k=K,
            relevance=self.relevance,
        )
        self.stats["interleave"].append(time.perf_counter() - t0)
        return ndcg, report

    def check(self, result) -> list[str]:
        ndcg, report = result
        problems = [
            f"{name}: NDCG {value}" for name, values in ndcg.items()
            for _, value in values if not in_unit_range(value)
        ]
        credits = (report.credit_a, report.credit_b)
        if any(c < 0 or c != int(c) for c in credits) or not 0.0 <= report.p_value <= 1.0:
            problems.append(f"interleaving report {report}")
        return problems

    def fingerprint(self, result):
        ndcg, report = result
        return ndcg, report.credit_a, report.credit_b, report.p_value

    def detail(self, times, first) -> dict:
        lat = self.stats["requests"]
        return {
            "score_sessions_per_s": (1.0 / statistics.fmean(lat), "sessions/s"),
            "score_ms.p50": (1e3 * statistics.median(lat), "ms"),
            "score_ms.p99": (1e3 * statistics.quantiles(lat, n=100)[98], "ms"),
            "interleave_impressions_per_s": (
                self.sizes.serve_impressions / statistics.median(self.stats["interleave"]),
                "impressions/s"),
        }

    def final_checks(self) -> list[str]:
        """Independent NDCG on this run's sessions, then the recorded
        reference on the canary sessions."""
        problems = []
        for name, model in self.models.items():
            scorer = evaluation.as_scorer(model)
            sums: dict[int, list[float]] = {}
            for session in self.sessions:
                value = reference_ndcg(scorer(session), session.labels(), K)
                if value is not None:
                    sums.setdefault(session.domain, []).append(value)
            got = evaluation.evaluate(model, self.sessions, K).per_domain
            for d, values in sums.items():
                if abs(got.get(d, math.nan) - statistics.fmean(values)) > 1e-9:
                    problems.append(f"{name} domain {d}: NDCG {got.get(d)} vs independent "
                                    f"{statistics.fmean(values)}")
        got = serve_outputs(self.models, CANARY_SEED, CANARY_SESSIONS, 1000)
        want = load_reference()["serve_canary"]
        for name in self.models:
            for d, value in want[name].items():
                if abs(got[name].get(d, math.nan) - value) > 1e-9:
                    problems.append(f"canary {name} domain {d}: NDCG {got[name].get(d)} vs {value}")
        if got["credits"] != want["credits"]:
            problems.append(f"canary credits {got['credits']} vs {want['credits']}")
        return problems

    def sweep(self) -> None:
        """Training is the layer this job does not reach: one epoch of full
        batches for each variant on the serve lists."""
        train_s, valid_s = self.sessions[:BATCH * 2], self.sessions[BATCH * 2:BATCH * 3]
        config = training.TrainConfig(k=K, **C6_TRAIN)
        for name, entry in c6_models(SERVE_DIMS).items():
            if name == "baseline_d1":
                continue
            model = models.build(model_config(entry), 0)
            training.train(model, train_s, valid_s, config)
        cli_sweep(self.seed, self.run_dir)


class Pipeline:
    name = "pipeline"
    commands = ("generate", "train", "evaluate", "interleave")

    def __init__(self, seed: int, sizes: Sizes, run_dir: Path):
        self.seed = seed
        self.sizes = sizes
        self.run_dir = run_dir
        self.jobs = 0
        self.stats: dict[str, list[float]] = {c: [] for c in self.commands}

    def setup(self) -> None:
        s = self.sizes
        spec = c6_spec(self.seed, s.pipeline_train, s.pipeline_valid, s.pipeline_test)
        # What the generate command must write, to check the files against.
        self.expected = data.generate_synthetic(data.SyntheticSpec(**spec))
        self.base_config = {
            "k": K,
            "seeds": [1],
            "models": c6_models(),
            "train": dict(C6_TRAIN),
            "interleave": {
                "pairs": [{"a": "multihead", "b": "baseline_d0", "domain": 0},
                          {"a": "specialist", "b": "baseline_d1", "domain": 1}],
                "n_impressions": s.pipeline_impressions,
                "seed": self.seed,
                "page_size": K,
            },
        }
        self.spec = spec
        self.run_dir.mkdir(parents=True, exist_ok=True)

    def _write_configs(self, out: Path) -> dict[str, Path]:
        gen = {**self.base_config, "out_dir": str(out), "dataset": {"synthetic": self.spec}}
        run = {
            **self.base_config, "out_dir": str(out), "normalize": True,
            "dataset": {"paths": {split: str(out / "data" / f"{split}.jsonl")
                                  for split in ("train", "valid", "test")}},
        }
        paths = {"generate": out / "generate.json", "run": out / "run.json"}
        out.mkdir(parents=True)
        paths["generate"].write_text(json.dumps(gen), encoding="utf-8")
        paths["run"].write_text(json.dumps(run), encoding="utf-8")
        return paths

    def job(self):
        self.jobs += 1
        out = self.run_dir / f"job-{self.jobs}"
        shutil.rmtree(out, ignore_errors=True)
        configs = self._write_configs(out)
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for command in self.commands:
                config = configs["generate" if command == "generate" else "run"]
                t0 = time.perf_counter()
                codes[command] = cli.main([command, "--config", str(config)])
                self.stats[command].append(time.perf_counter() - t0)
        return out, codes

    def check(self, result) -> list[str]:
        out, codes = result
        problems = [f"{c} exited {code}" for c, code in codes.items() if code != 0]
        try:
            for split, want in zip(("train", "valid", "test"), self.expected.splits()):
                got = data.load_dataset(out / "data" / f"{split}.jsonl")
                if not _same_sessions(got, want):
                    problems.append(f"{split}.jsonl does not round-trip the generated sessions")
            rows = _csv(out / "reports" / "evaluate.csv")
            if len(rows) != 8:
                problems.append(f"evaluate.csv has {len(rows)} rows, expected 8")
            problems += [f"evaluate.csv NDCG {r['ndcg']}" for r in rows
                         if not in_unit_range(float(r["ndcg"]))]
            pairs = _csv(out / "reports" / "interleave.csv")
            if len(pairs) != 2:
                problems.append(f"interleave.csv has {len(pairs)} rows, expected 2")
            for r in pairs:
                if int(r["credit_a"]) < 0 or int(r["credit_b"]) < 0 or not in_unit_range(float(r["p_value"])):
                    problems.append(f"interleave.csv row {r}")
            for name in self.base_config["models"]:
                json.loads((out / "models" / f"{name}.model.json").read_bytes())
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"reports do not parse: {exc!r}")
        return problems

    def fingerprint(self, result):
        """Every report, history and model file, as bytes: reruns promise
        byte-identical outputs.  Removes the job's directory afterwards."""
        out, _ = result
        files = {
            str(p.relative_to(out)): p.read_bytes()
            for sub in ("reports", "models", "history", "data")
            for p in sorted((out / sub).glob("*"))
        }
        shutil.rmtree(out, ignore_errors=True)
        return files

    def detail(self, times, first) -> dict:
        out = {"pipeline_wall_s": (statistics.median(times), "s")}
        for command, values in self.stats.items():
            out[f"cli_{command}_s"] = (statistics.median(values), "s")
        return out

    def final_checks(self) -> list[str]:
        return []

    def sweep(self) -> None:
        """The job itself reaches every layer."""


def cli_sweep(seed: int, run_dir: Path) -> None:
    """A tiny pipeline job, for the data, models.save/load and cli layers."""
    tiny = Pipeline(seed, TINY, run_dir / "sweep")
    tiny.setup()
    result = tiny.job()
    problems = tiny.check(result)
    tiny.fingerprint(result)
    if problems:
        raise RuntimeError(f"sweep pipeline: {problems}")


def _same_sessions(got, want) -> bool:
    return len(got) == len(want) and all(
        (a.query_id, a.domain, a.timestamp) == (b.query_id, b.domain, b.timestamp)
        and np.array_equal(a.feature_matrix(), b.feature_matrix())
        and np.array_equal(a.labels(), b.labels())
        for a, b in zip(got, want)
    )


def _csv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


WORKLOADS = {w.name: w for w in (Protocol, Serve, Pipeline)}
