"""Command-line pipeline: generate data, train variants, evaluate, interleave,
and run the full multi-seed protocol from one JSON experiment config.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 training
divergence.  Every command is deterministic given its config and seeds, so
rerunning a command rewrites byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import (
    DatasetFormatError,
    QuerySession,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    normalize_features,
    write_dataset,
)
from .evaluation import NonFiniteScoreError, evaluate
from .interleaving import UserModel, run_interleaving
from .models import ConfigError, ModelConfig, ModelLoadError, build, load, save
from .training import (
    DataSplits,
    TrainConfig,
    TrainingDiverged,
    VariantSpec,
    baseline_names,
    gain_pct,
    run_protocol,
    train,
)

__all__ = ["ExperimentConfig", "load_experiment_config", "main", "entrypoint"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


class DataError(RuntimeError):
    """Missing or malformed data/model files."""


@dataclass(frozen=True)
class InterleavePair:
    a: str
    b: str
    domain: int | None = None


@dataclass(frozen=True)
class InterleaveSettings:
    pairs: tuple[InterleavePair, ...] = ()
    n_impressions: int = 10_000
    seed: int = 0
    examination_eta: float = 1.0
    page_size: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    out_dir: Path
    dataset_synthetic: SyntheticSpec | None
    dataset_paths: dict[str, Path] | None
    models: dict[str, VariantSpec]
    train: TrainConfig
    interleave: InterleaveSettings
    k: int = 16
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    normalize: bool = False


def _expect(obj: dict, key: str, kind, where: str, default=None, required: bool = False):
    if key not in obj:
        if required:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    value = obj[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{where}: key {key!r} must be {getattr(kind, '__name__', kind)}")
    return value


def _parse_model(name: str, obj: dict) -> VariantSpec:
    where = f"models.{name}"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: must be an object")
    known = {
        "variant", "train_domain", "feature_dim", "n_domains", "trunk_hidden",
        "token_dim", "transformer_layers", "heads", "final_hidden",
        "classifier_hidden", "grl_lambda", "domain_loss_weight",
    }
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    train_domain = obj.get("train_domain")
    if train_domain is not None and (isinstance(train_domain, bool) or not isinstance(train_domain, int)):
        raise ConfigError(f"{where}: train_domain must be an integer or null")
    fields = {key: value for key, value in obj.items() if key != "train_domain"}
    try:
        config = ModelConfig(**fields)
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return VariantSpec(config=config, train_domain=train_domain)


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg}, line {exc.lineno})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    known = {"out_dir", "k", "seeds", "normalize", "dataset", "models", "train", "interleave"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"{path}: unknown top-level keys {sorted(unknown)}")

    out_dir = Path(_expect(doc, "out_dir", str, str(path), required=True))
    k = _expect(doc, "k", int, str(path), default=16)
    seeds_raw = _expect(doc, "seeds", list, str(path), default=[1, 2, 3, 4, 5])
    if not seeds_raw or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds_raw):
        raise ConfigError(f"{path}: seeds must be a non-empty list of integers")
    normalize = bool(_expect(doc, "normalize", bool, str(path), default=False))

    dataset = _expect(doc, "dataset", dict, str(path), required=True)
    synthetic: SyntheticSpec | None = None
    paths: dict[str, Path] | None = None
    if "synthetic" in dataset:
        spec_obj = dataset["synthetic"]
        if not isinstance(spec_obj, dict):
            raise ConfigError(f"{path}: dataset.synthetic must be an object")
        spec_fields = dict(spec_obj)
        if "list_length" in spec_fields:
            spec_fields["list_length"] = tuple(spec_fields["list_length"])
        try:
            synthetic = SyntheticSpec(**spec_fields)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: dataset.synthetic: {exc}") from exc
    elif "paths" in dataset:
        raw = dataset["paths"]
        if not isinstance(raw, dict) or set(raw) != {"train", "valid", "test"}:
            raise ConfigError(f"{path}: dataset.paths needs exactly train/valid/test")
        paths = {split: Path(p) for split, p in raw.items()}
    else:
        raise ConfigError(f"{path}: dataset needs either 'synthetic' or 'paths'")

    models_obj = _expect(doc, "models", dict, str(path), required=True)
    if not models_obj:
        raise ConfigError(f"{path}: models must not be empty")
    models = {name: _parse_model(name, obj) for name, obj in models_obj.items()}

    train_obj = _expect(doc, "train", dict, str(path), default={})
    train_kinds = {"epochs": int, "batch_size": int, "learning_rate": float,
                   "eval_every": int, "seed": int}
    train_fields = {key: _expect(train_obj, key, train_kinds.get(key), f"{path}: train")
                    for key in train_obj}
    try:
        train_config = TrainConfig(k=k, **train_fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: train: {exc}") from exc

    inter_obj = _expect(doc, "interleave", dict, str(path), default={})
    inter_where = f"{path}: interleave"
    pairs = []
    for idx, raw in enumerate(_expect(inter_obj, "pairs", list, inter_where, default=[])):
        where = f"{path}: interleave.pairs[{idx}]"
        if not isinstance(raw, dict) or "a" not in raw or "b" not in raw:
            raise ConfigError(f"{where}: needs keys 'a' and 'b'")
        for side in ("a", "b"):
            if raw[side] not in models:
                raise ConfigError(f"{where}: unknown model {raw[side]!r}")
        domain = raw.get("domain")
        if domain is not None and (isinstance(domain, bool) or not isinstance(domain, int)):
            raise ConfigError(f"{where}: domain must be an integer or null")
        pairs.append(InterleavePair(a=raw["a"], b=raw["b"], domain=domain))
    page_size = inter_obj.get("page_size")
    interleave = InterleaveSettings(
        pairs=tuple(pairs),
        n_impressions=_expect(inter_obj, "n_impressions", int, inter_where, default=10_000),
        seed=_expect(inter_obj, "seed", int, inter_where, default=0),
        examination_eta=_expect(inter_obj, "examination_eta", float, inter_where, default=1.0),
        page_size=None if page_size is None else _expect(inter_obj, "page_size", int, inter_where),
    )
    if interleave.n_impressions < 1:
        raise ConfigError(f"{inter_where}: n_impressions must be >= 1")
    if interleave.seed < 0:
        raise ConfigError(f"{inter_where}: seed must be >= 0")
    if not (math.isfinite(interleave.examination_eta) and interleave.examination_eta >= 0.0):
        raise ConfigError(f"{inter_where}: examination_eta must be finite and >= 0")
    if interleave.page_size is not None and interleave.page_size < 1:
        raise ConfigError(f"{inter_where}: page_size must be >= 1")

    return ExperimentConfig(
        out_dir=out_dir,
        dataset_synthetic=synthetic,
        dataset_paths=paths,
        models=models,
        train=train_config,
        interleave=interleave,
        k=k,
        seeds=tuple(seeds_raw),
        normalize=normalize,
    )


# ---------------------------------------------------------------------------
# shared plumbing


def _resolve_splits(config: ExperimentConfig, names) -> DataSplits:
    """Generate or load the splits and check that every session fits every
    model in ``names`` before normalizing: a domain below its ``n_domains``
    and one feature width, equal to its ``feature_dim``."""
    if config.dataset_synthetic is not None:
        ds = generate_synthetic(config.dataset_synthetic)
        train_s, valid_s, test_s = ds.train, ds.valid, ds.test
    else:
        assert config.dataset_paths is not None
        loaded = {}
        for split, p in config.dataset_paths.items():
            if not p.exists():
                raise DataError(f"dataset file not found: {p}")
            loaded[split] = load_dataset(p)
        train_s, valid_s, test_s = loaded["train"], loaded["valid"], loaded["test"]
    if not train_s:
        raise DataError("training split is empty")
    narrowest = min(names, key=lambda name: config.models[name].config.n_domains)
    n_domains = config.models[narrowest].config.n_domains
    widths: dict[int, str] = {}
    for split, sessions in (("train", train_s), ("valid", valid_s), ("test", test_s)):
        for session in sessions:
            where = f"{split} session {session.query_id!r}"
            if session.domain >= n_domains:
                raise DataError(f"{where}: domain {session.domain} out of range for "
                                f"models.{narrowest} (n_domains {n_domains})")
            widths.setdefault(session.items[0].features.size, where)
    if len(widths) > 1:
        raise DataError("feature widths differ across sessions: "
                        + ", ".join(f"{w} in {where}" for w, where in widths.items()))
    (width,) = widths
    for name in names:
        expected = config.models[name].config.feature_dim
        if expected != width:
            raise ConfigError(
                f"models.{name}: feature_dim {expected} does not match dataset width {width}"
            )
    if config.normalize:
        (train_s, valid_s, test_s), _ = normalize_features(train_s, valid_s, test_s)
    return DataSplits(train_s, valid_s, test_s)


def _selected_models(config: ExperimentConfig, variant_filter) -> list[str]:
    if not variant_filter:
        return list(config.models)
    unknown = [name for name in variant_filter if name not in config.models]
    if unknown:
        raise ConfigError(f"--variant: unknown model names {unknown}")
    return [name for name in config.models if name in set(variant_filter)]


def _model_path(config: ExperimentConfig, name: str) -> Path:
    return config.out_dir / "models" / f"{name}.model.json"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _domain_counts(sessions) -> dict[int, int]:
    counts: dict[int, int] = {}
    for s in sessions:
        counts[s.domain] = counts.get(s.domain, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# commands


def cmd_generate(config: ExperimentConfig, args) -> int:
    if config.dataset_synthetic is None:
        raise ConfigError("generate: config has no dataset.synthetic section")
    ds = generate_synthetic(config.dataset_synthetic)
    data_dir = config.out_dir / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    print(f"{'split':<8}{'domain':<8}{'sessions':>10}")
    for split, sessions in (("train", ds.train), ("valid", ds.valid), ("test", ds.test)):
        written = write_dataset(sessions, data_dir / f"{split}.jsonl")
        counts = _domain_counts(sessions)
        assert written == sum(counts.values())
        for domain in sorted(counts):
            print(f"{split:<8}{domain:<8}{counts[domain]:>10}")
    print(f"wrote {data_dir}/{{train,valid,test}}.jsonl")
    return EXIT_OK


def cmd_train(config: ExperimentConfig, args) -> int:
    names = _selected_models(config, args.variant)
    splits = _resolve_splits(config, names)
    seed = args.seed[0] if args.seed else config.train.seed
    train_config = replace(config.train, seed=seed, k=args.k or config.k)
    for name in names:
        spec = config.models[name]
        data = splits.restrict(spec.train_domain)
        if not data.train:
            raise DataError(f"models.{name}: no training sessions in domain {spec.train_domain}")
        model = build(spec.config, seed)
        best, history = train(model, data.train, data.valid, train_config)
        model_path = _model_path(config, name)
        model_path.parent.mkdir(parents=True, exist_ok=True)
        model_path.write_bytes(save(best))
        rows = ["step,ranking_loss,domain_loss,total_loss,valid_ndcg"]
        for rec in history:
            dom = "" if rec.domain_loss is None else f"{rec.domain_loss:.10f}"
            nd = "" if rec.valid_ndcg is None else f"{rec.valid_ndcg:.10f}"
            rows.append(f"{rec.step},{rec.ranking_loss:.10f},{dom},{rec.total_loss:.10f},{nd}")
        _write_text(config.out_dir / "history" / f"{name}.history.csv", "\n".join(rows) + "\n")
        final_ndcg = next(
            (r.valid_ndcg for r in reversed(history) if r.valid_ndcg is not None), None
        )
        shown = "n/a" if final_ndcg is None else f"{final_ndcg:.4f}"
        print(f"trained {name} (seed {seed}): final valid NDCG@{train_config.k} {shown}")
    return EXIT_OK


def _load_model_file(config: ExperimentConfig, name: str):
    path = _model_path(config, name)
    if not path.exists():
        raise DataError(f"model file not found: {path} (run the train command first)")
    try:
        return load(path.read_bytes())
    except ModelLoadError as exc:
        raise DataError(f"{path}: {exc}") from exc


def cmd_evaluate(config: ExperimentConfig, args) -> int:
    names = _selected_models(config, args.variant)
    splits = _resolve_splits(config, names)
    k = args.k or config.k
    results: dict[str, dict[int, tuple[float, int]]] = {}
    for name in names:
        spec = config.models[name]
        model = _load_model_file(config, name)
        data = splits.restrict(spec.train_domain)
        summary = evaluate(model, data.test, k)
        results[name] = {
            d: (summary.per_domain[d], summary.per_domain_sessions[d])
            for d in summary.per_domain
        }

    baseline_value = {
        domain: results[name][domain][0]
        for domain, name in baseline_names({n: config.models[n] for n in names}).items()
        if domain in results[name]
    }

    header = f"{'model':<24}{'domain':<8}{'sessions':>10}{'NDCG@' + str(k):>12}{'gain':>10}"
    lines = [header]
    csv_rows = ["model,domain,sessions,ndcg,gain_pct"]
    for name in names:
        for domain in sorted(results[name]):
            value, count = results[name][domain]
            gain = gain_pct(value, baseline_value.get(domain))
            if gain is None:
                gain_text, gain_csv = "-", ""
            else:
                gain_text, gain_csv = f"{gain:+.2f}%", f"{gain:.6f}"
            lines.append(f"{name:<24}{domain:<8}{count:>10}{value:>12.4f}{gain_text:>10}")
            csv_rows.append(f"{name},{domain},{count},{value:.10f},{gain_csv}")
    text = "\n".join(lines) + "\n"
    _write_text(config.out_dir / "reports" / "evaluate.txt", text)
    _write_text(config.out_dir / "reports" / "evaluate.csv", "\n".join(csv_rows) + "\n")
    print(text, end="")
    print(f"wrote {config.out_dir / 'reports' / 'evaluate.txt'}")
    return EXIT_OK


def cmd_interleave(config: ExperimentConfig, args) -> int:
    if not config.interleave.pairs:
        raise ConfigError("interleave: config has no interleave.pairs")
    settings = config.interleave
    names = list(dict.fromkeys(name for pair in settings.pairs for name in (pair.a, pair.b)))
    splits = _resolve_splits(config, names)
    k = settings.page_size or args.k or config.k
    try:
        user = UserModel.position_decay(k, settings.examination_eta)
    except OverflowError as exc:  # rank ** eta leaves the float range
        raise ConfigError(f"interleave: examination_eta over {k} positions: {exc}") from exc
    lines = [
        f"{'A':<24}{'B':<24}{'domain':<8}{'credit A':>10}{'credit B':>10}"
        f"{'gain':>10}{'p':>12}"
    ]
    csv_rows = ["a,b,domain,credit_a,credit_b,credit_gain,p_value,queries_used"]
    for pair in settings.pairs:
        sessions = [
            s for s in splits.test if pair.domain is None or s.domain == pair.domain
        ]
        if not sessions:
            raise DataError(f"interleave: no test sessions in domain {pair.domain}")
        model_a = _load_model_file(config, pair.a)
        model_b = _load_model_file(config, pair.b)
        report = run_interleaving(
            model_a, model_b, sessions, user,
            n_impressions=settings.n_impressions, seed=settings.seed, k=k,
        )
        domain_text = "all" if pair.domain is None else str(pair.domain)
        gain_text = "n/a" if report.credit_gain is None else f"{report.credit_gain:+.4f}"
        gain_csv = "" if report.credit_gain is None else f"{report.credit_gain:.10f}"
        lines.append(
            f"{pair.a:<24}{pair.b:<24}{domain_text:<8}{report.credit_a:>10.0f}"
            f"{report.credit_b:>10.0f}{gain_text:>10}{report.p_value:>12.6f}"
        )
        csv_rows.append(
            f"{pair.a},{pair.b},{domain_text},{report.credit_a:.0f},{report.credit_b:.0f},"
            f"{gain_csv},{report.p_value:.10f},{report.queries_used}"
        )
    text = "\n".join(lines) + "\n"
    _write_text(config.out_dir / "reports" / "interleave.txt", text)
    _write_text(config.out_dir / "reports" / "interleave.csv", "\n".join(csv_rows) + "\n")
    print(text, end="")
    print(f"wrote {config.out_dir / 'reports' / 'interleave.txt'}")
    return EXIT_OK


def cmd_protocol(config: ExperimentConfig, args) -> int:
    names = _selected_models(config, args.variant)
    splits = _resolve_splits(config, names)
    seeds = tuple(args.seed) if args.seed else config.seeds
    k = args.k or config.k
    variants = {name: config.models[name] for name in names}
    report = run_protocol(variants, splits, seeds, replace(config.train, k=k), k=k)
    _write_text(config.out_dir / "reports" / "protocol.txt", report.table_text())
    _write_text(
        config.out_dir / "reports" / "protocol.csv", "\n".join(report.csv_rows()) + "\n"
    )
    _write_text(
        config.out_dir / "reports" / "boxplot.csv", "\n".join(report.boxplot_rows()) + "\n"
    )
    print(report.table_text(), end="")
    print(f"wrote {config.out_dir / 'reports'}/{{protocol.txt,protocol.csv,boxplot.csv}}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument surface


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdrank",
        description="Multi-domain learning-to-rank experiments on session data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("generate", "write synthetic train/valid/test session files"),
        ("train", "train configured model variants and save checkpoints"),
        ("evaluate", "score saved models on the test split"),
        ("interleave", "simulate interleaving experiments between saved models"),
        ("protocol", "train every variant across seeds and summarize"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the experiment JSON")
        cmd.add_argument("--out", default=None, help="override the output directory")
        cmd.add_argument(
            "--seed", type=int, nargs="+", default=None,
            help="override seeds (train uses the first, protocol uses all)",
        )
        cmd.add_argument(
            "--variant", nargs="+", default=None, help="restrict to these model names"
        )
        cmd.add_argument("--k", type=int, default=None, help="override the NDCG cutoff")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_experiment_config(args.config)
        if args.out:
            config = replace(config, out_dir=Path(args.out))
        if args.k is not None and args.k < 1:
            raise ConfigError("--k must be >= 1")
        handler = {
            "generate": cmd_generate,
            "train": cmd_train,
            "evaluate": cmd_evaluate,
            "interleave": cmd_interleave,
            "protocol": cmd_protocol,
        }[args.command]
        return handler(config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, DatasetFormatError, NonFiniteScoreError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
