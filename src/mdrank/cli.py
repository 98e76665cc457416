"""Command-line pipeline: generate data, train variants, evaluate, interleave,
and run the full multi-seed protocol from one JSON experiment config.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 training
divergence.  Every command is deterministic given its config and seeds, so
rerunning a command rewrites byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import (
    MAX_LIST_LENGTH,
    DatasetFormatError,
    FeatureStats,
    QuerySession,
    SyntheticSpec,
    _apply_stats,
    _check_types,
    _is_integer,
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
    _has_positive_label,
    gains,
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
    """Two models to interleave, on the test sessions of ``domain`` (None:
    all of them).  ``ExperimentConfig`` checks that ``a`` and ``b`` name
    models of the config."""

    a: str
    b: str
    domain: int | None = None

    def __post_init__(self):
        _check_types(self, optional_ints=("domain",))
        if self.domain is not None and self.domain < 0:
            raise ConfigError("InterleavePair: domain must be >= 0")


@dataclass(frozen=True)
class InterleaveSettings:
    """The interleaving experiment.  An integer ``examination_eta``
    becomes a float."""

    pairs: tuple[InterleavePair, ...] = ()
    n_impressions: int = 10_000
    seed: int = 0
    examination_eta: float = 1.0
    page_size: int | None = None

    def __post_init__(self):
        _check_types(self, ints=("n_impressions", "seed"), optional_ints=("page_size",),
                     reals=("examination_eta",))
        object.__setattr__(self, "examination_eta", float(self.examination_eta))
        if self.n_impressions < 1:
            raise ConfigError("InterleaveSettings: n_impressions must be >= 1")
        if self.n_impressions > 2**32:
            raise ConfigError("InterleaveSettings: n_impressions must be <= 2**32")
        if self.seed < 0:
            raise ConfigError("InterleaveSettings: seed must be >= 0")
        if not (math.isfinite(self.examination_eta) and self.examination_eta >= 0.0):
            raise ConfigError("InterleaveSettings: examination_eta must be finite and >= 0")
        if self.page_size is not None and self.page_size < 1:
            raise ConfigError("InterleaveSettings: page_size must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: its data, models and settings.  ``out_dir`` becomes
    a Path, ``seeds`` a tuple and ``train.k`` is set to ``k``; each
    interleave pair must name two of ``models``."""

    out_dir: Path
    dataset_synthetic: SyntheticSpec | None
    dataset_paths: dict[str, Path] | None
    models: dict[str, VariantSpec]
    train: TrainConfig
    interleave: InterleaveSettings
    k: int = 16
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    normalize: bool = False

    def __post_init__(self):
        _check_types(self, ints=("k",))
        if not isinstance(self.out_dir, (str, Path)):
            raise ConfigError("ExperimentConfig: out_dir must be a string")
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        if self.k < 1:
            raise ConfigError("ExperimentConfig: k must be >= 1")
        seeds = self.seeds
        if not (isinstance(seeds, (list, tuple)) and seeds and all(map(_is_integer, seeds))
                and min(seeds) >= 0 and len(set(seeds)) == len(seeds)):
            raise ConfigError("ExperimentConfig: seeds must be distinct non-negative integers, "
                              "at least one")
        object.__setattr__(self, "seeds", tuple(seeds))
        if not isinstance(self.normalize, bool):
            raise ConfigError("ExperimentConfig: normalize must be true or false")
        if not self.models:
            raise ConfigError("ExperimentConfig: models must not be empty")
        for idx, pair in enumerate(self.interleave.pairs):
            for model in (pair.a, pair.b):
                if not isinstance(model, str) or model not in self.models:
                    raise ConfigError(f"ExperimentConfig: interleave.pairs[{idx}]: "
                                      f"unknown model {model!r}")
        object.__setattr__(self, "train", replace(self.train, k=self.k))


def _section(cls, obj, where: str, keys: str = "keys", **given):
    """The JSON object ``obj`` as a ``cls``, which checks every value, with
    the caller's fields ``given``; ``where`` names ``obj`` (and ``keys`` its
    keys) in the error an unknown key or a rejected value raises."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: must be an object")
    unknown = set(obj) - (set(cls.__dataclass_fields__) - set(given))
    if unknown:
        raise ConfigError(f"{where}: unknown {keys} {sorted(unknown)}")
    try:
        return cls(**obj, **given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_model(name: str, obj) -> VariantSpec:
    """``models.<name>``: the fields of a ModelConfig and ``train_domain``."""
    where = f"models.{name}"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: must be an object")
    fields = {key: value for key, value in obj.items() if key != "train_domain"}
    return _section(VariantSpec, {"train_domain": obj.get("train_domain")}, where,
                    config=_section(ModelConfig, fields, where))


def load_experiment_config(path) -> ExperimentConfig:
    """The experiment a JSON config describes.  Each object of it, the top
    level too, maps onto its dataclass through ``_section``, which rejects
    unknown keys; the dataclasses check the values."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg}, line {exc.lineno})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    sections = {key: doc.pop(key, {}) for key in ("dataset", "models", "train", "interleave")}
    for key, value in sections.items():
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: {key} must be an object")

    dataset = sections["dataset"]
    if len(dataset) != 1 or not set(dataset) <= {"synthetic", "paths"}:
        raise ConfigError(f"{path}: dataset needs either 'synthetic' or 'paths' and no "
                          f"other key, got {sorted(dataset)}")
    synthetic: SyntheticSpec | None = None
    paths: dict[str, Path] | None = None
    if "synthetic" in dataset:
        synthetic = _section(SyntheticSpec, dataset["synthetic"], f"{path}: dataset.synthetic")
    else:
        raw = dataset["paths"]
        if not isinstance(raw, dict) or set(raw) != {"train", "valid", "test"}:
            raise ConfigError(f"{path}: dataset.paths needs exactly train/valid/test")
        if not all(isinstance(p, str) for p in raw.values()):
            raise ConfigError(f"{path}: dataset.paths values must be strings")
        paths = {split: Path(p) for split, p in raw.items()}

    models = {name: _parse_model(name, obj) for name, obj in sections["models"].items()}
    inter_obj = sections["interleave"]
    inter_where = f"{path}: interleave"
    raw_pairs = inter_obj.get("pairs", [])
    if not isinstance(raw_pairs, list):
        raise ConfigError(f"{inter_where}: pairs must be a list")
    pairs = tuple(_section(InterleavePair, raw, f"{inter_where}.pairs[{idx}]")
                  for idx, raw in enumerate(raw_pairs))
    # The train section has no key k: ExperimentConfig sets train.k to k.
    return _section(
        ExperimentConfig, doc, str(path), keys="top-level keys",
        dataset_synthetic=synthetic, dataset_paths=paths, models=models,
        train=_section(TrainConfig, sections["train"], f"{path}: train", k=TrainConfig.k),
        interleave=_section(InterleaveSettings, {**inter_obj, "pairs": pairs}, inter_where),
    )


# ---------------------------------------------------------------------------
# shared plumbing


def _resolve_splits(config: ExperimentConfig, names,
                    test_only: bool = False) -> tuple[DataSplits, FeatureStats | None]:
    """Generate or load the splits and check that every session fits every
    model in ``names`` before normalizing: a domain below its ``n_domains``
    and one feature width, equal to its ``feature_dim``.  Returns the
    splits with the statistics they were normalized with (None when the
    config does not normalize).

    With ``test_only`` only the test split is loaded, checked and returned
    (the others come back empty), and normalizing applies the statistics
    that ``train`` recorded; otherwise normalizing computes them from the
    training split."""
    wanted = ("test",) if test_only else ("train", "valid", "test")
    if config.dataset_synthetic is not None:
        ds = generate_synthetic(config.dataset_synthetic)
        loaded = {split: getattr(ds, split) for split in wanted}
    else:
        assert config.dataset_paths is not None
        loaded = {}
        for split in wanted:
            p = config.dataset_paths[split]
            if not p.exists():
                raise DataError(f"dataset file not found: {p}")
            loaded[split] = load_dataset(p)
    if not test_only and not loaded["train"]:
        raise DataError("training split is empty")
    narrowest = min(names, key=lambda name: config.models[name].config.n_domains)
    n_domains = config.models[narrowest].config.n_domains
    widths: dict[int, str] = {}
    for split, sessions in loaded.items():
        for session in sessions:
            where = f"{split} session {session.query_id!r}"
            if session.domain >= n_domains:
                raise DataError(f"{where}: domain {session.domain} out of range for "
                                f"models.{narrowest} (n_domains {n_domains})")
            widths.setdefault(session.features.shape[1], where)
    if len(widths) > 1:
        raise DataError("feature widths differ across sessions: "
                        + ", ".join(f"{w} in {where}" for w, where in widths.items()))
    # no width only when the test split is all a command loads, and it is empty
    (width,) = widths or (config.models[names[0]].config.feature_dim,)
    for name in names:
        expected = config.models[name].config.feature_dim
        if expected != width:
            raise ConfigError(
                f"models.{name}: feature_dim {expected} does not match dataset width {width}"
            )
    train_s, valid_s, test_s = (loaded.get(split, []) for split in ("train", "valid", "test"))
    if not config.normalize:
        return DataSplits(train_s, valid_s, test_s), None
    if test_only:
        stats = _recorded_stats(config, width)
        return DataSplits(train_s, valid_s, _apply_stats(test_s, stats)), stats
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        normalized, stats = normalize_features(train_s, valid_s, test_s)
    if not (np.isfinite(stats.mean).all() and np.isfinite(stats.std).all()):
        raise DataError("cannot normalize: a feature's mean or std over the training split "
                        "leaves the float range")
    return DataSplits(*normalized), stats


def _stats_path(config: ExperimentConfig) -> Path:
    return config.out_dir / "models" / "feature_stats.json"


def _recorded_stats(config: ExperimentConfig, width: int) -> FeatureStats:
    """The feature statistics ``train`` normalized with, for ``width``
    features."""
    path = _stats_path(config)
    if not path.exists():
        raise DataError(f"feature statistics not found: {path} (run the train command first)")
    try:
        return FeatureStats.from_json(path.read_bytes(), width)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _training_data(config: ExperimentConfig, splits: DataSplits, name: str) -> DataSplits:
    """The splits ``models.<name>`` trains on, which must hold a training
    session and a validation session with a positive label."""
    domain = config.models[name].train_domain
    data = splits.restrict(domain)
    where = "any domain" if domain is None else f"domain {domain}"
    if not data.train:
        raise DataError(f"models.{name}: no training sessions in {where}")
    if not _has_positive_label(data.valid):
        raise DataError(f"models.{name}: no validation session with a positive label in {where}")
    return data


def _selected_models(config: ExperimentConfig, variant_filter) -> list[str]:
    if not variant_filter:
        return list(config.models)
    unknown = [name for name in variant_filter if name not in config.models]
    if unknown:
        raise ConfigError(f"--variant: unknown model names {unknown}")
    return [name for name in config.models if name in set(variant_filter)]


def _model_path(config: ExperimentConfig, name: str) -> Path:
    return config.out_dir / "models" / f"{name}.model.json"


def _make_dirs(config: ExperimentConfig, *names: str) -> None:
    """Create the output directories a command writes, before its work, so
    that an unwritable ``out_dir`` fails the command before any load or
    training step."""
    for name in names:
        (config.out_dir / name).mkdir(parents=True, exist_ok=True)


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _write_report(config: ExperimentConfig, name: str, text: str, csv_rows) -> None:
    """Write ``reports/<name>.txt`` and ``reports/<name>.csv``, then print
    the text."""
    _write_text(config.out_dir / "reports" / f"{name}.txt", text)
    _write_text(config.out_dir / "reports" / f"{name}.csv", "\n".join(csv_rows) + "\n")
    print(text, end="")


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
    _make_dirs(config, "data")
    ds = generate_synthetic(config.dataset_synthetic)
    data_dir = config.out_dir / "data"
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
    _make_dirs(config, "models", "history")
    splits, stats = _resolve_splits(config, names)
    datas = {name: _training_data(config, splits, name) for name in names}
    if stats is not None:
        _stats_path(config).write_bytes(stats.to_json())
    for name, data in datas.items():
        model = build(config.models[name].config, config.train.seed)
        try:
            best, history = train(model, data.train, data.valid, config.train)
        except TrainingDiverged as exc:
            raise TrainingDiverged(f"{name}: {exc}") from exc
        _model_path(config, name).write_bytes(save(best))
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
        print(f"trained {name} (seed {config.train.seed}): final valid NDCG@{config.k} {shown}")
    return EXIT_OK


def _load_model_file(config: ExperimentConfig, name: str):
    """The saved model of ``models.<name>``, which must have the
    ``n_domains`` and ``feature_dim`` of its config entry."""
    path = _model_path(config, name)
    if not path.exists():
        raise DataError(f"model file not found: {path} (run the train command first)")
    try:
        model = load(path.read_bytes())
    except ModelLoadError as exc:
        raise DataError(f"{path}: {exc}") from exc
    expected = config.models[name].config
    for key in ("n_domains", "feature_dim"):
        saved, wanted = getattr(model.config, key), getattr(expected, key)
        if saved != wanted:
            raise DataError(f"{path}: {key} {saved} does not match models.{name} "
                            f"({key} {wanted}); retrain it")
    return model


def cmd_evaluate(config: ExperimentConfig, args) -> int:
    names = _selected_models(config, args.variant)
    _make_dirs(config, "reports")
    splits, _ = _resolve_splits(config, names, test_only=True)
    results: dict[tuple[str, int], tuple[float, int]] = {}
    for name in names:
        spec = config.models[name]
        model = _load_model_file(config, name)
        data = splits.restrict(spec.train_domain)
        summary = evaluate(model, data.test, config.k)
        for d in sorted(summary.per_domain):
            results[name, d] = (summary.per_domain[d], summary.per_domain_sessions[d])
    gain_of = gains({key: value for key, (value, _) in results.items()},
                    {name: config.models[name] for name in names})

    header = f"{'model':<24}{'domain':<8}{'sessions':>10}{'NDCG@' + str(config.k):>12}{'gain':>10}"
    lines = [header]
    csv_rows = ["model,domain,sessions,ndcg,gain_pct"]
    for (name, domain), (value, count) in results.items():
        gain = gain_of[name, domain]
        if gain is None:
            gain_text, gain_csv = "-", ""
        else:
            gain_text, gain_csv = f"{gain:+.2f}%", f"{gain:.6f}"
        lines.append(f"{name:<24}{domain:<8}{count:>10}{value:>12.4f}{gain_text:>10}")
        csv_rows.append(f"{name},{domain},{count},{value:.10f},{gain_csv}")
    _write_report(config, "evaluate", "\n".join(lines) + "\n", csv_rows)
    print(f"wrote {config.out_dir / 'reports' / 'evaluate.txt'}")
    return EXIT_OK


def cmd_interleave(config: ExperimentConfig, args) -> int:
    if not config.interleave.pairs:
        raise ConfigError("interleave: config has no interleave.pairs")
    settings = config.interleave
    names = list(dict.fromkeys(name for pair in settings.pairs for name in (pair.a, pair.b)))
    _make_dirs(config, "reports")
    splits, _ = _resolve_splits(config, names, test_only=True)
    k = settings.page_size or config.k
    try:  # a page is never longer than a session
        user = UserModel.position_decay(min(k, MAX_LIST_LENGTH), settings.examination_eta)
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
    _write_report(config, "interleave", "\n".join(lines) + "\n", csv_rows)
    print(f"wrote {config.out_dir / 'reports' / 'interleave.txt'}")
    return EXIT_OK


def cmd_protocol(config: ExperimentConfig, args) -> int:
    names = _selected_models(config, args.variant)
    _make_dirs(config, "reports")
    splits, _ = _resolve_splits(config, names)
    for name in names:
        _training_data(config, splits, name)
    variants = {name: config.models[name] for name in names}
    report = run_protocol(variants, splits, config.seeds, config.train, k=config.k)
    _write_text(
        config.out_dir / "reports" / "boxplot.csv", "\n".join(report.boxplot_rows()) + "\n"
    )
    _write_report(config, "protocol", report.table_text(), report.csv_rows())
    print(f"wrote {config.out_dir / 'reports'}/{{protocol.txt,protocol.csv,boxplot.csv}}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument surface


# Per command: its handler, its help and the flags it takes besides --config
# and --out.  A flag a command does not take exits 2 through argparse.
_COMMANDS = {
    "generate": (cmd_generate, "write synthetic train/valid/test session files", ()),
    "train": (cmd_train, "train configured model variants and save checkpoints",
              ("--seed", "--variant", "--k")),
    "evaluate": (cmd_evaluate, "score saved models on the test split", ("--variant", "--k")),
    "interleave": (cmd_interleave, "simulate interleaving experiments between saved models",
                   ("--k",)),
    "protocol": (cmd_protocol, "train every variant across seeds and summarize",
                 ("--seed", "--variant", "--k")),
}
_FLAGS = {
    "--seed": {"type": int, "nargs": "+",
               "help": "override seeds (train uses the first, protocol uses all)"},
    "--variant": {"nargs": "+", "help": "restrict to these model names"},
    "--k": {"type": int, "help": "override the NDCG cutoff"},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``main`` reuses it."""
    parser = argparse.ArgumentParser(
        prog="mdrank",
        description="Multi-domain learning-to-rank experiments on session data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the experiment JSON")
        cmd.add_argument("--out", help="override the output directory")
        for flag in flags:
            cmd.add_argument(flag, **_FLAGS[flag])
    return parser


def _apply_flags(config: ExperimentConfig, args) -> ExperimentConfig:
    """``config`` with the values of the flags given, which pass the checks
    config values pass; ``--seed`` sets ``seeds`` and ``train.seed`` (its
    first value).  ``args`` holds only the flags its command takes."""
    given = vars(args)
    for flag, fields in (
        ("out", lambda c, v: {"out_dir": v}),
        ("k", lambda c, v: {"k": v}),
        ("seed", lambda c, v: {"seeds": v, "train": replace(c.train, seed=v[0])}),
    ):
        if given.get(flag) is not None:
            try:
                config = replace(config, **fields(config, given[flag]))
            except ConfigError as exc:
                raise ConfigError(f"--{flag}: {exc}") from exc
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _apply_flags(load_experiment_config(args.config), args)
        return _COMMANDS[args.command][0](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, DatasetFormatError, NonFiniteScoreError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
