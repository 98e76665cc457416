"""End-to-end command-line tests driving cli.main with tiny experiments."""

import contextlib
import importlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdrank import cli
from mdrank.data import load_dataset, normalize_features
from mdrank.models import _WIDTH_FIELDS
from tests.conftest import source_env


def _model(**overrides):
    base = {
        "variant": "baseline",
        "feature_dim": 5,
        "n_domains": 2,
        "trunk_hidden": [6],
        "token_dim": 4,
        "transformer_layers": 1,
        "heads": 1,
        "final_hidden": [4],
    }
    base.update(overrides)
    return base


def _write_config(tmp_path, name="experiment.json", **overrides):
    doc = {
        "out_dir": str(tmp_path / "out"),
        "k": 4,
        "seeds": [21, 22],
        "dataset": {
            "synthetic": {
                "n_domains": 2,
                "sessions_per_domain": {"train": 8, "valid": 3, "test": 4},
                "feature_dim": 5,
                "list_length": [4, 6],
                "seed": 9,
            }
        },
        "models": {
            "baseline_d0": _model(train_domain=0),
            "baseline_d1": _model(train_domain=1),
            "multihead": _model(variant="multihead"),
        },
        "train": {
            "epochs": 1,
            "batch_size": 4,
            "learning_rate": 0.01,
            "eval_every": 10,
            "seed": 1,
        },
        "interleave": {
            "pairs": [{"a": "baseline_d0", "b": "multihead", "domain": 0}],
            "n_impressions": 40,
            "seed": 2,
            "page_size": 4,
        },
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


def test_generate_counts_match_files(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert cli.main(["generate", "--config", str(config)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["split", "domain", "sessions"]
    assert lines[-1].startswith("wrote ")

    printed = {}
    for line in lines[1:-1]:
        split, domain, count = line.split()
        printed[split] = printed.get(split, 0) + int(count)
    for split, total in printed.items():
        path = tmp_path / "out" / "data" / f"{split}.jsonl"
        assert len(path.read_text().splitlines()) == total
    assert printed == {"train": 16, "valid": 6, "test": 8}


def test_generate_rerun_is_byte_identical(tmp_path, capsys):
    config = _write_config(tmp_path)
    cli.main(["generate", "--config", str(config)])
    first = (tmp_path / "out" / "data" / "train.jsonl").read_bytes()
    cli.main(["generate", "--config", str(config)])
    assert (tmp_path / "out" / "data" / "train.jsonl").read_bytes() == first


def test_out_flag_redirects_outputs(tmp_path, capsys):
    config = _write_config(tmp_path)
    other = tmp_path / "elsewhere"
    assert cli.main(["generate", "--config", str(config), "--out", str(other)]) == 0
    assert (other / "data" / "train.jsonl").exists()
    assert not (tmp_path / "out").exists()


def test_train_writes_model_and_history(tmp_path, capsys):
    config = _write_config(tmp_path)
    code = cli.main(["train", "--config", str(config), "--variant", "baseline_d0"])
    assert code == cli.EXIT_OK
    assert "trained baseline_d0" in capsys.readouterr().out
    model_path = tmp_path / "out" / "models" / "baseline_d0.model.json"
    assert model_path.exists()
    history = (tmp_path / "out" / "history" / "baseline_d0.history.csv").read_text()
    lines = history.splitlines()
    assert lines[0] == "step,ranking_loss,domain_loss,total_loss,valid_ndcg"
    steps = [int(row.split(",")[0]) for row in lines[1:]]
    assert steps == sorted(steps) and steps[0] == 1


def test_train_same_seed_is_reproducible(tmp_path, capsys):
    config = _write_config(tmp_path)
    args = ["train", "--config", str(config), "--variant", "baseline_d0"]
    cli.main(args + ["--out", str(tmp_path / "a"), "--seed", "5"])
    cli.main(args + ["--out", str(tmp_path / "b"), "--seed", "5"])
    cli.main(args + ["--out", str(tmp_path / "c"), "--seed", "6"])
    read = lambda d: (tmp_path / d / "models" / "baseline_d0.model.json").read_bytes()
    assert read("a") == read("b")
    assert read("a") != read("c")


def test_evaluate_reports_all_models(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert cli.main(["train", "--config", str(config)]) == cli.EXIT_OK
    assert cli.main(["evaluate", "--config", str(config)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "NDCG@4" in out
    for name in ("baseline_d0", "baseline_d1", "multihead"):
        assert name in out
    csv = (tmp_path / "out" / "reports" / "evaluate.csv").read_text().splitlines()
    assert csv[0] == "model,domain,sessions,ndcg,gain_pct"
    # one row per (model, domain) cell: baselines see one domain, multihead two
    assert len(csv) == 1 + 1 + 1 + 2
    assert (tmp_path / "out" / "reports" / "evaluate.txt").exists()


def test_evaluate_without_a_baseline_reports_no_gain(tmp_path, capsys):
    """With no per-domain baseline among the models evaluated, every gain
    prints as ``-`` and leaves its csv cell empty."""
    config = _write_config(tmp_path)
    args = ["--config", str(config), "--variant", "multihead"]
    assert cli.main(["train", *args]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["evaluate", *args]) == cli.EXIT_OK
    rows = [row for row in capsys.readouterr().out.splitlines() if row.startswith("multihead")]
    assert [row.split()[:2] for row in rows] == [["multihead", "0"], ["multihead", "1"]]
    assert all(row.split()[-1] == "-" for row in rows)
    csv = (tmp_path / "out" / "reports" / "evaluate.csv").read_text().splitlines()
    assert csv[0] == "model,domain,sessions,ndcg,gain_pct"
    assert [row.split(",")[:2] for row in csv[1:]] == [["multihead", "0"], ["multihead", "1"]]
    assert all(row.endswith(",") for row in csv[1:])



@pytest.mark.parametrize("first", ["baseline_d0", "wide_d0"])
def test_first_baseline_of_a_domain_anchors_every_report(tmp_path, capsys, first):
    """With two baselines on domain 0, the first in config order anchors the
    gains of evaluate.csv, protocol.csv and protocol.txt; the other one is
    an ordinary model of the domain."""
    models = {"baseline_d0": _model(train_domain=0),
              "wide_d0": _model(train_domain=0, trunk_hidden=[9]),
              "multihead": _model(variant="multihead")}
    other = "wide_d0" if first == "baseline_d0" else "baseline_d0"
    config = _write_config(tmp_path, seeds=[21],
                           models={name: models[name] for name in (first, other, "multihead")})
    for command in ("train", "evaluate", "protocol"):
        assert cli.main([command, "--config", str(config)]) == cli.EXIT_OK
    reports = tmp_path / "out" / "reports"
    for name in ("evaluate.csv", "protocol.csv"):  # ndcg and gain_pct are columns 3 and 4
        rows = [row.split(",") for row in (reports / name).read_text().splitlines()[1:]]
        ndcg = {row[0]: float(row[3]) for row in rows if row[1] == "0"}
        gain = {row[0]: row[4] for row in rows if row[1] == "0"}
        assert ndcg[other] != ndcg[first]
        assert gain[first] == "0.000000"
        for model in (other, "multihead"):
            want = 100.0 * (ndcg[model] - ndcg[first]) / ndcg[first]
            assert float(gain[model]) == pytest.approx(want, abs=1e-5), (name, model)
    # one seed: each median is that seed's value, so the table shows protocol.csv's gains
    table = [row.split() for row in (reports / "protocol.txt").read_text().splitlines()[2:]]
    shown = {model: text for domain, model, *_, text in table if domain == "0"}
    assert shown == {model: f"{float(cell):+.2f}%" for model, cell in gain.items()}

def test_evaluate_without_models_exits_data_error(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert cli.main(["evaluate", "--config", str(config)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "model file not found" in err
    assert "baseline_d0" in err


def test_non_finite_model_weight_exits_data_error(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert cli.main(["train", "--config", str(config), "--variant", "baseline_d0"]) == 0
    path = tmp_path / "out" / "models" / "baseline_d0.model.json"
    doc = json.loads(path.read_bytes())
    doc["parameters"]["trunk.0.w"]["values"][0] = float("nan")
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["evaluate", "--config", str(config), "--variant", "baseline_d0"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA
    assert "non-finite" in err and "trunk.0.w" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["evaluate", "interleave"])
@pytest.mark.parametrize("key, value", [("n_domains", 3), ("feature_dim", 6)])
def test_model_file_not_matching_its_config_exits_data_error(tmp_path, capsys, command,
                                                             key, value):
    """Models trained under one config, then read under a config whose
    models (and data) have another n_domains or feature_dim."""
    config = _write_config(tmp_path)
    assert cli.main(["train", "--config", str(config)]) == cli.EXIT_OK
    doc = json.loads(config.read_text())
    saved = doc["models"]["multihead"][key]
    doc["dataset"]["synthetic"][key] = value
    for entry in doc["models"].values():
        entry[key] = value
    config.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main([command, "--config", str(config)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert f"{key} {saved}" in err and f"{key} {value}" in err


def test_non_finite_scores_exit_data_error(tmp_path, capsys):
    """Finite weights whose scores overflow to inf or NaN."""
    config = _write_config(tmp_path)
    assert cli.main(["train", "--config", str(config)]) == cli.EXIT_OK
    path = tmp_path / "out" / "models" / "multihead.model.json"
    doc = json.loads(path.read_text())
    for name, entry in doc["parameters"].items():
        if name.startswith(("trunk.", "score.")):
            entry["values"] = [1e300] * len(entry["values"])
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert cli.main(["interleave", "--config", str(config)]) == cli.EXIT_DATA
    assert "must be finite" in capsys.readouterr().err


def test_non_integer_workers_env_exits_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MDRANK_WORKERS", "abc")
    config = _write_config(tmp_path)
    assert cli.main(["protocol", "--config", str(config)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "MDRANK_WORKERS" in err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_env_below_one_exits_config_error(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setenv("MDRANK_WORKERS", workers)
    config = _write_config(tmp_path)
    assert cli.main(["protocol", "--config", str(config)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "MDRANK_WORKERS" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_protocol_divergence_names_variant_and_seed(tmp_path, capsys, monkeypatch):
    """One poisoned member of a stack diverges alone: the error names its
    variant and seed, and the other members stay finite."""
    training = importlib.import_module("mdrank.training")
    build, stack, stacks = training.build, training.stack, []

    def poisoned_build(config, seed):
        model = build(config, seed)
        if seed == 22:
            model.parameters["trunk.0.w"].values[0, 0] = np.nan
        return model

    monkeypatch.setattr(training, "build", poisoned_build)
    monkeypatch.setattr(training, "stack", lambda models: stacks.append(stack(models)) or stacks[-1])
    config = _write_config(tmp_path)
    assert cli.main(["protocol", "--config", str(config)]) == cli.EXIT_DIVERGED
    err = capsys.readouterr().err
    assert err.startswith("training diverged: baseline_d0: seed 22, step 0: non-finite loss")
    assert len(stacks) == 1 and stacks[0].seeds == (21, 22)
    assert np.isfinite(stacks[0].values[0]).all()


def test_interleave_end_to_end(tmp_path, capsys):
    config = _write_config(tmp_path)
    cli.main(["train", "--config", str(config)])
    assert cli.main(["interleave", "--config", str(config)]) == cli.EXIT_OK
    csv = (tmp_path / "out" / "reports" / "interleave.csv").read_text().splitlines()
    assert csv[0] == "a,b,domain,credit_a,credit_b,credit_gain,p_value,queries_used"
    assert len(csv) == 2
    assert csv[1].startswith("baseline_d0,multihead,0,")


def test_no_command_loads_scipy_stats_and_only_interleave_loads_the_ufuncs(tmp_path):
    """The sign test's binomial ufunc (about 22 MiB with its package) loads
    for a p-value only: not with the package, and not for the commands that
    compute none.  No command loads scipy.stats (about 70 MiB).  At one
    worker no command loads the process pool (multiprocessing and
    concurrent.futures), and only the ufunc's package loads numpy.ma, which
    np.unique, np.median and np.percentile would load."""
    config = _write_config(tmp_path)
    modules = ("scipy.special._ufuncs", "scipy.stats", "numpy.ma", "multiprocessing",
               "concurrent.futures")
    script = (
        "import json, sys\n"
        "import mdrank, mdrank.cli as cli\n"
        "def loaded():\n"
        f"    return [m in sys.modules for m in {modules!r}]\n"
        "seen = {'import': loaded()}\n"
        "for command in ('generate', 'train', 'evaluate', 'protocol', 'interleave'):\n"
        f"    assert cli.main([command, '--config', {str(config)!r}]) == 0, command\n"
        "    seen[command] = loaded()\n"
        "print(json.dumps(seen))\n"
    )
    env = source_env()
    env.pop("MDRANK_WORKERS", None)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    none = [False] * len(modules)
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import": none, "generate": none, "train": none, "evaluate": none, "protocol": none,
        # scipy.special loads numpy.ma and concurrent.futures itself
        "interleave": [True, False, True, False, True],
    }


def test_page_longer_than_every_session_reads_as_the_longest(tmp_path, capsys):
    """A page holds at most a session's items, and sessions hold at most
    130: a page size of 10**12 interleaves as one of 130."""
    config = _write_config(tmp_path)
    assert cli.main(["train", "--config", str(config)]) == cli.EXIT_OK
    reports = {}
    for page_size in (130, 10**12):
        doc = json.loads(config.read_text())
        doc["interleave"]["page_size"] = page_size
        config.write_text(json.dumps(doc), encoding="utf-8")
        start = time.monotonic()
        assert cli.main(["interleave", "--config", str(config)]) == cli.EXIT_OK
        assert time.monotonic() - start < 5.0
        reports[page_size] = (tmp_path / "out" / "reports" / "interleave.csv").read_bytes()
    assert reports[10**12] == reports[130]


def test_interleave_without_pairs_exits_config_error(tmp_path, capsys):
    config = _write_config(tmp_path, interleave={})
    cli.main(["train", "--config", str(config)])
    assert cli.main(["interleave", "--config", str(config)]) == cli.EXIT_CONFIG


def test_protocol_writes_stable_reports(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert cli.main(["protocol", "--config", str(config)]) == cli.EXIT_OK
    reports = tmp_path / "out" / "reports"
    names = ("protocol.txt", "protocol.csv", "boxplot.csv")
    first = {n: (reports / n).read_bytes() for n in names}
    assert first["protocol.csv"].decode().splitlines()[0] == (
        "variant,domain,seed,ndcg,gain_pct"
    )
    assert first["boxplot.csv"].decode().splitlines()[0] == (
        "variant,domain,min,q1,median,q3,max"
    )
    assert cli.main(["protocol", "--config", str(config)]) == cli.EXIT_OK
    for n in names:
        assert (reports / n).read_bytes() == first[n]


def test_dataset_paths_mode_round_trip(tmp_path, capsys):
    generated = _write_config(tmp_path)
    cli.main(["generate", "--config", str(generated)])
    data = tmp_path / "out" / "data"
    from_files = _write_config(
        tmp_path,
        name="from_files.json",
        dataset={"paths": {s: str(data / f"{s}.jsonl") for s in ("train", "valid", "test")}},
        normalize=True,
    )
    code = cli.main(["train", "--config", str(from_files), "--variant", "baseline_d0"])
    assert code == cli.EXIT_OK


TEST_ONLY_COMMANDS = ("evaluate", "interleave")  # they read only the test split


def _normalized_paths_config(tmp_path):
    """Generate the tiny dataset and return a config that reads its files
    with ``normalize`` on."""
    cli.main(["generate", "--config", str(_write_config(tmp_path, name="generate.json"))])
    data = tmp_path / "out" / "data"
    return _write_config(
        tmp_path,
        dataset={"paths": {s: str(data / f"{s}.jsonl") for s in ("train", "valid", "test")}},
        normalize=True,
    )


def test_evaluate_and_interleave_read_only_the_test_split(tmp_path, capsys):
    """With the training and validation files gone, both commands apply the
    statistics ``train`` recorded and write the same reports."""
    config = _normalized_paths_config(tmp_path)
    assert cli.main(["train", "--config", str(config)]) == cli.EXIT_OK
    reports = tmp_path / "out" / "reports"
    names = ("evaluate.txt", "evaluate.csv", "interleave.txt", "interleave.csv")
    for command in TEST_ONLY_COMMANDS:
        assert cli.main([command, "--config", str(config)]) == cli.EXIT_OK
    first = {n: (reports / n).read_bytes() for n in names}
    for split in ("train", "valid"):
        (tmp_path / "out" / "data" / f"{split}.jsonl").unlink()
    for command in TEST_ONLY_COMMANDS:
        assert cli.main([command, "--config", str(config)]) == cli.EXIT_OK
    assert {n: (reports / n).read_bytes() for n in names} == first


@pytest.mark.parametrize("command", TEST_ONLY_COMMANDS)
def test_normalizing_without_recorded_statistics_exits_data_error(tmp_path, capsys, command):
    """Models trained without ``normalize`` leave no statistics to apply."""
    config = _normalized_paths_config(tmp_path)
    unnormalized = tmp_path / "unnormalized.json"
    unnormalized.write_text(json.dumps({**json.loads(config.read_text()), "normalize": False}),
                            encoding="utf-8")
    assert cli.main(["train", "--config", str(unnormalized)]) == cli.EXIT_OK
    stats = tmp_path / "out" / "models" / "feature_stats.json"
    capsys.readouterr()
    assert cli.main([command, "--config", str(config)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == (f"data error: feature statistics not found: {stats} "
                                       "(run the train command first)\n")


def test_train_records_the_statistics_it_normalized_with(tmp_path, capsys):
    config = _normalized_paths_config(tmp_path)
    assert cli.main(["train", "--config", str(config)]) == cli.EXIT_OK
    path = tmp_path / "out" / "models" / "feature_stats.json"
    first = path.read_bytes()
    assert cli.main(["train", "--config", str(config), "--variant", "multihead"]) == cli.EXIT_OK
    assert path.read_bytes() == first
    data = tmp_path / "out" / "data"
    _, want = normalize_features(*(load_dataset(data / f"{s}.jsonl")
                                   for s in ("train", "valid", "test")))
    got = json.loads(first)
    for key in ("mean", "std", "passthrough"):
        assert np.array(got[key]).tobytes() == getattr(want, key).tobytes()


def test_train_without_normalize_records_no_statistics(tmp_path, capsys):
    assert cli.main(["train", "--config", str(_write_config(tmp_path))]) == cli.EXIT_OK
    assert not (tmp_path / "out" / "models" / "feature_stats.json").exists()


def test_missing_dataset_file_exits_data_error(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        dataset={"paths": {s: str(tmp_path / f"{s}.jsonl") for s in ("train", "valid", "test")}},
    )
    assert cli.main(["train", "--config", str(config)]) == cli.EXIT_DATA
    assert "dataset file not found" in capsys.readouterr().err


def test_malformed_dataset_file_exits_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n", encoding="utf-8")
    config = _write_config(
        tmp_path,
        dataset={"paths": {s: str(bad) for s in ("train", "valid", "test")}},
    )
    assert cli.main(["train", "--config", str(config)]) == cli.EXIT_DATA
    assert "bad.jsonl:1" in capsys.readouterr().err


def test_dataset_file_not_in_utf8_exits_data_error(tmp_path, capsys):
    """The reader decodes ahead in chunks, so the message names the file
    and no line."""
    line = b'{"query_id":"a","domain":0,"ts":1,"items":[{"features":[1,2,3,4,5],"label":1}]}\n'
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(line * 3 + b"\xff\xfe{bad\n")
    config = _write_config(
        tmp_path, dataset={"paths": {s: str(bad) for s in ("train", "valid", "test")}},
    )
    assert cli.main(["train", "--config", str(config)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: {bad}: not UTF-8 text (invalid start byte)\n"


def test_config_file_not_in_utf8_exits_config_error(tmp_path, capsys):
    config = tmp_path / "latin1.json"
    config.write_bytes(b"\xff\xfe{bad")
    assert cli.main(["generate", "--config", str(config)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {config}:") and "0xff" in err


def test_dataset_path_that_is_a_directory_exits_data_error(tmp_path, capsys):
    config = _write_config(
        tmp_path, dataset={"paths": {s: str(tmp_path) for s in ("train", "valid", "test")}},
    )
    assert cli.main(["evaluate", "--config", str(config)]) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: [Errno 21] Is a directory")


@pytest.mark.parametrize("command, work", [("generate", "generate_synthetic"),
                                           ("train", "train"), ("protocol", "run_protocol")],
                         ids=["generate", "train", "protocol"])
def test_out_dir_under_a_file_exits_data_error(tmp_path, capsys, monkeypatch, command, work):
    """Each command creates the directories it writes before its work, so an
    ``out_dir`` that cannot be created ends in exit 3 with nothing generated
    or trained."""
    (tmp_path / "file").write_text("", encoding="utf-8")
    config = _write_config(tmp_path, out_dir=str(tmp_path / "file" / "out"))

    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(cli, work, never)
    assert cli.main([command, "--config", str(config)]) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: [Errno 20] Not a directory")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_training_exits_code_four(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        train={"epochs": 1, "batch_size": 4, "learning_rate": 1e100,
               "eval_every": 10, "seed": 1},
    )
    code = cli.main(["train", "--config", str(config), "--variant", "baseline_d0"])
    assert code == cli.EXIT_DIVERGED
    assert "training diverged: baseline_d0: seed 1, step" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda doc: doc.update(bogus=1), "unknown top-level keys"),
        (lambda doc: doc.pop("out_dir"), "out_dir"),
        (lambda doc: doc.pop("models"), "models"),
        (lambda doc: doc["models"]["baseline_d0"].update(widht=3), "unknown keys"),
        (lambda doc: doc.update(dataset={}), "either"),
        (lambda doc: doc.update(seeds=[]), "seeds"),
        (lambda doc: doc["models"]["baseline_d0"].update(variant="nope"), "variant"),
        (lambda doc: doc["interleave"].update(n_impressions="20"), "n_impressions"),
        (lambda doc: doc["train"].update(epochs=2.5), "epochs"),
        (lambda doc: doc["interleave"].update(n_impressions=0), "n_impressions must be >= 1"),
        (lambda doc: doc["interleave"].update(n_impressions=2**32 + 1),
         "n_impressions must be <= 2**32"),
        (lambda doc: doc["interleave"].update(page_size=-1), "page_size"),
        (lambda doc: doc["interleave"].update(page_size=0), "page_size"),
        (lambda doc: doc["interleave"].update(examination_eta=-1.0), "examination_eta"),
        (lambda doc: doc["interleave"].update(examination_eta=float("nan")), "examination_eta"),
        (lambda doc: doc["interleave"].update(seed=-1), "seed"),
        (lambda doc: doc.update(seeds=[-1]), "seeds must be distinct non-negative"),
        (lambda doc: doc.update(seeds=[3, 3]), "seeds must be distinct"),
        (lambda doc: doc["train"].update(seed=-2), "TrainConfig: seed"),
        (lambda doc: doc["dataset"]["synthetic"].update(seed=-3), "SyntheticSpec: seed"),
        (lambda doc: doc["models"]["multihead"].update(heads=1.0), "heads must be an integer"),
        (lambda doc: doc["models"]["multihead"].update(feature_dim=5.0), "ModelConfig: feature_dim"),
        (lambda doc: doc["models"]["multihead"].update(n_domains=2.0), "ModelConfig: n_domains"),
        (lambda doc: doc["dataset"]["synthetic"].update(feature_dim=4.5),
         "SyntheticSpec: feature_dim"),
        (lambda doc: doc["dataset"]["synthetic"].update(n_domains=2.0), "SyntheticSpec: n_domains"),
        (lambda doc: doc["dataset"]["synthetic"]["sessions_per_domain"].update(test=4.0),
         "non-negative integer"),
        (lambda doc: doc["models"]["multihead"].update(trunk_hidden=[4.5]), "trunk_hidden"),
        (lambda doc: doc["models"]["multihead"].update(trunk_hidden=[10**12]),
         "ModelConfig: 11000000000191 parameters per member, above the bound of 134217728"),
        (lambda doc: doc["dataset"]["synthetic"].update(list_length=5), "list_length"),
        (lambda doc: doc["dataset"]["synthetic"]["sessions_per_domain"].update(train=10**12),
         "(2000000000014 sessions), above the bound of 134217728"),
        (lambda doc: doc.update(dataset={"paths": {"train": 1, "valid": "v", "test": "t"}}),
         "dataset.paths values"),
        (lambda doc: doc["models"]["multihead"].update(grl_lambda=float("nan")), "grl_lambda"),
        (lambda doc: doc["train"].update(learning_rate=float("nan")), "learning_rate"),
        (lambda doc: doc["train"].update(learning_rate=float("inf")), "learning_rate must be finite"),
        (lambda doc: doc["models"]["baseline_d1"].update(train_domain=2), "train_domain 2"),
        (lambda doc: doc["interleave"]["pairs"][0].update(a=[]), "unknown model"),
        (lambda doc: doc["interleave"].update(n_impresions=20),
         "interleave: unknown keys ['n_impresions']"),
        (lambda doc: doc["interleave"]["pairs"][0].update(domian=1),
         "interleave.pairs[0]: unknown keys ['domian']"),
        (lambda doc: doc["interleave"]["pairs"][0].update(domain=-1),
         "interleave.pairs[0]: InterleavePair: domain must be >= 0"),
        (lambda doc: doc["dataset"].update(normalise=True), "got ['normalise', 'synthetic']"),
        (lambda doc: doc["dataset"].update(paths={"train": "a", "valid": "b", "test": "c"}),
         "got ['paths', 'synthetic']"),
    ],
)
def test_bad_configs_exit_config_error(tmp_path, capsys, mutate, fragment):
    config = _write_config(tmp_path)
    doc = json.loads(config.read_text())
    mutate(doc)
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["generate", "--config", str(config)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert fragment in err


FLOAT_FIELDS = [
    ("models", "multihead", "grl_lambda"),
    ("models", "multihead", "domain_loss_weight"),
    ("dataset", "synthetic", "shared_weight_scale"),
    ("dataset", "synthetic", "domain_weight_scale"),
    ("dataset", "synthetic", "domain_shift_scale"),
    ("dataset", "synthetic", "label_noise"),
    ("train", "learning_rate"),
    ("interleave", "examination_eta"),
]


@pytest.mark.parametrize("value", [True, False, 10**400], ids=["true", "false", "huge"])
@pytest.mark.parametrize("path", FLOAT_FIELDS, ids=[p[-1] for p in FLOAT_FIELDS])
def test_float_field_takes_no_bool_or_huge_integer(tmp_path, capsys, path, value):
    """A bool is no number, and a 401-digit integer no float: the config is
    rejected when it is read, so no model file holds either."""
    config = _write_config(tmp_path)
    doc = json.loads(config.read_text())
    _node(doc, path[:-1])[path[-1]] = value
    config.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("train", "evaluate"):
        assert cli.main([command, "--config", str(config)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{path[-1]} must be a number" in err
    assert not (tmp_path / "out").exists()


def test_invalid_json_exits_config_error(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{ not json", encoding="utf-8")
    assert cli.main(["generate", "--config", str(config)]) == cli.EXIT_CONFIG
    assert "invalid JSON" in capsys.readouterr().err


def test_unknown_variant_flag_exits_config_error(tmp_path, capsys):
    config = _write_config(tmp_path)
    code = cli.main(["train", "--config", str(config), "--variant", "missing_model"])
    assert code == cli.EXIT_CONFIG
    assert "missing_model" in capsys.readouterr().err


def test_feature_width_mismatch_exits_config_error(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        models={"baseline_d0": _model(train_domain=0, feature_dim=7)},
        interleave={},
    )
    assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
    assert "does not match dataset width" in capsys.readouterr().err


def test_examination_curve_overflow_exits_config_error(tmp_path, capsys):
    config = _write_config(tmp_path)
    doc = json.loads(config.read_text())
    doc["interleave"]["examination_eta"] = 1000.0
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["interleave", "--config", str(config)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "examination_eta" in err


def _edited_dataset_config(tmp_path, edit):
    """Generate the tiny dataset, pass each split's parsed sessions to
    ``edit(split, sessions)``, and return a config that reads the files."""
    cli.main(["generate", "--config", str(_write_config(tmp_path, name="generate.json"))])
    data = tmp_path / "out" / "data"
    for split in ("train", "valid", "test"):
        path = data / f"{split}.jsonl"
        sessions = [json.loads(line) for line in path.read_text().splitlines()]
        edit(split, sessions)
        path.write_text("".join(json.dumps(s) + "\n" for s in sessions), encoding="utf-8")
    return _write_config(
        tmp_path,
        dataset={"paths": {s: str(data / f"{s}.jsonl") for s in ("train", "valid", "test")}},
    )


SPLIT_COMMANDS = ("train", "evaluate", "interleave", "protocol")


@pytest.mark.parametrize("command", SPLIT_COMMANDS)
def test_session_domain_beyond_models_exits_data_error(tmp_path, capsys, command):
    def edit(split, sessions):
        if split == "test":
            sessions[0]["domain"] = 5

    config = _edited_dataset_config(tmp_path, edit)
    assert cli.main([command, "--config", str(config)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "domain 5" in err and "n_domains 2" in err


@pytest.mark.parametrize("command", SPLIT_COMMANDS)
def test_mixed_feature_widths_exit_data_error(tmp_path, capsys, command):
    bad = "test" if command in TEST_ONLY_COMMANDS else "valid"

    def edit(split, sessions):
        if split == bad:
            for session in sessions[1:]:
                for item in session["items"]:
                    item["features"] = item["features"][:4]

    config = _edited_dataset_config(tmp_path, edit)
    assert cli.main([command, "--config", str(config)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "feature widths differ" in err and f"4 in {bad}" in err


@pytest.mark.parametrize("command", SPLIT_COMMANDS)
def test_integer_beyond_the_float_range_exits_data_error(tmp_path, capsys, command):
    bad = "test" if command in TEST_ONLY_COMMANDS else "train"

    def edit(split, sessions):
        if split == bad:
            sessions[0]["items"][0]["label"] = 10**400

    config = _edited_dataset_config(tmp_path, edit)
    assert cli.main([command, "--config", str(config)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "label must be finite" in err


@pytest.mark.parametrize("command", ["train", "protocol"])
def test_feature_statistics_beyond_the_float_range_exit_data_error(tmp_path, capsys, command):
    def edit(split, sessions):
        if split == "train":
            sessions[0]["items"][0]["features"][0] = 1e300  # its square is inf

    config = _edited_dataset_config(tmp_path, edit)
    config.write_text(json.dumps({**json.loads(config.read_text()), "normalize": True}),
                      encoding="utf-8")
    assert cli.main([command, "--config", str(config)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == ("data error: cannot normalize: a feature's mean or std "
                                       "over the training split leaves the float range\n")


@pytest.mark.parametrize("command", SPLIT_COMMANDS)
def test_uniform_width_mismatch_exits_config_error(tmp_path, capsys, command):
    def edit(split, sessions):
        for session in sessions:
            for item in session["items"]:
                item["features"] = item["features"] + [0.5, -0.5]

    config = _edited_dataset_config(tmp_path, edit)
    assert cli.main([command, "--config", str(config)]) == cli.EXIT_CONFIG
    assert "does not match dataset width 7" in capsys.readouterr().err


def test_k_flag_must_be_positive(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert cli.main(["evaluate", "--config", str(config), "--k", "0"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --k: ")



@pytest.mark.parametrize("command, flag", [
    ("generate", ["--seed", "5"]), ("generate", ["--k", "3"]),
    ("generate", ["--variant", "multihead"]), ("evaluate", ["--seed", "5"]),
    ("interleave", ["--seed", "5"]), ("interleave", ["--variant", "multihead"]),
])
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, capsys, command, flag):
    """A flag the command would ignore exits 2 through argparse, before any
    output directory exists."""
    config = _write_config(tmp_path)
    with pytest.raises(SystemExit) as caught:
        cli.main([command, "--config", str(config), *flag])
    assert caught.value.code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.endswith(
        f"mdrank: error: unrecognized arguments: {' '.join(flag)}\n")
    assert not (tmp_path / "out").exists()

@pytest.mark.parametrize("seeds", [["-3"], ["4", "4"]])
def test_bad_seed_flag_exits_config_error(tmp_path, capsys, seeds):
    config = _write_config(tmp_path)
    for command in ("protocol", "train"):
        assert cli.main([command, "--config", str(config), "--seed", *seeds]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: --seed")
    assert not (tmp_path / "out").exists()


def test_k_and_seed_flags_reach_training(tmp_path, capsys):
    """``--k`` sets the cutoff training validates with, and ``--seed`` the
    seed the train command builds with."""
    config = _write_config(tmp_path)
    args = ["train", "--config", str(config), "--variant", "baseline_d0", "--k", "3"]
    assert cli.main([*args, "--seed", "5", "9"]) == cli.EXIT_OK
    assert "trained baseline_d0 (seed 5): final valid NDCG@3 " in capsys.readouterr().out
    doc = json.loads(config.read_text())
    doc["k"], doc["train"]["seed"] = 3, 5
    config.write_text(json.dumps(doc), encoding="utf-8")
    first = (tmp_path / "out" / "models" / "baseline_d0.model.json").read_bytes()
    assert cli.main(args[:5]) == cli.EXIT_OK
    assert (tmp_path / "out" / "models" / "baseline_d0.model.json").read_bytes() == first


def test_domain_without_training_sessions_exits_data_error(tmp_path, capsys):
    config = _write_config(tmp_path)
    doc = json.loads(config.read_text())
    doc["dataset"]["synthetic"]["sessions_per_domain"]["train"] = [8, 0]
    config.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("train", "protocol"):
        assert cli.main([command, "--config", str(config)]) == cli.EXIT_DATA
        assert "no training sessions in domain 1" in capsys.readouterr().err


@pytest.mark.parametrize("valid, error", [
    (0, "models.baseline_d0: no validation session with a positive label in domain 0"),
    ([3, 0], "models.baseline_d1: no validation session with a positive label in domain 1"),
], ids=["no validation split", "none in domain 1"])
@pytest.mark.parametrize("command, work", [("train", "train"), ("protocol", "run_protocol")],
                         ids=["train", "protocol"])
def test_a_model_without_a_validation_label_exits_data_error_before_training(
        tmp_path, capsys, monkeypatch, valid, error, command, work):
    """Validation could select no checkpoint, so the command would save or
    score untrained models: it exits 3 naming the model and its domain
    before any model trains."""
    config = _write_config(tmp_path)
    doc = json.loads(config.read_text())
    doc["dataset"]["synthetic"]["sessions_per_domain"]["valid"] = valid
    config.write_text(json.dumps(doc), encoding="utf-8")

    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(cli, work, never)
    assert cli.main([command, "--config", str(config)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: {error}\n"


def _node(doc, path):
    """The value at ``path`` in a JSON document."""
    for key in path:
        doc = doc[key]
    return doc


def _config_nodes(node, path=()):
    """Paths to every value below the top of a JSON document."""
    if path:
        yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _config_nodes(child, (*path, key))


def _mutations(value):
    """Another type, a negative, a NaN or a float where an integer belongs."""
    out = ["text", None, True, [], {}, float("nan")]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out += [-value - 1, value + 0.5, float("inf")]
    if isinstance(value, int) and not isinstance(value, bool):
        out.append(float(value))
    return out


SIZE_FIELDS = ("transformer_layers", "heads", "n_domains", "feature_dim", "k", "page_size")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_config_never_ends_in_a_traceback(data):
    """A value of another type or range ends in a documented exit code, an
    unknown key in any object of the config or a layer width beyond memory
    in exit 2, and a size of 10**12 in one within seconds; a config that
    trains writes model files that load."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        doc = json.loads(_write_config(root).read_text())
        if data.draw(st.booleans(), label="paths dataset"):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["generate", "--config", str(root / "experiment.json")])
            doc["normalize"] = True
            doc["dataset"] = {"paths": {s: str(root / "out" / "data" / f"{s}.jsonl")
                                        for s in ("train", "valid", "test")}}
        mutation = data.draw(st.sampled_from(["value", "key", "width", "size"]), label="mutation")
        if mutation == "key":
            objects = [p for p in [(), *_config_nodes(doc)] if isinstance(_node(doc, p), dict)]
            _node(doc, data.draw(st.sampled_from(objects), label="object"))["unknown_key"] = 0
            allowed = (cli.EXIT_CONFIG,)
        elif mutation == "width":
            widths = [p for p in _config_nodes(doc) if len(p) > 1 and p[-2] in _WIDTH_FIELDS]
            path = data.draw(st.sampled_from(widths), label="path")
            _node(doc, path[:-1])[path[-1]] = data.draw(st.sampled_from([10**12, 10**400]),
                                                        label="width")
            allowed = (cli.EXIT_CONFIG,)
        elif mutation == "size":
            paths = [p for p in [("k",), *_config_nodes(doc)] if p[-1] in SIZE_FIELDS]
            path = data.draw(st.sampled_from(paths), label="path")
            _node(doc, path[:-1])[path[-1]] = 10**12
            allowed = (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_DIVERGED)
        else:
            paths = [p for p in _config_nodes(doc) if p != ("out_dir",)]
            path = data.draw(st.sampled_from(paths), label="path")
            parent = _node(doc, path[:-1])
            parent[path[-1]] = data.draw(st.sampled_from(_mutations(parent[path[-1]])),
                                         label="value")
            allowed = (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_DIVERGED)
        doc["out_dir"] = str(root / "run")
        config = root / "mutated.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        codes = {}
        for command in ("generate", "train", "evaluate", "interleave", "protocol"):
            err = io.StringIO()
            start = time.monotonic()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                codes[command] = cli.main([command, "--config", str(config)])
            assert time.monotonic() - start < 5.0, command
            assert codes[command] in allowed
            if command == "evaluate" and codes["train"] == cli.EXIT_OK:
                assert "invalid model config" not in err.getvalue()


@pytest.fixture(scope="module")
def generated_lines(tmp_path_factory):
    """The lines of each split file the tiny config generates."""
    root = tmp_path_factory.mktemp("generated")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["generate", "--config", str(_write_config(root))]) == cli.EXIT_OK
    return {split: (root / "out" / "data" / f"{split}.jsonl").read_text().splitlines()
            for split in ("train", "valid", "test")}


def _mutated_line(data, line):
    """``line`` with a key dropped, a value of another type, a non-finite or
    401-digit label or feature, no items, or cut short."""
    kind = data.draw(st.sampled_from(["drop", "retype", "number", "no items", "truncate"]),
                     label="mutation")
    if kind == "truncate":
        return line[: data.draw(st.integers(0, len(line) - 1), label="cut")]
    doc = json.loads(line)
    if kind == "no items":
        doc["items"] = []
        return json.dumps(doc)
    paths = list(_config_nodes(doc))
    if kind == "drop":
        paths = [p for p in paths if isinstance(p[-1], str)]
    elif kind == "number":
        paths = [p for p in paths if p[-1] == "label" or "features" in p[:-1]]
    path = data.draw(st.sampled_from(paths), label="path")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "number":
        parent[path[-1]] = data.draw(
            st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400]), label="value")
    else:
        parent[path[-1]] = data.draw(
            st.sampled_from(["text", None, True, [], {}, 1.5, 7]), label="value")
    return json.dumps(doc)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_data_file_never_ends_in_a_traceback(generated_lines, data):
    split = data.draw(st.sampled_from(sorted(generated_lines)), label="split")
    lines = list(generated_lines[split])
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    lines[index] = _mutated_line(data, lines[index])
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in generated_lines.items():
            (root / f"{name}.jsonl").write_text(
                "\n".join(lines if name == split else text) + "\n", encoding="utf-8")
        config = _write_config(
            root,
            dataset={"paths": {s: str(root / f"{s}.jsonl") for s in ("train", "valid", "test")}},
            normalize=data.draw(st.booleans(), label="normalize"),
        )
        for command in SPLIT_COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", str(config)])
            assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_DIVERGED)
            assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory):
    """The model files ``train`` writes for the tiny config, by file name."""
    root = tmp_path_factory.mktemp("trained")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--config", str(_write_config(root))]) == cli.EXIT_OK
    return {p.name: p.read_text() for p in (root / "out" / "models").glob("*.model.json")}


def _ill_typed(value):
    """JSON values of another type than ``value``, a model config field's."""
    out = [None, True, {}, [value]]
    if isinstance(value, list):
        out += [str(value), [*value, 1.5]]
    elif isinstance(value, str):
        out.append(3)
    elif isinstance(value, int):
        out += [str(value), value + 0.5, float(value)]
    else:
        out.append(str(value))
    return out


def _mutated_model(data, text):
    """A saved model with a value of another type, a negative, a NaN, an
    infinity, a 401-digit integer or a nested list in one field, a key
    dropped, or cut short; or with a config field of another JSON type,
    which must not load.  Returns the text and whether it must fail."""
    kind = data.draw(st.sampled_from(["value", "drop", "truncate", "config"]), label="mutation")
    if kind == "truncate":
        return text[: data.draw(st.integers(0, len(text) - 1), label="cut")], False
    doc = json.loads(text)
    if kind == "config":
        field = data.draw(st.sampled_from(sorted(doc["config"])), label="field")
        doc["config"][field] = data.draw(
            st.sampled_from(_ill_typed(doc["config"][field])), label="value")
        return json.dumps(doc), True
    # one entry of each values list stands for the rest
    paths = [p for p in _config_nodes(doc) if p[-2:-1] != ("values",) or p[-1] == 0]
    if kind == "drop":
        paths = [p for p in paths if isinstance(p[-1], str)]
    path = data.draw(st.sampled_from(paths), label="path")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        value = parent[path[-1]]
        parent[path[-1]] = data.draw(
            st.sampled_from([*_mutations(value), 10**400, [value]]), label="value")
    return json.dumps(doc), False


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_model_file_never_ends_in_a_traceback(trained_models, data):
    name = data.draw(st.sampled_from(sorted(trained_models)), label="model")
    text, must_fail = _mutated_model(data, trained_models[name])
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        models = root / "out" / "models"
        models.mkdir(parents=True)
        for other, body in trained_models.items():
            (models / other).write_text(text if other == name else body, encoding="utf-8")
        config = _write_config(root)
        for command in ("evaluate", "interleave"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", str(config)])
            # evaluate reads every model file, interleave only the pair's
            if must_fail and command == "evaluate":
                assert code == cli.EXIT_DATA
            assert code in (cli.EXIT_OK, cli.EXIT_DATA)
            assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def normalized_run(tmp_path_factory):
    """A ``normalize`` config over generated files, after ``train``: the
    config's JSON, and the text of each file ``train`` wrote to models/."""
    root = tmp_path_factory.mktemp("normalized")
    with contextlib.redirect_stdout(io.StringIO()):
        config = _normalized_paths_config(root)
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_OK
    return json.loads(config.read_text()), {
        p.name: p.read_text() for p in (root / "out" / "models").glob("*.json")}


def _mutated_stats(data, text):
    """Feature statistics with a value of another JSON type, a list one
    entry short or long, a NaN, a zero std, a flag that is not a bool, a
    key dropped, or cut short.  Returns the text and whether it must fail."""
    kind = data.draw(st.sampled_from(
        ["retype", "length", "nan", "zero std", "flag", "drop", "truncate"]), label="mutation")
    if kind == "truncate":  # at least the closing brace goes
        return text[: data.draw(st.integers(0, len(text) - 2), label="cut")], True
    doc = json.loads(text)
    key = "std" if kind == "zero std" else "passthrough" if kind == "flag" else data.draw(
        st.sampled_from(sorted(doc)), label="key")
    index = data.draw(st.integers(0, len(doc[key]) - 1), label="index")
    if kind == "retype":
        value = data.draw(st.sampled_from(["text", None, {}, [], True, 7, 10**400]), label="value")
        if data.draw(st.booleans(), label="whole list"):
            doc[key] = value
            return json.dumps(doc), True
        doc[key][index] = value
        accepted = value is True if key == "passthrough" else value == 7  # a flag; a number
        return json.dumps(doc), not accepted
    if kind == "drop":
        del doc[key]
    elif kind == "length":
        short = data.draw(st.booleans(), label="short")
        doc[key] = doc[key][:-1] if short else [*doc[key], doc[key][0]]
    elif kind == "flag":
        doc[key][index] = data.draw(st.sampled_from([0, 1, 1.0, "true", None]), label="flag")
    else:
        doc[key][index] = float("nan") if kind == "nan" else 0.0
    return json.dumps(doc), True


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_feature_statistics_never_end_in_a_traceback(normalized_run, data):
    doc, files = normalized_run
    text, must_fail = _mutated_stats(data, files["feature_stats.json"])
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        models = root / "out" / "models"
        models.mkdir(parents=True)
        for name, body in files.items():
            (models / name).write_text(text if name == "feature_stats.json" else body,
                                       encoding="utf-8")
        config = root / "experiment.json"
        config.write_text(json.dumps({**doc, "out_dir": str(root / "out")}), encoding="utf-8")
        for command in TEST_ONLY_COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", str(config)])
            assert code in ((cli.EXIT_DATA,) if must_fail else (cli.EXIT_OK, cli.EXIT_DATA))
            if code == cli.EXIT_DATA:
                assert err.getvalue().startswith(f"data error: {models / 'feature_stats.json'}: ")
            assert "Traceback" not in err.getvalue()


def _check_console_command(command, workdir, env):
    """Run ``command`` as a shell would: one good and one broken config."""
    workdir.mkdir()
    config = _write_config(workdir)
    proc = subprocess.run(
        [*command, "generate", "--config", str(config)],
        capture_output=True, text=True, timeout=120, cwd=workdir, env=env,
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    for split in ("train", "valid", "test"):
        assert (workdir / "out" / "data" / f"{split}.jsonl").exists()

    broken = workdir / "broken.json"
    broken.write_text("{ not json", encoding="utf-8")
    proc = subprocess.run(
        [*command, "generate", "--config", str(broken)],
        capture_output=True, text=True, timeout=120, cwd=workdir, env=env,
    )
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert "invalid JSON" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_console_script_runs(tmp_path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")

    # The console script declared with the package, not one found installed:
    # the suite runs from source, where no installer has written a script.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert "mdrank" in scripts, "pyproject.toml should declare the mdrank script"
    spec = scripts["mdrank"]
    assert re.fullmatch(r"\w+(\.\w+)*:\w+", spec), spec
    module, attr = spec.split(":")
    assert callable(getattr(importlib.import_module(module), attr, None)), spec

    # The same launcher installers generate from the entry, run against the
    # mdrank package this suite imported rather than any other copy.
    launcher = tmp_path / "mdrank_launcher.py"
    launcher.write_text(
        f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n",
        encoding="utf-8",
    )
    env = source_env()
    _check_console_command([sys.executable, str(launcher)], tmp_path / "launcher", env)

    installed = shutil.which("mdrank")
    if installed:
        _check_console_command([installed], tmp_path / "installed", env)
