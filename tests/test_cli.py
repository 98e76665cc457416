"""End-to-end command-line tests driving cli.main with tiny experiments."""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mdrank
from mdrank import cli


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


def test_non_integer_workers_env_exits_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MDRANK_WORKERS", "abc")
    config = _write_config(tmp_path)
    assert cli.main(["protocol", "--config", str(config)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "MDRANK_WORKERS" in err


def test_interleave_end_to_end(tmp_path, capsys):
    config = _write_config(tmp_path)
    cli.main(["train", "--config", str(config)])
    assert cli.main(["interleave", "--config", str(config)]) == cli.EXIT_OK
    csv = (tmp_path / "out" / "reports" / "interleave.csv").read_text().splitlines()
    assert csv[0] == "a,b,domain,credit_a,credit_b,credit_gain,p_value,queries_used"
    assert len(csv) == 2
    assert csv[1].startswith("baseline_d0,multihead,0,")


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_training_exits_code_four(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        train={"epochs": 1, "batch_size": 4, "learning_rate": 1e100,
               "eval_every": 10, "seed": 1},
    )
    code = cli.main(["train", "--config", str(config), "--variant", "baseline_d0"])
    assert code == cli.EXIT_DIVERGED
    assert "training diverged" in capsys.readouterr().err


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
        (lambda doc: doc["interleave"].update(page_size=-1), "page_size"),
        (lambda doc: doc["interleave"].update(page_size=0), "page_size"),
        (lambda doc: doc["interleave"].update(examination_eta=-1.0), "examination_eta"),
        (lambda doc: doc["interleave"].update(examination_eta=float("nan")), "examination_eta"),
        (lambda doc: doc["interleave"].update(seed=-1), "seed"),
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
    def edit(split, sessions):
        if split == "valid":
            for session in sessions:
                for item in session["items"]:
                    item["features"] = item["features"][:4]

    config = _edited_dataset_config(tmp_path, edit)
    assert cli.main([command, "--config", str(config)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "feature widths differ" in err and "4 in valid" in err


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
    checkout = str(Path(mdrank.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [checkout, env.get("PYTHONPATH")]))
    _check_console_command([sys.executable, str(launcher)], tmp_path / "launcher", env)

    installed = shutil.which("mdrank")
    if installed:
        _check_console_command([installed], tmp_path / "installed", env)
