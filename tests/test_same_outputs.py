"""The comparison of benchmarks/same_outputs.py on made-up output trees."""

import importlib.util
import json
from pathlib import Path

import pytest

from mdrank.cli import load_experiment_config

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "same_outputs.py"


@pytest.fixture(scope="module")
def same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, contents: dict[str, bytes]) -> Path:
    for name, raw in contents.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(raw)
    return root


def test_identical_trees_have_no_difference(same_outputs, tmp_path):
    contents = {"reports/a.csv": b"x,y\n1,2\n", "models/m.model.json": b"{}", "z.txt": b""}
    parent = same_outputs.files(_tree(tmp_path / "parent", contents))
    change = same_outputs.files(_tree(tmp_path / "change", dict(reversed(contents.items()))))
    assert list(parent) == ["models/m.model.json", "reports/a.csv", "z.txt"]
    assert parent == change
    assert same_outputs.first_difference(parent, change) is None


@pytest.mark.parametrize("edits, difference", [
    ({"a/one.csv": None, "b/two.csv": b"3,5\n"}, "a/one.csv: only in the parent"),
    ({"b/two.csv": b"3,5\n"}, "b/two.csv: differs from byte 2 (parent 4, change 4 bytes)"),
    ({"a/one.csv": b"1,2\n\n"}, "a/one.csv: differs from byte 4 (parent 4, change 5 bytes)"),
    ({"c/new.csv": b""}, "c/new.csv: only in the change"),
])
def test_first_difference_names_the_entry_and_the_byte(same_outputs, tmp_path, edits,
                                                       difference):
    base = {"a/one.csv": b"1,2\n", "b/two.csv": b"3,4\n"}
    parent = same_outputs.files(_tree(tmp_path / "parent", base))
    change = _tree(tmp_path / "change", base)
    for name, raw in edits.items():
        if raw is None:
            (change / name).unlink()
        else:
            _tree(change, {name: raw})
    assert same_outputs.first_difference(parent, same_outputs.files(change)) == difference


def test_command_outputs_are_compared_before_files(same_outputs):
    parent = {"train: stdout": b"trained\n", "models/m.json": b"1"}
    change = {"train: stdout": b"trained!\n", "models/m.json": b"2"}
    assert same_outputs.first_difference(parent, change) == (
        "train: stdout: differs from byte 7 (parent 8, change 9 bytes)")


def test_second_config_reads_the_first_ones_generated_files(same_outputs, tmp_path):
    """The second pass is the default config with its generated splits as
    ``dataset.paths`` and ``normalize`` on, and nothing else changed."""
    default = json.loads(json.dumps(same_outputs.DEFAULT_CONFIG))
    second = same_outputs.paths_config(same_outputs.DEFAULT_CONFIG, tmp_path / "data")
    assert same_outputs.DEFAULT_CONFIG == default
    assert "normalize" not in default
    assert {key: value for key, value in second.items()
            if key not in ("dataset", "normalize")} == {
        key: value for key, value in default.items() if key != "dataset"}
    assert second["normalize"] is True
    assert second["dataset"] == {"paths": {
        split: str(tmp_path / "data" / f"{split}.jsonl") for split in ("train", "valid", "test")}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(second), encoding="utf-8")
    config = load_experiment_config(path)
    assert config.normalize and config.dataset_synthetic is None
    assert config.dataset_paths == {
        split: tmp_path / "data" / f"{split}.jsonl" for split in ("train", "valid", "test")}


def test_anchor_cases_reach_each_route_through_the_gains(same_outputs):
    """The extra commands of the default pass select models of the default
    config: evaluate's cover no domain with a baseline, and protocol's
    cover domain 0 and not domain 1."""
    models = same_outputs.DEFAULT_CONFIG["models"]
    anchored = []
    for case in same_outputs.ANCHOR_CASES:
        command, flag, *names = case.split()
        assert command in same_outputs.COMMANDS and flag == "--variant"
        assert set(names) <= set(models)
        anchored.append({models[name].get("train_domain") for name in names
                         if models[name]["variant"] == "baseline"})
    assert anchored == [set(), {0}]
