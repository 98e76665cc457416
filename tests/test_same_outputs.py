"""The comparison of benchmarks/same_outputs.py on made-up output trees."""

import importlib.util
from pathlib import Path

import pytest

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
