"""The summary of benchmarks/pairs.py on made-up results."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _results(**values):
    return [{"metrics": {name: {"value": v} for name, v in zip(values, row)}}
            for row in zip(*values.values())]


def test_summary_gives_medians_quartiles_and_pairs_won(pairs):
    metrics = [{"name": "job_s", "unit": "s", "better": "lower"},
               {"name": "ok_frac", "unit": "1", "better": "higher"}]
    results = {
        "parent": _results(job_s=[0.30, 0.20, 0.40, 0.25, 0.35], ok_frac=[1.0] * 5),
        "change": _results(job_s=[0.20, 0.25, 0.30, 0.20, 0.30], ok_frac=[1.0, 1.0, 0.5, 1.0, 1.0]),
    }
    job, ok = pairs.summarize(metrics, results)
    assert job == ("job_s [s, lower is better]: parent 0.3000 (q1 0.2500, q3 0.3500); "
                   "change 0.2500 (q1 0.2000, q3 0.3000); -16.7 %; "
                   "change better in 4 of 5 pairs")
    assert ok.endswith("+0.0 %; change better in 0 of 5 pairs")


def test_one_pair_has_its_value_as_every_quartile(pairs):
    assert pairs.quartiles([0.5]) == (0.5, 0.5, 0.5)
    assert pairs.quartiles([1.0, 2.0, 3.0]) == (1.5, 2.0, 2.5)
