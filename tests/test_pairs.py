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


FAKE_RUN = """
import json, os, sys
from pathlib import Path
names = [m["name"] for m in json.loads(Path(os.environ["FAKE_BENCHMARK"]).read_text())["end_to_end"]]
with open("prefixes.txt", "a") as log:
    print(sys.pycache_prefix, sys.flags.dont_write_bytecode, file=log)
print(json.dumps({"correct": True, "failed": 0, "attempted": 1,
                  "metrics": {name: {"value": 1.0} for name in names}}))
"""


def test_each_side_has_its_own_bytecode_cache_outside_both_checkouts(pairs, tmp_path,
                                                                     monkeypatch, capsys):
    """Two made-up checkouts whose benchmark logs the bytecode cache it was
    given: each side gets one fresh, writable cache for all its runs, the
    sides get distinct ones, and neither lies inside a checkout."""
    checkouts = [tmp_path / "parent", tmp_path / "change"]
    for checkout in checkouts:
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "perfbench" / "run.py").write_text(FAKE_RUN, encoding="utf-8")
    monkeypatch.setenv("FAKE_BENCHMARK", str(pairs.ROOT / "BENCHMARK.json"))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert pairs.main([*map(str, checkouts), "--workload", "protocol", "--pairs", "2",
                       "--seed", "1"]) == 0
    assert "change better in 0 of 2 pairs" in capsys.readouterr().out
    prefixes = []
    for checkout in checkouts:
        lines = (checkout / "prefixes.txt").read_text().splitlines()
        assert len(lines) == 3 and len(set(lines)) == 1  # the warm-up and both pairs
        prefix, no_write = lines[0].split()
        assert no_write == "0"
        prefixes.append(Path(prefix))
    assert prefixes[0] != prefixes[1]
    for prefix in prefixes:
        assert not any(prefix.is_relative_to(checkout) for checkout in checkouts)
        assert not prefix.exists()  # removed with its temporary directory


def test_a_cache_inside_a_checkout_is_refused(pairs, tmp_path):
    checkouts = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    with pytest.raises(SystemExit, match="lies inside the checkout"):
        pairs.cache_prefixes(checkouts, tmp_path / "change" / "tmp")
