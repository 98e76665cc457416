"""benchmarks/layers.py: its summary on made-up results, its rounds on
made-up checkouts, and its measurement on this checkout."""

import importlib.util
from pathlib import Path

import pytest

_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(_DIR))  # layers.py imports pairs.py beside it
        spec = importlib.util.spec_from_file_location("layers", _DIR / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_summary_gives_medians_ratios_and_rounds_lower(layers):
    results = {
        "parent": [{"ms.step": 2.0, "count.nodes": 25}, {"ms.step": 1.0, "count.nodes": 25},
                   {"ms.step": 3.0, "count.nodes": 25}],
        "change": [{"ms.step": 1.5, "count.nodes": 21}, {"ms.step": 1.2, "count.nodes": 21},
                   {"ms.step": 1.0, "count.nodes": 21}],
    }
    assert layers.summarize(results) == [
        "ms.step: parent 2 (1-3); change 1.2 (1-1.5); ratio 0.600; change lower in 2 of 3 rounds",
        "count.nodes: parent 25 (25-25); change 21 (21-21); ratio 0.840; "
        "change lower in 3 of 3 rounds",
    ]


def test_rounds_alternate_with_one_cache_per_side(layers, tmp_path, monkeypatch, capsys):
    """Each side's children share one bytecode cache outside both
    checkouts, a warm-up child per side comes first, and the side that
    goes first alternates from round to round."""
    checkouts = [tmp_path / "parent", tmp_path / "change"]
    for checkout in checkouts:
        (checkout / "src" / "mdrank").mkdir(parents=True)
        (checkout / "src" / "mdrank" / "autodiff.py").write_text("", encoding="utf-8")
    runs = []

    def child(checkout, reps, pycache):
        runs.append((checkout.name, reps, pycache))
        return {"ms.step": 1.0 if checkout.name == "parent" else 0.5}

    monkeypatch.setattr(layers, "run_child", child)
    assert layers.main([*map(str, checkouts), "--rounds", "3", "--reps", "7"]) == 0
    assert [(name, reps) for name, reps, _ in runs] == [
        ("parent", 1), ("change", 1), ("parent", 7), ("change", 7), ("change", 7),
        ("parent", 7), ("parent", 7), ("change", 7)]
    caches = {name: {pycache for n, _, pycache in runs if n == name}
              for name in ("parent", "change")}
    assert all(len(paths) == 1 for paths in caches.values())
    assert caches["parent"] != caches["change"]
    for (pycache,) in caches.values():
        assert not any(pycache.is_relative_to(checkout) for checkout in checkouts)
    assert capsys.readouterr().out.endswith(
        "ms.step: parent 1 (1-1); change 0.5 (0.5-0.5); ratio 0.500; "
        "change lower in 3 of 3 rounds\n")


def test_a_checkout_without_the_package_is_refused(layers, tmp_path):
    with pytest.raises(SystemExit):
        layers.main([str(tmp_path), str(tmp_path), "--rounds", "1"])


def test_measure_reads_every_metric_of_this_checkout(layers):
    """One timed run of each metric: every time is positive, and a stacked
    step of each variant records the tape nodes of its fused ops."""
    metrics = layers.measure(reps=1)
    times = {name: value for name, value in metrics.items() if name.startswith("ms.")}
    assert len(times) == 4 * 3 + 3 and all(value > 0 for value in times.values())
    nodes = {v: metrics[f"count.tape_nodes.{v}"] for v in layers.VARIANTS}
    assert nodes == {"baseline": 16, "multihead": 21, "domain_adversarial": 22,
                     "domain_specialist": 21}
    assert all(metrics[f"count.accumulate.{v}"] > nodes[v] for v in layers.VARIANTS)
