"""Compare two checkouts in alternating pairs of benchmark runs.

    python3 benchmarks/pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seed S

Pair i runs the benchmark command of ``BENCHMARK.json`` (``perfbench/run.py``)
in each checkout, one after the other, with ``--workload W --seed S+i
--trace 0`` and the benchmark's ``run_seconds``; the parent goes first in
even pairs and the change in odd ones, so that neither side always meets
the machine's drift first.  Each run prints one line as it ends.  Then,
for every end-to-end metric of ``BENCHMARK.json``, the summary gives each
side's median and quartiles (inclusive method), the change of the median,
and in how many pairs the change was better than the parent in the
metric's own direction.  A run that exits with an error stops the tool.

Each checkout's runs share one fresh bytecode cache (``PYTHONPYCACHEPREFIX``)
in a temporary directory outside both checkouts, so neither side reads the
``__pycache__`` its tree happens to hold: stale bytecode on one side alone
once read as a 10.8 % slower protocol ``job_s``.  Before the pairs, one
short run per side, whose result is dropped, fills its cache, so no
measured run compiles.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WARM_UP_SECONDS = 0.01  # the benchmark's warm-up job and one more


def cache_prefixes(checkouts: dict[str, Path], root: Path) -> dict[str, Path]:
    """A new, empty bytecode cache directory under ``root`` for each of
    ``checkouts``, named by its key.  Exits if ``root`` lies inside a
    checkout."""
    root = root.resolve()
    for checkout in checkouts.values():
        if root.is_relative_to(checkout.resolve()):
            sys.exit(f"bytecode cache {root} lies inside the checkout {checkout}")
    prefixes = {side: root / side for side in checkouts}
    for prefix in prefixes.values():
        prefix.mkdir()
    return prefixes


def cache_env(pycache: Path) -> dict[str, str]:
    """This environment with ``pycache`` as the bytecode cache, which the
    run may write."""
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_once(command: list[str], checkout: Path, workload: str, seed: int,
             seconds: float, pycache: Path) -> dict:
    """The result object of one ``--trace 0`` run in ``checkout``, with its
    bytecode cache in ``pycache``."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, env=cache_env(pycache),
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"pairs: {workload} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(metrics: list[dict], results: dict[str, list[dict]]) -> list[str]:
    """One line per end-to-end metric over the pairs in ``results``, which
    holds each side's result objects in pair order."""
    lines = []
    for metric in metrics:
        name, unit, lower = metric["name"], metric["unit"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        won = sum((c < p) if lower else (c > p)
                  for p, c in zip(values["parent"], values["change"]))
        base = stats["parent"][1]
        move = f"{100.0 * (stats['change'][1] / base - 1.0):+.1f} %" if base else "n/a"
        sides = "; ".join(f"{side} {stats[side][1]:.4f} (q1 {stats[side][0]:.4f}, "
                          f"q3 {stats[side][2]:.4f})" for side in SIDES)
        lines.append(f"{name} [{unit}, {metric['better']} is better]: {sides}; {move}; "
                     f"change better in {won} of {len(values['parent'])} pairs")
    return lines


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {checkout} has no perfbench/run.py")
    command = [sys.executable if part == "python3" else part for part in bench["command"]]
    names = [m["name"] for m in bench["end_to_end"]]
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="pairs-pycache-") as tmp:
        pycache = cache_prefixes(checkouts, Path(tmp))
        for side in SIDES:
            run_once(command, checkouts[side], args.workload, args.seed, WARM_UP_SECONDS,
                     pycache[side])
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(command, checkouts[side], args.workload, seed,
                                  bench["run_seconds"], pycache[side])
                results[side].append(result)
                values = ", ".join(f"{n} {result['metrics'][n]['value']:.4f}" for n in names)
                print(f"pair {i + 1} seed {seed} {side}"
                      f"{' (first)' if side == order[0] else ''}: {values}; correct "
                      f"{result['correct']}, {result['failed']} of {result['attempted']} "
                      f"jobs failed", flush=True)
    print(f"{args.workload}, {args.pairs} pairs from seed {args.seed}:")
    for line in summarize(bench["end_to_end"], results):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
