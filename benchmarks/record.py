"""Record one untraced benchmark run per workload as ``BENCH_<tag>.json``.

    python3 benchmarks/record.py [--tag TAG]

For each workload named in ``BENCHMARK.json`` this runs the benchmark
command (``perfbench/run.py``) of the checkout it sits in, with seed 1,
the benchmark's ``run_seconds`` and ``--trace 0``, in a child process,
and keeps two lines of its output: the ``context:`` line and the final
JSON result line.  Both go, per workload, into ``BENCH_<tag>.json`` at
the root of the checkout.  The tag defaults to the short git commit.

The runs share one fresh bytecode cache (``PYTHONPYCACHEPREFIX``) in a
temporary directory outside the checkout, as ``pairs.py`` gives each side,
so the ``__pycache__`` the tree holds does not enter the figures.  A short
run of each workload, whose output is dropped, fills the cache first.

A run that exits with an error, or whose result object reads ``correct:
false`` or a failed job, stops the tool before it writes the file.

A speed claim compares two such files written on the same machine, one
for the parent commit and one for the change.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from pairs import WARM_UP_SECONDS, cache_env, cache_prefixes, checked

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def short_commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("record: not a git checkout; pass --tag")
    return proc.stdout.strip()


def run_workload(command: list[str], tag: str, workload: str, seconds: float,
                 pycache: Path) -> dict:
    """The context and result of one ``--trace 0`` run of ``workload`` for
    the file ``tag``, with its bytecode cache in ``pycache``."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, env=cache_env(pycache),
    )
    lines = proc.stdout.splitlines()
    contexts = [line for line in lines if line.startswith("context: ")]
    if proc.returncode != 0 or not contexts:
        sys.exit(f"record: {workload} exited {proc.returncode}:\n{proc.stderr}")
    return {
        "context": json.loads(contexts[0][len("context: "):]),
        "result": checked("record", json.loads(lines[-1]), tag, workload, SEED),
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", default=None, help="file tag (default: short git commit)")
    args = parser.parse_args(argv)
    tag = args.tag or short_commit()
    command = [sys.executable if part == "python3" else part for part in bench["command"]]
    with tempfile.TemporaryDirectory(prefix="record-pycache-") as tmp:
        pycache = cache_prefixes({"checkout": ROOT}, Path(tmp))["checkout"]
        record = {"tag": tag, "workloads": {}}
        for w in bench["workloads"]:
            run_workload(command, tag, w["name"], WARM_UP_SECONDS, pycache)
            record["workloads"][w["name"]] = run_workload(command, tag, w["name"],
                                                          bench["run_seconds"], pycache)
    out = ROOT / f"BENCH_{tag}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
