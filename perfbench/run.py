"""mdrank benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload protocol|serve|pipeline \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark imports mdrank from ``src/``
of the checkout it sits in and exits with code 2, printing no result, when
that source is missing.

``--trace 0`` sets the workload up, runs one warm-up job, then runs jobs
back to back for ``--seconds``, setting the workload up afresh (untimed
for ``job_s``) before each job, and reports the end-to-end metrics;
``setup_s`` is the median set-up.  ``--trace 1`` alternates untraced jobs
with jobs run under the span hooks of ``spans.py`` for ``--seconds``, then
runs the workload's sweep (calls into the layers its job does not reach)
under the hooks and reports the per-layer metrics; ``trace.overhead_pct``
compares the median traced job with the median untraced one.  Either
way every job's outputs are checked, and the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Not used while the benchmark was tuned; keep it for validating claims.
HELD_OUT_SEED = 9001


def import_mdrank():
    """Import mdrank from this checkout's src/, never from site-packages."""
    if not (SRC / "mdrank" / "__init__.py").is_file():
        print(f"perfbench: no mdrank source at {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import mdrank

    if Path(mdrank.__file__).resolve().parent != (SRC / "mdrank").resolve():
        print(f"perfbench: imported mdrank from {mdrank.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return mdrank


def git_commit() -> str:
    """HEAD of the checkout, read without starting git; 'unknown' when the
    checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """OpenBLAS thread count from numpy's bundled library, if it has one."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def context(mdrank, workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    source = hashlib.sha256()
    for path in sorted((SRC / "mdrank").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "workers": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "mdrank": mdrank.__version__,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "machine": platform.machine(),
    }


class Ledger:
    """Operations attempted and failed.  An operation is one job or one
    final check; it fails when it raises or its outputs are wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.first_fingerprint = None

    def record(self, wl, outcome, problems) -> None:
        self.attempted += 1
        if not problems and outcome is not None:
            fingerprint = wl.fingerprint(outcome)
            if self.first is None:
                self.first, self.first_fingerprint = outcome, fingerprint
            elif fingerprint != self.first_fingerprint:
                problems = ["outputs differ from the first job of this run"]
        if problems:
            self.failed += 1
            print(f"perfbench: {wl.name}: {problems[:5]}", file=sys.stderr)

    def run_job(self, wl) -> float:
        t0 = time.perf_counter()
        try:
            outcome = wl.job()
        except Exception:
            traceback.print_exc()
            self.record(wl, None, ["job raised"])
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        self.record(wl, outcome, wl.check(outcome))
        return elapsed

    def run_final_checks(self, wl) -> None:
        try:
            problems = wl.final_checks()
        except Exception:
            traceback.print_exc()
            problems = ["final checks raised"]
        self.record(wl, None, problems)


def loop(ledger: Ledger, wl, seconds: float, before) -> list[float]:
    """Closed loop: jobs back to back until ``seconds`` have passed (at
    least one job).  ``before`` runs ahead of each job, untimed."""
    times = []
    deadline = time.perf_counter() + seconds
    while True:
        before()
        times.append(ledger.run_job(wl))
        if time.perf_counter() >= deadline:
            return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: int, sizes=None) -> dict:
    """One benchmark run in this process; returns the result object."""
    import workloads
    from spans import LAYER_METRICS, Tracer

    sizes = sizes or workloads.FULL
    run_dir = OUT / f"{workload}-{seed}-{os.getpid()}"
    make = workloads.WORKLOADS[workload]
    ledger = Ledger()
    detail: dict = {}
    try:
        if not trace:
            setups = []

            def timed_setup():
                fresh = make(seed, sizes, run_dir)
                t0 = time.perf_counter()
                fresh.setup()
                setups.append(time.perf_counter() - t0)
                return fresh

            wl = timed_setup()
            ledger.run_job(wl)  # warm-up: lazy imports and caches
            for values in wl.stats.values():
                values.clear()
            # One set-up before every job, so that set-ups sample the same
            # stretch of machine time as the jobs do.
            times = loop(ledger, wl, seconds, before=timed_setup)
            ledger.run_final_checks(wl)
            detail = wl.detail(times, ledger.first) if ledger.first is not None else {}
            detail["failed_frac"] = (ledger.failed / ledger.attempted, "1")
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "job_s": (statistics.median(times), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MiB"),
                "ok_frac": (1.0 - ledger.failed / ledger.attempted, "1"),
            }
            print(f"jobs: {len(times)}; job times: {json.dumps([round(t, 6) for t in times])}")
        else:
            tracer = Tracer()
            wl = make(seed, sizes, run_dir)
            tracer.install()
            with tracer.span("bench.setup"):
                wl.setup()
            tracer.uninstall()
            ledger.run_job(wl)
            # Untraced and traced jobs alternate, so that both see the same
            # stretch of machine time.
            plain, traced = [], []
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline or not traced:
                plain.append(ledger.run_job(wl))
                tracer.install()
                with tracer.span("bench.job"):
                    traced.append(ledger.run_job(wl))
                tracer.uninstall()
            tracer.install()
            with tracer.span("bench.sweep"):
                wl.sweep()
            tracer.uninstall()
            ledger.run_final_checks(wl)
            overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
            values, absent = tracer.layer_metrics(overhead)
            metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}
            extra = tracer.extra_ops()
            print(f"jobs: {len(plain)} untraced, {len(traced)} traced; spans: {len(tracer.names)}")
            if absent:
                print(f"absent spans (reported as 0): {absent}")
            if tracer.missing_hooks:
                print(f"hooks whose names no longer exist: {tracer.missing_hooks}")
            if extra:
                print(f"tape ops outside the gated list, per step: {extra}")
            OUT.mkdir(parents=True, exist_ok=True)
            trace_file = OUT / f"trace-{workload}-{seed}.json"
            trace_file.write_text(json.dumps({
                "metrics": values, "absent": absent, "extra_ops": extra, **tracer.dump(),
            }))
            print(f"trace written to {trace_file.relative_to(ROOT)}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, (value, unit) in {**detail, **metrics}.items():
        print(f"{name:<36} {value:>16.6f} {unit}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("protocol", "serve", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be positive")
    mdrank = import_mdrank()
    print("context: " + json.dumps(context(mdrank, args.workload, args.seed, args.seconds, args.trace)))
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
