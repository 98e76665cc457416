"""Compare two checkouts layer by layer, in alternating processes.

    python3 benchmarks/layers.py PARENT_DIR CHANGE_DIR [--rounds R] [--reps N]

Round i runs one child process per checkout, one after the other; the
parent goes first in even rounds and the change in odd ones.  Each child
imports ``mdrank`` from its checkout's ``src`` and runs this file's
``measure`` (the same code on both sides), which prints one JSON object:

- the best of N times, in ms, of a stacked train step at the protocol
  workload's shapes (criterion-6 widths, a stack of 2 seeds, 8 sessions of
  10-20 items per member and mixed domains), for each variant, split into
  its forward pass with the losses (``batch_loss`` on a tape), ``backward``
  and ``Adam.step``;
- a lone ``domain_specialist`` train step on one member's batch: the sum
  of the best of N times of its three phases;
- the best of N times of ``evaluate`` of one 100-130 item session by a
  lone ``multihead`` model of four domains, the serve workload's request;
- the best of N times of ``evaluate`` of a stack of 2 ``domain_specialist``
  members on 32 validation sessions, one validation of the protocol;
- per stacked step of each variant, the tape nodes and the
  ``autodiff._accumulate`` calls, counted once, outside the timed runs.

Then, per metric, the summary gives each side's median over its rounds,
the ratio of the change's median to the parent's, and in how many rounds
the change read lower.  Counts repeat exactly, so a count's ratio is exact.

Each checkout's children share one fresh bytecode cache
(``PYTHONPYCACHEPREFIX``) outside both checkouts, as ``pairs.py`` gives
each side, and one child per side whose result is dropped fills it first.

Spread: on two copies of one tree (2-core VM, ``--rounds 10 --reps 50``)
the counts were equal, the ratio of every timed metric lay between 0.98
and 1.03, and the second copy read lower in 3 to 7 of the 10 rounds.  So
a timed ratio within 0.97-1.04, or lower in fewer than 8 of 10 rounds, is
no measured change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pairs import SIDES, cache_env, cache_prefixes

VARIANTS = ("baseline", "multihead", "domain_adversarial", "domain_specialist")
DIMS = dict(feature_dim=8, n_domains=2, trunk_hidden=[24], token_dim=8, transformer_layers=1,
            heads=1, final_hidden=[16])
CLASSIFIERS = {"domain_adversarial": dict(classifier_hidden=[16], domain_loss_weight=1.0),
               "domain_specialist": dict(classifier_hidden=[16], domain_loss_weight=0.5)}
SEEDS = (1, 2)  # the protocol workload's stacked seeds
BATCH = 8
K = 16
DATA_SEED = 7
WARM_UP_REPS = 1


def _spec(n_domains: int, sessions: dict, list_length: list[int]):
    from mdrank.data import SyntheticSpec

    return SyntheticSpec(n_domains=n_domains, sessions_per_domain=sessions, feature_dim=8,
                         shared_weight_scale=0.2, domain_weight_scale=1.5,
                         domain_shift_scale=3.0, list_length=list_length, label_noise=0.05,
                         seed=DATA_SEED)


def _config(variant: str, **dims):
    from mdrank.models import ModelConfig

    return ModelConfig(variant=variant, **{**DIMS, **CLASSIFIERS.get(variant, {}), **dims})


def _best(fn, reps: int) -> float:
    """The least of ``reps`` timed calls of ``fn``, in ms."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def _step_phases(model, batch, members, optimizer, reps: int) -> dict[str, float]:
    """The best of ``reps`` times of each phase of a train step, in ms."""
    from mdrank.autodiff import Tape, backward
    from mdrank.losses import batch_loss

    best = {"forward": float("inf"), "backward": float("inf"), "adam": float("inf")}
    for _ in range(reps):
        model.zero_grad()
        start = time.perf_counter()
        with Tape() as tape:
            _, loss = batch_loss(model, batch, members)
            mid = time.perf_counter()
            backward(tape, loss)
        end = time.perf_counter()
        optimizer.step()
        done = time.perf_counter()
        for phase, seconds in (("forward", mid - start), ("backward", end - mid),
                               ("adam", done - end)):
            best[phase] = min(best[phase], 1e3 * seconds)
    return best


def _step_counts(model, batch, members) -> tuple[int, int]:
    """Tape nodes and ``_accumulate`` calls of one train step."""
    import mdrank.autodiff as autodiff
    from mdrank.losses import batch_loss

    accumulate, calls = autodiff._accumulate, []

    def counted(*args, **kwargs):
        calls.append(None)
        return accumulate(*args, **kwargs)

    model.zero_grad()
    autodiff._accumulate = counted
    try:
        with autodiff.Tape() as tape:
            _, loss = batch_loss(model, batch, members)
            autodiff.backward(tape, loss)
    finally:
        autodiff._accumulate = accumulate
    return len(tape.nodes), len(calls)


def measure(reps: int) -> dict[str, float]:
    """Every metric of the module docstring, by name, in this process."""
    import numpy as np

    from mdrank.data import generate_synthetic
    from mdrank.evaluation import evaluate
    from mdrank.models import build, stack
    from mdrank.training import Adam

    ds = generate_synthetic(_spec(2, {"train": [96, 32], "valid": 16, "test": 0}, [10, 20]))
    orders = [np.random.default_rng(seed).permutation(len(ds.train))[:BATCH] for seed in SEEDS]
    batch = [ds.train[i] for order in orders for i in order]
    members = [BATCH] * len(SEEDS)
    out: dict[str, float] = {}
    for variant in VARIANTS:
        config = _config(variant)
        model = stack([build(config, seed) for seed in SEEDS])
        nodes, accumulates = _step_counts(model, batch, members)
        out[f"count.tape_nodes.{variant}"] = nodes
        out[f"count.accumulate.{variant}"] = accumulates
        optimizer = Adam(model, 0.003)
        _step_phases(model, batch, members, optimizer, WARM_UP_REPS)
        for phase, ms in _step_phases(model, batch, members, optimizer, reps).items():
            out[f"ms.stacked_step.{phase}.{variant}"] = ms

    lone = build(_config("domain_specialist"), SEEDS[0])
    optimizer = Adam(lone, 0.003)
    _step_phases(lone, batch[:BATCH], None, optimizer, WARM_UP_REPS)
    out["ms.lone_step.domain_specialist"] = sum(
        _step_phases(lone, batch[:BATCH], None, optimizer, reps).values())

    serve = generate_synthetic(_spec(4, {"train": 0, "valid": 0, "test": 1}, [100, 130])).test
    scorer = build(_config("multihead", n_domains=4), 11)
    evaluate(scorer, serve[:1], K)
    out["ms.evaluate_one_session.multihead"] = _best(lambda: evaluate(scorer, serve[:1], K), reps)

    stacked = stack([build(_config("domain_specialist"), seed) for seed in SEEDS])
    evaluate(stacked, ds.valid, K)
    out["ms.validate_stack_of_2.domain_specialist"] = _best(
        lambda: evaluate(stacked, ds.valid, K), reps)
    return out


def run_child(checkout: Path, reps: int, pycache: Path) -> dict[str, float]:
    """The metrics of one child process that imports ``mdrank`` from
    ``checkout``, with its bytecode cache in ``pycache``."""
    env = cache_env(pycache)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__, "--measure", "--reps", str(reps)],
                          cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"layers: the child in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(results: dict[str, list[dict[str, float]]]) -> list[str]:
    """One line per metric over the rounds in ``results``, which holds each
    side's metric objects in round order."""
    lines = []
    for name in results["parent"][0]:
        values = {side: [r[name] for r in results[side]] for side in SIDES}
        medians = {side: statistics.median(values[side]) for side in SIDES}
        lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
        ratio = f"{medians['change'] / medians['parent']:.3f}" if medians["parent"] else "n/a"
        shown = "; ".join(f"{side} {medians[side]:.4g} ({min(values[side]):.4g}-"
                          f"{max(values[side]):.4g})" for side in SIDES)
        lines.append(f"{name}: {shown}; ratio {ratio}; change lower in {lower} of "
                     f"{len(values['parent'])} rounds")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?", help="checkout of the parent commit")
    parser.add_argument("change", type=Path, nargs="?", help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--reps", type=int, default=50, help="timed runs per metric and child")
    parser.add_argument("--measure", action="store_true",
                        help="measure this process's mdrank and print the metrics")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.reps < 1:
        parser.error("--rounds and --reps must be at least 1")
    if args.measure:
        print(json.dumps(measure(args.reps)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT_DIR and CHANGE_DIR are required")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "src" / "mdrank" / "autodiff.py").is_file():
            parser.error(f"{side} checkout {checkout} has no src/mdrank/autodiff.py")
    results: dict[str, list[dict[str, float]]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="layers-pycache-") as tmp:
        pycache = cache_prefixes(checkouts, Path(tmp))
        for side in SIDES:
            run_child(checkouts[side], WARM_UP_REPS, pycache[side])
        for i in range(args.rounds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                results[side].append(run_child(checkouts[side], args.reps, pycache[side]))
            print(f"round {i + 1} of {args.rounds} done", flush=True)
    print(f"{args.rounds} rounds, best of {args.reps} runs per metric and child "
          f"(ms for times):")
    for line in summarize(results):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
