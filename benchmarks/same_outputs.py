"""Check that two checkouts write the same outputs.

    python3 benchmarks/same_outputs.py PARENT_DIR CHANGE_DIR [--config PATH]

In each checkout, with its own ``src`` first on ``PYTHONPATH``, the tool runs
``python -m mdrank.cli`` with ``generate``, ``train``, ``evaluate``,
``interleave`` and ``protocol`` in turn, all writing into one temporary
output directory per checkout (``--out``).  It then compares each command's
exit code, stdout and stderr, with the output directory masked, and every
file the commands wrote, byte for byte.  It exits 1 naming the first
difference, or prints what it compared and exits 0.

Without ``--config`` it runs the default config, and then, in the same
output directory, two commands that reach the edge cases of the baseline
gains (``ANCHOR_CASES``): ``evaluate`` of models of which none is a
baseline, and ``protocol`` of a baseline of domain 0 and a model of both
domains, so domain 1 has no baseline.  They rewrite the reports of the
commands before them, so the files are compared both before and after
them.  When neither shows a difference, a last pass runs the same config
reading the files the parent's ``generate`` wrote (``dataset.paths``) with
``normalize`` on, through ``train``, ``evaluate``, ``interleave`` and
``protocol``.  That is the route on which ``train``
records the feature statistics that ``evaluate`` and ``interleave`` apply.

The default config is criterion 6 of the acceptance tests at a smaller
size: five models (two per-domain baselines, multihead, adversarial and
specialist), 3 stacked seeds, batches that mix both domains, 2 transformer
layers of 2 heads, and 2 interleave pairs.  Each pass takes a few seconds a
side.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("generate", "train", "evaluate", "interleave", "protocol")
ANCHOR_CASES = ("evaluate --variant multihead specialist",
                "protocol --variant baseline_d0 multihead")

_DIMS = {"feature_dim": 8, "n_domains": 2, "trunk_hidden": [24], "token_dim": 8,
         "transformer_layers": 2, "heads": 2, "final_hidden": [16]}
DEFAULT_CONFIG = {
    "out_dir": "out",
    "k": 16,
    "seeds": [101, 102, 103],
    "dataset": {"synthetic": {
        "n_domains": 2, "sessions_per_domain": {"train": [150, 50], "valid": 30, "test": 50},
        "feature_dim": 8, "shared_weight_scale": 0.2, "domain_weight_scale": 1.5,
        "domain_shift_scale": 3.0, "list_length": [10, 20], "label_noise": 0.05,
        "seed": 20250816,
    }},
    "models": {
        "baseline_d0": {"variant": "baseline", "train_domain": 0, **_DIMS},
        "baseline_d1": {"variant": "baseline", "train_domain": 1, **_DIMS},
        "multihead": {"variant": "multihead", **_DIMS},
        "adversarial": {"variant": "domain_adversarial", "classifier_hidden": [16],
                        "domain_loss_weight": 1.0, **_DIMS},
        "specialist": {"variant": "domain_specialist", "classifier_hidden": [16],
                       "domain_loss_weight": 0.5, **_DIMS},
    },
    "train": {"epochs": 2, "batch_size": 8, "learning_rate": 0.003, "eval_every": 10,
              "seed": 0},
    "interleave": {"pairs": [{"a": "baseline_d0", "b": "specialist", "domain": 0},
                             {"a": "multihead", "b": "adversarial"}],
                   "n_impressions": 500, "seed": 7},
}


def paths_config(config: dict, data_dir: Path) -> dict:
    """``config`` reading the split files in ``data_dir`` instead of its
    dataset section, with ``normalize`` on."""
    paths = {split: str(data_dir / f"{split}.jsonl") for split in ("train", "valid", "test")}
    return {**config, "dataset": {"paths": paths}, "normalize": True}


def outputs(checkout: Path, config: Path, out_dir: Path,
            commands=COMMANDS) -> dict[str, bytes]:
    """What ``commands`` show and write in ``checkout``: each command's
    exit code, stdout and stderr in run order (``out_dir`` masked as
    ``<out>``), then every file under ``out_dir`` in path order.  A command
    is its arguments, the first one the subcommand, split on spaces."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src"), *filter(None, [env.get("PYTHONPATH")])])
    shown: dict[str, bytes] = {}
    for command in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "mdrank.cli", *command.split(), "--config", str(config),
             "--out", str(out_dir)],
            cwd=checkout, env=env, capture_output=True,
        )
        shown[f"{command}: exit code"] = str(proc.returncode).encode()
        for name, raw in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            shown[f"{command}: {name}"] = raw.replace(str(out_dir).encode(), b"<out>")
    return shown | files(out_dir)


def files(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by its relative path, in path order."""
    paths = sorted(p for p in root.rglob("*") if p.is_file())
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in paths}


def first_difference(parent: dict[str, bytes], change: dict[str, bytes]) -> str | None:
    """The first entry, in the parent's order and then the change's, that
    one side lacks or whose bytes differ; None when there is none."""
    for key in [*parent, *(key for key in change if key not in parent)]:
        if key not in change:
            return f"{key}: only in the parent"
        if key not in parent:
            return f"{key}: only in the change"
        a, b = parent[key], change[key]
        if a != b:
            at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            return f"{key}: differs from byte {at} (parent {len(a)}, change {len(b)} bytes)"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--config", type=Path, default=None,
                        help="experiment config to run (default: DEFAULT_CONFIG)")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "src" / "mdrank" / "cli.py").is_file():
            parser.error(f"{side} checkout {checkout} has no src/mdrank/cli.py")
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        if args.config is not None:
            passes = [("", "", args.config.resolve(), COMMANDS)]
        else:  # the anchor cases overwrite the reports of the commands before them,
            # so the files are compared in between; the last pass reads the data
            # the parent's first pass generated
            default, second = tmp / "config.json", tmp / "paths_config.json"
            default.write_text(json.dumps(DEFAULT_CONFIG, indent=2), encoding="utf-8")
            second.write_text(json.dumps(paths_config(DEFAULT_CONFIG, tmp / "parent" / "data"),
                                         indent=2), encoding="utf-8")
            passes = [("", "", default, COMMANDS), ("then ", "", default, ANCHOR_CASES),
                      ("with dataset.paths and normalize: ", "-paths", second, COMMANDS[1:])]
        compared = []
        for label, suffix, config, commands in passes:
            shown = {side: outputs(checkout, config, tmp / f"{side}{suffix}", commands)
                     for side, checkout in checkouts.items()}
            difference = first_difference(shown["parent"], shown["change"])
            if difference is not None:
                print(f"same_outputs: {difference}")
                return 1
            n_files = len(shown["parent"]) - 3 * len(commands)
            compared.append(f"{label}identical exit codes, stdout and stderr of "
                            f"{', '.join(commands)}, and {n_files} files")
    print("same_outputs: " + "; ".join(compared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
