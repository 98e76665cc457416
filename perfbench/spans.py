"""Span tracing from outside the program, and the per-layer metrics built
from the spans.

The tracer patches a fixed set of public names at the points where one
mdrank module calls another (``training`` calling ``batch_loss``,
``backward``, ``Adam.step`` and ``evaluate``; ``losses`` and ``evaluation``
calling ``forward``; ``interleaving`` calling ``team_draft`` and
``simulate_session``; ``cli`` calling into ``data``, ``models`` and
``training``) plus the entry points the benchmark itself calls.  Nothing
under ``src/`` changes.  A hook whose name no longer exists is skipped, and
a metric whose spans never fired is reported as absent with value 0, so a
refactor that removes or renames one of these names degrades the trace
instead of crashing it.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from collections import Counter

# (module, attribute path, span name).  Only names that the planned
# batching and fused-op refactors keep are wrapped.
HOOKS = (
    ("mdrank.training", "run_protocol", "training.protocol"),
    ("mdrank.training", "train", "training.train"),
    ("mdrank.cli", "train", "training.train"),
    ("mdrank.training", "batch_loss", "losses.batch_loss"),
    ("mdrank.training", "backward", "autodiff.backward"),
    ("mdrank.training", "Adam.step", "training.adam"),
    ("mdrank.training", "evaluate", "evaluation.evaluate"),
    ("mdrank.cli", "evaluate", "evaluation.evaluate"),
    ("mdrank.evaluation", "evaluate", "evaluation.evaluate"),
    ("mdrank.evaluation", "ndcg_at_k", "evaluation.ndcg"),
    ("mdrank.losses", "forward", "models.forward_tape"),
    ("mdrank.evaluation", "forward", "models.forward"),
    ("mdrank.interleaving", "run_interleaving", "interleaving.run"),
    ("mdrank.cli", "run_interleaving", "interleaving.run"),
    ("mdrank.interleaving", "team_draft", "interleaving.team_draft"),
    ("mdrank.interleaving", "simulate_session", "interleaving.simulate"),
    ("mdrank.data", "generate_synthetic", "data.generate"),
    ("mdrank.cli", "generate_synthetic", "data.generate"),
    ("mdrank.cli", "write_dataset", "data.write"),
    ("mdrank.cli", "load_dataset", "data.load"),
    ("mdrank.cli", "save", "models.save"),
    ("mdrank.cli", "load", "models.load"),
    ("mdrank.cli", "main", "cli.main"),
)

VARIANTS = ("baseline", "multihead", "domain_adversarial", "domain_specialist")

# Node.op names the model path records at the commit that defined the
# benchmark.  Ops that later appear are printed with the trace, not gated.
OPS = (
    "add", "concat_cols", "gradient_reversal", "layer_norm", "log_softmax",
    "matmul", "mul_const", "reduce_sum", "relu", "reshape", "scale",
    "softmax", "transpose",
)
CLI_COMMANDS = ("generate", "train", "evaluate", "interleave")

# name -> unit, in the order the metrics are reported.
LAYER_METRICS = {
    "autodiff.backward_ms": "ms",
    **{f"autodiff.tape_nodes.{v}": "count" for v in VARIANTS},
    **{f"autodiff.nodes.{op}": "count" for op in OPS},
    "models.forward_tape_ms": "ms",
    "models.forward_ms": "ms",
    "models.save_ms": "ms",
    "models.load_ms": "ms",
    "losses.batch_loss_ms": "ms",
    "losses.self_ms": "ms",
    **{f"training.step_ms.{v}": "ms" for v in VARIANTS},
    "training.step_ms.p50": "ms",
    "training.step_ms.p99": "ms",
    "training.adam_ms": "ms",
    "training.validate_ms": "ms",
    "training.validate_share": "1",
    "training.self_ms": "ms",
    "training.steps": "count",
    "evaluation.evaluate_ms": "ms",
    "evaluation.self_ms": "ms",
    "evaluation.ndcg_us": "us",
    "interleaving.rank_ms": "ms",
    "interleaving.team_draft_us": "us",
    "interleaving.simulate_us": "us",
    "interleaving.impression_us": "us",
    "data.generate_ms": "ms",
    "data.write_ms": "ms",
    "data.load_ms": "ms",
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    "trace.overhead_pct": "%",
}


def _sessions_in(result) -> int:
    """Session count of what generate, load or write returned."""
    if isinstance(result, int):
        return result
    if hasattr(result, "train"):
        return len(result.train) + len(result.valid) + len(result.test)
    return len(result)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, end, parent, attrs):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory while installed.

    Spans form a tree through their parent index.  They are recorded as
    columns of numbers and strings, which the cyclic garbage collector does
    not scan, so a long trace does not slow collections in the program
    under test.  The backward hook also copies the op counts of the tape it
    is handed, once per variant, from the first step with the largest batch
    seen.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int | None] = []
        self.attrs: list[dict] = []
        self.missing_hooks: list[str] = []
        self.tape_ops: dict[str, tuple[int, Counter]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._variant: str | None = None
        self._batch = 0

    # -- recording ------------------------------------------------------

    def open(self, name: str, **attrs) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else None)
        self.attrs.append(attrs)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        index = self.open(name, **attrs)
        try:
            yield
        finally:
            self.close(index)

    def _attrs_before(self, name, args, kwargs):
        """Attributes read from a hooked call's arguments.  A signature the
        hook does not recognise leaves the span without attributes."""
        def arg(pos, key):
            return args[pos] if len(args) > pos else kwargs[key]

        try:
            if name == "losses.batch_loss":
                self._variant = arg(0, "model").config.variant.value
                self._batch = len(arg(1, "sessions"))
                return {"variant": self._variant, "batch": self._batch}
            if name == "training.train":
                return {"variant": arg(0, "model").config.variant.value}
            if name == "evaluation.evaluate":
                return {"sessions": len(arg(1, "sessions"))}
            if name == "interleaving.run":
                return {"sessions": len(arg(2, "sessions")),
                        "impressions": arg(4, "n_impressions")}
            if name == "cli.main":
                return {"command": arg(0, "argv")[0]}
            if name == "autodiff.backward":
                self._count_tape(arg(0, "tape"))
        except (AttributeError, IndexError, KeyError, TypeError):
            pass
        return {}

    def _count_tape(self, tape) -> None:
        nodes = getattr(tape, "nodes", None)
        if nodes is None or self._variant is None:
            return
        seen = self.tape_ops.get(self._variant)
        if seen is None or self._batch > seen[0]:
            self.tape_ops[self._variant] = (
                self._batch, Counter(getattr(n, "op", "?") for n in nodes)
            )

    def _wrap(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            attrs = tracer._attrs_before(name, args, kwargs)
            index = tracer.open(name, **attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if name in ("data.generate", "data.load", "data.write"):
                try:
                    tracer.attrs[index]["sessions"] = _sessions_in(result)
                except (AttributeError, TypeError):
                    pass
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        self.missing_hooks = []
        for module_name, path, name in HOOKS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.missing_hooks.append(f"{module_name}.{path}")
                continue
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ----------------------------------------------------

    def _children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, parent in enumerate(self.parents):
            if parent is not None:
                kids.setdefault(parent, []).append(i)
        return kids

    def _within(self, index: int, ancestor: int) -> bool:
        while index is not None:
            if index == ancestor:
                return True
            index = self.parents[index]
        return False

    def layer_metrics(self, overhead_pct: float) -> tuple[dict[str, float], list[str]]:
        """Per-layer values keyed as in LAYER_METRICS, plus absent names.

        Times are means over spans; "self" subtracts the time covered by
        direct child spans.  Per-session and per-1k-session figures divide
        by the session counts the calls carried.
        """
        spans = [Span(*row) for row in zip(self.names, self.starts, self.ends, self.parents, self.attrs)]
        kids = self._children()
        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s.name, []).append(i)

        def durs(name):
            return [spans[i].dur for i in by_name.get(name, ())]

        def self_time(i):
            return spans[i].dur - sum(spans[c].dur for c in kids.get(i, ()))

        def mean(values, factor=1.0):
            return factor * statistics.fmean(values) if values else None

        def per(name, attr, factor):
            idx = by_name.get(name, ())
            total = sum(spans[i].attrs.get(attr, 0) for i in idx)
            return factor * sum(spans[i].dur for i in idx) / total if total else None

        out: dict[str, float | None] = {}
        out["autodiff.backward_ms"] = mean(durs("autodiff.backward"), 1e3)
        for v in VARIANTS:
            seen = self.tape_ops.get(v)
            out[f"autodiff.tape_nodes.{v}"] = float(sum(seen[1].values())) if seen else None
        if self.tape_ops:
            counters = [c for _, c in self.tape_ops.values()]
            for op in OPS:
                out[f"autodiff.nodes.{op}"] = statistics.fmean(c.get(op, 0) for c in counters)
        else:
            out.update({f"autodiff.nodes.{op}": None for op in OPS})

        out["models.forward_tape_ms"] = mean(durs("models.forward_tape"), 1e3)
        out["models.forward_ms"] = mean(durs("models.forward"), 1e3)
        out["models.save_ms"] = mean(durs("models.save"), 1e3)
        out["models.load_ms"] = mean(durs("models.load"), 1e3)

        out["losses.batch_loss_ms"] = mean(durs("losses.batch_loss"), 1e3)
        out["losses.self_ms"] = mean([self_time(i) for i in by_name.get("losses.batch_loss", ())], 1e3)

        # A step runs from batch_loss entry to the end of the Adam update
        # that follows it.
        steps: dict[str, list[float]] = {v: [] for v in VARIANTS}
        last_loss = None
        for s in spans:
            if s.name == "losses.batch_loss":
                last_loss = s
            elif s.name == "training.adam" and last_loss is not None:
                steps.setdefault(last_loss.attrs.get("variant", "?"), []).append(s.end - last_loss.start)
                last_loss = None
        for v in VARIANTS:
            out[f"training.step_ms.{v}"] = mean(steps[v], 1e3)
        pooled = sorted(x for values in steps.values() for x in values)
        out["training.step_ms.p50"] = 1e3 * statistics.median(pooled) if pooled else None
        out["training.step_ms.p99"] = (
            1e3 * statistics.quantiles(pooled, n=100)[98] if len(pooled) >= 2 else None
        )
        out["training.adam_ms"] = mean(durs("training.adam"), 1e3)
        trains = by_name.get("training.train", ())
        validations = [
            i for i in by_name.get("evaluation.evaluate", ())
            if spans[i].parent is not None and spans[spans[i].parent].name == "training.train"
        ]
        out["training.validate_ms"] = mean([spans[i].dur for i in validations], 1e3)
        train_time = sum(spans[i].dur for i in trains)
        out["training.validate_share"] = (
            sum(spans[i].dur for i in validations) / train_time if validations and train_time else None
        )
        out["training.self_ms"] = mean([self_time(i) for i in trains], 1e3)
        out["training.steps"] = self._steps_per_pass(by_name)

        evals = by_name.get("evaluation.evaluate", ())
        sessions = sum(spans[i].attrs.get("sessions", 0) for i in evals)
        out["evaluation.evaluate_ms"] = per("evaluation.evaluate", "sessions", 1e3)
        out["evaluation.self_ms"] = (
            1e3 * sum(self_time(i) for i in evals) / sessions if sessions else None
        )
        out["evaluation.ndcg_us"] = mean(durs("evaluation.ndcg"), 1e6)

        rank, draw, n_sessions, n_impressions = 0.0, 0.0, 0, 0
        for i in by_name.get("interleaving.run", ()):
            run = spans[i]
            first = next((spans[c] for c in kids.get(i, ()) if spans[c].name == "interleaving.team_draft"), None)
            split = first.start if first is not None else run.end
            rank += split - run.start
            draw += run.end - split
            n_sessions += run.attrs.get("sessions", 0)
            n_impressions += run.attrs.get("impressions", 0)
        out["interleaving.rank_ms"] = 1e3 * rank / n_sessions if n_sessions else None
        out["interleaving.impression_us"] = 1e6 * draw / n_impressions if n_impressions else None
        out["interleaving.team_draft_us"] = mean(durs("interleaving.team_draft"), 1e6)
        out["interleaving.simulate_us"] = mean(durs("interleaving.simulate"), 1e6)

        for kind in ("generate", "write", "load"):
            out[f"data.{kind}_ms"] = per(f"data.{kind}", "sessions", 1e6)
        for command in CLI_COMMANDS:
            out[f"cli.{command}_s"] = mean(
                [spans[i].dur for i in by_name.get("cli.main", ())
                 if spans[i].attrs.get("command") == command]
            )
        out["trace.overhead_pct"] = overhead_pct

        absent = [name for name in LAYER_METRICS if out.get(name) is None]
        return {name: float(out.get(name) or 0.0) for name in LAYER_METRICS}, absent

    def _steps_per_pass(self, by_name) -> float | None:
        """Train steps inside the first traced job, or inside the sweep when
        the job trains nothing; a count that repeats exactly."""
        losses = by_name.get("losses.batch_loss", ())
        for marker in ("bench.job", "bench.sweep"):
            first = next(iter(by_name.get(marker, ())), None)
            if first is None:
                continue
            count = sum(1 for i in losses if self._within(i, first))
            if count:
                return float(count)
        return None

    def extra_ops(self) -> dict[str, float]:
        """Per-step counts of tape ops outside OPS (new fused ops, say)."""
        counters = [c for _, c in self.tape_ops.values()]
        names = {op for c in counters for op in c} - set(OPS)
        return {op: statistics.fmean(c.get(op, 0) for c in counters) for op in sorted(names)}

    def dump(self) -> dict:
        """Spans as [name, start_us, duration_us, parent] rows."""
        t0 = self.starts[0] if self.starts else 0.0
        return {
            "missing_hooks": self.missing_hooks,
            "spans": [
                [name, round(1e6 * (start - t0), 1), round(1e6 * (end - start), 1), parent]
                for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents)
            ],
        }
