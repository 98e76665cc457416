"""Training loop, checkpoint selection, and the multi-seed protocol."""

import logging
import platform
import subprocess
import sys
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdrank import training
from mdrank.autodiff import Tape, backward
from mdrank.data import SyntheticSpec, generate_synthetic
from mdrank.evaluation import evaluate
from mdrank.losses import batch_loss
from mdrank.models import ConfigError, build, load, save, stack
from mdrank.training import (
    Adam,
    DataSplits,
    EvalReport,
    TrainConfig,
    TrainingDiverged,
    VariantSpec,
    gain_pct,
    run_protocol,
    train,
)
from tests.conftest import make_session, source_env, tiny_config


def _splits(seed=5, train=40, valid=12, test=16, feature_dim=5):
    spec = SyntheticSpec(
        n_domains=2,
        sessions_per_domain={"train": train, "valid": valid, "test": test},
        feature_dim=feature_dim,
        shared_weight_scale=0.5,
        domain_weight_scale=1.0,
        list_length=(3, 6),
        label_noise=0.0,
        seed=seed,
    )
    ds = generate_synthetic(spec)
    return DataSplits(ds.train, ds.valid, ds.test)


def test_zero_learning_rate_keeps_initial_parameters():
    splits = _splits()
    model = build(tiny_config(), seed=3)
    initial = {n: t.values.copy() for n, t in model.parameters.items()}
    cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=0.0, eval_every=3, k=4, seed=3)
    best, history = train(model, list(splits.train), list(splits.valid), cfg)
    for name, vals in initial.items():
        assert np.array_equal(best.parameters[name].values, vals), name
    assert history


def test_training_is_bitwise_reproducible():
    splits = _splits()
    cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=0.01, eval_every=5, k=4, seed=11)

    def run():
        model = build(tiny_config("domain_specialist"), seed=11)
        best, history = train(model, list(splits.train), list(splits.valid), cfg)
        return best, history

    best1, hist1 = run()
    best2, hist2 = run()
    for name in best1.parameters:
        assert np.array_equal(best1.parameters[name].values, best2.parameters[name].values)
    assert [(h.step, h.total_loss, h.valid_ndcg) for h in hist1] == [
        (h.step, h.total_loss, h.valid_ndcg) for h in hist2
    ]


def test_training_improves_over_untrained_model():
    splits = _splits(train=120, valid=40, test=40)
    model = build(tiny_config(), seed=7)
    before = evaluate(model, list(splits.valid), 8).overall
    cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.01, eval_every=10, k=8, seed=7)
    best, _ = train(model, list(splits.train), list(splits.valid), cfg)
    after = evaluate(best, list(splits.valid), 8).overall
    assert after > before


def test_history_records_steps_and_validation_points():
    splits = _splits()
    model = build(tiny_config(), seed=1)
    cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=0.01, eval_every=4, k=4, seed=1)
    _, history = train(model, list(splits.train), list(splits.valid), cfg)
    assert [h.step for h in history] == list(range(1, len(history) + 1))
    evals = [h for h in history if h.valid_ndcg is not None]
    assert evals
    assert history[-1].valid_ndcg is not None  # final checkpoint always scored


def test_divergence_aborts_with_diagnostic():
    splits = _splits()
    model = build(tiny_config(), seed=2)
    model.parameters["trunk.0.w"].values[0, 0] = np.nan
    cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=0.01, eval_every=5, k=4, seed=2)
    with pytest.raises(TrainingDiverged, match="non-finite"):
        train(model, list(splits.train), list(splits.valid), cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_validation_scores_abort_as_divergence():
    splits = _splits()
    model = build(tiny_config(), seed=2)
    # one step from finite weights; its update overflows the validation scores
    cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=1e200, eval_every=1, k=4, seed=2)
    with pytest.raises(TrainingDiverged, match="validation"):
        train(model, list(splits.train)[:8], list(splits.valid), cfg)


def test_empty_train_split_rejected():
    splits = _splits()
    model = build(tiny_config(), seed=2)
    with pytest.raises(ValueError):
        train(model, [], list(splits.valid), TrainConfig())


@pytest.mark.parametrize("valid", ["none", "zero labels"])
def test_training_without_a_validation_label_is_rejected_before_the_first_step(valid):
    """Validation would select no checkpoint, and ``train`` would return the
    initial parameters; it raises instead, before any step."""
    splits = _splits()
    sessions = [] if valid == "none" else [replace(s, grades=np.zeros_like(s.grades))
                                          for s in splits.valid]
    model = build(tiny_config(), seed=2)
    initial = model.param_values()
    with pytest.raises(ValueError, match="no validation session has a positive label"):
        train(model, list(splits.train), sessions, TrainConfig(epochs=1, batch_size=4, k=4))
    assert model.param_values().tobytes() == initial.tobytes()


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(k=0)
    with pytest.raises(ValueError):
        TrainConfig(eval_every=0)


# ---------------------------------------------------------------------------
# parameter arena: one vector each for values, gradients and Adam moments


VARIANTS = ("baseline", "multihead", "domain_adversarial", "domain_specialist")


def _backward(model, batch):
    model.zero_grad()
    with Tape() as tape:
        _, loss = batch_loss(model, batch)
        backward(tape, loss)


class _TensorAdam:
    """Adam over each parameter tensor on its own, with dict moments: the
    reference the flat optimizer must match bit for bit."""

    def __init__(self, model, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.model, self.lr, self.beta1, self.beta2, self.eps, self.t = (
            model, lr, beta1, beta2, eps, 0)
        self.m = {n: np.zeros_like(p.values) for n, p in model.parameters.items()}
        self.v = {n: np.zeros_like(p.values) for n, p in model.parameters.items()}

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for name, p in self.model.parameters.items():
            if p.grad is None:
                continue
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad * p.grad
            p.values -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def _mixed_batches(rng):
    """Five batches over two domains; the third and fifth lack one."""
    domains = [(0, 1, 0, 1), (1, 0, 1, 1), (0, 0, 0), (1, 0), (1, 1)]
    return [[make_session(rng, int(rng.integers(1, 7)), 5, domain=d, query_id=f"q{i}")
             for i, d in enumerate(batch)] for batch in domains]


@pytest.mark.parametrize("variant", VARIANTS)
def test_flat_adam_matches_per_tensor_adam_bitwise(rng, variant):
    flat, ref = build(tiny_config(variant), seed=4), build(tiny_config(variant), seed=4)
    flat_opt, ref_opt = Adam(flat, 0.05), _TensorAdam(ref, 0.05)
    for batch in _mixed_batches(rng):
        for model, opt in ((flat, flat_opt), (ref, ref_opt)):
            _backward(model, batch)
            opt.step()
        for (name, p), sl in zip(flat.parameters.items(), flat.slices):
            assert p.values.tobytes() == ref.parameters[name].values.tobytes(), name
            assert flat_opt.m[sl].tobytes() == ref_opt.m[name].tobytes(), name
            assert flat_opt.v[sl].tobytes() == ref_opt.v[name].tobytes(), name


def test_absent_domain_head_keeps_values_and_moments(rng):
    model = build(tiny_config("multihead", n_domains=3), seed=5)
    opt = Adam(model, 0.05)
    every = [make_session(rng, 4, 5, domain=d, query_id=f"a{d}") for d in (0, 1, 2)]
    _backward(model, every)
    opt.step()  # moments of every head are now non-zero
    head = [sl for name, sl in zip(model.parameters, model.slices) if name.startswith("head.1.")]
    before = [(model.values[sl].tobytes(), opt.m[sl].tobytes(), opt.v[sl].tobytes())
              for sl in head]
    _backward(model, [make_session(rng, 3, 5, domain=d, query_id=f"b{d}") for d in (2, 0)])
    assert all(model.parameters[n].grad is None for n in model.parameters
               if n.startswith("head.1."))
    opt.step()
    after = [(model.values[sl].tobytes(), opt.m[sl].tobytes(), opt.v[sl].tobytes())
             for sl in head]
    assert after == before
    assert all(opt.m[sl].any() for sl in head)


@pytest.mark.parametrize("variant", VARIANTS)
def test_per_tensor_zero_grad_then_backward_gives_a_fresh_gradient(rng, variant):
    first, second = _mixed_batches(rng)[:2]
    used, fresh = build(tiny_config(variant), seed=8), build(tiny_config(variant), seed=8)
    _backward(used, first)  # leaves stale gradients in the arena
    for p in used.parameters.values():
        p.zero_grad()
    with Tape() as tape:
        _, loss = batch_loss(used, second)
        backward(tape, loss)
    _backward(fresh, second)
    for name, p in used.parameters.items():
        want = fresh.parameters[name].grad
        assert (p.grad is None) == (want is None), name
        if want is not None:
            assert p.grad.tobytes() == want.tobytes(), name
            assert p.grad is p.grad_buffer


def test_copies_and_loads_own_their_arenas(rng):
    original = build(tiny_config("domain_specialist"), seed=9)
    snapshot = original.param_values()
    for other in (original.copy(), load(save(original))):
        assert other.values.tobytes() == snapshot.tobytes()
        assert not np.shares_memory(other.values, original.values)
        assert not np.shares_memory(other.grads, original.grads)
        opt = Adam(other, 0.1)
        for batch in _mixed_batches(rng)[:2]:
            _backward(other, batch)
            opt.step()
        assert other.values.tobytes() != snapshot.tobytes()
        assert original.values.tobytes() == snapshot.tobytes()
        assert all(p.grad is None for p in original.parameters.values())
    views = {name: p.values for name, p in original.parameters.items()}
    original.load_values(np.zeros_like(snapshot))
    original.load_values(snapshot)
    for (name, p), sl in zip(original.parameters.items(), original.slices):
        assert p.values is views[name]
        assert np.shares_memory(p.values, original.values[sl])
        assert np.shares_memory(p.grad_buffer, original.grads[sl])
    assert original.values.tobytes() == snapshot.tobytes()


# ---------------------------------------------------------------------------
# stacked training: all seeds of a variant step in lockstep


def _history_bits(history):
    return [repr(astuple(record)) for record in history]


@settings(max_examples=25, deadline=None)
@given(variant=st.sampled_from(VARIANTS), n_members=st.integers(1, 4),
       shape=st.lists(st.tuples(st.integers(1, 6), st.integers(0, 2), st.booleans()),
                      min_size=2, max_size=11),
       batch_size=st.integers(1, 4), epochs=st.integers(1, 2), eval_every=st.integers(1, 7),
       seed=st.integers(0, 1000))
def test_stack_trains_every_member_exactly_as_its_seed_alone(
    variant, n_members, shape, batch_size, epochs, eval_every, seed
):
    """Ragged last batches, batches missing a domain (three domains) or
    every positive label, and validation mid-epoch or only at the end: each
    member's checkpoint bytes, parameters and history equal its seed's run
    alone, bit for bit."""
    rng = np.random.default_rng(seed)
    sessions = [make_session(rng, n, 5, domain=d, query_id=f"t{i}", ensure_positive=positive)
                for i, (n, d, positive) in enumerate(shape)]
    valid = [make_session(rng, int(rng.integers(1, 6)), 5, domain=i % 3, query_id=f"v{i}")
             for i in range(4)]
    config = tiny_config(variant, n_domains=3)
    seeds = [seed + 7 * i for i in range(n_members)]
    cfg = TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=0.05,
                      eval_every=eval_every, k=4)
    best, histories = train(stack([build(config, s) for s in seeds]), sessions, valid, cfg)
    if n_members == 1:
        histories = [histories]
    assert best.seeds == tuple(seeds)
    for m, s in enumerate(seeds):
        alone, history = train(build(config, s), sessions, valid, cfg)
        member = best.member(m)
        assert save(member) == save(alone)
        assert member.param_values().tobytes() == alone.param_values().tobytes()
        assert _history_bits(histories[m]) == _history_bits(history)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_names_the_member_and_spares_the_others():
    splits = _splits()
    models = [build(tiny_config(), seed=s) for s in (4, 5, 6)]
    models[2].parameters["trunk.0.w"].values[0, 0] = np.nan
    stacked = stack(models)
    cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=0.01, eval_every=5, k=4)
    with pytest.raises(TrainingDiverged, match=r"^seed 6, step 0: non-finite loss"):
        train(stacked, list(splits.train), list(splits.valid), cfg)
    assert np.isfinite(stacked.values[:2]).all()


# ---------------------------------------------------------------------------
# multi-seed protocol


def _protocol_variants():
    dims = dict(feature_dim=5, trunk_hidden=(6,), token_dim=4, final_hidden=(4,))
    return {
        "baseline_d0": VariantSpec(tiny_config("baseline", **dims), train_domain=0),
        "baseline_d1": VariantSpec(tiny_config("baseline", **dims), train_domain=1),
        "multihead": VariantSpec(tiny_config("multihead", **dims)),
    }


def _tiny_protocol(workers=None, seeds=(21, 22)) -> EvalReport:
    splits = _splits(train=24, valid=10, test=12)
    cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=0.01, eval_every=6, k=4, seed=0)
    return run_protocol(_protocol_variants(), splits, seeds=seeds, train_config=cfg, k=4,
                        workers=workers)


def test_protocol_bookkeeping():
    report = _tiny_protocol()
    assert len(report.runs) == 3 * 2  # variants x seeds
    assert report.seeds == (21, 22)
    # restricted baselines only ever see their own domain
    for run in report.runs:
        if run.variant == "baseline_d0":
            assert set(run.per_domain) == {0}
        elif run.variant == "baseline_d1":
            assert set(run.per_domain) == {1}
        else:
            assert set(run.per_domain) == {0, 1}
    assert report.baseline_of_domain == {0: "baseline_d0", 1: "baseline_d1"}


def test_protocol_baseline_gain_is_zero():
    report = _tiny_protocol()
    for st in report.stats:
        if st.variant.startswith("baseline_"):
            assert st.gain_pct == 0.0


def test_protocol_quartiles_are_ordered():
    report = _tiny_protocol()
    for st in report.stats:
        assert st.minimum <= st.q1 <= st.median <= st.q3 <= st.maximum
        assert len(st.values) == 2
        assert all(0.0 <= v <= 1.0 for v in st.values)


def test_protocol_reports_are_deterministic():
    a = _tiny_protocol()
    b = _tiny_protocol()
    assert a.table_text() == b.table_text()
    assert a.csv_rows() == b.csv_rows()
    assert a.boxplot_rows() == b.boxplot_rows()


def test_protocol_parallel_workers_match_serial():
    serial = _tiny_protocol(workers=1)
    parallel = _tiny_protocol(workers=2)
    assert serial.table_text() == parallel.table_text()
    assert serial.csv_rows() == parallel.csv_rows()


def test_protocol_pool_spawns_its_workers(monkeypatch):
    """The workers start from a fresh interpreter: a forked child may
    inherit a lock that a BLAS thread of the parent held."""
    import concurrent.futures

    contexts = []

    class RecordingPool:
        def __init__(self, max_workers=None, mp_context=None):
            contexts.append(mp_context)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    report = _tiny_protocol(workers=2)
    assert len(report.runs) == 3 * 2
    assert [getattr(c, "get_start_method", lambda: None)() for c in contexts] == ["spawn"]


@pytest.mark.parametrize("seed", [21, 22])
def test_one_seed_protocol_reports_that_seed_of_a_stacked_run(seed):
    """A seed trained alone reports bit for bit the test NDCG it reports as
    one member of a stack."""
    stacked = {(run.variant, run.seed): run for run in _tiny_protocol().runs}
    alone = _tiny_protocol(seeds=(seed,))
    assert alone.seeds == (seed,)
    assert [run.variant for run in alone.runs] == list(_protocol_variants())
    for run in alone.runs:
        assert run.seed == seed
        assert run.per_domain == stacked[run.variant, seed].per_domain
        assert run.overall == stacked[run.variant, seed].overall


def test_gain_needs_a_nonzero_base():
    assert gain_pct(0.6, 0.5) == pytest.approx(20.0, abs=1e-12)
    assert gain_pct(0.5, 0.0) is None
    assert gain_pct(0.5, None) is None


def test_protocol_rejects_duplicate_seeds():
    splits = _splits(train=10, valid=4, test=4)
    cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=0.01, eval_every=5, k=4)
    with pytest.raises(ValueError):
        run_protocol(_protocol_variants(), splits, seeds=(7, 7), train_config=cfg, k=4)


@pytest.mark.parametrize("split, message", [("train", "train: no training sessions"),
                                            ("valid", "train: no validation session has a "
                                                      "positive label")])
def test_protocol_names_the_variant_that_train_rejects(split, message):
    """A variant whose domain has no training session, or no validation
    session, raises train's ValueError with the variant's name on it."""
    splits = _splits(train=10, valid=4, test=4)
    kept = {name: [s for s in getattr(splits, name) if name != split or s.domain != 1]
            for name in ("train", "valid", "test")}
    cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=0.01, eval_every=5, k=4)
    with pytest.raises(ValueError, match=f"^baseline_d1: {message}$") as caught:
        run_protocol(_protocol_variants(), DataSplits(**kept), seeds=(7, 8), train_config=cfg,
                     k=4)
    assert type(caught.value) is ValueError


def test_report_renderings_have_expected_columns():
    report = _tiny_protocol()
    table = report.table_text()
    assert "median" in table and "gain" in table
    csv = report.csv_rows()
    assert csv[0] == "variant,domain,seed,ndcg,gain_pct"
    assert len(csv) == 1 + sum(len(r.per_domain) for r in report.runs)
    box = report.boxplot_rows()
    assert box[0] == "variant,domain,min,q1,median,q3,max"
    assert len(box) == 1 + len(report.stats)


@pytest.mark.parametrize("workers", [0, -2])
def test_protocol_rejects_fewer_than_one_worker(workers):
    splits = _splits(train=10, valid=4, test=4)
    cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=0.01, eval_every=5, k=4)
    with pytest.raises(ConfigError, match="at least 1"):
        run_protocol(_protocol_variants(), splits, seeds=(1, 2), train_config=cfg, k=4,
                     workers=workers)


def test_protocol_logs_one_progress_record_per_variant(caplog):
    quiet = _tiny_protocol()
    with caplog.at_level(logging.INFO, logger="mdrank.training"):
        report = _tiny_protocol()
    records = [r for r in caplog.records if r.name == "mdrank.training"]
    assert [r.variant for r in records] == list(_protocol_variants())
    for record in records:
        assert record.levelno == logging.INFO
        assert record.seeds == (21, 22)
        assert record.steps == (3 if record.variant.startswith("baseline") else 6)
        assert len(record.best_valid_ndcg) == 2
        assert all(0.0 <= v <= 1.0 for v in record.best_valid_ndcg)
        assert record.seconds > 0.0
        assert record.variant in record.getMessage()
    assert report.csv_rows() == quiet.csv_rows()
    assert report.table_text() == quiet.table_text()


_SAMPLES = st.lists(st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 0.5, 1.0])),
                    min_size=1, max_size=12)


@settings(max_examples=500, deadline=None)
@given(_SAMPLES)
@example([0.1, 0.9])  # numpy's lerp from the upper end: 0.9 - 0.8 * 0.25, not 0.1 + 0.8 * 0.75
def test_median_and_quartiles_equal_numpys(values):
    """The protocol's statistics over sorted seed values give the values of
    np.median and np.percentile, which it does not call: they load
    numpy.ma."""
    ordered = sorted(values)
    assert training._median(ordered) == np.median(values)
    assert training._quantile(ordered, 0.25) == np.percentile(values, 25)
    assert training._quantile(ordered, 0.75) == np.percentile(values, 75)


STEADY_RUN = """
import resource
from mdrank.data import SyntheticSpec, generate_synthetic
from mdrank.interleaving import UserModel, run_interleaving
from mdrank.models import ModelConfig, build, stack
from mdrank.training import TrainConfig, train

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

def touch_headroom():
    # 4 MiB in blocks below any mmap threshold, touched and freed: a heap
    # that keeps freed memory keeps them as touched pages above its
    # high-water mark, and glibc's default policy, whose trim threshold
    # stays below 4 MiB here, returns them with the top of the heap
    blocks = [b"\\1" * (32 << 10) for _ in range(128)]
    del blocks

def spec(n, lengths):
    return SyntheticSpec(n_domains=2, sessions_per_domain={"train": n, "valid": n // 2, "test": 1},
                         feature_dim=8, domain_shift_scale=3.0, list_length=lengths, seed=3)

short, long = generate_synthetic(spec(64, (10, 20))), generate_synthetic(spec(8, (100, 130)))
config = ModelConfig(variant="domain_specialist", feature_dim=8, trunk_hidden=(24,),
                     token_dim=8, final_hidden=(16,), classifier_hidden=(16,))
model = stack([build(config, seed) for seed in (1, 2)])
settings = TrainConfig(epochs=1, batch_size=8, eval_every=10**6)
for _ in range(2):
    train(model, short.train, short.valid, settings)
touch_headroom()
before = faults()
train(model, short.train, short.valid, settings)
epoch = faults() - before
pair = (model.member(0), model.member(1), long.train, UserModel.position_decay(16), 1000)
for _ in range(2):
    run_interleaving(*pair)
touch_headroom()
between = faults()
for _ in range(5):
    run_interleaving(*pair)
print(epoch, faults() - between)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="glibc's malloc policy")
def test_steady_work_reuses_freed_heap():
    """Once two epochs have run, the next one's 16 stacked steps and its
    validation over 64 sessions reuse the heap they freed; so do five
    interleaving runs of 1,000 impressions over lists of 100-130 items
    after two others.  Each takes fewer page faults than it has steps or
    runs, where faulting freed pages in again costs hundreds or thousands.

    Which run first reaches a few dozen pages above the heap's high-water
    mark depends on the heap's layout, which moves with the environment
    and the hash seed.  Such a first touch is not a freed page faulted in
    again, so 4 MiB of touched, freed heap lie above the mark before each
    measured stretch.  Without the heap policy glibc returns them with the
    top of the heap, and the epoch takes about 460 faults and the
    interleaving runs 6-40; with the mmap threshold set alone, which fixes
    the trim threshold at glibc's 128 KiB, about 440 and 3,500."""
    proc = subprocess.run([sys.executable, "-c", STEADY_RUN], capture_output=True,
                          text=True, timeout=300, env=source_env())
    assert proc.returncode == 0, proc.stderr
    epoch, interleaving = map(int, proc.stdout.split()[-2:])
    assert epoch < 16 and interleaving < 5, (epoch, interleaving)
