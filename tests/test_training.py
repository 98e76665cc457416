"""Training loop, checkpoint selection, and the multi-seed protocol."""

import numpy as np
import pytest

from mdrank.data import SyntheticSpec, generate_synthetic
from mdrank.evaluation import evaluate
from mdrank.models import build
from mdrank.training import (
    DataSplits,
    EvalReport,
    TrainConfig,
    TrainingDiverged,
    VariantSpec,
    run_protocol,
    train,
)
from tests.conftest import tiny_config


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
# multi-seed protocol


def _protocol_variants():
    dims = dict(feature_dim=5, trunk_hidden=(6,), token_dim=4, final_hidden=(4,))
    return {
        "baseline_d0": VariantSpec(tiny_config("baseline", **dims), train_domain=0),
        "baseline_d1": VariantSpec(tiny_config("baseline", **dims), train_domain=1),
        "multihead": VariantSpec(tiny_config("multihead", **dims)),
    }


def _tiny_protocol(workers=None) -> EvalReport:
    splits = _splits(train=24, valid=10, test=12)
    cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=0.01, eval_every=6, k=4, seed=0)
    return run_protocol(_protocol_variants(), splits, seeds=(21, 22), train_config=cfg, k=4,
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


def test_protocol_rejects_duplicate_seeds():
    splits = _splits(train=10, valid=4, test=4)
    cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=0.01, eval_every=5, k=4)
    with pytest.raises(ValueError):
        run_protocol(_protocol_variants(), splits, seeds=(7, 7), train_config=cfg, k=4)


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
