"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single "ACCEPTANCE <n> PASS" line on success (visible
with pytest -s); under pytest -v the per-test PASSED/FAILED line serves the
same purpose.  Criterion 6 trains twenty-five models and dominates the
suite's runtime (a few minutes on one core); everything else is seconds.
"""

import math
import time

import numpy as np
import pytest

from mdrank.autodiff import (
    Tape,
    Tensor,
    add,
    attention,
    backward,
    concat_cols,
    cross_entropy,
    grad_check,
    gradient_reversal,
    layer_norm,
    linear,
    put_rows,
    segment_cross_entropy,
    take_rows,
)
from mdrank.data import (
    QuerySession,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    split_by_time,
    write_dataset,
)
from mdrank.evaluation import ndcg_at_k
from mdrank.interleaving import UserModel, run_interleaving, sign_test_p
from mdrank.losses import batch_loss, domain_loss, listwise_loss
from mdrank.models import ModelConfig, build, count_parameters, forward, stack
from mdrank.training import (
    DataSplits,
    TrainConfig,
    VariantSpec,
    run_protocol,
)
from tests.conftest import make_session, mul_const, reduce_sum, relu, tiny_config

FD_TOL = 1e-4
EXACT = 1e-12


# ---------------------------------------------------------------------------
# 1. gradient correctness


def _away_from_kink(rng, *shape):
    vals = rng.normal(size=shape)
    vals += np.where(vals >= 0, 0.4, -0.4)
    return Tensor(vals, requires_grad=True)


def _primitive_instances(rng):
    """One (fn, params) pair per entry; fn rebuilds a scalar loss."""
    out = []
    for _ in range(2):
        x = Tensor(rng.normal(size=(3, 5)), True)
        y = Tensor(rng.normal(size=(3, 5)), True)
        wa = rng.normal(size=(3, 5))
        out.append((lambda x=x, y=y, wa=wa: reduce_sum(mul_const(add(x, y), wa)), [x, y]))

        u = Tensor(rng.normal(size=(4, 3)), True)
        target = rng.uniform(size=(4, 3))
        out.append((lambda u=u, target=target: cross_entropy(u, target, axis=1), [u]))

        r = _away_from_kink(rng, 4, 4)
        out.append((lambda r=r: reduce_sum(relu(r)), [r]))

        s = Tensor(rng.normal(size=(7, 1)), True)
        st = rng.uniform(size=(7, 1))
        out.append((lambda s=s, st=st: segment_cross_entropy(s, st, [3, 1, 3]), [s]))

        ln = Tensor(rng.normal(size=(4, 6)), True)
        gain = Tensor(1.0 + 0.1 * rng.normal(size=(6,)), True)
        shift = Tensor(rng.normal(size=(6,)), True)
        w2 = rng.normal(size=(4, 6))
        out.append((
            lambda ln=ln, gain=gain, shift=shift, w2=w2:
                reduce_sum(mul_const(layer_norm(ln, gain, shift), w2)),
            [ln, gain, shift],
        ))

        lx = Tensor(rng.normal(size=(5, 3)), True)
        lw = Tensor(rng.normal(size=(3, 2)), True)
        lb = Tensor(rng.normal(size=(2,)), True)
        out.append((lambda lx=lx, lw=lw, lb=lb: reduce_sum(linear(lx, lw, lb)), [lx, lw, lb]))

        for lengths, heads in (([2, 3], 2), ([3, 3], 1)):
            tok = Tensor(rng.normal(size=(sum(lengths), 4)), True)
            wq = Tensor(rng.normal(size=(4, 4)) * 0.5, True)
            wk = Tensor(rng.normal(size=(4, 4)) * 0.5, True)
            wv = Tensor(rng.normal(size=(4, 4)) * 0.5, True)
            wt = rng.normal(size=(sum(lengths), 4))
            out.append((
                lambda tok=tok, wq=wq, wk=wk, wv=wv, wt=wt, lengths=lengths, heads=heads:
                    reduce_sum(mul_const(attention(tok, wq, wk, wv, lengths, heads), wt)),
                [tok, wq, wk, wv],
            ))

        # member blocks: two parameter sets, each applied to its own rows
        mx = Tensor(rng.normal(size=(5, 4)), True)
        mw, mb = Tensor(rng.normal(size=(2, 4, 3)), True), Tensor(rng.normal(size=(2, 3)), True)
        wm = rng.normal(size=(5, 3))
        out.append((
            lambda mx=mx, mw=mw, mb=mb, wm=wm:
                reduce_sum(mul_const(linear(mx, mw, mb, members=[2, 3]), wm)),
            [mx, mw, mb],
        ))
        mg = Tensor(1.0 + 0.1 * rng.normal(size=(2, 4)), True)
        ms = Tensor(rng.normal(size=(2, 4)), True)
        wn = rng.normal(size=(5, 4))
        out.append((
            lambda mx=mx, mg=mg, ms=ms, wn=wn:
                reduce_sum(mul_const(layer_norm(mx, mg, ms, members=[2, 3]), wn)),
            [mx, mg, ms],
        ))
        mq, mk, mv = (Tensor(rng.normal(size=(2, 4, 4)) * 0.5, True) for _ in range(3))
        out.append((
            lambda mx=mx, mq=mq, mk=mk, mv=mv, wn=wn: reduce_sum(mul_const(
                attention(mx, mq, mk, mv, [2, 1, 2], heads=2, members=[2, 3]), wn)),
            [mx, mq, mk, mv],
        ))

        r1 = Tensor(rng.normal(size=(5, 3)), True)
        wr = rng.normal(size=(5, 3))
        out.append((
            lambda r1=r1, wr=wr: reduce_sum(mul_const(put_rows(
                [take_rows(r1, [4, 0]), take_rows(r1, [1, 3, 2])], [[1, 3], [0, 2, 4]], 5), wr)),
            [r1],
        ))

        c1 = Tensor(rng.normal(size=(3, 2)), True)
        c2 = Tensor(rng.normal(size=(3, 3)), True)
        wc = rng.normal(size=(3, 5))
        out.append((
            lambda c1=c1, c2=c2, wc=wc: reduce_sum(mul_const(concat_cols(c1, c2), wc)),
            [c1, c2],
        ))
    return out


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    instances = _primitive_instances(rng)

    # one session, then ragged two-domain batches through the batched path
    for seed, variant, lengths in ((3, "baseline", (5,)), (4, "multihead", (5, 3)),
                                   (5, "domain_specialist", (2, 4))):
        model = build(tiny_config(variant), seed)
        batch = [make_session(rng, n_items=n, feature_dim=model.config.feature_dim, domain=i)
                 for i, n in enumerate(lengths)]
        instances.append((
            lambda model=model, batch=batch: batch_loss(model, batch)[1],
            list(model.parameters.values()),
        ))

    # a stack of two multihead models, each on its own two-domain batch
    pair = stack([build(tiny_config("multihead"), seed) for seed in (6, 7)])
    batches = [make_session(rng, n_items=n, feature_dim=5, domain=d)
               for n, d in ((3, 0), (2, 1), (4, 1))]
    instances.append((
        lambda: reduce_sum(batch_loss(pair, batches, members=[2, 1])[1]),
        list(pair.parameters.values()),
    ))

    assert len(instances) >= 20
    worst = 0.0
    for fn, params in instances:
        worst = max(worst, grad_check(fn, params, step=1e-5))
    elapsed = time.monotonic() - start
    assert worst < FD_TOL
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 PASS: {len(instances)} finite-difference checks, "
          f"max relative error {worst:.2e} < {FD_TOL:g}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. reversal semantics


def _single_term_grads(model, session, term):
    for p in model.parameters.values():
        p.zero_grad()
    with Tape() as tape:
        scored = forward(model, [session])
        if term == "ranking":
            loss = listwise_loss(scored.scores, session.labels())
        else:
            loss = domain_loss(scored.domain_logits, session.domain)
        backward(tape, loss)
    return {name: (None if p.grad is None else p.grad.copy())
            for name, p in model.parameters.items()}


def test_criterion_2_reversal_semantics():
    rng = np.random.default_rng(1002)
    x = rng.normal(size=(7, 3))
    for lam in (1.0, 0.5, 3.0):
        assert np.array_equal(gradient_reversal(Tensor(x), lam).values, x)

    adversarial = build(tiny_config("domain_adversarial", grl_lambda=1.0), seed=11)
    specialist = build(tiny_config("domain_specialist"), seed=11)
    session = make_session(rng, n_items=6, feature_dim=5, domain=1)

    scored_a = forward(adversarial, [session])
    scored_s = forward(specialist, [session])
    assert np.array_equal(scored_a.scores.values, scored_s.scores.values)
    assert np.array_equal(scored_a.domain_logits.values, scored_s.domain_logits.values)

    dom_a = _single_term_grads(adversarial, session, "domain")
    dom_s = _single_term_grads(specialist, session, "domain")
    worst = 0.0
    trunk_names = [n for n in dom_a if n.startswith("trunk.")]
    assert trunk_names
    for name in trunk_names:
        assert dom_a[name] is not None and dom_s[name] is not None
        worst = max(worst, float(np.max(np.abs(dom_a[name] + dom_s[name]))))
    assert worst <= EXACT
    for name in dom_a:
        if name.startswith("classifier."):
            assert np.array_equal(dom_a[name], dom_s[name])

    rank_a = _single_term_grads(adversarial, session, "ranking")
    rank_s = _single_term_grads(specialist, session, "ranking")
    for name in rank_a:
        if rank_a[name] is None:
            assert rank_s[name] is None
        else:
            assert np.array_equal(rank_a[name], rank_s[name])
    print(f"ACCEPTANCE 2 PASS: reversal forward identity exact, trunk domain "
          f"gradients negate to {worst:.1e} <= {EXACT:g}, ranking gradients identical")


# ---------------------------------------------------------------------------
# 3. NDCG oracle equivalence


def _ndcg_oracle(scores, labels, k):
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    depth = min(k, n)
    dcg = sum(labels[order[r]] / math.log2(r + 2) for r in range(depth))
    ideal = sorted(labels, reverse=True)
    idcg = sum(ideal[r] / math.log2(r + 2) for r in range(depth))
    return None if idcg == 0.0 else dcg / idcg


def test_criterion_3_ndcg_oracle_equivalence():
    assert ndcg_at_k([2.0, 1.0], [1.0, 0.0], k=2) == 1.0
    assert ndcg_at_k([1.0, 2.0], [1.0, 0.0], k=2) == 1.0 / math.log2(3.0)

    rng = np.random.default_rng(1003)
    ks = (1, 5, 16)
    checked = 0
    for i in range(1000):
        n = int(rng.integers(1, 51))
        scores = rng.integers(0, 6, size=n).astype(float)  # integer ties
        labels = rng.integers(0, 4, size=n).astype(float)
        if rng.random() < 0.1:
            labels[:] = 0.0
        k = ks[i % 3]
        got = ndcg_at_k(scores, labels, k)
        want = _ndcg_oracle(list(scores), list(labels), k)
        if want is None:
            assert got is None
        else:
            assert got is not None and abs(got - want) <= EXACT
            checked += 1
    assert checked > 800
    print(f"ACCEPTANCE 3 PASS: 1000 instances match the brute-force oracle "
          f"within {EXACT:g}; hand values 1.0 and 1/log2(3) exact")


# ---------------------------------------------------------------------------
# 4. gating isolation


def test_criterion_4_gating_isolation():
    rng = np.random.default_rng(1004)
    model = build(tiny_config("multihead"), seed=13)
    session = make_session(rng, n_items=6, feature_dim=5, domain=0)

    before = forward(model, [session]).session_scores()[0]
    for name, p in model.parameters.items():
        if name.startswith("head.1."):
            p.values += rng.normal(size=p.values.shape) * 10.0
    after = forward(model, [session]).session_scores()[0]
    assert np.array_equal(before, after)

    batch = [make_session(rng, 5, 5, domain=0) for _ in range(3)]
    for p in model.parameters.values():
        p.zero_grad()
    with Tape() as tape:
        _, loss = batch_loss(model, batch)
        backward(tape, loss)
    off_domain = [n for n in model.parameters if n.startswith("head.1.")]
    on_domain = [n for n in model.parameters if n.startswith("head.0.")]
    assert off_domain and on_domain
    for name in off_domain:
        grad = model.parameters[name].grad
        assert grad is None or not grad.any()
    assert any(model.parameters[n].grad is not None and model.parameters[n].grad.any()
               for n in on_domain)
    print("ACCEPTANCE 4 PASS: selected-head scores invariant to off-domain "
          "perturbations (exact); off-domain head gradients exactly zero")


# ---------------------------------------------------------------------------
# 5. parameter scaling


def _dense(sizes):
    return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1))


def _closed_form(cfg: ModelConfig):
    h = cfg.trunk_hidden[-1]
    d = cfg.token_dim
    shared = (
        _dense((cfg.feature_dim, *cfg.trunk_hidden))
        + _dense((h, 1))
        + _dense((h + 1, d))
        + cfg.transformer_layers
        * (2 * d + 3 * d * d + _dense((d, d)) + 2 * d + _dense((d, d, d)))
    )
    head = _dense((1 + d, *cfg.final_hidden, 1))
    classifier = _dense((h, *cfg.classifier_hidden, cfg.n_domains))
    return shared, head, classifier


def test_criterion_5_parameter_scaling():
    deployed = {}
    for n in (2, 3, 5):
        for variant in ("baseline", "multihead", "domain_adversarial", "domain_specialist"):
            cfg = tiny_config(variant, n_domains=n)
            model = build(cfg, seed=1)
            shared, head, classifier = _closed_form(cfg)
            total = count_parameters(model)
            dep = count_parameters(model, deployed=True)
            if variant == "baseline":
                assert total == dep == shared + head
            elif variant == "multihead":
                assert total == dep == shared + n * head
            else:
                assert total == shared + head + classifier
                assert dep == shared + head
            deployed[variant, n] = dep

    for n in (2, 3, 5):
        assert deployed["domain_specialist", n] == deployed["baseline", n]
        assert deployed["domain_adversarial", n] == deployed["baseline", n]
    # single-head deployed size never depends on the domain count
    assert len({deployed["baseline", n] for n in (2, 3, 5)}) == 1
    assert len({deployed["domain_specialist", n] for n in (2, 3, 5)}) == 1
    # the multi-head model grows by exactly one head per extra domain
    cfg2 = tiny_config("multihead", n_domains=2)
    _, head, _ = _closed_form(cfg2)
    assert deployed["multihead", 3] - deployed["multihead", 2] == head
    assert deployed["multihead", 5] - deployed["multihead", 3] == 2 * head
    print("ACCEPTANCE 5 PASS: closed-form parameter counts hold for 2/3/5 domains; "
          "specialist deploys at single-head size, multi-head grows linearly")


# ---------------------------------------------------------------------------
# 6. benchmark sign reproduction

BENCH_SPEC = SyntheticSpec(
    n_domains=2,
    sessions_per_domain={"train": [1500, 500], "valid": 300, "test": 500},
    feature_dim=8,
    shared_weight_scale=0.2,
    domain_weight_scale=1.5,
    domain_shift_scale=3.0,
    list_length=(10, 20),
    label_noise=0.05,
    seed=20250816,
)

BENCH_DIMS = dict(
    feature_dim=8,
    n_domains=2,
    trunk_hidden=(24,),
    token_dim=8,
    transformer_layers=1,
    heads=1,
    final_hidden=(16,),
)

BENCH_TRAIN = TrainConfig(
    epochs=4, batch_size=8, learning_rate=0.003, eval_every=150, k=16, seed=0
)

BENCH_SEEDS = (101, 102, 103, 104, 105)


def _bench_variants():
    return {
        "baseline_d0": VariantSpec(ModelConfig(variant="baseline", **BENCH_DIMS), 0),
        "baseline_d1": VariantSpec(ModelConfig(variant="baseline", **BENCH_DIMS), 1),
        "multihead": VariantSpec(ModelConfig(variant="multihead", **BENCH_DIMS), None),
        "adversarial": VariantSpec(
            ModelConfig(variant="domain_adversarial", classifier_hidden=(16,),
                        domain_loss_weight=1.0, **BENCH_DIMS),
            None,
        ),
        "specialist": VariantSpec(
            ModelConfig(variant="domain_specialist", classifier_hidden=(16,),
                        domain_loss_weight=0.5, **BENCH_DIMS),
            None,
        ),
    }


def test_criterion_6_benchmark_sign_reproduction():
    start = time.monotonic()
    ds = generate_synthetic(BENCH_SPEC)
    splits = DataSplits(ds.train, ds.valid, ds.test)
    report = run_protocol(
        _bench_variants(), splits, BENCH_SEEDS, BENCH_TRAIN, k=16, workers=1
    )
    elapsed = time.monotonic() - start

    med = {(st.variant, st.domain): st.median for st in report.stats}
    lines = []
    for d in (0, 1):
        base = med[f"baseline_d{d}", d]
        adv = med["adversarial", d]
        mh = med["multihead", d]
        dds = med["specialist", d]
        lines.append(
            f"domain {d}: baseline {base:.4f}, adversarial {adv:.4f}, "
            f"multihead {mh:.4f} ({100 * (mh - base) / base:+.2f}%), "
            f"specialist {dds:.4f} ({100 * (dds - base) / base:+.2f}%)"
        )
        assert adv < base, f"domain {d}: adversarial {adv} should trail baseline {base}"
        assert mh >= base * (1 - 0.005), f"domain {d}: multihead {mh} vs baseline {base}"
        assert dds >= base * (1 - 0.005), f"domain {d}: specialist {dds} vs baseline {base}"
    assert elapsed < 600.0
    print(f"ACCEPTANCE 6 PASS: adversarial trails both baselines, consolidated "
          f"models within 0.5% of baseline in both domains "
          f"({'; '.join(lines)}); {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. multi-seed protocol reporting

PROTO_SPEC = SyntheticSpec(
    n_domains=2,
    sessions_per_domain={"train": 30, "valid": 10, "test": 12},
    feature_dim=5,
    list_length=(4, 8),
    seed=77,
)


def _proto_variants():
    dims = dict(feature_dim=5, n_domains=2, trunk_hidden=(6,), token_dim=4,
                transformer_layers=1, heads=1, final_hidden=(4,))
    return {
        "baseline_d0": VariantSpec(ModelConfig(variant="baseline", **dims), 0),
        "baseline_d1": VariantSpec(ModelConfig(variant="baseline", **dims), 1),
        "multihead": VariantSpec(ModelConfig(variant="multihead", **dims), None),
    }


def _run_proto():
    ds = generate_synthetic(PROTO_SPEC)
    splits = DataSplits(ds.train, ds.valid, ds.test)
    config = TrainConfig(epochs=1, batch_size=4, learning_rate=0.01,
                         eval_every=20, k=8, seed=0)
    return run_protocol(_proto_variants(), splits, (1, 2, 3, 4, 5), config,
                        k=8, workers=1)


def test_criterion_7_protocol_reports_are_deterministic():
    first = _run_proto()
    assert len(first.runs) == 3 * 5

    box = first.boxplot_rows()
    assert box[0] == "variant,domain,min,q1,median,q3,max"
    assert len(box) == 1 + 2 + 2  # baselines: one domain each; multihead: two
    for row in box[1:]:
        cells = row.split(",")
        lo, q1, median, q3, hi = (float(c) for c in cells[2:])
        assert lo <= q1 <= median <= q3 <= hi

    second = _run_proto()
    assert second.table_text() == first.table_text()
    assert second.csv_rows() == first.csv_rows()
    assert second.boxplot_rows() == first.boxplot_rows()
    print("ACCEPTANCE 7 PASS: 5-seed protocol emits ordered quartile rows and "
          "reruns render byte-identical reports")


# ---------------------------------------------------------------------------
# 8. interleaving fairness and sensitivity


def _click_sessions(rng, n, n_items=6):
    out = []
    for i in range(n):
        feats = rng.normal(size=(n_items, 3))
        labels = np.zeros(n_items)
        labels[rng.integers(n_items)] = 1.0
        out.append(QuerySession(f"q{i}", 0, 0, feats, labels))
    return out


def test_criterion_8_interleaving_fairness_and_sensitivity():
    start = time.monotonic()
    assert sign_test_p(10, 0) == 2.0 * 0.5 ** 10 == 0.001953125

    rng = np.random.default_rng(1008)
    sessions = _click_sessions(rng, 20)
    scorer = lambda s: s.feature_matrix().sum(axis=1)
    fair = run_interleaving(scorer, scorer, sessions, UserModel.position_decay(6),
                            n_impressions=10_000, seed=17, k=6)
    assert fair.impressions >= 10_000
    assert fair.p_value > 0.05

    oracle = lambda s: s.labels()
    antioracle = lambda s: -s.labels()
    skewed = run_interleaving(oracle, antioracle, sessions,
                              UserModel.position_decay(6),
                              n_impressions=2_000, seed=17, k=6)
    assert skewed.credit_gain > 0
    assert skewed.p_value < 0.01
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 8 PASS: fairness p={fair.p_value:.3f} > 0.05 at "
          f"{fair.impressions} impressions, oracle beats antioracle "
          f"(gain {skewed.credit_gain:.3f}, p={skewed.p_value:.2e}), "
          f"10-0 sign test exact; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. dataset round-trip and split cover


def test_criterion_9_round_trip_and_split_cover(tmp_path):
    rng = np.random.default_rng(1009)
    sessions = []
    for i in range(1000):
        n = int(rng.integers(1, 13))
        feats = rng.normal(size=(n, 6)) * rng.uniform(0.1, 100)
        labels = rng.choice([0.0, 1.0, 2.0, 0.5], size=n)
        sessions.append(QuerySession(
            query_id=f"query-{i}-é",
            domain=int(rng.integers(2)),
            timestamp=int(rng.integers(0, 3_000_000)),
            features=feats,
            grades=labels,
        ))

    path = tmp_path / "sessions.jsonl"
    assert write_dataset(sessions, path) == 1000
    loaded = load_dataset(path)
    assert len(loaded) == 1000
    for orig, back in zip(sessions, loaded):
        assert back.query_id == orig.query_id
        assert back.domain == orig.domain
        assert back.timestamp == orig.timestamp
        assert np.array_equal(back.feature_matrix(), orig.feature_matrix())
        assert np.array_equal(back.labels(), orig.labels())

    train, valid, test = split_by_time(sessions, 1_000_000, 2_000_000)
    assert len(train) + len(valid) + len(test) == len(sessions)
    seen = set()
    for bucket, low, high in ((train, None, 1_000_000),
                              (valid, 1_000_000, 2_000_000),
                              (test, 2_000_000, None)):
        for s in bucket:
            assert id(s) not in seen
            seen.add(id(s))
            if low is not None:
                assert s.timestamp >= low
            if high is not None:
                assert s.timestamp < high
    assert len(seen) == len(sessions)
    print("ACCEPTANCE 9 PASS: 1000-session write/load round-trip lossless; "
          "time split is a disjoint cover")
