"""Model construction, forward semantics, and serialization tests."""

import contextlib
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdrank.autodiff import ShapeError, Tape, backward
from mdrank.data import QuerySession
from mdrank.losses import batch_loss
from mdrank.models import (
    ConfigError,
    ModelConfig,
    ModelLoadError,
    Variant,
    _parameter_count,
    _score_members,
    _parameter_specs,
    build,
    count_parameters,
    forward,
    load,
    save,
    stack,
)
from tests.conftest import make_session, tiny_config


# ---------------------------------------------------------------------------
# closed-form parameter arithmetic (the oracle for count_parameters)


def _dense_params(dims):
    """Scalar count of a dense stack: weights plus biases per layer."""
    return sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))


def _expected_counts(cfg: ModelConfig):
    """(total, deployed) from layer-size arithmetic alone."""
    f, h, d = cfg.feature_dim, cfg.trunk_hidden[-1], cfg.token_dim
    shared = _dense_params((f, *cfg.trunk_hidden))
    shared += _dense_params((h, 1))            # pointwise score layer
    shared += _dense_params((h + 1, d))        # token projection
    per_layer = 2 * d + 3 * d * d + _dense_params((d, d)) + 2 * d + _dense_params((d, d, d))
    shared += cfg.transformer_layers * per_layer
    head = _dense_params((1 + d, *cfg.final_hidden, 1))
    classifier = _dense_params((h, *cfg.classifier_hidden, cfg.n_domains))

    if cfg.variant is Variant.MULTI_HEAD:
        total = shared + cfg.n_domains * head
        return total, total
    if cfg.variant is Variant.BASELINE:
        total = shared + head
        return total, total
    total = shared + head + classifier
    return total, total - classifier


@pytest.mark.parametrize("variant", ["baseline", "multihead", "domain_adversarial", "domain_specialist"])
@pytest.mark.parametrize("n_domains", [2, 3, 5])
def test_parameter_counts_match_closed_form(variant, n_domains):
    cfg = tiny_config(variant, n_domains=n_domains)
    model = build(cfg, seed=0)
    total, deployed = _expected_counts(cfg)
    assert count_parameters(model) == total
    assert count_parameters(model, deployed=True) == deployed
    assert count_parameters(model, deployed=True) <= count_parameters(model)
    # the count really is the number of stored scalars
    assert total == sum(t.values.size for t in model.parameters.values())


def _walk(cfg: ModelConfig):
    """(parameters, tensors) by a walk over every tensor of
    ``_parameter_specs``."""
    parameters = tensors = 0
    for _, _, shape in _parameter_specs(cfg):
        parameters += math.prod(shape)
        tensors += 1
    return parameters, tensors


@st.composite
def _model_configs(draw):
    variant = draw(st.sampled_from([v.value for v in Variant]))
    heads = draw(st.integers(1, 3))
    widths = st.lists(st.integers(1, 7), max_size=3)
    return ModelConfig(
        variant=variant,
        feature_dim=draw(st.integers(1, 7)),
        n_domains=draw(st.integers(2 if variant == "multihead" else 1, 6)),
        trunk_hidden=draw(widths.filter(bool)),
        token_dim=heads * draw(st.integers(1, 3)),
        transformer_layers=draw(st.integers(1, 4)),
        heads=heads,
        final_hidden=draw(widths),
        classifier_hidden=draw(widths),
    )


@settings(max_examples=200, deadline=None)
@given(cfg=_model_configs())
def test_closed_form_count_equals_the_walk(cfg):
    """Counted once per block and multiplied, the size of a config equals
    the per-tensor walk and the layer-size arithmetic."""
    parameters, tensors = _walk(cfg)
    assert _parameter_count(cfg) == (parameters, tensors)
    assert parameters == _expected_counts(cfg)[0]
    assert parameters == count_parameters(build(cfg, seed=0))


@pytest.mark.parametrize("overrides, message", [
    # 72 parameters outside the layers and 13 in each
    (dict(transformer_layers=10**12, token_dim=1, heads=1),
     "13000000000072 parameters per member, above the bound of 134217728"),
    # 6 tensors before the layers, 4 after them
    (dict(transformer_layers=10**6, token_dim=1, heads=1),
     "13000010 parameter tensors per member, above the bound of 16384"),
    # 199 parameters outside the heads and 25 + 5 + 5 + 1 in each
    (dict(variant="multihead", n_domains=10**12), "36000000000199 parameters per member"),
    (dict(variant="multihead", n_domains=10**4), "40019 parameter tensors per member"),
    # 199 + 36 + 24 + 4 parameters besides the classifier's (4, 10**12)
    # weight and 10**12 biases
    (dict(variant="domain_specialist", n_domains=10**12),
     "5000000000263 parameters per member"),
])
def test_repeated_blocks_past_a_bound_are_rejected_at_once(overrides, message):
    start = time.monotonic()
    with pytest.raises(ConfigError, match=message):
        tiny_config(**overrides)
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("n_domains", [2, 3, 5])
def test_specialist_deployed_count_equals_baseline(n_domains):
    base = build(tiny_config("baseline", n_domains=n_domains), seed=0)
    dds = build(tiny_config("domain_specialist", n_domains=n_domains), seed=0)
    assert count_parameters(dds, deployed=True) == count_parameters(base)


def test_specialist_deployed_count_independent_of_domains():
    counts = {
        n: count_parameters(build(tiny_config("domain_specialist", n_domains=n), seed=0), deployed=True)
        for n in (2, 3, 5)
    }
    assert len(set(counts.values())) == 1


def test_multihead_count_grows_linearly_in_domains():
    head = _dense_params((1 + 4, 5, 1))  # token_dim=4, final_hidden=(5,) in tiny_config
    counts = {
        n: count_parameters(build(tiny_config("multihead", n_domains=n), seed=0))
        for n in (2, 3, 5)
    }
    assert counts[3] - counts[2] == head
    assert counts[5] - counts[2] == 3 * head


def test_adversarial_and_specialist_have_equal_counts():
    # the reversal node holds no parameters
    a = build(tiny_config("domain_adversarial"), seed=3)
    s = build(tiny_config("domain_specialist"), seed=3)
    assert count_parameters(a) == count_parameters(s)
    assert set(a.parameters) == set(s.parameters)


# ---------------------------------------------------------------------------
# deterministic construction


def test_build_is_deterministic():
    cfg = tiny_config("domain_adversarial")
    m1 = build(cfg, seed=42)
    m2 = build(cfg, seed=42)
    assert set(m1.parameters) == set(m2.parameters)
    for name in m1.parameters:
        assert np.array_equal(m1.parameters[name].values, m2.parameters[name].values)


def test_build_differs_across_seeds():
    cfg = tiny_config()
    m1 = build(cfg, seed=1)
    m2 = build(cfg, seed=2)
    assert not np.array_equal(m1.parameters["trunk.0.w"].values, m2.parameters["trunk.0.w"].values)


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(trunk_hidden=())
    with pytest.raises(ConfigError):
        tiny_config(trunk_hidden=(0,))
    with pytest.raises(ConfigError):
        tiny_config(token_dim=5, heads=2)  # not divisible
    with pytest.raises(ConfigError):
        tiny_config("multihead", n_domains=1)
    with pytest.raises(ConfigError):
        tiny_config("no_such_variant")


# ---------------------------------------------------------------------------
# forward semantics


def _scores(model, session):
    return forward(model, [session]).session_scores()[0]


def test_forward_shapes_and_finiteness(rng):
    for variant in ("baseline", "multihead", "domain_adversarial", "domain_specialist"):
        model = build(tiny_config(variant), seed=1)
        batch = [make_session(rng, 7, feature_dim=5, domain=1),
                 make_session(rng, 3, feature_dim=5, domain=0)]
        scored = forward(model, batch)
        assert scored.scores.shape == (10, 1)
        assert scored.lengths.tolist() == [7, 3]
        assert [s.shape for s in scored.session_scores()] == [(7,), (3,)]
        assert np.all(np.isfinite(scored.scores.values))
        if variant in ("domain_adversarial", "domain_specialist"):
            assert scored.domain_logits.shape == (10, 2)
        else:
            assert scored.domain_logits is None


def test_forward_single_item_session(rng):
    model = build(tiny_config(), seed=1)
    session = make_session(rng, 1, feature_dim=5)
    scores = _scores(model, session)
    assert scores.shape == (1,)
    assert np.isfinite(scores[0])


def test_forward_rejects_bad_sessions(rng):
    model = build(tiny_config(), seed=1)
    good = make_session(rng, 3, feature_dim=5)
    with pytest.raises(ValueError):
        forward(model, [])
    with pytest.raises(ValueError):
        forward(model, [good, QuerySession("q", 0, 0, np.zeros((0, 5)), [])])
    with pytest.raises(ShapeError):
        forward(model, [make_session(rng, 3, feature_dim=4)])  # wrong width
    with pytest.raises(ShapeError):
        forward(model, [good, make_session(rng, 3, feature_dim=4)])  # mixed widths
    with pytest.raises(ValueError):
        forward(model, [good, make_session(rng, 3, feature_dim=5, domain=9)])


def test_multihead_ignores_other_heads_exactly(rng):
    """Scores for a domain-0 session must not move when head 1 is mangled."""
    model = build(tiny_config("multihead"), seed=5)
    session = make_session(rng, 6, feature_dim=5, domain=0)
    before = _scores(model, session)

    for name, tensor in model.parameters.items():
        if name.startswith("head.1."):
            tensor.values[:] = rng.normal(scale=100.0, size=tensor.shape)
    after = _scores(model, session)
    assert np.array_equal(before, after)

    # and the selected head does matter
    for name, tensor in model.parameters.items():
        if name.startswith("head.0."):
            tensor.values[:] += 1.0
    assert not np.array_equal(before, _scores(model, session))


@pytest.mark.parametrize("domain", [0, 1, 2])
def test_multihead_scores_equal_baseline_with_copied_head(rng, domain):
    """The session's head is the whole scoring head: copied into a baseline's
    ``final`` layers, it gives bit-identical scores, whatever the other heads
    hold (here NaN, which any arithmetic on an off-domain head would spread)."""
    multi = build(tiny_config("multihead", n_domains=3), seed=6)
    base = build(tiny_config("baseline", n_domains=3), seed=7)
    for name, tensor in multi.parameters.items():
        if name.startswith(f"head.{domain}."):
            base.parameters["final." + name.split(".", 2)[2]].values = tensor.values.copy()
        elif name.startswith("head."):
            tensor.values[:] = np.nan
        else:
            base.parameters[name].values = tensor.values.copy()
    session = make_session(rng, 6, feature_dim=5, domain=domain)
    assert np.array_equal(_scores(multi, session), _scores(base, session))


def test_multihead_batch_records_as_many_tape_nodes_as_baseline(rng):
    """A single-domain batch runs only its head, so multihead tapes no
    gating or routing ops."""
    for domain in range(3):
        batch = [make_session(rng, 3 + i, feature_dim=5, domain=domain, query_id=f"q{i}")
                 for i in range(4)]
        ops = {}
        for variant in ("baseline", "multihead"):
            model = build(tiny_config(variant, n_domains=3), seed=3)
            with Tape() as tape:
                batch_loss(model, batch)
            ops[variant] = [node.op for node in tape.nodes]
        assert ops["multihead"] == ops["baseline"]


def test_multihead_routes_each_domain_through_its_own_head(rng):
    """A mixed batch runs each present domain's rows through its head once
    (take_rows -> head -> put_rows); an absent domain's head records nothing
    and keeps grad None."""
    model = build(tiny_config("multihead", n_domains=3), seed=3)
    batch = [make_session(rng, 4, feature_dim=5, domain=d, query_id=f"q{i}")
             for i, d in enumerate((2, 0, 2))]
    model.zero_grad()
    with Tape() as tape:
        _, loss = batch_loss(model, batch)
        backward(tape, loss)
    ops = [node.op for node in tape.nodes]
    assert ops.count("take_rows") == 2 and ops.count("put_rows") == 1
    assert all(model.parameters[n].grad is None for n in model.parameters if n.startswith("head.1."))
    assert all(model.parameters[n].grad is not None for n in model.parameters
               if n.startswith(("head.0.", "head.2.")))


def test_adversarial_and_specialist_forward_identically(rng):
    """The reversal node is a forward no-op, so same weights => same outputs."""
    adv = build(tiny_config("domain_adversarial"), seed=9)
    dds = build(tiny_config("domain_specialist"), seed=9)
    session = make_session(rng, 5, feature_dim=5, domain=1)
    out_a = forward(adv, [session])
    out_s = forward(dds, [session])
    assert np.array_equal(out_a.scores.values, out_s.scores.values)
    assert np.array_equal(out_a.domain_logits.values, out_s.domain_logits.values)


def test_forward_is_permutation_equivariant(rng):
    """No positional signal: permuting the items permutes the scores."""
    model = build(tiny_config(), seed=2)
    session = make_session(rng, 8, feature_dim=5)
    perm = rng.permutation(8)
    shuffled = replace(session, features=session.features[perm], grades=session.grades[perm])
    base = _scores(model, session)
    moved = _scores(model, shuffled)
    assert np.allclose(moved, base[perm], atol=1e-9)


def test_forward_is_deterministic(rng):
    model = build(tiny_config("domain_specialist"), seed=4)
    session = make_session(rng, 6, feature_dim=5)
    a = _scores(model, session)
    b = _scores(model, session)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the two routes of scoring: forward's Tensor ops under a tape, and
# _score_members' kernels without


def _member_batches(rng, n_members, lengths, domains):
    """One batch per member; odd members' sessions are one item longer
    (unless every session has one item), so a stack has several padded
    layouts and members 0 and 2 share one."""
    grow = max(lengths) > 1
    return [[make_session(rng, n + (m % 2 if grow else 0), feature_dim=5, domain=d,
                          query_id=f"m{m}q{i}")
             for i, (n, d) in enumerate(zip(lengths, domains))]
            for m in range(n_members)]


@pytest.mark.parametrize("variant", [v.value for v in Variant])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("n_members", [1, 3])
def test_untaped_forward_matches_taped_bit_for_bit(rng, variant, heads, layers, n_members):
    """Untaped scoring runs the ops' array kernels: ``_score_members`` of
    member m's batch gives member m the bits of its rows of the taped pass
    over every member's batch, over equal, ragged and one-item sessions of
    one domain or of several."""
    cfg = tiny_config(variant, n_domains=3, heads=heads, transformer_layers=layers)
    model = (build(cfg, seed=1) if n_members == 1
             else stack([build(cfg, seed=s) for s in range(n_members)]))
    for lengths in ((5, 5, 5), (4, 9, 1), (1, 1, 1)):
        for domains in ((1, 1, 1), (2, 0, 2)):
            batches = _member_batches(rng, n_members, lengths, domains)
            members = None if n_members == 1 else [len(b) for b in batches]
            with Tape() as tape:
                taped = forward(model, [s for b in batches for s in b], members=members)
            assert tape.nodes
            ends = np.cumsum(taped.rows or [taped.lengths.sum()]).tolist()
            for m, (batch, start, end) in enumerate(zip(batches, [0, *ends], ends)):
                got = _score_members(model, batch)[m]
                assert got.dtype == np.float64 and got.shape == (end - start,)
                assert got.tobytes() == taped.scores.values[start:end, 0].tobytes()


@pytest.mark.parametrize("variant, nodes", [("baseline", 16), ("multihead", 21),
                                            ("domain_adversarial", 22),
                                            ("domain_specialist", 21)])
def test_a_stacked_step_records_relu_inside_its_linear_nodes(rng, variant, nodes):
    """A mixed-domain batch of a stack records each relu as part of the
    ``linear`` before it: no ``relu`` node, three or four nodes fewer than
    a ``relu`` node each would make (19, 25, 26 and 25)."""
    cfg = tiny_config(variant)
    model = stack([build(cfg, seed=s) for s in (1, 2)])
    batches = _member_batches(rng, 2, (3, 5, 4), (0, 1, 0))
    with Tape() as tape:
        batch_loss(model, [s for b in batches for s in b], [3, 3])
    ops = [node.op for node in tape.nodes]
    assert len(ops) == nodes and "relu" not in ops


@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_members_score_on_views_as_each_member_alone(rng, variant):
    """``_score_members`` gives each member of a stack of 3 the bits of the
    scores ``forward`` gives ``member(m)``, and ``member(m)`` alone the
    same, over ragged sessions of mixed domains; the stack's arena stays as
    it was."""
    cfg = tiny_config(variant, n_domains=3)
    model = stack([build(cfg, seed=s) for s in (4, 5, 6)])
    arena = model.values.tobytes()
    sessions = [make_session(rng, n, feature_dim=5, domain=d, query_id=f"q{i}")
                for i, (n, d) in enumerate(zip((4, 9, 1, 6), (2, 0, 2, 1)))]
    scored = _score_members(model, sessions)
    assert len(scored) == 3
    for m, got in enumerate(scored):
        alone = model.member(m)
        want = forward(alone, sessions).scores.values[:, 0]
        assert got.shape == want.shape == (20,)
        assert got.tobytes() == want.tobytes()
        [lone] = _score_members(alone, sessions)
        assert lone.tobytes() == want.tobytes()
    assert model.values.tobytes() == arena


@pytest.mark.parametrize("n_members", [1, 2])
@pytest.mark.parametrize("name", ["trunk.0.b", "transformer.0.norm1.gain", "transformer.0.wk",
                                  "final.0.w"])
@pytest.mark.parametrize("taped", [False, True])
def test_forward_rejects_a_parameter_of_the_wrong_shape(rng, n_members, name, taped):
    """A parameter rebound to a shape its config does not give, which numpy
    would broadcast, raises ShapeError in ``forward`` with or without a
    tape, and in ``_score_members`` of a lone model or a stack."""
    cfg = tiny_config("domain_specialist")
    model = (build(cfg, seed=1) if n_members == 1
             else stack([build(cfg, seed=s) for s in range(n_members)]))
    param = model.parameters[name]
    param.values = param.values[..., :1].copy()
    batch = [make_session(rng, 4, feature_dim=5) for _ in range(n_members)]
    members = None if n_members == 1 else [1] * n_members
    with pytest.raises(ShapeError), Tape() if taped else contextlib.nullcontext():
        forward(model, batch, members=members)
    if not taped:
        with pytest.raises(ShapeError):
            _score_members(model, batch)


# ---------------------------------------------------------------------------
# serialization


def test_save_load_round_trip_is_lossless(rng):
    model = build(tiny_config("domain_adversarial"), seed=11)
    raw = save(model)
    clone = load(raw)
    assert clone.config == model.config
    for name in model.parameters:
        assert np.array_equal(clone.parameters[name].values, model.parameters[name].values)
    # identical bytes when saved again
    assert save(clone) == raw

    session = make_session(rng, 6, feature_dim=5)
    assert np.array_equal(_scores(model, session), _scores(clone, session))


def test_save_is_deterministic():
    model = build(tiny_config(), seed=11)
    assert save(model) == save(model)


def test_load_rejects_truncated_payload():
    raw = save(build(tiny_config(), seed=1))
    with pytest.raises(ModelLoadError):
        load(raw[: len(raw) // 2])


def test_load_rejects_wrong_format_and_version():
    raw = save(build(tiny_config(), seed=1))
    obj = json.loads(raw)
    obj["format"] = "something-else"
    with pytest.raises(ModelLoadError):
        load(json.dumps(obj).encode())

    obj = json.loads(raw)
    obj["version"] = 99
    with pytest.raises(ModelLoadError):
        load(json.dumps(obj).encode())


def test_load_rejects_tampered_parameters():
    raw = save(build(tiny_config(), seed=1))
    obj = json.loads(raw)
    name = next(iter(obj["parameters"]))
    obj["parameters"][name]["values"] = obj["parameters"][name]["values"][:-1]
    with pytest.raises(ModelLoadError):
        load(json.dumps(obj).encode())

    obj = json.loads(raw)
    obj["parameters"]["not.a.real.param"] = {"shape": [1], "values": [0.0]}
    with pytest.raises(ModelLoadError):
        load(json.dumps(obj).encode())

    for bad, message in ((float("inf"), "non-finite"), ("abc", "non-numeric"),
                         (True, "non-numeric"), (10**400, "float range")):
        obj = json.loads(raw)
        obj["parameters"][name]["values"][0] = bad
        with pytest.raises(ModelLoadError, match=message):
            load(json.dumps(obj).encode())

    for key, bad in (("seed", "abc"), ("seed", 1.5), ("seed", True), ("seed", -4),
                     ("parameters", []), ("version", True)):
        obj = json.loads(raw)
        obj[key] = bad
        with pytest.raises(ModelLoadError):
            load(json.dumps(obj).encode())

    def nest(entry):
        entry["values"] = [[v] for v in entry["values"]]

    for change in (lambda entry: entry.update(shape=3), nest):
        obj = json.loads(raw)
        change(obj["parameters"][name])
        with pytest.raises(ModelLoadError):
            load(json.dumps(obj).encode())
    obj = json.loads(raw)
    obj["parameters"][name] = [1.0]
    with pytest.raises(ModelLoadError, match="not an object"):
        load(json.dumps(obj).encode())


def test_member_rejects_indices_outside_the_stack():
    lone = build(tiny_config(), seed=1)
    trio = stack([build(tiny_config(), seed=s) for s in (1, 2, 3)])
    for model, m, n in ((lone, 5, 1), (lone, -1, 1), (trio, -1, 3), (trio, 3, 3)):
        with pytest.raises(IndexError, match=f"member {m} is outside the {n} members"):
            model.member(m)
    assert trio.member(2).seeds == (3,)
    assert save(trio.member(0)) == save(build(tiny_config(), seed=1))


def test_save_rejects_non_finite_weights():
    model = build(tiny_config(), seed=1)
    model.parameters["trunk.0.w"].values[0, 0] = np.nan
    with pytest.raises(ValueError):
        save(model)
