"""Dataset IO, time splits, text features, normalization, and the
synthetic two-domain generator."""

import math
import tempfile
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdrank.data import (
    MAX_LIST_LENGTH,
    DatasetFormatError,
    QuerySession,
    SyntheticSpec,
    add_text_similarity_features,
    generate_synthetic,
    load_dataset,
    normalize_features,
    split_by_time,
    text_similarity,
    write_dataset,
)
from mdrank.evaluation import ndcg_at_k
from tests.conftest import make_session


def _random_sessions(rng, n, feature_dim=4):
    out = []
    for i in range(n):
        s = make_session(
            rng,
            int(rng.integers(1, 8)),
            feature_dim,
            domain=int(rng.integers(2)),
            query_id=f"q{i}",
            timestamp=int(rng.integers(0, 10_000)),
        )
        # sprinkle in optional text fields
        if i % 3 == 0:
            s = replace(s, texts=((f"query {i}", f"title {i} extra"),) * s.grades.size)
        out.append(s)
    return out


# ---------------------------------------------------------------------------
# file round trip


def test_round_trip_preserves_everything(tmp_path, rng):
    sessions = _random_sessions(rng, 1000)
    path = tmp_path / "sessions.jsonl"
    assert write_dataset(sessions, path) == 1000
    loaded = load_dataset(path)
    assert len(loaded) == 1000
    for a, b in zip(sessions, loaded):
        assert a.query_id == b.query_id
        assert a.domain == b.domain
        assert a.timestamp == b.timestamp
        assert np.array_equal(a.features, b.features)  # bit-exact floats
        assert np.array_equal(a.grades, b.grades)
        assert a.texts == b.texts


_EDGE_FEATURES = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308]
_EDGE_LABELS = [0.0, -0.0, 5e-324, 1e-310, 1e308]


@st.composite
def _edge_sessions(draw):
    """A session of 1-6 rows and 0-4 features with edge floats, whose rows
    have no text, all have text, or mix both."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    features = draw(st.lists(st.one_of(st.sampled_from(_EDGE_FEATURES), finite),
                             min_size=n * d, max_size=n * d))
    grades = draw(st.lists(st.one_of(st.sampled_from(_EDGE_LABELS), st.floats(0.0, 1e308)),
                           min_size=n, max_size=n))
    text = st.text(max_size=6)
    layout = draw(st.sampled_from(["none", "all", "mixed"]))
    texts = None
    if layout == "all":
        texts = tuple((draw(text), draw(text)) for _ in range(n))
    elif layout == "mixed":
        texts = tuple((draw(st.none() | text), draw(st.none() | text)) for _ in range(n))
        if all(q is None and t is None for q, t in texts):
            texts = None
    return QuerySession(draw(st.text(max_size=5)), draw(st.integers(0, 3)),
                        draw(st.integers(-2**40, 2**40)), np.reshape(features, (n, d)),
                        grades, texts)


@settings(max_examples=80, deadline=None)
@given(st.lists(_edge_sessions(), min_size=1, max_size=5))
def test_round_trip_is_bit_exact_and_rewrites_the_same_bytes(sessions):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.jsonl", Path(tmp) / "second.jsonl"
        write_dataset(sessions, first)
        loaded = load_dataset(first)
        assert len(loaded) == len(sessions)
        for a, b in zip(sessions, loaded):
            assert (a.query_id, a.domain, a.timestamp) == (b.query_id, b.domain, b.timestamp)
            assert a.features.shape == b.features.shape
            assert a.features.tobytes() == b.features.tobytes()
            assert a.grades.tobytes() == b.grades.tobytes()
            assert a.texts == b.texts
        write_dataset(loaded, second)
        assert first.read_bytes() == second.read_bytes()


def test_session_holds_read_only_copies_of_matching_shapes():
    features, grades = np.ones((3, 2)), np.array([1.0, 0.0, 0.0])
    session = QuerySession("q", 0, 0, features, grades)
    features[0, 0], grades[0] = 5.0, 7.0
    assert session.features[0, 0] == 1.0 and session.grades[0] == 1.0
    assert session.feature_matrix() is session.features and session.labels() is session.grades
    with pytest.raises(ValueError, match="read-only"):
        session.labels()[0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        session.feature_matrix()[0, 0] = 2.0
    for bad_features, bad_grades in ((np.ones(3), grades), (features, np.ones(2)),
                                     (features, np.ones((3, 1)))):
        with pytest.raises(ValueError, match="QuerySession"):
            QuerySession("q", 0, 0, bad_features, bad_grades)
    with pytest.raises(ValueError, match="texts"):
        QuerySession("q", 0, 0, features, grades, texts=(("query", "title"),))


def test_load_preserves_input_order(tmp_path, rng):
    sessions = _random_sessions(rng, 3)
    path = tmp_path / "three.jsonl"
    write_dataset(sessions, path)
    loaded = load_dataset(path)
    assert [s.query_id for s in loaded] == [s.query_id for s in sessions]


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_reports_line_numbers(tmp_path):
    good = '{"query_id":"a","domain":0,"ts":1,"items":[{"features":[1.0],"label":1.0}]}'
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [good, "{not json"])
    with pytest.raises(DatasetFormatError, match=r":2"):
        load_dataset(path)

    _write_lines(path, [good, '{"query_id":"b","domain":0,"ts":1,"items":[]}'])
    with pytest.raises(DatasetFormatError, match=r":2.*non-empty"):
        load_dataset(path)


def test_load_validates_fields(tmp_path):
    path = tmp_path / "bad.jsonl"
    cases = [
        '{"domain":0,"ts":1,"items":[{"features":[1.0],"label":1}]}',          # no query_id
        '{"query_id":"a","domain":-1,"ts":1,"items":[{"features":[1],"label":1}]}',
        '{"query_id":"a","domain":0,"ts":1,"items":[{"features":[1],"label":-2}]}',
        '{"query_id":"a","domain":0,"ts":1,"items":[{"features":[1],"label":1},'
        '{"features":[1,2],"label":0}]}',                                      # ragged features
    ]
    for line in cases:
        _write_lines(path, [line])
        with pytest.raises(DatasetFormatError):
            load_dataset(path)


@pytest.mark.parametrize("item, fragment", [
    ('{"features":[1.0],"label":1%s}', "label must be finite"),
    ('{"features":[1.0,-1%s],"label":1}', "features must be finite"),
], ids=["label", "feature"])
def test_load_rejects_integers_beyond_the_float_range(tmp_path, item, fragment):
    """A 401-digit JSON integer cannot become a float64."""
    line = '{"query_id":"a","domain":0,"ts":1,"items":[%s]}' % (item % ("0" * 400))
    path = tmp_path / "huge.jsonl"
    _write_lines(path, [line])
    with pytest.raises(DatasetFormatError, match=f":1, item 0: {fragment}"):
        load_dataset(path)


def test_load_checks_domain_range_when_told(tmp_path):
    line = '{"query_id":"a","domain":5,"ts":1,"items":[{"features":[1.0],"label":1.0}]}'
    path = tmp_path / "d.jsonl"
    _write_lines(path, [line])
    assert load_dataset(path)[0].domain == 5  # fine without a bound
    with pytest.raises(DatasetFormatError, match="out of range"):
        load_dataset(path, n_domains=2)


def test_load_rejects_overlong_sessions(tmp_path):
    items = ",".join('{"features":[0.0],"label":0.0}' for _ in range(MAX_LIST_LENGTH + 1))
    path = tmp_path / "long.jsonl"
    _write_lines(path, ['{"query_id":"a","domain":0,"ts":1,"items":[%s]}' % items])
    with pytest.raises(DatasetFormatError, match="maximum list length"):
        load_dataset(path)


# ---------------------------------------------------------------------------
# time split


def test_split_by_time_half_open_boundaries():
    sessions = [
        QuerySession("a", 0, 5, np.zeros((1, 1)), [0.0]),
        QuerySession("b", 0, 10, np.zeros((1, 1)), [0.0]),
        QuerySession("c", 0, 19, np.zeros((1, 1)), [0.0]),
        QuerySession("d", 0, 20, np.zeros((1, 1)), [0.0]),
    ]
    train, valid, test = split_by_time(sessions, train_end=10, valid_end=20)
    assert [s.query_id for s in train] == ["a"]
    assert [s.query_id for s in valid] == ["b", "c"]
    assert [s.query_id for s in test] == ["d"]


def test_split_by_time_everything_before_train_end(rng):
    sessions = _random_sessions(rng, 20)
    train, valid, test = split_by_time(sessions, train_end=100_000, valid_end=200_000)
    assert len(train) == 20 and not valid and not test


def test_split_by_time_is_a_disjoint_cover(rng):
    sessions = _random_sessions(rng, 200)
    train, valid, test = split_by_time(sessions, train_end=3000, valid_end=7000)
    assert len(train) + len(valid) + len(test) == 200
    ids = [id(s) for s in train + valid + test]
    assert len(set(ids)) == 200


def test_split_by_time_rejects_inverted_boundaries(rng):
    with pytest.raises(ValueError):
        split_by_time(_random_sessions(rng, 3), train_end=10, valid_end=10)


# ---------------------------------------------------------------------------
# hashed text similarity


def _trigram_oracle(text, n_buckets=64):
    counts = [0] * n_buckets
    for i in range(len(text) - 2):
        counts[zlib.crc32(text[i : i + 3].encode("utf-8")) % n_buckets] += 1
    return counts


def test_text_similarity_identical_strings():
    vec = text_similarity("shoes", "shoes")
    assert vec.shape == (2,)
    assert vec[0] == 1.0
    assert vec[1] == 1.0


def test_text_similarity_empty_string():
    assert np.array_equal(text_similarity("", "anything"), [0.0, 0.0])
    assert np.array_equal(text_similarity("", ""), [0.0, 0.0])


def test_text_similarity_matches_trigram_oracle():
    q, t = "red shoe", "blue shoe"
    a = np.array(_trigram_oracle(q), dtype=float)
    b = np.array(_trigram_oracle(t), dtype=float)
    want_cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    got = text_similarity(q, t)
    assert abs(got[0] - want_cos) < 1e-12
    # token sets {red, shoe} and {blue, shoe}: one common of three total
    assert abs(got[1] - 1.0 / 3.0) < 1e-12


def test_text_similarity_bounded():
    rng = np.random.default_rng(0)
    words = ["red", "blue", "shoe", "boot", "large", "small"]
    for _ in range(50):
        q = " ".join(rng.choice(words, size=rng.integers(1, 4)))
        t = " ".join(rng.choice(words, size=rng.integers(1, 4)))
        vec = text_similarity(q, t)
        assert 0.0 <= vec[0] <= 1.0
        assert 0.0 <= vec[1] <= 1.0


def test_add_text_similarity_features_appends_two_columns(rng):
    sessions = _random_sessions(rng, 6)
    out = add_text_similarity_features(sessions)
    for before, after in zip(sessions, out):
        assert after.features.shape == (before.features.shape[0], before.features.shape[1] + 2)
        assert np.array_equal(after.features[:, :-2], before.features)
        for (q, t), extra in zip(before.texts or (), after.features[:, -2:]):
            assert np.array_equal(extra, text_similarity(q, t))
        if before.texts is None:
            assert not after.features[:, -2:].any()


# ---------------------------------------------------------------------------
# normalization


def test_normalize_matches_loop_oracle(rng):
    train = _random_sessions(rng, 30)
    test = _random_sessions(rng, 10)
    (norm_train, norm_test), stats = normalize_features(train, test)

    rows = np.concatenate([s.feature_matrix() for s in train])
    mean = rows.sum(axis=0) / len(rows)
    std = np.sqrt(((rows - mean) ** 2).sum(axis=0) / len(rows))
    assert np.allclose(stats.mean, mean, atol=1e-12)
    assert np.allclose(stats.std, std, atol=1e-12)

    want = (test[0].feature_matrix() - mean) / std
    assert np.allclose(norm_test[0].feature_matrix(), want, atol=1e-12)


def test_normalize_is_identity_for_standardized_input(rng):
    sessions = _random_sessions(rng, 40)
    rows = np.concatenate([s.feature_matrix() for s in sessions])
    mean, std = rows.mean(axis=0), rows.std(axis=0)
    sessions = [replace(s, features=(s.features - mean) / std) for s in sessions]
    (normed,), _ = normalize_features(sessions)
    for before, after in zip(sessions, normed):
        assert np.allclose(after.feature_matrix(), before.feature_matrix(), atol=1e-9)


def test_normalize_passes_constant_features_through(rng):
    sessions = _random_sessions(rng, 10, feature_dim=3)
    for i, s in enumerate(sessions):
        features = s.features.copy()
        features[:, 1] = 7.0  # constant column
        sessions[i] = replace(s, features=features)
    (normed,), stats = normalize_features(sessions)
    assert stats.passthrough.tolist() == [False, True, False]
    for s in normed:
        assert np.all(s.feature_matrix()[:, 1] == 7.0)


# ---------------------------------------------------------------------------
# synthetic generator


def _tiny_spec(**overrides):
    base = dict(
        n_domains=2,
        sessions_per_domain={"train": 30, "valid": 10, "test": 20},
        feature_dim=4,
        shared_weight_scale=0.5,
        domain_weight_scale=1.0,
        list_length=(3, 6),
        label_noise=0.1,
        seed=99,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


def test_generator_is_deterministic(tmp_path):
    spec = _tiny_spec()
    ds1 = generate_synthetic(spec)
    ds2 = generate_synthetic(spec)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(ds1.train + ds1.valid + ds1.test, p1)
    write_dataset(ds2.train + ds2.valid + ds2.test, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_generator_respects_counts_and_domains():
    ds = generate_synthetic(_tiny_spec())
    for split, want in (("train", 30), ("valid", 10), ("test", 20)):
        sessions = getattr(ds, split)
        for d in (0, 1):
            assert sum(1 for s in sessions if s.domain == d) == want


def test_generator_supports_per_domain_imbalance():
    ds = generate_synthetic(_tiny_spec(sessions_per_domain={"train": [30, 10], "valid": 4, "test": 4}))
    assert sum(1 for s in ds.train if s.domain == 0) == 30
    assert sum(1 for s in ds.train if s.domain == 1) == 10


def test_generator_without_noise_marks_the_best_item():
    ds = generate_synthetic(_tiny_spec(label_noise=0.0))
    for s in ds.train + ds.valid + ds.test:
        labels = s.labels()
        assert labels.sum() == 1.0
        rel = ds.relevance(s)
        assert labels[int(np.argmax(rel))] == 1.0


def test_generator_timestamps_reproduce_splits():
    ds = generate_synthetic(_tiny_spec())
    merged = ds.train + ds.valid + ds.test
    train, valid, test = split_by_time(merged, train_end=1_000_000, valid_end=2_000_000)
    assert [s.query_id for s in train] == [s.query_id for s in ds.train]
    assert [s.query_id for s in valid] == [s.query_id for s in ds.valid]
    assert [s.query_id for s in test] == [s.query_id for s in ds.test]


def test_generator_validates_spec():
    with pytest.raises(ValueError):
        _tiny_spec(label_noise=1.0)
    with pytest.raises(ValueError):
        _tiny_spec(shared_weight_scale=0.0, domain_weight_scale=0.0)
    with pytest.raises(ValueError):
        _tiny_spec(list_length=(5, 3))
    with pytest.raises(ValueError):
        _tiny_spec(sessions_per_domain={"train": 5})


def _oracle_ndcg(ds, weights_of_domain, k=16):
    per_domain = {}
    for d in range(ds.spec.n_domains):
        vals = []
        for s in ds.test:
            if s.domain != d:
                continue
            v = ndcg_at_k(s.feature_matrix() @ weights_of_domain(d), s.labels(), k)
            if v is not None:
                vals.append(v)
        per_domain[d] = float(np.mean(vals))
    return per_domain


def test_shared_only_data_has_one_optimal_ranker():
    """With no domain-specific weights, the shared direction ranks both
    domains equally well (up to sampling noise)."""
    spec = _tiny_spec(
        sessions_per_domain={"train": 10, "valid": 10, "test": 400},
        shared_weight_scale=1.0,
        domain_weight_scale=0.0,
        list_length=(5, 10),
        label_noise=0.0,
    )
    ds = generate_synthetic(spec)
    scores = _oracle_ndcg(ds, lambda d: ds.shared_weights)
    assert abs(scores[0] - scores[1]) < 0.05


def test_domain_dominant_data_rewards_domain_rankers():
    """The data-level precondition for consolidation experiments: when
    domain weights dominate, the per-domain ranker beats the shared one."""
    spec = _tiny_spec(
        sessions_per_domain={"train": 10, "valid": 10, "test": 300},
        shared_weight_scale=0.2,
        domain_weight_scale=1.5,
        list_length=(5, 10),
        label_noise=0.0,
    )
    ds = generate_synthetic(spec)
    specific = _oracle_ndcg(ds, ds.ranking_weights)
    shared = _oracle_ndcg(ds, lambda d: ds.shared_weights)
    for d in (0, 1):
        assert specific[d] > shared[d] + 0.05, (d, specific, shared)
