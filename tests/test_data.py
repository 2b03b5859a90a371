import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from eqnn.data import (
    Dataset,
    Sample,
    gen_linear,
    gen_sigmoid,
    gen_tanh,
    gen_two_class_usage,
    load_csv,
    normalize_minmax,
    save_csv,
    split_dataset,
)
from eqnn.errors import DataFormatError, DegenerateRangeError, UsageError


# --------------------------------------------------------------------------
# Dataset container


def test_dataset_validates_construction():
    good = Sample((0.1,), 0.2)
    with pytest.raises(UsageError):
        Dataset((good,), "ranking", "toy", 0)
    with pytest.raises(UsageError):
        Dataset((Sample((0.1,), 0.2), Sample((0.1, 0.2), 0.2)), "regression", "toy", 0)
    with pytest.raises(UsageError):
        Dataset((Sample((0.1, 0.2), 2),), "classification", "toy", 0)
    with pytest.raises(UsageError):
        Dataset((Sample((0.1, 0.2), "1"),), "classification", "toy", 0)


def test_dataset_arrays_match_samples():
    ds = Dataset(
        (Sample((1.0, 2.0), 0), Sample((3.0, 4.0), 1)), "classification", "toy", 0
    )
    np.testing.assert_array_equal(ds.features_array(), [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(ds.targets_array(), [0, 1])
    assert len(ds) == 2
    assert ds.n_features == 2


def test_every_producer_holds_read_only_contiguous_float_columns(tmp_path):
    two_class = gen_two_class_usage(per_class=6, seed=2)
    save_csv(two_class, tmp_path / "two.csv")
    built = Dataset((Sample((1.0, 2.0), 0), Sample((3.0, 4.0), 1)), "classification", "toy", 0)
    for ds in (
        gen_linear(5, seed=1), gen_sigmoid(5, seed=1), gen_tanh(5, seed=1), two_class,
        normalize_minmax(built), *split_dataset(two_class, 0.25, seed=2),
        load_csv(tmp_path / "two.csv"), built, Dataset((), "regression", "toy", 0),
    ):
        assert ds.features.shape == (len(ds), ds.n_features) and ds.targets.shape == (len(ds),)
        for column in (ds.features, ds.targets):
            assert column.dtype == np.float64 and column.flags.c_contiguous
            with pytest.raises(ValueError):
                column[...] = 0.0


def test_samples_view_gives_int_labels_and_round_trips():
    ds = gen_two_class_usage(per_class=3, seed=5)
    assert all(type(s.target) is int for s in ds.samples)
    assert Dataset(ds.samples, ds.kind, ds.generator, ds.seed) == ds
    regression = gen_tanh(4, seed=5)
    assert all(type(s.target) is float for s in regression.samples)
    assert Dataset(regression.samples, "regression", "tanh", 5) == regression
    assert regression != Dataset(regression.samples, "regression", "tanh", 6)


# --------------------------------------------------------------------------
# Generators


def test_gen_linear_is_identity_on_uniform_draws():
    ds = gen_linear(100, seed=5)
    x = ds.features_array()[:, 0]
    np.testing.assert_array_equal(x, ds.targets_array())
    assert np.all((-1.0 <= x) & (x <= 1.0))
    assert ds.kind == "regression"
    assert ds.generator == "linear"
    assert ds.seed == 5


def test_gen_sigmoid_targets_are_tanh_of_features():
    # 2*s(2u) - 1 == tanh(u), so the stored half-width feature makes the
    # target an exact tanh of the feature column.
    ds = gen_sigmoid(200, seed=7)
    x = ds.features_array()[:, 0]
    np.testing.assert_allclose(ds.targets_array(), np.tanh(x), atol=1e-12)
    assert np.all((-1.5 <= x) & (x <= 1.5))


def test_gen_tanh_ranges_and_values():
    ds = gen_tanh(150, seed=3)
    x = ds.features_array()[:, 0]
    np.testing.assert_allclose(ds.targets_array(), np.tanh(x), atol=0)
    assert np.all(np.abs(x) <= 1.5)
    assert np.all(np.abs(ds.targets_array()) <= math.tanh(1.5) + 1e-15)


def test_generators_are_seed_deterministic():
    for gen in (gen_linear, gen_sigmoid, gen_tanh):
        assert gen(50, seed=11) == gen(50, seed=11)
        assert gen(50, seed=11) != gen(50, seed=12)
    assert gen_two_class_usage(40, seed=11) == gen_two_class_usage(40, seed=11)


def test_generators_reject_empty_requests():
    for gen in (gen_linear, gen_sigmoid, gen_tanh):
        with pytest.raises(UsageError):
            gen(0)
    with pytest.raises(UsageError):
        gen_two_class_usage(0)


def test_two_class_shape_and_labels():
    ds = gen_two_class_usage(per_class=500, seed=1)
    assert len(ds) == 1000
    labels = ds.targets_array()
    np.testing.assert_array_equal(labels[:500], 0)
    np.testing.assert_array_equal(labels[500:], 1)
    features = ds.features_array()
    assert features.min() >= 0.0 and features.max() <= 1.0
    # min-max normalization attains both endpoints in every column
    np.testing.assert_allclose(features.min(axis=0), [0.0, 0.0], atol=0)
    np.testing.assert_allclose(features.max(axis=0), [1.0, 1.0], atol=0)


def test_two_class_matches_raw_draw_chain():
    # Replay the documented draw order with the same generator and verify
    # the shipped dataset is exactly the normalized version of that chain.
    per_class, seed = 30, 9
    rng = np.random.default_rng(seed)
    mid0 = rng.uniform(0.5, 3.0, per_class)
    end0 = mid0 + rng.uniform(0.2, 2.0, per_class)
    mid1 = rng.uniform(6.0, 12.0, per_class)
    end1 = mid1 + rng.uniform(1.0, 8.0, per_class)
    mids = np.concatenate([mid0, mid1])
    ends = np.concatenate([end0, end1])
    assert np.all(ends >= mids)
    expected = np.stack(
        [
            (mids - mids.min()) / (mids.max() - mids.min()),
            (ends - ends.min()) / (ends.max() - ends.min()),
        ],
        axis=1,
    )
    got = gen_two_class_usage(per_class, seed=seed).features_array()
    np.testing.assert_allclose(got, expected, atol=1e-15)


def test_two_class_regimes_are_separated():
    ds = gen_two_class_usage(per_class=400, seed=2)
    x0 = ds.features_array()[:, 0]
    labels = ds.targets_array()
    # raw regimes [0.5, 3] vs [6, 12] leave a wide margin after scaling
    assert x0[labels == 1].min() - x0[labels == 0].max() > 0.1


# --------------------------------------------------------------------------
# Normalization and splitting


def test_normalize_minmax_simple_column():
    ds = Dataset(
        (Sample((2.0,), 0.0), Sample((4.0,), 0.0), Sample((6.0,), 0.0)),
        "regression",
        "toy",
        0,
    )
    scaled = normalize_minmax(ds)
    np.testing.assert_allclose(scaled.features_array()[:, 0], [0.0, 0.5, 1.0])
    assert scaled.targets_array().tolist() == [0.0, 0.0, 0.0]


def test_normalize_minmax_is_idempotent_on_unit_range():
    ds = Dataset(
        (Sample((0.0, 1.0), 0), Sample((1.0, 0.0), 1)), "classification", "toy", 0
    )
    scaled = normalize_minmax(ds)
    np.testing.assert_array_equal(scaled.features_array(), ds.features_array())


def test_normalize_minmax_rejects_constant_feature():
    ds = Dataset((Sample((3.0, 1.0), 0.0), Sample((3.0, 2.0), 0.0)), "regression", "toy", 0)
    with pytest.raises(DegenerateRangeError) as info:
        normalize_minmax(ds)
    assert "0" in str(info.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_normalize_minmax_refuses_a_non_finite_feature_naming_its_row(bad):
    rows = [(0.0, 1.0), (0.5, 0.2), (1.0, bad), (bad, 0.3)]
    ds = Dataset(tuple(Sample(x, 0.0) for x in rows), "regression", "toy", 0)
    with pytest.raises(UsageError, match="^dataset row 2 has a non-finite feature$"):
        normalize_minmax(ds)


def test_split_sizes_disjointness_and_determinism():
    ds = gen_two_class_usage(per_class=50, seed=8)
    train, test = split_dataset(ds, 0.2, seed=8)
    assert len(train) == 80 and len(test) == 20
    seen = train.samples + test.samples
    assert sorted(seen, key=lambda s: s.features) == sorted(
        ds.samples, key=lambda s: s.features
    )
    again_train, again_test = split_dataset(ds, 0.2, seed=8)
    assert train == again_train and test == again_test
    other_train, _ = split_dataset(ds, 0.2, seed=9)
    assert train != other_train


def test_generating_and_splitting_10k_rows_allocates_little_beyond_the_columns():
    # Columns: raw and normalized features (2 x 160 kB), labels (80 kB) and
    # the split's copies (240 kB), plus the draws and the permutation.  A
    # frozen Sample per row, holding a tuple and boxed floats, took 4.5 MB.
    gen_two_class_usage(10, seed=1)
    tracemalloc.start()
    try:
        train, test = split_dataset(gen_two_class_usage(5000, seed=3), 0.2, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(train), len(test)) == (8000, 2000)
    assert peak < 1.6e6, peak


def test_split_rejects_degenerate_fractions():
    ds = gen_linear(10, seed=0)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(UsageError):
            split_dataset(ds, bad, seed=0)
    with pytest.raises(UsageError):
        split_dataset(gen_linear(2, seed=0), 0.05, seed=0)


# --------------------------------------------------------------------------
# CSV persistence


def test_csv_round_trip_regression(tmp_path):
    ds = gen_sigmoid(80, seed=13)
    path = tmp_path / "sigmoid.csv"
    save_csv(ds, path)
    assert load_csv(path) == ds


def test_csv_round_trip_classification(tmp_path):
    ds = gen_two_class_usage(per_class=30, seed=13)
    path = tmp_path / "usage.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back == ds
    assert all(isinstance(s.target, int) for s in back.samples)


def test_csv_header_and_row_format(tmp_path):
    ds = Dataset((Sample((0.25, 1.0), 1),), "classification", "demo", 99)
    path = tmp_path / "one.csv"
    save_csv(ds, path)
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "# generator=demo seed=99 kind=classification"
    assert lines[1] == "0.25,1.0,1"
    assert text.endswith("\n")
    assert (os.stat(path).st_mode & 0o777) == 0o644


def test_csv_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.1,0.2\n")
    with pytest.raises(DataFormatError) as info:
        load_csv(path)
    assert info.value.line_number == 1


def test_csv_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# generator=linear seed=zero kind=regression\n0.1,0.2\n")
    with pytest.raises(DataFormatError):
        load_csv(path)
    path.write_text("# generator=linear seed=1\n0.1,0.2\n")
    with pytest.raises(DataFormatError):
        load_csv(path)


def test_csv_rejects_ragged_rows_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# generator=toy seed=0 kind=regression\n0.1,0.2\n0.3,0.4,0.5\n"
    )
    with pytest.raises(DataFormatError) as info:
        load_csv(path)
    assert info.value.line_number == 3
    assert str(info.value).startswith("line 3:")


def test_csv_rejects_non_numeric_cell_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# generator=toy seed=0 kind=regression\n0.1,0.2\noops,0.4\n")
    with pytest.raises(DataFormatError) as info:
        load_csv(path)
    assert info.value.line_number == 3


def test_csv_rejects_out_of_range_label_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# generator=toy seed=0 kind=classification\n0.1,0.2,0\n0.3,0.4,2\n")
    with pytest.raises(DataFormatError) as info:
        load_csv(path)
    assert info.value.line_number == 3
    assert "2" in str(info.value)


def test_csv_rejects_fractional_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# generator=toy seed=0 kind=classification\n0.1,0.2,0.5\n")
    with pytest.raises(DataFormatError) as info:
        load_csv(path)
    assert info.value.line_number == 2


def test_csv_rejects_empty_and_header_only_files(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataFormatError):
        load_csv(path)
    path.write_text("# generator=toy seed=0 kind=regression\n")
    with pytest.raises(DataFormatError) as info:
        load_csv(path)
    assert "no data rows" in str(info.value)


def test_csv_blank_lines_are_ignored(tmp_path):
    path = tmp_path / "gappy.csv"
    path.write_text("# generator=toy seed=0 kind=regression\n0.1,0.2\n\n0.3,0.4\n\n")
    ds = load_csv(path)
    assert len(ds) == 2


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60)
@given(data=st.data())
def test_csv_round_trips_finite_values_and_rejects_non_finite(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "property.csv"
    kind = data.draw(st.sampled_from(["regression", "classification"]))
    width = data.draw(st.integers(1, 3))
    target = FINITE if kind == "regression" else st.integers(0, 1)
    rows = data.draw(
        st.lists(st.tuples(st.lists(FINITE, min_size=width, max_size=width), target),
                 min_size=1, max_size=8)
    )
    ds = Dataset(tuple(Sample(tuple(x), y) for x, y in rows), kind, "toy", 0)
    save_csv(ds, path)
    back = load_csv(path)
    assert back == ds
    assert back.features_array().tobytes() == ds.features_array().tobytes()
    assert back.targets_array().tobytes() == ds.targets_array().tobytes()

    # Poison one cell (a label can only be 0/1, so only features there).
    row = data.draw(st.integers(0, len(rows) - 1))
    column = data.draw(st.integers(0, width if kind == "regression" else width - 1))
    cells = list(rows[row][0]) + [rows[row][1]]
    cells[column] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    samples = list(ds.samples)
    samples[row] = Sample(tuple(cells[:-1]), cells[-1])
    save_csv(Dataset(tuple(samples), kind, "toy", 0), path)
    with pytest.raises(DataFormatError) as info:
        load_csv(path)
    assert info.value.line_number == row + 2


FEATURE_TEXTS = st.one_of(
    FINITE.map(repr),
    st.sampled_from(["1_000", " 0.5", "0.5 ", "Infinity", "1e400", "nan", "inf", "-inf",
                     "+inf", "NaN", "abc", "", "1.5.2"]),
)
LABEL_TEXTS = st.sampled_from(["0", "1", "2", "0.5", "1.0", " 1", "1 ", "01", "-0", "nan", ""])


@st.composite
def csv_texts(draw):
    """A file in the ``save_csv`` layout, mostly valid, with up to three faults
    drawn from: an odd feature or label text, a ragged row, blank lines, CRLF
    endings."""
    kind = draw(st.sampled_from(["regression", "classification"]))
    width = draw(st.integers(1, 3))
    labels = st.sampled_from(["0", "1"]) if kind == "classification" else FINITE.map(repr)
    rows = [
        [repr(v) for v in draw(st.lists(FINITE, min_size=width, max_size=width))]
        + [draw(labels)]
        for _ in range(draw(st.integers(0, 6)))
    ]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        fault = draw(st.sampled_from(["feature", "label", "short", "long"]))
        if fault == "feature":
            row[draw(st.integers(0, max(len(row) - 2, 0)))] = draw(FEATURE_TEXTS)
        elif fault == "label":
            row[-1] = draw(LABEL_TEXTS)
        elif fault == "short" and len(row) > 1:
            del row[0]
        elif fault == "long":
            row.append(draw(FEATURE_TEXTS))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    header = f"# generator=toy seed=0 kind={kind}"
    return end.join([header, *lines]) + draw(st.sampled_from(["", end]))


def _read(reader, path):
    try:
        return reader(path)
    except DataFormatError as exc:
        return exc.line_number, str(exc)


@settings(max_examples=300)
@given(text=csv_texts())
# A short row beside a long one keeps the total number of cells.
@example(text="# generator=toy seed=0 kind=regression\n0.1,0.2\n0.3\n0.4,0.5,0.6\n")
@example(text="# generator=toy seed=0 kind=classification\n0.1,0.2,0\n0.3,1\n0.4,0.5,0.6,1\n")
def test_load_csv_matches_the_line_by_line_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "reference.csv"
    path.write_bytes(text.encode())
    got, want = _read(load_csv, path), _read(oracles.load_csv_by_lines, path)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, Dataset) and got == want
    for ours, theirs in ((got.features, want.features), (got.targets, want.targets)):
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
        assert ours.flags.c_contiguous and not ours.flags.writeable
    assert got.samples == want.samples
