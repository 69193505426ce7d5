"""CSV ingestion, standardization, fold partitions, metrics, generators."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffgp.data import (
    Dataset,
    Standardization,
    fit_standardization,
    kfold_partitions,
    load_csv,
    load_feature_csv,
    make_cosine,
    make_smooth,
    make_surrogate,
    rmse,
    save_csv,
)
from ffgp.errors import DimensionError, DomainError, InsufficientDataError, ParseError


def write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_csv_with_header_comma(tmp_path):
    p = write(tmp_path, "a,b,target\n1,2,3\n4,5,6\n")
    ds = load_csv(p)
    np.testing.assert_array_equal(ds.X, [[1, 2], [4, 5]])
    np.testing.assert_array_equal(ds.y, [3, 6])
    assert ds.feature_names == ["a", "b"]
    assert ds.n == 2 and ds.d == 2 and ds.n_rejected == 0


def test_load_csv_whitespace_no_header(tmp_path):
    p = write(tmp_path, "1 2 3\n4 5 6\n")
    ds = load_csv(p)
    np.testing.assert_array_equal(ds.y, [3, 6])
    assert ds.feature_names == []


def test_load_csv_target_selection(tmp_path):
    p = write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n")
    ds = load_csv(p, target_column="a")
    np.testing.assert_array_equal(ds.y, [1, 4])
    np.testing.assert_array_equal(ds.X, [[2, 3], [5, 6]])
    assert ds.feature_names == ["b", "c"]
    ds2 = load_csv(p, target_column=0)
    np.testing.assert_array_equal(ds2.y, [1, 4])
    ds3 = load_csv(p, target_column=-1)
    np.testing.assert_array_equal(ds3.y, [3, 6])


def test_load_csv_drops_nonfinite_rows(tmp_path):
    p = write(tmp_path, "1,2\nnan,3\n4,inf\n5,6\n")
    ds = load_csv(p)
    assert ds.n == 2 and ds.n_rejected == 2
    np.testing.assert_array_equal(ds.y, [2, 6])


def test_load_csv_errors(tmp_path):
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, ""))
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "a,b\n"))
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "1,2\n3\n"))  # ragged row
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "1,2\n3,x\n"))  # non-numeric cell
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "nan,1\ninf,2\n"))  # nothing survives
    with pytest.raises(DimensionError):
        load_csv(write(tmp_path, "1\n2\n"))  # single column
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "a,b\n1,2\n"), target_column="z")
    with pytest.raises(DimensionError):
        load_csv(write(tmp_path, "1,2\n"), target_column=5)
    with pytest.raises(ParseError, match="row 1, column 2: cannot parse ''"):
        load_csv(write(tmp_path, "a,b,c\n1,,3\n4,,6\n"), target_column="c")
    with pytest.raises(ParseError, match="header has 2 names, rows have 3 cells"):
        load_csv(write(tmp_path, "a,b\n1,2,3\n4,5,6\n"))


def test_load_feature_csv(tmp_path):
    X, rej = load_feature_csv(write(tmp_path, "x1,x2\n1,2\n3,4\n"))
    np.testing.assert_array_equal(X, [[1, 2], [3, 4]])
    assert rej == 0
    X, rej = load_feature_csv(write(tmp_path, ""))
    assert X.shape == (0, 0) and rej == 0
    X, rej = load_feature_csv(write(tmp_path, "nan,1\n2,inf\n"))
    assert X.shape == (0, 2) and rej == 2
    with pytest.raises(ParseError):
        load_feature_csv(write(tmp_path, "1,2\n3\n"))
    with pytest.raises(ParseError, match="row 2, column 2: cannot parse 'x'"):
        load_feature_csv(write(tmp_path, "1,2\n3,x\n"))


def test_utf8_byte_order_mark_is_not_a_header(tmp_path):
    # read as text, the BOM made "\ufeff1" a cell that fails to parse, so
    # the first data row was taken for a header and dropped
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n5,6\n")
    ds = load_csv(p)
    assert ds.n == 3 and ds.feature_names == []
    np.testing.assert_array_equal(ds.X[:, 0], [1, 3, 5])
    X, rej = load_feature_csv(p)
    np.testing.assert_array_equal(X, [[1, 2], [3, 4], [5, 6]])
    assert rej == 0


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 3))
    y = rng.standard_normal(20)
    p = tmp_path / "rt.csv"
    save_csv(p, X, y, feature_names=["u", "v", "w"])
    ds = load_csv(p)
    np.testing.assert_array_equal(ds.X, X)  # %.17g is lossless for float64
    np.testing.assert_array_equal(ds.y, y)
    assert ds.feature_names == ["u", "v", "w"]


def test_standardization_round_trip():
    rng = np.random.default_rng(1)
    X = rng.uniform(-3, 9, size=(50, 4))
    y = 5.0 + 2.0 * rng.standard_normal(50)
    std = fit_standardization(X, y)
    Xs = std.apply_x(X)
    ys = std.apply_y(y)
    np.testing.assert_allclose(Xs.mean(axis=0), 0, atol=1e-12)
    np.testing.assert_allclose(Xs.std(axis=0), 1, rtol=1e-12)
    np.testing.assert_allclose(std.undo_y(ys), y, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(std.undo_y_var(np.ones(50)), np.full(50, std.y_std**2))


def test_standardization_constant_columns():
    X = np.ones((10, 2))
    y = np.full(10, 3.0)
    std = fit_standardization(X, y)
    assert np.all(std.x_std == 1.0) and std.y_std == 1.0
    np.testing.assert_array_equal(std.apply_x(X), np.zeros_like(X))


def test_identity_standardization():
    std = Standardization.identity(3)
    X = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(std.apply_x(X), X)
    np.testing.assert_array_equal(std.undo_y(np.array([1.0])), [1.0])


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(10, 200),
    k=st.integers(2, 10),
    seed=st.integers(0, 2**31),
)
def test_kfold_properties(n, k, seed):
    folds = kfold_partitions(n, k, seed)
    assert len(folds) == k
    all_test = np.concatenate([t for _, t in folds])
    assert sorted(all_test.tolist()) == list(range(n))  # exact cover
    sizes = [len(t) for _, t in folds]
    assert max(sizes) - min(sizes) <= 1
    for train, test in folds:
        assert len(np.intersect1d(train, test)) == 0
        assert len(train) + len(test) == n
        assert np.all(np.diff(train) > 0) and np.all(np.diff(test) > 0)


def test_kfold_deterministic_and_guards():
    a = kfold_partitions(100, 10, seed=3)
    b = kfold_partitions(100, 10, seed=3)
    for (tr1, te1), (tr2, te2) in zip(a, b):
        np.testing.assert_array_equal(tr1, tr2)
        np.testing.assert_array_equal(te1, te2)
    with pytest.raises(InsufficientDataError):
        kfold_partitions(5, 10)
    with pytest.raises(DomainError):
        kfold_partitions(10, 1)


def test_rmse_pinned_value_and_guards():
    assert rmse([3.0, 0.0], [0.0, -4.0]) == pytest.approx(np.sqrt(12.5), rel=1e-15)
    assert rmse([1.0, 1.0], [1.0, 1.0]) == 0.0
    with pytest.raises(DimensionError):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(DimensionError):
        rmse([], [])


def test_generators_deterministic_and_shaped():
    X1, y1 = make_cosine(40, seed=9)
    X2, y2 = make_cosine(40, seed=9)
    np.testing.assert_array_equal(X1, X2)
    np.testing.assert_array_equal(y1, y2)
    assert X1.shape == (40, 1)

    Xs, ys = make_surrogate(120, seed=5)
    assert Xs.shape == (120, 5) and ys.shape == (120,)

    Xm, ym = make_smooth(64, d=3, seed=1)
    assert Xm.shape == (64, 3) and ym.shape == (64,)
    Xm2, _ = make_smooth(64, d=3, seed=2)
    assert not np.array_equal(Xm, Xm2)


def test_dataset_properties():
    ds = Dataset(X=np.zeros((7, 2)), y=np.zeros(7))
    assert ds.n == 7 and ds.d == 2 and ds.n_rejected == 0


@pytest.mark.parametrize("side", ["X", "y"])
@pytest.mark.parametrize("value", [1e300, 1e308, np.finfo(float).max])
def test_standardization_refuses_overflowing_statistics(side, value):
    rng = np.random.default_rng(2)
    # below 1, so every scaled value stays finite
    X = rng.uniform(0.5, 1.0, size=(40, 2))
    y = rng.uniform(0.5, 1.0, size=40)
    if side == "X":
        X[:, 1] *= value
    else:
        y *= value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning ahead of the error
        with pytest.raises(DomainError, match=f"^{side} mean or scale is not finite"):
            fit_standardization(X, y)


def test_standardization_statistics_are_plain_moments():
    rng = np.random.default_rng(3)
    X = rng.uniform(-1e150, 1e150, size=(30, 3))
    y = 1e150 * rng.standard_normal(30)
    std = fit_standardization(X, y)
    np.testing.assert_array_equal(std.x_mean, X.mean(axis=0))
    np.testing.assert_array_equal(std.x_std, X.std(axis=0))
    assert std.y_mean == float(y.mean()) and std.y_std == float(y.std())


@pytest.mark.parametrize("scale", [1e-300, 1e-200])
def test_standardization_keeps_underflowing_scales(scale):
    # np.std squares the deviations, which underflow to 0 below about 1e-154
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 2)) * scale
    y = (np.sin(X[:, 0] / scale) + 0.1 * rng.standard_normal(40)) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        std = fit_standardization(X, y)
    np.testing.assert_allclose(std.apply_x(X).std(axis=0), 1.0, rtol=1e-12)
    np.testing.assert_allclose(std.apply_y(y).std(), 1.0, rtol=1e-12)
    assert np.all(std.x_std < 1e-150) and std.y_std < 1e-150
