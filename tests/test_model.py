"""Model container and the versioned binary file format."""

import tracemalloc

import numpy as np
import pytest

import ffgp.features as ft
import ffgp.gp as gp
import ffgp.model as model_module
from ffgp.data import Standardization, fit_standardization, make_cosine, make_smooth
from ffgp.errors import DimensionError, ParseError
from ffgp.gp import fit_posterior
from ffgp.model import TrainedModel, _array_order, _header, load_model, model_nbytes, save_model
from ffgp.train import TrainConfig, fit


def small_model(seed=0, n=30, family="frbf", d=1):
    X, y = (make_cosine(n, seed=seed) if d == 1 else make_smooth(n, d=d, seed=seed))
    spec = ft.KernelSpec.template(family, d, 1, 8)
    config = TrainConfig(max_iters=2, restart_count=1, restart_iters=2, seed=seed)
    std = fit_standardization(X, y)
    model, _ = fit(spec, std.apply_x(X), std.apply_y(y), config, standardization=std)
    return model, X, y


def test_save_load_round_trip_bytes_and_fields(tmp_path):
    model, X, _ = small_model()
    p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
    save_model(model, p1)
    loaded = load_model(p1)
    save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()

    assert loaded.seed == model.seed and loaded.n_train == model.n_train
    assert loaded.noise_var == model.noise_var and loaded.nlml == model.nlml
    np.testing.assert_array_equal(loaded.spec.params, model.spec.params)
    np.testing.assert_array_equal(loaded.beta, model.beta)
    np.testing.assert_array_equal(loaded.chol_factor, model.chol_factor)

    m1, v1 = model.predict(X)
    m2, v2 = loaded.predict(X)
    np.testing.assert_array_equal(m1, m2)  # prediction is bit-identical
    np.testing.assert_array_equal(v1, v2)


def test_model_size_independent_of_n(tmp_path):
    sizes = []
    for n in (30, 300):
        model, _, _ = small_model(n=n)
        p = tmp_path / f"m{n}.bin"
        save_model(model, p)
        sizes.append(p.stat().st_size)
    assert sizes[0] == sizes[1]


@pytest.mark.parametrize("family", ft.FAMILIES)
def test_model_nbytes_is_the_saved_file_size(tmp_path, family):
    model, _, _ = small_model(family=family, d=2)
    p = tmp_path / "m.bin"
    save_model(model, p)
    assert model_nbytes(model) == p.stat().st_size


@pytest.mark.parametrize("family", ft.FAMILIES)
def test_saved_file_is_header_plus_arrays_in_order(tmp_path, family):
    model, _, _ = small_model(family=family, d=2)
    p = tmp_path / "m.bin"
    save_model(model, p)
    spec, std = model.spec, model.standardization
    arrays = {
        "params": spec.params,
        "beta": model.beta,
        "chol": model.chol_factor[np.tril_indices(spec.n_rows)],
        "noise_var": [model.noise_var],
        "nlml": [model.nlml],
        "x_mean": std.x_mean,
        "x_std": std.x_std,
        "y_mean": [std.y_mean],
        "y_std": [std.y_std],
    }
    order = _array_order(spec.family, spec.d_in, spec.Q, spec.m_per_group)
    assert [len(np.atleast_1d(arrays[name])) for name, _ in order] == [n for _, n in order]
    want = _header(model) + b"".join(np.asarray(arrays[name], dtype="<f8").tobytes() for name, _ in order)
    assert p.read_bytes() == want


def test_blocked_prediction_matches_one_block(monkeypatch):
    model, _, _ = small_model(family="fard", d=2)
    X = make_smooth(50, d=2, seed=3)[0]
    whole = model.predict(X)
    rows = 16  # 50 rows make four blocks
    monkeypatch.setattr(model_module, "_PREDICT_BLOCK_BYTES", 8 * model.spec.n_rows * rows)
    blocked = model.predict(X)
    np.testing.assert_allclose(blocked[0], whole[0], rtol=1e-12)
    np.testing.assert_allclose(blocked[1], whole[1], rtol=1e-12)
    mean, var = model.predict(X[7])
    assert isinstance(mean, float) and isinstance(var, float)
    np.testing.assert_allclose([mean, var], [whole[0][7], whole[1][7]], rtol=1e-12)


def test_prediction_blocks_fill_one_buffer(monkeypatch):
    # one buffer per call takes every block's features, the shorter last
    # block in a leading-column view of it
    model, _, _ = small_model(family="fard", d=2)
    X = make_smooth(50, d=2, seed=3)[0]
    whole = model.predict(X)
    outs = []
    compute = model_module.compute_features

    def recorded(*args, out):
        outs.append(out)
        return compute(*args, out=out)

    monkeypatch.setattr(model_module, "compute_features", recorded)
    monkeypatch.setattr(model_module, "_PREDICT_BLOCK_BYTES", 8 * model.spec.n_rows * 16)
    blocked = model.predict(X)
    assert [out.shape[1] for out in outs] == [16, 16, 16, 2]
    assert len({out.__array_interface__["data"][0] for out in outs}) == 1
    assert all(out.flags.f_contiguous for out in outs)
    np.testing.assert_allclose(blocked, whole, rtol=1e-12)


def test_prediction_memory_is_set_by_the_block_not_the_rows(monkeypatch, mapped_bytes):
    spec = ft.KernelSpec.frbf(2, 256, lengthscale=0.8)
    D, rows, n = spec.n_rows, 64, 2048
    X, y = make_smooth(200, d=2, seed=5)
    weights = ft.feature_weight_matrix(spec)
    state = fit_posterior(ft.compute_features(spec, ft.build_stacks(spec, 0), X), weights, y, 0.1)
    model = TrainedModel(spec, 0, 0.1, 0.0, state.beta, state.chol_factor,
                         Standardization.identity(2), 200)
    block = 8 * D * rows
    monkeypatch.setattr(model_module, "_PREDICT_BLOCK_BYTES", block)
    X_test = make_smooth(n, d=2, seed=6)[0]
    mapped_bytes.clear()
    tracemalloc.start()
    try:
        model.predict(X_test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2,048 rows are 4D, so the call takes R = L^{-1} V^{1/2} (8 D^2 bytes,
    # built inside this call; gp._variance_route), one block of
    # features that the product overwrites and the (rows, m) frequencies:
    # against 32 blocks for the whole design matrix.  R and the block are
    # mappings, counted at their full size
    assert sorted(mapped_bytes) == [block, 8 * D * D]
    assert peak + sum(mapped_bytes) < 8 * D * D + 3 * block


@pytest.mark.parametrize("source", ["fitted", "loaded"])
def test_small_prediction_solves_with_the_factor(tmp_path, monkeypatch, mapped_bytes, source):
    # below 2D rows each block is scaled and solved against the stored
    # factor (Fortran-order from the fit, C-order from the loader), so the
    # call maps its block and nothing else: no R, no second triangle
    spec = ft.KernelSpec.frbf(2, 256, lengthscale=0.8)
    D, rows = spec.n_rows, 64
    X, y = make_smooth(200, d=2, seed=5)
    weights = ft.feature_weight_matrix(spec)
    state = fit_posterior(ft.compute_features(spec, ft.build_stacks(spec, 0), X), weights, y, 0.1)
    fitted = model = TrainedModel(spec, 0, 0.1, 0.0, state.beta, state.chol_factor,
                                  Standardization.identity(2), 200)
    if source == "loaded":
        save_model(model, tmp_path / "m.bin")
        model = load_model(tmp_path / "m.bin")
        assert model.chol_factor.flags.c_contiguous
    block = 8 * D * rows
    monkeypatch.setattr(model_module, "_PREDICT_BLOCK_BYTES", block)
    X_test = make_smooth(2 * D - 1, d=2, seed=6)[0]  # 16 blocks, the last one short
    mapped_bytes.clear()
    tracemalloc.start()
    try:
        mean, var = model.predict(X_test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block, mapped, and no copy of the factor (8 D^2 bytes) either way
    assert mapped_bytes == [block]
    assert peak + sum(mapped_bytes) < 3 * block
    # a model and its saved-and-loaded copy predict the same bits, though
    # one solves with L (lower) and the other with L.T (upper, transposed)
    fitted_mean, fitted_var = fitted.predict(X_test)
    np.testing.assert_array_equal(mean, fitted_mean)
    np.testing.assert_array_equal(var, fitted_var)
    # the same blocks through R = L^{-1} V^{1/2}
    monkeypatch.setattr(gp, "_variance_route", lambda D, rows: "inverse")
    want_mean, want_var = model.predict(X_test)
    np.testing.assert_array_equal(mean, want_mean)
    np.testing.assert_allclose(var, want_var, rtol=1e-13)


def test_save_and_load_hold_no_packed_copy_of_the_factor(tmp_path, mapped_bytes):
    # load_model reads the triangle from the file a chunk of rows at a time
    # into the factor, so it holds the factor (a mapping, counted at 8 D^2)
    # and less than the file beside it; save_model packs one chunk at a time
    spec = ft.KernelSpec.frbf(1, 512, lengthscale=0.5)
    D = spec.n_rows
    X, y = make_cosine(200, seed=1)
    weights = ft.feature_weight_matrix(spec)
    state = fit_posterior(ft.compute_features(spec, ft.build_stacks(spec, 0), X), weights, y, 0.1)
    model = TrainedModel(spec, 0, 0.1, 0.0, state.beta, state.chol_factor,
                         Standardization.identity(1), 200)
    p = tmp_path / "m.bin"
    peaks = []
    for call in (lambda: save_model(model, p), lambda: load_model(p)):
        mapped_bytes.clear()
        tracemalloc.start()
        try:
            loaded = call()
            peaks.append(tracemalloc.get_traced_memory()[1] + sum(mapped_bytes))
        finally:
            tracemalloc.stop()
    size = p.stat().st_size
    assert D == 1024 and size > 4 * D * D
    assert peaks[0] < 0.5 * size
    assert peaks[1] <= size + 8 * D * D
    # the small arrays are copies, so nothing the model keeps holds a read buffer
    assert loaded.beta.base is None and loaded.spec.params.base is None
    np.testing.assert_array_equal(loaded.chol_factor, model.chol_factor)
    assert loaded.chol_factor.flags.c_contiguous


def test_predict_validates_dimensions():
    model, _, _ = small_model(family="fard", d=2)
    with pytest.raises(DimensionError) as err:
        model.predict(np.zeros((4, 3)))
    assert "d_in=2" in str(err.value) and "3" in str(err.value)
    with pytest.raises(DimensionError):
        model.predict(np.zeros(()))


def test_predict_single_row_scalar():
    model, X, _ = small_model()
    mean, var = model.predict(X[0])
    assert isinstance(mean, float) and isinstance(var, float)
    means, variances = model.predict(X[:1])
    assert mean == means[0] and var == variances[0]


def test_posterior_variance_floor_survives_round_trip(tmp_path):
    model, X, _ = small_model()
    p = tmp_path / "m.bin"
    save_model(model, p)
    _, var = load_model(p).predict(np.linspace(-20, 30, 50)[:, None])
    # far from data in standardized units the variance approaches the prior,
    # and it can never fall below the de-standardized noise floor
    assert np.all(var >= model.noise_var * model.standardization.y_std**2 * (1 - 1e-12))


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"")
    with pytest.raises(ParseError, match="missing header"):
        load_model(p)
    p.write_bytes(b"not-a-model 1\n{}\n")
    with pytest.raises(ParseError, match="bad magic"):
        load_model(p)
    p.write_bytes(b"ffgp-model 99\n{}\n")
    with pytest.raises(ParseError, match="version"):
        load_model(p)
    p.write_bytes(b"ffgp-model 1\nnot json\n")
    with pytest.raises(ParseError, match="metadata"):
        load_model(p)


def test_load_rejects_a_header_too_large_for_a_float(tmp_path):
    # the block count is integer arithmetic, so an m_per_group past float
    # range sizes the payload instead of overflowing
    p = tmp_path / "big.bin"
    p.write_bytes(b'ffgp-model 1\n{"Q":1,"d_in":1,"family":"frbf","m_per_group":1' + b"0" * 400
                  + b',"n_train":"000000000010","seed":0}\n' + bytes(64))
    with pytest.raises(ParseError, match="header implies"):
        load_model(p)


def test_load_rejects_truncated_payload(tmp_path):
    model, _, _ = small_model()
    p = tmp_path / "m.bin"
    save_model(model, p)
    raw = p.read_bytes()
    p.write_bytes(raw[:-16])
    with pytest.raises(ParseError, match="payload"):
        load_model(p)


def test_header_is_two_ascii_lines(tmp_path):
    model, _, _ = small_model()
    p = tmp_path / "m.bin"
    save_model(model, p)
    raw = p.read_bytes()
    line1, rest = raw.split(b"\n", 1)
    line2 = rest.split(b"\n", 1)[0]
    assert line1 == b"ffgp-model 1"
    import json

    meta = json.loads(line2)
    assert meta["family"] == "frbf" and meta["d_in"] == 1
    assert meta["n_train"] == "%012d" % model.n_train


def test_spec_shape_fields_must_be_integers(tmp_path):
    # a bool or fractional shape used to train and then save a header that
    # load_model refused; floats died inside numpy
    for shape in ((5, True, 8), (5, 1, 8.5), (5, 2.0, 8), (5.0, 1, 8), (5, 1, np.float64(8)), ("5", 1, 8)):
        with pytest.raises(DimensionError, match="must be an integer >= 1"):
            ft.KernelSpec.template("gm", *shape)
        with pytest.raises(DimensionError, match="must be an integer >= 1"):
            ft.KernelSpec("gm", *shape, params=np.zeros(11))
    # a shape whose feature rows or parameters no float64 array can hold
    for shape in ((1, 1, 2**62), (1, 2**62, 8), (2**62, 1, 8), (1, 1, 10**400)):
        with pytest.raises(DimensionError, match="too large for one array"):
            ft.KernelSpec.template("gm", *shape)
    spec = ft.KernelSpec.template("gm", np.int64(5), np.int64(1), np.int64(8))
    assert all(type(v) is int for v in (spec.d_in, spec.Q, spec.m_per_group))
    # an int-shaped spec saves the header bytes it always has
    model, _, _ = small_model(family="gm")
    save_model(model, tmp_path / "m.bin")
    assert (tmp_path / "m.bin").read_bytes().split(b"\n")[:2] == [
        b"ffgp-model 1",
        b'{"Q":1,"d_in":1,"family":"gm","m_per_group":8,"n_train":"000000000030","seed":0}',
    ]
