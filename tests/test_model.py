"""Model container and the versioned binary file format."""

import numpy as np
import pytest

import ffgp.features as ft
from ffgp.data import fit_standardization, make_cosine, make_smooth
from ffgp.errors import DimensionError, ParseError
from ffgp.model import TrainedModel, load_model, model_nbytes, save_model
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


def test_predict_validates_dimensions():
    model, _, _ = small_model(family="fard", d=2)
    with pytest.raises(DimensionError) as err:
        model.predict(np.zeros((4, 3)))
    assert "d_in=2" in str(err.value) and "3" in str(err.value)


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
