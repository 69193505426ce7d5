"""Initialization recipes and the restart/continue optimization protocol."""

import math
import warnings

import numpy as np
import pytest

import ffgp.features as ft
from ffgp.data import make_cosine
from ffgp.errors import (
    DimensionError,
    DomainError,
    IllConditionedError,
    InsufficientDataError,
    OptimizationFailureError,
)
from ffgp.gp import nlml_value_and_grad
from ffgp.model import load_model, save_model
from ffgp.train import (
    QUANTILE_LEVELS,
    TrainConfig,
    _make_objective,
    fit,
    init_ard,
    init_family,
    init_lengthscale_quantiles,
    restart_starts,
    sample_pair_distances,
)


def test_config_validation():
    TrainConfig()  # defaults fine
    TrainConfig(max_iters=0, restart_iters=0)  # zero budgets are legal
    with pytest.raises(DomainError):
        TrainConfig(restart_count=0)
    with pytest.raises(DomainError):
        TrainConfig(max_iters=-1)
    with pytest.raises(DomainError):
        TrainConfig(restart_iters=-1)
    with pytest.raises(DomainError):
        TrainConfig(gradient_tolerance=0.0)
    with pytest.raises(DomainError):
        TrainConfig(seed=-1)
    # budgets are integers (bools refused) and the tolerance finite
    for bad in ({"restart_count": 2.5}, {"max_iters": 1.5}, {"restart_iters": True},
                {"gradient_tolerance": float("nan")}, {"gradient_tolerance": float("inf")},
                {"gradient_tolerance": True}, {"gradient_tolerance": "1e-6"}):
        with pytest.raises(DomainError):
            TrainConfig(**bad)
    config = TrainConfig(max_iters=np.int64(4), restart_count=np.int64(2), restart_iters=np.int64(1))
    assert all(type(v) is int for v in (config.max_iters, config.restart_count, config.restart_iters))


def test_seed_is_stored_as_a_python_int(tmp_path):
    config = TrainConfig(max_iters=0, restart_count=1, restart_iters=0, seed=np.int64(3))
    assert type(config.seed) is int and config.seed == 3
    X, y = make_cosine(20, seed=0)
    model, _ = fit(ft.KernelSpec.template("frbf", 1, 1, 8), X, y, config)
    path = tmp_path / "m.bin"
    save_model(model, path)  # json writes a Python int, not an np.int64
    assert load_model(path).seed == 3
    for bad in (True, False, 3.0, np.float64(3.0), "3", None):
        with pytest.raises(DomainError):
            TrainConfig(seed=bad)


def test_quantile_convention():
    # linear-interpolation quantiles of 1..100 at the five candidate levels
    got = np.quantile(np.arange(1.0, 101.0), QUANTILE_LEVELS)
    np.testing.assert_allclose(got, [10.9, 30.7, 50.5, 70.3, 90.1], rtol=0, atol=1e-12)


def test_pair_distances_shape_and_guards():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((137, 3))
    dists = sample_pair_distances(X, rng)
    assert dists.shape == (28,)  # ceil(137 / 5)
    assert np.all(dists > 0)
    big = rng.standard_normal((50_000, 2))
    assert sample_pair_distances(big, rng).shape == (2000,)  # capped
    with pytest.raises(InsufficientDataError):
        sample_pair_distances(X[:1], rng)
    with pytest.raises(InsufficientDataError):
        sample_pair_distances(np.zeros((40, 2)), rng)


def test_pair_distances_look_past_duplicate_rows():
    # 12 rows, 11 of them equal: the 3 sampled pairs are often all duplicates
    X = np.zeros((12, 2))
    X[5, 1] = 1.0
    for seed in range(20):
        dists = sample_pair_distances(X, np.random.default_rng(seed))
        assert np.any(dists > 0) and np.all(np.isin(dists, [0.0, 1.0]))
    with pytest.raises(InsufficientDataError, match="all input rows are identical"):
        sample_pair_distances(np.ones((12, 2)), np.random.default_rng(0))


def test_lengthscale_candidates_monotone():
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 5, size=(400, 2))
    cands = init_lengthscale_quantiles(X, rng)
    assert cands.shape == (5,)
    assert np.all(np.diff(cands) >= 0) and cands[0] > 0


def test_init_ard_bounds_and_constant_column():
    rng = np.random.default_rng(2)
    X = np.column_stack([np.linspace(0, 4, 60), np.linspace(-1, 1, 60)])
    d = 2
    for _ in range(20):
        ell = init_ard(X, rng)
        lo = 0.4 * np.array([4.0, 2.0]) * math.sqrt(d)
        hi = 0.8 * np.array([4.0, 2.0]) * math.sqrt(d)
        assert np.all(ell >= lo) and np.all(ell <= hi)
    Xc = X.copy()
    Xc[:, 1] = 7.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the fallback is silent: the CLI prints every warning
        ell = init_ard(Xc, rng)
    assert ell[1] == 1.0


def test_gm_init_weights_and_noise():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((100, 2))
    y = np.tile([2.0, -2.0], 50)  # std exactly 2
    spec = ft.KernelSpec.template("gm", 2, 4, 8)
    h = init_family(spec, ft.build_stacks(spec, 0), X, y, rng)
    assert h[0] == math.log(0.2)  # noise std = std(y)/10
    spec0, _ = ft.unpack_hyper(spec, h)
    for idx, _group in spec0.weight_param_info():
        assert math.exp(spec0.params[idx]) == pytest.approx(0.5, rel=1e-12)  # std(y)/Q


def test_frbf_init_amplitude_and_quantile_cycling():
    X = np.linspace(0, 10, 200)[:, None]
    y = np.sin(X[:, 0])
    sy = float(np.std(y))
    spec = ft.KernelSpec.template("frbf", 1, 1, 8)
    stacks = ft.build_stacks(spec, 0)
    ells = []
    for r in range(5):
        rng = np.random.default_rng(42)  # same draws, only the cycle index moves
        h = init_family(spec, stacks, X, y, rng, restart=r)
        spec0, _ = ft.unpack_hyper(spec, h)
        assert math.exp(spec0.params[0]) == pytest.approx(sy, rel=1e-12)
        ells.append(math.exp(spec0.params[1]))
    assert np.all(np.diff(ells) > 0)  # candidates cycle through rising quantiles


def test_fsgbard_init_copies_stack_diagonals():
    # a bare template: the start's G and B come from the stacks, not the spec
    spec = ft.KernelSpec.template("fsgbard", 3, 2, 8)
    stacks = ft.build_stacks(spec, seed=9)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((50, 3))
    y = rng.standard_normal(50)
    h = init_family(spec, stacks, X, y, rng)
    spec0, _ = ft.unpack_hyper(spec, h)
    for q, stack in enumerate(stacks):
        np.testing.assert_array_equal(spec0.field("g", q), stack.g_diag)
        np.testing.assert_array_equal(spec0.field("b", q), stack.b_diag)
        np.testing.assert_array_equal(spec0.field("s_mult", q), 0.0)  # FARD's radii
    phi = ft.compute_features(spec0, stacks, X).data
    assert np.all(np.ptp(phi, axis=1) > 0)


def test_restart_starts_draw_each_restart_from_its_own_stream():
    X, y = make_cosine(50, seed=2)
    spec = ft.KernelSpec.template("gm", 1, 2, 8)
    stacks, starts = restart_starts(spec, X, y, TrainConfig(restart_count=4, seed=3))
    assert len(starts) == 4 and len(stacks) == spec.Q
    assert all(h.shape == (spec.n_hypers,) for h in starts)
    assert len({h.tobytes() for h in starts}) == 4
    # restart 0 sits at explore 0 whatever the count, so one restart repeats it
    _, single = restart_starts(spec, X, y, TrainConfig(restart_count=1, seed=3))
    np.testing.assert_array_equal(single[0], starts[0])
    for ours, theirs in zip(stacks, ft.build_stacks(spec, 3)):
        np.testing.assert_array_equal(ours.uniform_draws, theirs.uniform_draws)


def test_init_family_rejects_bad_explore():
    spec = ft.KernelSpec.template("frbf", 1, 1, 4)
    X = np.linspace(0, 1, 10)[:, None]
    stacks = ft.build_stacks(spec, 0)
    with pytest.raises(DomainError):
        init_family(spec, stacks, X, np.zeros(10), np.random.default_rng(0), explore=1.5)
    with pytest.raises(DimensionError):
        init_family(spec, stacks * 2, X, np.zeros(10), np.random.default_rng(0))


def test_zero_iteration_fit_returns_best_init():
    X, y = make_cosine(60, seed=0)
    spec = ft.KernelSpec.template("frbf", 1, 1, 16)
    config = TrainConfig(max_iters=0, restart_count=3, restart_iters=0, seed=5)
    model, nlml = fit(spec, X, y, config)

    stacks, starts = restart_starts(spec, X, y, config)
    values = [nlml_value_and_grad(spec, stacks, X, y, h0)[0] for h0 in starts]
    assert nlml == pytest.approx(min(values), rel=1e-12)
    assert model.nlml == nlml


def test_fit_is_deterministic(tmp_path):
    X, y = make_cosine(50, seed=1)
    spec = ft.KernelSpec.template("gm", 1, 2, 8)
    config = TrainConfig(max_iters=5, restart_count=2, restart_iters=3, seed=7)
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(fit(spec, X, y, config)[0], pa)
    save_model(fit(spec, X, y, config)[0], pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_fit_improves_on_initialization():
    X, y = make_cosine(80, seed=2)
    spec = ft.KernelSpec.template("frbf", 1, 1, 16)
    _, nlml0 = fit(spec, X, y, TrainConfig(max_iters=0, restart_count=1, restart_iters=0, seed=0))
    _, nlml1 = fit(spec, X, y, TrainConfig(max_iters=30, restart_count=1, restart_iters=0, seed=0))
    assert nlml1 < nlml0


def test_fit_shape_validation():
    spec = ft.KernelSpec.template("frbf", 2, 1, 8)
    X = np.zeros((10, 2))
    with pytest.raises(DimensionError):
        fit(spec, X, np.zeros(9), TrainConfig())
    with pytest.raises(DimensionError):
        fit(spec, np.zeros((10, 3)), np.zeros(10), TrainConfig())


def test_fit_rejects_nonfinite_inputs():
    spec = ft.KernelSpec.template("frbf", 1, 1, 8)
    X = np.linspace(0, 1, 10)[:, None]
    y = np.zeros(10)
    y[3] = np.nan
    with pytest.raises(DomainError):
        fit(spec, X, y, TrainConfig())
    with pytest.raises(DomainError):  # finite but statistics overflow
        fit(spec, X, np.tile([1e200, -1e200], 5), TrainConfig())


@pytest.mark.parametrize("restart_iters", [0, 2])
def test_all_restarts_diverging_raises(monkeypatch, restart_iters):
    # every likelihood evaluation fails, through L-BFGS as well (restart_iters
    # 2); the protocol must surface the failure with restart 0's start attached
    import ffgp.train as tr

    def failing(*args, **kwargs):
        raise IllConditionedError("forced")

    spec = ft.KernelSpec.template("frbf", 1, 1, 8)
    monkeypatch.setattr(tr, "nlml_value_and_grad", failing)
    X, y = make_cosine(20, seed=6)
    config = TrainConfig(max_iters=2, restart_count=2, restart_iters=restart_iters, seed=0)
    with pytest.raises(OptimizationFailureError) as err:
        fit(spec, X, y, config)
    assert err.value.best_value == np.inf
    np.testing.assert_array_equal(err.value.best_hyper, restart_starts(spec, X, y, config)[1][0])


@pytest.mark.parametrize("family", ft.FAMILIES)
def test_objective_maps_extreme_hypers_to_inf(family):
    # each coordinate in turn at 800, -800 and NaN: exp() of it overflows or
    # underflows, so weights, features or a spectrum go non-finite or out of
    # domain.  The objective answers (inf, zeros) there, or a finite pair
    # where the value is harmless, and never raises; NaN anywhere is inf.
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 2))
    y = np.sin(X[:, 0])
    Q = 1 if family in ("frbf", "fard") else 2
    spec = ft.KernelSpec.template(family, 2, Q, 8)
    stacks = ft.build_stacks(spec, 0)
    objective = _make_objective(spec, stacks, X, y, {})
    h0 = init_family(spec, stacks, X, y, np.random.default_rng(1))
    zeros = np.zeros(spec.n_hypers)
    for i in range(spec.n_hypers):
        for value in (800.0, -800.0, np.nan):
            h = h0.copy()
            h[i] = value
            f, g = objective(h)
            if np.isnan(value) or not np.isfinite(f):
                assert f == np.inf, (i, value)
                np.testing.assert_array_equal(g, zeros)
            else:
                assert np.all(np.isfinite(g)), (i, value)


def test_fit_builds_every_design_matrix_in_one_array(monkeypatch):
    # the workspace's design array, allocated by the first evaluation, takes
    # every evaluation's features and then the posterior's
    import ffgp.gp as gp_module
    import ffgp.train as train_module

    outs = []  # held, so no array's memory can be handed out again
    for module in (gp_module, train_module):
        def recorded(*args, out, _compute=module.compute_features):
            outs.append(out)
            return _compute(*args, out=out)

        monkeypatch.setattr(module, "compute_features", recorded)
    X, y = make_cosine(60, seed=1)
    spec = ft.KernelSpec.template("gm", 1, 2, 8)
    fit(spec, X, y, TrainConfig(max_iters=2, restart_count=2, restart_iters=2, seed=0))
    assert len(outs) > 3 and all(out is outs[0] for out in outs)


def test_fit_roundtrips_through_file(tmp_path):
    X, y = make_cosine(40, seed=3)
    spec = ft.KernelSpec.template("fard", 1, 1, 8)
    model, _ = fit(spec, X, y, TrainConfig(max_iters=3, restart_count=1, restart_iters=2, seed=2))
    path = tmp_path / "m.bin"
    save_model(model, path)
    loaded = load_model(path)
    xs = np.linspace(0, 10, 25)[:, None]
    m1, v1 = model.predict(xs)
    m2, v2 = loaded.predict(xs)
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(v1, v2)
