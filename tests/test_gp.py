"""Weight-space GP: both likelihood forms vs a dense oracle, posterior,
prediction, and the packed-gradient path against finite differences."""

import ast
import inspect
import math
import mmap
import textwrap
import tracemalloc
import zlib

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dtrtri

import ffgp.fastfood as ff
import ffgp.features as ft
import ffgp.gp as gp
from ffgp.errors import DimensionError, DomainError, FfgpError, IllConditionedError
from ffgp.gp import (
    PosteriorState,
    _co_matrix,
    _core,
    _gram,
    chol_with_jitter,
    fit_posterior,
    nlml_value_and_grad,
    predict,
    weighted_features,
)
from ffgp.model import TrainedModel
from ffgp.oracle import dense_gp_nlml_predict, neg_log_marginal_likelihood


def random_problem(seed, n, D):
    """Raw feature matrix (D, n), positive weights, targets."""
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((D, n))
    weight_diag = rng.uniform(0.05, 2.0, size=D)
    y = rng.standard_normal(n)
    return phi, weight_diag, y


@pytest.mark.parametrize("n,D", [(40, 12), (12, 40), (25, 25), (1, 3), (3, 1)])
def test_nlml_matches_dense_oracle(n, D):
    phi, v, y = random_problem(n * 1000 + D, n, D)
    noise_var = 0.3
    W = weighted_features(phi, v)
    gram = W.T @ W
    want, _, _ = dense_gp_nlml_predict(gram, y, noise_var)
    for mode in ("feature", "data", "auto"):
        got = neg_log_marginal_likelihood(phi, v, y, noise_var, mode=mode)
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize(
    "D,n,noise_var", [(12, 40, 0.3), (25, 25, 0.3), (40, 12, 0.3), (200, 90, 1e-6)]
)
def test_core_pieces_match_dense_inverse(D, n, noise_var):
    # the last case is rank-deficient A = sigma^2 I + W W^T in the forced
    # feature form, where tr(K^{-1}) must not come from an inverse of A
    rng = np.random.default_rng(0)
    W = rng.standard_normal((D, n)) / np.sqrt(D)
    y = rng.standard_normal(n)
    evals, vecs = np.linalg.eigh(W.T @ W + noise_var * np.eye(n))
    K_inv = (vecs / evals) @ vecs.T
    alpha = K_inv @ y
    want = {
        "alpha": alpha,
        "u": W @ alpha,
        "C": W @ K_inv,
        "r": np.einsum("in,in->i", W @ (K_inv - np.outer(alpha, alpha)), W),
        "tr_Kinv": np.sum(1.0 / evals),
    }
    for mode in ("feature", "data"):
        got = _core(W, y, noise_var, mode)
        for name, ref in want.items():
            err = np.max(np.abs(got[name] - ref)) / np.max(np.abs(ref))
            assert err <= 1e-8, (mode, name, err)


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize(
    "D,n,noise_var", [(12, 40, 0.3), (25, 25, 0.3), (40, 12, 0.3), (200, 90, 1e-6)]
)
def test_co_matrix_matches_dense_inverse(D, n, noise_var, side):
    # side 0 factors A = sigma^2 I + W W^T, side 1 K = W^T W + sigma^2 I; both
    # give A^{-1} W = W K^{-1}, here against K^{-1} from eigh
    rng = np.random.default_rng(0)
    W = rng.standard_normal((D, n)) / np.sqrt(D)
    evals, vecs = np.linalg.eigh(W.T @ W + noise_var * np.eye(n))
    want = W @ ((vecs / evals) @ vecs.T)
    L, _ = chol_with_jitter(_gram(W, noise_var, trans=side))
    got = _co_matrix(L, np.asfortranarray(W), side)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-8


def test_co_matrix_rejects_singular_factor():
    with pytest.raises(IllConditionedError):
        _co_matrix(np.zeros((2, 2), order="F"), np.ones((2, 3), order="F"), side=0)


@pytest.mark.parametrize("mode", ["feature", "data"])
def test_likelihood_solves_take_vectors_only(mode, monkeypatch):
    # either form factors one Gram; the co-matrix comes from _co_matrix, so
    # cho_solve is left the one solve for u or alpha
    rng = np.random.default_rng(9)
    spec = ft.KernelSpec.template("gm", 2, 2, 4)
    stacks = ft.build_stacks(spec, seed=1)
    X = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    right_sides, factored = [], []
    cho_solve, chol_with_jitter = gp.cho_solve, gp.chol_with_jitter

    def recorded(factor, b, **kwargs):
        right_sides.append(np.ndim(b))
        return cho_solve(factor, b, **kwargs)

    def counted(a, **kwargs):
        factored.append(a.shape)
        return chol_with_jitter(a, **kwargs)

    monkeypatch.setattr(gp, "cho_solve", recorded)
    monkeypatch.setattr(gp, "chol_with_jitter", counted)
    nlml_value_and_grad(spec, stacks, X, y, ft.pack_hyper(spec, math.log(0.3)), mode=mode)
    assert right_sides == [1]
    assert factored == [(spec.n_rows,) * 2 if mode == "feature" else (30, 30)]


def test_feature_and_data_forms_agree():
    phi, v, y = random_problem(7, 60, 20)
    a = neg_log_marginal_likelihood(phi, v, y, 0.1, mode="feature")
    b = neg_log_marginal_likelihood(phi, v, y, 0.1, mode="data")
    assert a == pytest.approx(b, rel=1e-11)


def test_single_point_closed_form():
    # n = 1: NLML = 0.5 (log 2pi + log(k + s2) + y^2 / (k + s2))
    phi = np.array([[0.7], [-1.2]])
    v = np.array([0.5, 2.0])
    y = np.array([1.3])
    noise_var = 0.2
    k = float(v @ (phi[:, 0] ** 2))
    want = 0.5 * (math.log(2 * math.pi) + math.log(k + noise_var) + y[0] ** 2 / (k + noise_var))
    got = neg_log_marginal_likelihood(phi, v, y, noise_var)
    assert got == pytest.approx(want, rel=1e-12)


def test_posterior_prediction_matches_dense_oracle():
    rng = np.random.default_rng(11)
    n, n_test, D = 50, 17, 14
    phi, v, y = random_problem(11, n, D)
    phi_star = rng.standard_normal((D, n_test))
    noise_var = 0.12

    W = weighted_features(phi, v)
    W_star = weighted_features(phi_star, v)
    gram = W.T @ W
    cross = W.T @ W_star
    prior_var = np.einsum("ij,ij->j", W_star, W_star)
    _, mean_o, var_o = dense_gp_nlml_predict(gram, y, noise_var, cross, prior_var)

    state = fit_posterior(phi, v, y, noise_var)
    mean, var = predict(state, phi_star)
    np.testing.assert_allclose(mean, mean_o, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(var, var_o, rtol=1e-9, atol=1e-12)


def test_predictive_variance_is_at_least_noise():
    phi, v, y = random_problem(3, 80, 24)
    state = fit_posterior(phi, v, y, 0.05)
    _, var = predict(state, np.random.default_rng(4).standard_normal((24, 200)))
    assert np.all(var >= 0.05)


def test_predict_scalar_for_single_column():
    phi, v, y = random_problem(5, 10, 6)
    state = fit_posterior(phi, v, y, 0.3)
    mean, var = predict(state, phi[:, 0])
    assert isinstance(mean, float) and isinstance(var, float)
    means, variances = predict(state, phi[:, :1])
    assert mean == means[0] and var == variances[0]


def test_predict_leaves_features_alone_and_matches_scaled_inverse_product():
    phi, v, y = random_problem(6, 40, 12)
    state = fit_posterior(phi, v, y, 0.2)
    phi_star = np.random.default_rng(7).standard_normal((12, 30))
    before = phi_star.copy()
    mean, var = predict(state, phi_star)
    np.testing.assert_array_equal(phi_star, before)
    R = dtrtri(state.chol_factor, lower=1)[0] * np.sqrt(v)
    np.testing.assert_array_equal(state.scaled_inverse, R)
    half = dtrmm(1.0, R, phi_star, lower=1)
    np.testing.assert_array_equal(var, 0.2 * (1.0 + np.einsum("kj,kj->j", half, half)))
    np.testing.assert_array_equal(mean, phi_star.T @ state.beta)


@pytest.mark.parametrize("order", ["F", "C"])
def test_predict_overwrite_phi_gives_the_same_bits(order):
    phi, v, y = random_problem(8, 40, 12)
    state = fit_posterior(phi, v, y, 0.2)
    phi_star = np.asarray(np.random.default_rng(9).standard_normal((12, 30)), order=order)
    want = predict(state, phi_star)
    given = phi_star.copy(order=order)
    got = predict(state, given, overwrite_phi=True)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    if order == "F":  # point-major features are overwritten by R phi*, not copied
        np.testing.assert_array_equal(given, dtrmm(1.0, state.scaled_inverse, phi_star, lower=1))
    else:  # anything else is copied first and left alone
        np.testing.assert_array_equal(given, phi_star)


def test_predict_variance_matches_solve_on_rank_deficient_factor():
    # test_core_pieces_match_dense_inverse's (200, 90, 1e-6) case: A is
    # sigma^2 I plus a rank-90 Gram, so the explicit inverse in R must
    # agree with a triangular solve on an ill-conditioned factor
    D, n, noise_var = 200, 90, 1e-6
    rng = np.random.default_rng(0)
    W = rng.standard_normal((D, n)) / np.sqrt(D)
    y = rng.standard_normal(n)
    v = rng.uniform(0.05, 2.0, size=D)
    state = fit_posterior(W / np.sqrt(v)[:, None], v, y, noise_var)  # weighted, W again
    phi_star = np.asfortranarray(rng.standard_normal((D, 40)))
    _, var = predict(state, phi_star)
    half = solve_triangular(state.chol_factor, np.sqrt(v)[:, None] * phi_star, lower=True)
    want = noise_var * (1.0 + np.einsum("kj,kj->j", half, half))
    assert np.max(np.abs(var - want) / want) <= 1e-12


def test_predict_rejects_singular_factor():
    state = PosteriorState(beta=np.ones(2), chol_factor=np.zeros((2, 2)), noise_var=0.1,
                           weight_diag=np.ones(2))
    with pytest.raises(IllConditionedError):
        predict(state, np.ones((2, 3)))


def test_chol_jitter_recovers_singular_psd():
    a = np.ones((4, 4))  # rank 1, PSD but singular
    L, jitter = chol_with_jitter(a)
    assert jitter > 0
    np.testing.assert_allclose(L @ L.T, a + jitter * np.eye(4), rtol=0, atol=1e-12)
    # the core passes dsyrk Grams, whose upper triangle is never written
    L_lower, jitter_lower = chol_with_jitter(np.tril(a))
    assert jitter_lower == jitter
    np.testing.assert_array_equal(L_lower, L)


def test_chol_jitter_gives_up_on_indefinite():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1; jitter cap 2e-4 hopeless
    for given in (a, np.tril(a)):
        with pytest.raises(IllConditionedError):
            chol_with_jitter(given)


def test_chol_jitter_empty():
    L, jitter = chol_with_jitter(np.zeros((0, 0)))
    assert L.shape == (0, 0) and jitter == 0.0


def test_chol_matches_scipy_and_keeps_its_input():
    # dpotrf without scipy's clean pass, then the upper triangle zeroed here
    rng = np.random.default_rng(4)
    B = rng.standard_normal((70, 90))
    a = np.asfortranarray(B @ B.T)
    want = cholesky(a, lower=True, check_finite=False)
    for given in (a, np.tril(a), np.ascontiguousarray(a)):
        before = given.copy()
        L, jitter = chol_with_jitter(given)
        assert jitter == 0.0
        np.testing.assert_array_equal(L, want)
        np.testing.assert_array_equal(given, before)


def test_in_place_factor_matches_copying_path():
    # overwrite_a factors the Gram in its own array and keeps the strict
    # lower triangle in the strict upper one, so every rung of the jitter
    # ladder restarts from it; L and the jitter equal the copying path's
    rng = np.random.default_rng(6)
    B, thin = rng.standard_normal((300, 400)), rng.standard_normal((300, 5))
    for a in (B @ B.T, thin @ thin.T):  # the second has rank 5 and needs jitter
        want, jitter = chol_with_jitter(a)
        given = np.asfortranarray(np.tril(a) + np.triu(np.full_like(a, np.nan), 1))
        L, got_jitter = chol_with_jitter(given, overwrite_a=True)
        assert L is given and got_jitter == jitter
        np.testing.assert_array_equal(np.tril(L), want)
        np.testing.assert_array_equal(np.triu(L, 1), np.triu(a.T, 1))
        # the ladder factors a + jitter I, bit for bit
        np.testing.assert_array_equal(want, cholesky(a + jitter * np.eye(300), lower=True))
    assert jitter > 0
    with pytest.raises(DimensionError):
        chol_with_jitter(np.ascontiguousarray(a), overwrite_a=True)


def test_posterior_overwrite_phi_weights_in_place():
    phi, v, y = random_problem(21, 8000, 64)
    phi = np.asfortranarray(phi)
    want = fit_posterior(phi, v, y, 0.2)
    W = weighted_features(phi, v)
    tracemalloc.start()
    try:
        got = fit_posterior(phi, v, y, 0.2, overwrite_phi=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got.beta, want.beta)
    np.testing.assert_array_equal(got.chol_factor, want.chol_factor)
    np.testing.assert_array_equal(phi, W)  # phi now holds W
    # no second D x n array; the Gram is factored in place and the finite
    # check allocates no mask
    assert peak < 0.5 * phi.nbytes


def test_validation_errors():
    phi, v, y = random_problem(9, 8, 5)
    with pytest.raises(DomainError):
        neg_log_marginal_likelihood(phi, v, y, 0.0)
    with pytest.raises(DomainError):
        neg_log_marginal_likelihood(phi, -v, y, 0.1)
    with pytest.raises(DimensionError):
        neg_log_marginal_likelihood(phi, v, y[:-1], 0.1)
    with pytest.raises(DimensionError):
        neg_log_marginal_likelihood(phi, v[:-1], y, 0.1)
    with pytest.raises(DomainError):
        neg_log_marginal_likelihood(phi, v, y, 0.1, mode="dual")
    with pytest.raises(DomainError):
        fit_posterior(phi, v, y, -1.0)
    bad = phi.copy()
    bad[2, 3] = np.nan
    for mode in ("feature", "data"):
        with pytest.raises(FfgpError):
            neg_log_marginal_likelihood(bad, v, y, 0.1, mode=mode)
    with pytest.raises(FfgpError):
        fit_posterior(bad, v, y, 0.1)
    with pytest.raises(FfgpError):
        neg_log_marginal_likelihood(phi, np.full_like(v, np.inf), y, 0.1)
    state = fit_posterior(phi, v, y, 0.1)
    with pytest.raises(DimensionError):
        predict(state, np.zeros((6, 3)))


@pytest.mark.parametrize("call", [
    lambda phi, v, y: neg_log_marginal_likelihood(phi, v, y, 0.1),
    lambda phi, v, y: neg_log_marginal_likelihood(phi, v, y, 0.1, mode="data"),
    lambda phi, v, y: fit_posterior(phi, v, y, 0.1),
], ids=["feature", "data", "posterior"])
def test_zero_feature_rows_are_a_dimension_error(call, capfd):
    # caught before the first BLAS call, so OpenBLAS prints nothing either
    with pytest.raises(DimensionError, match="no feature rows"):
        call(np.zeros((0, 5)), np.zeros(0), np.arange(5.0))
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("n, n_y", [(0, 0), (7, 6)], ids=["no-points", "wrong-y"])
def test_value_and_grad_checks_its_inputs_before_blas(n, n_y, capfd):
    # one DimensionError from the checks the three entry points share, not a
    # builtin ValueError or OpenBLAS's DSYRK message on stderr
    rng = np.random.default_rng(6)
    spec = ft.KernelSpec.template("frbf", 3, 1, 4)
    stacks = ft.build_stacks(spec, seed=1)
    X, y = rng.standard_normal((n, 3)), rng.standard_normal(n_y)
    with pytest.raises(DimensionError):
        nlml_value_and_grad(spec, stacks, X, y, ft.pack_hyper(spec, math.log(0.3)))
    assert capfd.readouterr().err == ""


# (family, Q, m per group) of scripts/digest.py
DIGEST_SHAPES = (("frbf", 1, 16), ("fard", 1, 16), ("fsard", 2, 16),
                 ("fsgbard", 2, 16), ("gm", 2, 16), ("pwl", 2, 16))


@pytest.mark.parametrize("family, Q, m", DIGEST_SHAPES, ids=[s[0] for s in DIGEST_SHAPES])
def test_one_evaluation_holds_two_design_arrays(family, Q, m):
    # W and C (then M) are the D x n arrays an evaluation needs; W is Phi
    # scaled in place, the Gram is factored in place and the chain rule
    # writes into one (m', n) array.  The six shapes peak at 2.18-2.72
    # D x n arrays; a Gram factored in a copy and per-group chain-rule
    # temporaries read 2.65-3.10, and holding Phi as well 3.65-4.10.
    rng = np.random.default_rng(zlib.crc32(family.encode()))
    d, n = 5, 8000
    spec = ft.KernelSpec.template(family, d, Q, m)
    spec = spec.with_params(spec.params + 0.1 * rng.standard_normal(spec.n_params))
    stacks = ft.build_stacks(spec, seed=1)
    X, y = rng.standard_normal((n, d)), rng.standard_normal(n)
    h = ft.pack_hyper(spec, math.log(0.3))
    nlml_value_and_grad(spec, stacks, X, y, h)  # warm-up: first-call allocations
    tracemalloc.start()
    try:
        nlml_value_and_grad(spec, stacks, X, y, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * 8 * spec.n_rows * n


@pytest.mark.parametrize("mode", ["feature", "data"])
@pytest.mark.parametrize("family, Q, m", DIGEST_SHAPES, ids=[s[0] for s in DIGEST_SHAPES])
def test_shared_workspace_gives_the_bits_of_fresh_calls(family, Q, m, mode):
    # one workspace through h1, h2, h1, then once more with every buffer
    # filled with NaN: no stale design, Gram, upper-triangle or co-matrix
    # value reaches f or g
    rng = np.random.default_rng(zlib.crc32(family.encode()))
    d, n = 3, 40
    spec = ft.KernelSpec.template(family, d, Q, m)
    spec = spec.with_params(spec.params + 0.1 * rng.standard_normal(spec.n_params))
    stacks = ft.build_stacks(spec, seed=2)
    X, y = rng.standard_normal((n, d)), rng.standard_normal(n)
    h1 = ft.pack_hyper(spec, math.log(0.3))
    h2 = h1 + 0.05 * rng.standard_normal(spec.n_hypers)
    work = {}
    for h in (h1, h2, h1, None):
        if h is None:
            for buffer in work.values():
                buffer.fill(np.nan)
            h = h2
        f, g = nlml_value_and_grad(spec, stacks, X, y, h, mode=mode, work=work)
        want_f, want_g = nlml_value_and_grad(spec, stacks, X, y, h, mode=mode)
        assert f == want_f
        np.testing.assert_array_equal(g, want_g)
    assert sorted(work) == ["chain", "co", "design", "gram"]


@pytest.mark.parametrize(
    "family, Q, m, n",
    [(family, Q, m, 8000) for family, Q, m in DIGEST_SHAPES] + [("pwl", 5, 256, 1350)],
    ids=[s[0] for s in DIGEST_SHAPES] + ["pwl-data"],
)
def test_warm_workspace_evaluation_allocates_under_half_a_design_array(family, Q, m, n):
    # with the design, Gram, co-matrix and chain-rule arrays reused, what an
    # evaluation allocates is small vectors; one that allocated its own
    # arrays read 2.65-3.10 D x n arrays
    rng = np.random.default_rng(zlib.crc32(family.encode()))
    d = 5
    spec = ft.KernelSpec.template(family, d, Q, m)
    spec = spec.with_params(spec.params + 0.1 * rng.standard_normal(spec.n_params))
    stacks = ft.build_stacks(spec, seed=1)
    X, y = rng.standard_normal((n, d)), rng.standard_normal(n)
    h = ft.pack_hyper(spec, math.log(0.3))
    work = {}
    nlml_value_and_grad(spec, stacks, X, y, h, work=work)  # warm-up: fills the workspace
    warm = {name: id(buffer) for name, buffer in work.items()}
    tracemalloc.start()
    try:
        nlml_value_and_grad(spec, stacks, X, y, h, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * spec.n_rows * n
    # the workspace arrays are mappings, which tracemalloc does not see, so
    # reuse is checked directly: the traced call wrote into the same arrays
    assert {name: id(buffer) for name, buffer in work.items()} == warm


def fd_gradient(f, h, step=1e-5):
    g = np.zeros_like(h)
    for i in range(h.size):
        hp, hm = h.copy(), h.copy()
        hp[i] += step
        hm[i] -= step
        g[i] = (f(hp) - f(hm)) / (2 * step)
    return g


@pytest.mark.parametrize(
    "family, Q",
    [("frbf", 1), ("fard", 1), ("gm", 2), ("pwl", 1), ("frbf", 2), ("fard", 2)],
    ids=["frbf", "fard", "gm", "pwl", "frbf-Q2", "fard-Q2"],  # Q2: lengthscales summed over groups
)
def test_value_and_grad_vs_finite_differences(family, Q):
    rng = np.random.default_rng(zlib.crc32(family.encode()))
    d, n = 3, 30
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    if family == "gm":
        comps = [
            ft.GmComponent(rng.normal(0, 0.5, d), rng.uniform(0.4, 1.2, d), 0.8)
            for _ in range(Q)
        ]
        spec = ft.KernelSpec.gm(d, 4, comps)
    elif family == "pwl":
        from ffgp.spectra import HatSpectrum

        spec = ft.KernelSpec.pwl(
            d, 4, [(0.9, rng.uniform(0.5, 2.0, d), HatSpectrum(mu=0.6, sigma=1.1))]
        )
    else:
        spec = ft.KernelSpec.template(family, d, Q, 8)
        spec = spec.with_params(spec.params + 0.1 * rng.standard_normal(spec.n_params))
    stacks = ft.build_stacks(spec, seed=3)
    h = ft.pack_hyper(spec, math.log(0.25)) + 0.05 * rng.standard_normal(spec.n_hypers)

    for mode in ("feature", "data"):
        f0, g = nlml_value_and_grad(spec, stacks, X, y, h, mode=mode)

        def f_only(hv):
            return nlml_value_and_grad(spec, stacks, X, y, hv, mode=mode)[0]

        assert f0 == pytest.approx(f_only(h))
        g_fd = fd_gradient(f_only, h)
        scale = np.maximum(np.abs(g_fd), 1.0)
        np.testing.assert_allclose(g / scale, g_fd / scale, rtol=0, atol=5e-6)


def test_auto_mode_picks_matching_form():
    # D < n -> feature form, D >= n -> data form; auto must equal the pick bit for bit
    for n, D, expect in [(30, 8, "feature"), (8, 30, "data"), (10, 10, "data")]:
        phi, v, y = random_problem(n + D, n, D)
        auto = neg_log_marginal_likelihood(phi, v, y, 0.2, mode="auto")
        explicit = neg_log_marginal_likelihood(phi, v, y, 0.2, mode=expect)
        assert auto == explicit and gp._form(D, n) == expect


@pytest.mark.parametrize("family", ft.FAMILIES)
def test_one_operator_build_per_group_per_evaluation(family, monkeypatch):
    # features and every feature gradient share one Fastfood operator per group
    rng = np.random.default_rng(8)
    Q = 1 if family in ("frbf", "fard") else 2
    spec = ft.KernelSpec.template(family, 3, Q, 4)
    spec = spec.with_params(spec.params + 0.1 * rng.standard_normal(spec.n_params))
    stacks = ft.build_stacks(spec, seed=5)
    X = rng.standard_normal((20, 3))
    y = rng.standard_normal(20)
    built = []
    block_matrix = ff._block_matrix

    def counted(stack, *args):
        built.append(stack)
        return block_matrix(stack, *args)

    def no_transpose(*args, **kwargs):
        raise AssertionError("project_transpose called")

    monkeypatch.setattr(ff, "_block_matrix", counted)
    monkeypatch.setattr(ff, "project_transpose", no_transpose)
    monkeypatch.setattr(ft, "project_transpose", no_transpose)
    nlml_value_and_grad(spec, stacks, X, y, ft.pack_hyper(spec, math.log(0.3)))
    assert len(built) == spec.Q
    assert all(b is s for b, s in zip(built, stacks))


@pytest.mark.parametrize("family", ft.FAMILIES)
def test_one_radii_draw_per_group_per_evaluation(family, monkeypatch):
    # the gradient reads the radii and (s, g, b) the features were built from
    rng = np.random.default_rng(8)
    Q = 1 if family in ("frbf", "fard") else 2
    spec = ft.KernelSpec.template(family, 3, Q, 4)
    spec = spec.with_params(spec.params + 0.1 * rng.standard_normal(spec.n_params))
    stacks = ft.build_stacks(spec, seed=5)
    X = rng.standard_normal((20, 3))
    y = rng.standard_normal(20)
    drawn = []
    for name in ("sample_chi_radii", "hat_radii"):
        def counted(*args, radii=getattr(ft, name)):
            drawn.append(args)
            return radii(*args)

        monkeypatch.setattr(ft, name, counted)
    nlml_value_and_grad(spec, stacks, X, y, ft.pack_hyper(spec, math.log(0.3)))
    assert len(drawn) == spec.Q


def test_workspace_buffers_are_private_mappings(monkeypatch):
    # a fit's workspace lives outside malloc's heap, so its pages leave with
    # it; calls without a workspace keep numpy's allocator (and tracemalloc),
    # and so does a workspace where mmap has no MAP_ANONYMOUS (Windows)
    rng = np.random.default_rng(9)
    spec = ft.KernelSpec.template("gm", 3, 2, 4)
    stacks = ft.build_stacks(spec, seed=5)
    X, y = rng.standard_normal((20, 3)), rng.standard_normal(20)
    h = ft.pack_hyper(spec, math.log(0.3))
    work = {}
    f, g = nlml_value_and_grad(spec, stacks, X, y, h, work=work)
    assert sorted(work) == ["chain", "co", "design", "gram"]
    for buffer in work.values():
        assert isinstance(buffer.base, mmap.mmap) and buffer.flags.f_contiguous and buffer.flags.writeable
    assert gp._buffer(None, "design", (4, 3)).base is None
    monkeypatch.delattr(mmap, "MAP_ANONYMOUS")
    work = {}
    f_heap, g_heap = nlml_value_and_grad(spec, stacks, X, y, h, work=work)
    assert sorted(work) == ["chain", "co", "design", "gram"]
    assert all(buffer.base is None and buffer.flags.f_contiguous for buffer in work.values())
    assert f_heap == f
    np.testing.assert_array_equal(g_heap, g)


@pytest.mark.parametrize("mode", ["feature", "data"])
@pytest.mark.parametrize("family, Q, m", DIGEST_SHAPES, ids=[s[0] for s in DIGEST_SHAPES])
def test_value_without_gradient_is_the_same_value(family, Q, m, mode, monkeypatch):
    # grad=False gives the NLML of a full evaluation bit for bit, with no
    # co-matrix, chain rule or gradient contraction
    rng = np.random.default_rng(zlib.crc32(family.encode()))
    spec = ft.KernelSpec.template(family, 3, Q, m)
    spec = spec.with_params(spec.params + 0.1 * rng.standard_normal(spec.n_params))
    stacks = ft.build_stacks(spec, seed=2)
    X, y = rng.standard_normal((40, 3)), rng.standard_normal(40)
    h = ft.pack_hyper(spec, math.log(0.3))
    want = nlml_value_and_grad(spec, stacks, X, y, h, mode=mode)[0]

    def no_gradient(*args, **kwargs):
        raise AssertionError("gradient formed")

    monkeypatch.setattr(gp, "_co_matrix", no_gradient)
    monkeypatch.setattr(gp, "feature_param_gradients", no_gradient)
    work = {}
    assert nlml_value_and_grad(spec, stacks, X, y, h, mode=mode, work=work, grad=False) == (want, None)
    assert sorted(work) == ["design", "gram"]


@pytest.mark.parametrize(
    "func",
    [ft.compute_features, ft.feature_param_gradients, _co_matrix, _core, nlml_value_and_grad,
     predict, ff.project, ft._project_sincos, ff._block_matrix, _gram, gp._weighted,
     fit_posterior, TrainedModel.predict],
    ids=lambda func: func.__qualname__,
)
def test_evaluation_products_run_in_scipy_blas(func):
    # numpy and scipy each bundle an OpenBLAS with its own thread pool; one
    # numpy product inside an evaluation or a prediction wakes the second pool
    # (ffgp.gp's docstring), so these functions and the helpers they call
    # use scipy.linalg.blas only
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            assert not isinstance(node.op, ast.MatMult), f"@ at line {node.lineno}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            assert node.func.attr not in ("dot", "matmul"), f"{node.func.attr} at line {node.lineno}"


@pytest.mark.parametrize("family", ["frbf", "gm"])
def test_zero_points_give_empty_features_and_predictions(family):
    rng = np.random.default_rng(4)
    spec = ft.KernelSpec.template(family, 3, 1, 4)
    spec = spec.with_params(spec.params + 0.1 * rng.standard_normal(spec.n_params))
    stacks = ft.build_stacks(spec, seed=2)
    X = rng.standard_normal((10, 3))
    v = ft.feature_weight_matrix(spec)
    state = fit_posterior(ft.compute_features(spec, stacks, X), v, rng.standard_normal(10), 0.1)
    phi = ft.compute_features(spec, stacks, X[:0])
    assert phi.data.shape == (spec.n_rows, 0)
    mean, var = predict(state, phi)
    assert mean.shape == var.shape == (0,)
