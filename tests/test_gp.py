"""Weight-space GP: both likelihood forms vs a dense oracle, posterior,
prediction, and the packed-gradient path against finite differences."""

import math

import numpy as np
import pytest

import ffgp.features as ft
from ffgp.errors import DimensionError, DomainError, IllConditionedError
from ffgp.gp import (
    _core,
    chol_with_jitter,
    fit_posterior,
    neg_log_marginal_likelihood,
    nlml_value_and_grad,
    predict,
    weighted_features,
)
from ffgp.oracle import dense_gp_nlml_predict


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
        got = _core(W, y, noise_var, mode, pieces=True)
        for name, ref in want.items():
            err = np.max(np.abs(got[name] - ref)) / np.max(np.abs(ref))
            assert err <= 1e-8, (mode, name, err)


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


def test_chol_jitter_recovers_singular_psd():
    a = np.ones((4, 4))  # rank 1, PSD but singular
    L, jitter = chol_with_jitter(a)
    assert jitter > 0
    np.testing.assert_allclose(L @ L.T, a + jitter * np.eye(4), rtol=0, atol=1e-12)


def test_chol_jitter_gives_up_on_indefinite():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1; jitter cap 2e-4 hopeless
    with pytest.raises(IllConditionedError):
        chol_with_jitter(a)


def test_chol_jitter_empty():
    L, jitter = chol_with_jitter(np.zeros((0, 0)))
    assert L.shape == (0, 0) and jitter == 0.0


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
    state = fit_posterior(phi, v, y, 0.1)
    with pytest.raises(DimensionError):
        predict(state, np.zeros((6, 3)))


def fd_gradient(f, h, step=1e-5):
    g = np.zeros_like(h)
    for i in range(h.size):
        hp, hm = h.copy(), h.copy()
        hp[i] += step
        hm[i] -= step
        g[i] = (f(hp) - f(hm)) / (2 * step)
    return g


@pytest.mark.parametrize("family", ["frbf", "fard", "gm", "pwl"])
def test_value_and_grad_vs_finite_differences(family):
    rng = np.random.default_rng(hash(family) % 2**31)
    d, n = 3, 30
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    if family == "gm":
        comps = [
            ft.GmComponent(rng.normal(0, 0.5, d), rng.uniform(0.4, 1.2, d), 0.8)
            for _ in range(2)
        ]
        spec = ft.KernelSpec.gm(d, 4, comps)
    elif family == "pwl":
        from ffgp.spectra import HatSpectrum

        spec = ft.KernelSpec.pwl(
            d, 4, [(0.9, rng.uniform(0.5, 2.0, d), HatSpectrum(mu=0.6, sigma=1.1))]
        )
    else:
        Q = 1
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
        assert auto == explicit
