"""Acceptance gate: ten end-to-end criteria, one test function per criterion.

Every test carries its full tolerance and, where stated, its wall-clock
budget, so `pytest -v` on this file reads as a pass/fail ledger.  Slow
criteria (6-8) use configurations whose runtimes were measured on the
target machine with margin to spare.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import ffgp.features as ft
from ffgp.cli import main as cli_main
from ffgp.data import (
    fit_standardization,
    kfold_partitions,
    make_cosine,
    make_smooth,
    make_surrogate,
    rmse,
    save_csv,
)
from ffgp.errors import DomainError
from ffgp.gp import (
    fit_posterior,
    neg_log_marginal_likelihood,
    nlml_value_and_grad,
    predict,
    weighted_features,
)
from ffgp.hadamard import fwht_inplace
from ffgp.model import save_model
from ffgp.oracle import ExactKernel, dense_gp_nlml_predict, dense_hadamard_matrix, exact_cross_gram
from ffgp.spectra import GmComponent, HatSpectrum, PwlSpectrum, gm_closed_form, systematic_radii
from ffgp.train import TrainConfig, fit

FAMILIES = ["frbf", "fard", "fsard", "fsgbard", "gm", "pwl"]


def test_criterion_01_fwht_matches_dense_hadamard():
    # every power-of-two d <= 1024, 20 random vectors each, 1e-9 * d absolute
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    for p in range(11):
        d = 2**p
        H = dense_hadamard_matrix(d)
        V = rng.standard_normal((20, d))
        got = fwht_inplace(V.copy())
        want = V @ H.T
        assert np.max(np.abs(got - want)) <= 1e-9 * d, f"d={d}"
    assert time.perf_counter() - t0 < 5.0


def _approx_kxy(spec, seed, xa, xb):
    """Feature-space kernel values k(xa_i, xb_i) for paired rows."""
    stacks = ft.build_stacks(spec, seed)
    V = ft.feature_weight_matrix(spec)
    pa = weighted_features(ft.compute_features(spec, stacks, xa), V)
    pb = weighted_features(ft.compute_features(spec, stacks, xb), V)
    return np.einsum("ki,ki->i", pa, pb)


def test_criterion_02_gram_error_within_monte_carlo_rate():
    # mean absolute kernel error over 50 random pairs <= 0.05 at m' = 2048
    rng = np.random.default_rng(123)
    xa = rng.standard_normal((50, 4))
    xb = rng.standard_normal((50, 4))

    spec = ft.KernelSpec.frbf(4, 2048, lengthscale=1.0, amplitude=1.0)
    exact = np.diag(exact_cross_gram(ExactKernel("rbf", amplitude=1.0, lengthscales=1.0), xa, xb))
    assert np.mean(np.abs(_approx_kxy(spec, 0, xa, xb) - exact)) <= 0.05

    comps = [
        GmComponent(np.array([1.2, -0.4, 0.3, 0.8]), np.array([0.5, 0.7, 0.3, 0.6]), 0.9),
        GmComponent(np.array([-0.2, 0.9, -1.1, 0.1]), np.array([0.4, 0.3, 0.8, 0.5]), 0.6),
    ]
    spec = ft.KernelSpec.gm(4, 2048, comps)
    exact = gm_closed_form(comps, xa - xb)
    assert np.mean(np.abs(_approx_kxy(spec, 1, xa, xb) - exact)) <= 0.05

    hat = HatSpectrum(mu=0.6, sigma=1.0)
    ells = np.array([1.0, 1.3, 0.8, 1.1])
    spec = ft.KernelSpec.pwl(4, 2048, [(0.9, ells, hat)])
    oracle = ExactKernel(
        "mc_radial",
        amplitude=0.9,
        lengthscales=ells,
        knots=np.array([0.6, 1.1, 1.6]),
        alphas=np.array([1.0]),
        ambient_dim=4,
        n_draws=100_000,
        seed=7,
    )
    exact = np.diag(exact_cross_gram(oracle, xa, xb))
    assert np.mean(np.abs(_approx_kxy(spec, 2, xa, xb) - exact)) <= 0.05


def _case_spec(family, d, rng):
    if family in ("frbf", "fard"):
        spec = ft.KernelSpec.template(family, d, 1, 16)
    elif family in ("fsard", "fsgbard"):
        spec = ft.KernelSpec.template(family, d, 1, 8)
        if family == "fsgbard":
            stacks = ft.build_stacks(spec, int(rng.integers(1000)))
            spec = ft.KernelSpec.fsgbard_from_stacks(d, 1, 8, np.ones(d), stacks)
    elif family == "gm":
        spec = ft.KernelSpec.template(family, d, int(rng.integers(1, 3)), 4)
    else:
        spec = ft.KernelSpec.template(family, d, int(rng.integers(1, 3)), 8)
    return spec.with_params(spec.params + rng.uniform(-0.4, 0.4, spec.n_params))


def test_criterion_03_woodbury_matches_dense_oracle():
    # NLML, posterior mean, predictive variance vs the dense n x n solve,
    # 1e-8 relative, 50 random cases (n <= 200, D <= 128), all six families
    def rel(a, b):
        a, b = np.atleast_1d(np.asarray(a, float)), np.atleast_1d(np.asarray(b, float))
        return np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-6))

    for i in range(50):
        rng = np.random.default_rng(9000 + i)
        family = FAMILIES[i % 6]
        d = int(rng.integers(2, 4))
        n = int(rng.integers(20, 201))
        spec = _case_spec(family, d, rng)
        stacks = ft.build_stacks(spec, i)
        X = rng.standard_normal((n, d))
        Xs = rng.standard_normal((8, d))
        y = rng.standard_normal(n)
        noise_var = float(rng.uniform(0.05, 0.5))

        V = ft.feature_weight_matrix(spec)
        phi = ft.compute_features(spec, stacks, X)
        phis = ft.compute_features(spec, stacks, Xs)
        W = weighted_features(phi, V)
        Ws = weighted_features(phis, V)
        assert W.shape[0] <= 128
        f_o, m_o, v_o = dense_gp_nlml_predict(
            W.T @ W, y, noise_var, W.T @ Ws, np.einsum("ij,ij->j", Ws, Ws)
        )
        for mode in ("feature", "data", "auto"):
            f = neg_log_marginal_likelihood(phi, V, y, noise_var, mode=mode)
            assert rel(f, f_o) <= 1e-8, (family, i, mode)
        mean, var = predict(fit_posterior(phi, V, y, noise_var), phis)
        assert rel(mean, m_o) <= 1e-8, (family, i)
        assert rel(var, v_o) <= 1e-8, (family, i)


def _grad_base_spec(family, d, Q):
    if family in ("frbf", "fard"):
        return ft.KernelSpec.template(family, d, 1, 8)
    if family == "fsgbard":
        t = ft.KernelSpec.template(family, d, Q, 4)
        stacks = ft.build_stacks(t, 77)
        return ft.KernelSpec.fsgbard_from_stacks(d, Q, 4, np.ones(d), stacks)
    return ft.KernelSpec.template(family, d, Q, 4)


def test_criterion_04_gradient_matches_finite_differences():
    # central differences, step 1e-5, 1e-4 relative per coordinate,
    # 20 random hyperparameter settings per family
    step = 1e-5
    for family in FAMILIES:
        for s in range(20):
            rng = np.random.default_rng((hash(family) % 1000) * 100 + s)
            d, Q = 3, 2
            spec = _grad_base_spec(family, d, Q)
            spec = spec.with_params(spec.params + rng.uniform(-0.3, 0.3, spec.n_params))
            stacks = ft.build_stacks(spec, s)
            X = rng.standard_normal((25, d))
            y = rng.standard_normal(25)
            h = ft.pack_hyper(spec, math.log(float(rng.uniform(0.15, 0.6))))
            _, g = nlml_value_and_grad(spec, stacks, X, y, h)
            for i in range(h.size):
                hp, hm = h.copy(), h.copy()
                hp[i] += step
                hm[i] -= step
                fd = (
                    nlml_value_and_grad(spec, stacks, X, y, hp)[0]
                    - nlml_value_and_grad(spec, stacks, X, y, hm)[0]
                ) / (2 * step)
                assert abs(g[i] - fd) <= 1e-4 * max(abs(fd), 1e-3), (family, s, i)


def test_criterion_05_systematic_sampler_is_exact():
    # hat spectrum: quantiles re-derived from the triangle geometry
    # (area under the rising half of the unit hat is 2u^2, falling half
    # mirrors it, so q(u) = sqrt(u/2) below 1/2 and 1 - sqrt((1-u)/2) above)
    mu, sigma, m = 0.7, 1.3, 64
    jitter = 0.37 / m
    u = np.arange(m) / m + jitter
    q_unit = np.where(u <= 0.5, np.sqrt(u / 2.0), 1.0 - np.sqrt((1.0 - u) / 2.0))
    hat3 = PwlSpectrum(np.array([mu, mu + sigma / 2, mu + sigma]), np.array([1.0]))
    got = systematic_radii(hat3, m, jitter)
    assert np.max(np.abs(got - (mu + sigma * q_unit))) <= 1e-9

    # general spectrum: quadrature CDF inverted by bracketed root finding
    spec = PwlSpectrum(np.array([0.2, 0.8, 1.5, 2.5]), np.array([0.6, 1.4]))
    dens = lambda r: float(np.interp(r, spec.knots, np.concatenate(([0.0], spec.alphas, [0.0]))))
    kn = spec.knots
    total = quad(dens, kn[0], kn[-1], points=kn[1:-1], epsabs=1e-13, epsrel=1e-13, limit=400)[0]

    def cdf(r):
        cuts = [k for k in kn[1:-1] if k < r]
        return quad(dens, kn[0], r, points=cuts or None, epsabs=1e-13, epsrel=1e-13, limit=400)[0] / total

    m2 = 97
    jit2 = 0.31 / m2
    got = systematic_radii(spec, m2, jit2)
    u2 = np.arange(m2) / m2 + jit2
    for ui, ri in zip(u2, got):
        want = brentq(lambda r: cdf(r) - ui, kn[0], kn[-1], xtol=1e-14, rtol=8.9e-16)
        assert abs(ri - want) <= 1e-9

    # stratified grid: empirical CDF never strays more than one stratum
    F = np.array([cdf(r) for r in np.sort(got)])
    i = np.arange(m2)
    sup_gap = max(np.max(F - i / m2), np.max((i + 1) / m2 - F))
    assert sup_gap <= 1.0 / m2 + 1e-12

    # positivity: any negative interior value is rejected outright
    for alphas in ([1.0, -0.25], [-1e-12, 1.0]):
        with pytest.raises(DomainError):
            PwlSpectrum(np.array([0.2, 0.8, 1.5, 2.5]), np.array(alphas))


def test_criterion_06_recovers_spectral_peak():
    # cos(6x) + noise: GM with Q=1, m'=256 must place |mu_1| within 10%
    # of 6 and reach test RMSE <= 0.15 inside two minutes
    Xtr, ytr = make_cosine(n=500, freq=6.0, noise_std=0.1, seed=0)
    Xte, yte = make_cosine(n=200, freq=6.0, noise_std=0.1, seed=1)
    t0 = time.perf_counter()
    model, _ = fit(ft.KernelSpec.template("gm", 1, 1, 256), Xtr, ytr, TrainConfig(seed=0))
    elapsed = time.perf_counter() - t0
    mu = abs(float(model.spec.component(0).mu[0]))
    mean, _ = model.predict(Xte)
    err = rmse(mean, yte)
    assert 5.4 <= mu <= 6.6, f"|mu_1| = {mu:.4f}"
    assert err <= 0.15, f"rmse = {err:.4f}"
    assert elapsed < 120.0, f"{elapsed:.1f}s"


def _tenfold_mean_rmse(template, X, y, config):
    scores = []
    for tr, te in kfold_partitions(X.shape[0], 10, seed=config.seed):
        std = fit_standardization(X[tr], y[tr])
        model, _ = fit(template, std.apply_x(X[tr]), std.apply_y(y[tr]), config, standardization=std)
        mean, _ = model.predict(X[te])
        scores.append(rmse(mean, y[te]))
    return float(np.mean(scores))


def test_criterion_07_mixture_beats_isotropic_on_surrogate():
    # anisotropic multi-scale benchmark: 10-fold GM (Q=3, m'=64) must reach
    # < 0.7x the mean RMSE of FRBF at the same total frequency budget
    X, y = make_surrogate()
    config = TrainConfig(max_iters=60, restart_count=10, restart_iters=10, seed=0)
    t0 = time.perf_counter()
    gm_rmse = _tenfold_mean_rmse(ft.KernelSpec.template("gm", 5, 3, 64), X, y, config)
    frbf_rmse = _tenfold_mean_rmse(ft.KernelSpec.template("frbf", 5, 1, 192), X, y, config)
    elapsed = time.perf_counter() - t0
    assert gm_rmse < 0.7 * frbf_rmse, f"gm {gm_rmse:.4f} vs frbf {frbf_rmse:.4f}"
    assert elapsed < 900.0, f"{elapsed:.1f}s"


def test_criterion_08_training_scales_linearly_in_n(tmp_path):
    # fixed Qm: wall time across n in {2k, 8k, 32k} on a log-log fit must
    # have slope 1.0 +- 0.3, and the model file size must not move at all.
    # An untimed warm-up fit and the median of three fits per n keep one
    # noisy run at the smallest n from deciding the slope.
    config = TrainConfig(
        max_iters=8, restart_count=2, restart_iters=4, gradient_tolerance=1e-12, seed=0
    )
    template = ft.KernelSpec.template("gm", 4, 1, 32)
    ns = (2000, 8000, 32000)
    fit(template, *make_smooth(ns[0], d=4, seed=2), config)
    times, sizes = [], []
    for n in ns:
        X, y = make_smooth(n, d=4, seed=2)
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            model, _ = fit(template, X, y, config)
            runs.append(time.perf_counter() - t0)
        times.append(float(np.median(runs)))
        path = tmp_path / f"scale_{n}.bin"
        save_model(model, path)
        sizes.append(path.stat().st_size)
    slope = float(np.polyfit(np.log(ns), np.log(times), 1)[0])
    assert 0.7 <= slope <= 1.3, f"slope {slope:.3f}, times {times}"
    assert len(set(sizes)) == 1, f"sizes {sizes}"


def test_criterion_09_reports_are_byte_identical(tmp_path, capsys):
    X, y = make_cosine(100, freq=1.0, noise_std=0.05, seed=0)
    data = tmp_path / "data.csv"
    save_csv(data, X, y, feature_names=["x"])
    argv = [
        "eval", "--data", str(data), "--kernel", "gm", "--Q", "1", "--m", "8",
        "--folds", "3", "--seed", "5", "--iters", "5", "--restarts", "2",
        "--restart-iters", "3",
    ]

    outputs = []
    for jobs, out_name in (("1", "r1.txt"), ("2", "r2.txt"), ("1", "r3.txt")):
        out = tmp_path / out_name
        assert cli_main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
        capsys.readouterr()
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_criterion_10_hyperparameter_counts():
    for d, Q, m_per_group in ((5, 3, 12), (2, 1, 8), (7, 4, 10)):
        m = ft.pad_geometry(d, m_per_group).m_total
        want = {
            "frbf": 3,
            "fard": d + 2,
            "fsard": Q * m + d + 2,
            "fsgbard": 3 * Q * m + d + 2,
            "gm": Q * (2 * d + 1) + 1,
            "pwl": Q * (d + 3) + 1,
        }
        for family, count in want.items():
            q = 1 if family in ("frbf", "fard") else Q
            spec = ft.KernelSpec.template(family, d, q, m_per_group)
            if family in ("frbf", "fard"):
                count = want[family]  # single-component families ignore Q
            assert spec.n_hypers == count, (family, d, Q, m_per_group)
            assert spec.n_hypers == spec.n_params + 1
