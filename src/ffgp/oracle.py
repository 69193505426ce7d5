"""Slow, obviously-correct references for tests: dense kernels and a dense GP.

Everything here is deliberately independent of the fast paths: the Hadamard
reference comes from scipy, Gram matrices are dense closed forms, the
Monte-Carlo radial kernel draws its radii by rejection sampling (not the
library's inverse CDF), the GP solver works on the full n x n covariance,
and the feature Jacobian derives each d(xi) from `project` one coordinate at
a time, independently of the (C, op) contraction the training gradient uses.
Guards keep instances small; oracles exist to verify, not to run.

The one exception is neg_log_marginal_likelihood: it is the fast core's
own value (gp._value) on a given Phi, kept here so that the tests can
cross-check the core's feature and data forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, hadamard, solve_triangular

from .errors import DimensionError, DomainError, IllConditionedError
from .fastfood import project
from .features import KernelSpec, _group_diagonals, _scaled_inputs, param_info
from .gp import _checked, _value
from .hadamard import PadGeometry, fwht_inplace
from .spectra import hat_radii, hat_unit_quantile

MAX_ORACLE_N = 2000


def dense_hadamard_matrix(d: int) -> np.ndarray:
    """Unnormalized +/-1 Hadamard matrix via scipy (Sylvester construction)."""
    return hadamard(d).astype(float)


@dataclass(frozen=True)
class ExactKernel:
    """Closed-form or Monte-Carlo stationary kernel.

    family "rbf":  amplitude, lengthscales (scalar used isotropically)
    family "ard":  amplitude, lengthscales (d,)
    family "gm":   components = [(weight, mu, sigma_diag), ...]
    family "mc_radial": weight, lengthscales (d,), knots/alphas of the radial
        density, ambient_dim (directions are drawn in that dimension and the
        first d coordinates act on the scaled lag; a zero-padded projection
        lives in the padded space, so the reference must too), n_draws, seed
    """

    family: str
    amplitude: float = 1.0
    lengthscales: np.ndarray | float = 1.0
    components: tuple = ()
    knots: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.5, 1.0]))
    alphas: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    ambient_dim: int = 0
    n_draws: int = 100_000
    seed: int = 0


def _pairwise_sq(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(xa**2, axis=1)[:, None]
        + np.sum(xb**2, axis=1)[None, :]
        - 2.0 * xa @ xb.T
    )
    return np.maximum(d2, 0.0)


def _rejection_radii(knots, alphas, n, rng) -> np.ndarray:
    """Radii distributed as the normalized piecewise-linear density."""
    knots = np.asarray(knots, dtype=float)
    vals = np.concatenate(([0.0], np.asarray(alphas, dtype=float), [0.0]))
    if np.any(vals < 0):
        raise DomainError("radial density must be nonnegative")
    top = vals.max()
    if top <= 0:
        raise DomainError("radial density has zero mass")
    out = np.empty(0)
    while out.size < n:
        cand = rng.uniform(knots[0], knots[-1], size=2 * n)
        height = rng.uniform(0.0, top, size=2 * n)
        dens = np.interp(cand, knots, vals)
        out = np.concatenate((out, cand[height < dens]))
    return out[:n]


def exact_cross_gram(kernel: ExactKernel, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Dense kernel matrix k(xa_i, xb_j)."""
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    if max(xa.shape[0], xb.shape[0]) > MAX_ORACLE_N:
        raise DimensionError(f"oracle limited to n <= {MAX_ORACLE_N}")
    fam = kernel.family
    if fam == "rbf":
        ell = float(np.atleast_1d(kernel.lengthscales)[0])
        return kernel.amplitude**2 * np.exp(-0.5 * _pairwise_sq(xa, xb) / ell**2)
    if fam == "ard":
        ell = np.asarray(kernel.lengthscales, dtype=float)
        return kernel.amplitude**2 * np.exp(-0.5 * _pairwise_sq(xa / ell, xb / ell))
    if fam == "gm":
        out = np.zeros((xa.shape[0], xb.shape[0]))
        for weight, mu, sigma_diag in kernel.components:
            mu = np.asarray(mu, dtype=float)
            sd = np.asarray(sigma_diag, dtype=float)
            quad = _pairwise_sq(xa * sd, xb * sd)
            phase = np.subtract.outer(xa @ mu, xb @ mu)
            out += weight**2 * np.exp(-0.5 * quad) * np.cos(phase)
        return out
    if fam == "mc_radial":
        rng = np.random.default_rng(kernel.seed)
        d = xa.shape[1]
        amb = kernel.ambient_dim or d
        radii = _rejection_radii(kernel.knots, kernel.alphas, kernel.n_draws, rng)
        dirs = rng.standard_normal((kernel.n_draws, amb))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        omega = radii[:, None] * dirs[:, :d]  # zero-padded lags see first d coords
        ell = np.asarray(kernel.lengthscales, dtype=float)
        ta = xa / ell
        tb = xb / ell
        proj_a = ta @ omega.T  # (na, draws)
        proj_b = tb @ omega.T
        out = np.empty((xa.shape[0], xb.shape[0]))
        for i in range(xa.shape[0]):
            out[i] = kernel.amplitude**2 * np.mean(
                np.cos(proj_a[i][None, :] - proj_b), axis=1
            )
        return out
    raise DomainError(f"unknown oracle family {fam!r}")


def gm_closed_form(components, tau) -> np.ndarray:
    """Stationary mixture kernel value at lag(s) tau.

    k(tau) = sum_q weight_q^2 * exp(-|diag(sigma_q) tau|^2 / 2) * cos(<mu_q, tau>)

    tau may be a single lag (d,) or a batch (n, d).
    """
    tau = np.asarray(tau, dtype=float)
    single = tau.ndim == 1
    t = np.atleast_2d(tau)
    out = np.zeros(t.shape[0])
    for comp in components:
        quad = np.sum((t * comp.sigma_diag) ** 2, axis=1)
        out += comp.weight**2 * np.exp(-0.5 * quad) * np.cos(t @ comp.mu)
    return out[0] if single else out


def exact_gram(kernel: ExactKernel, X: np.ndarray) -> np.ndarray:
    """Dense symmetric Gram on one point set."""
    return exact_cross_gram(kernel, X, X)


def _chol_dense(a: np.ndarray) -> np.ndarray:
    try:
        return cholesky(a, lower=True)
    except np.linalg.LinAlgError:
        pass
    trace = max(float(np.trace(a)), np.finfo(float).tiny)
    jitter = 1e-12 * trace / a.shape[0]
    while jitter <= 1e-6 * trace:
        try:
            return cholesky(a + jitter * np.eye(a.shape[0]), lower=True)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise IllConditionedError("dense oracle covariance is not PSD")


def dense_gp_nlml_predict(gram, y, noise_var, cross_cov=None, prior_var=None):
    """Literal dense-covariance GP: NLML and optional (means, variances).

    gram: n x n kernel at training points; cross_cov: n x n_test; prior_var:
    k(x*, x*) per test point.  Predictive variance includes the noise term so
    it is comparable to the fast path's output.
    """
    gram = np.asarray(gram, dtype=float)
    y = np.asarray(y, dtype=float)
    n = gram.shape[0]
    if n > MAX_ORACLE_N:
        raise DimensionError(f"oracle limited to n <= {MAX_ORACLE_N}")
    if gram.shape != (n, n) or y.shape != (n,):
        raise DimensionError("gram must be square and match y")
    if noise_var <= 0:
        raise DomainError("noise_var must be positive")
    ky = gram + noise_var * np.eye(n)
    L = _chol_dense(ky)
    alpha = solve_triangular(
        L.T, solve_triangular(L, y, lower=True), lower=False
    )
    nlml = 0.5 * (
        n * np.log(2.0 * np.pi) + 2.0 * np.sum(np.log(np.diag(L))) + y @ alpha
    )
    if cross_cov is None:
        return float(nlml), None, None
    cross = np.asarray(cross_cov, dtype=float)
    means = cross.T @ alpha
    half = solve_triangular(L, cross, lower=True)
    pv = np.asarray(prior_var, dtype=float)
    variances = pv + noise_var - np.einsum("ij,ij->j", half, half)
    return float(nlml), means, variances


def neg_log_marginal_likelihood(phi, weight_diag, y, noise_var, mode: str = "auto") -> float:
    """-log p(y) for the weight-space GP, from the fast core (gp._value).

    mode: "auto" picks the feature (dual) form when D < n, else the data
    form; both available explicitly for cross-checking.
    """
    W, y = _checked(phi, weight_diag, y, noise_var, min_points=1)
    return float(_value(W, y, noise_var, mode)[0])


def _pad_cols(X: np.ndarray, geo: PadGeometry) -> np.ndarray:
    out = np.zeros((X.shape[0], geo.d_pad))
    out[:, : geo.d_in] = X
    return out


def _group_xi(spec: KernelSpec, stacks, q: int, X: np.ndarray) -> np.ndarray:
    return project(stacks[q], _scaled_inputs(spec, q, X), *_group_diagonals(spec, stacks, q)[1:])


def _dxi_for_param(spec, stacks, q, X, kind, j, xi):
    """d(xi_q)/d(theta) as an (n, m') array for parameters that move xi."""
    stack = stacks[q]
    geo = stack.geometry
    d = geo.d_pad
    _, s_eff, g_eff, b_eff = _group_diagonals(spec, stacks, q)
    xs = _scaled_inputs(spec, q, X)

    if kind in ("log_ell", "log_sd"):
        sign = 1.0 if kind == "log_sd" else -1.0
        if spec.family == "frbf":
            # one shared lengthscale scales every input column
            Z = sign * xs
        else:
            Z = np.zeros_like(xs)
            Z[:, j] = sign * xs[:, j]
        return project(stack, Z, s_eff, g_eff, b_eff)
    if kind == "s_mult":
        dxi = np.zeros_like(xi)
        dxi[:, j] = xi[:, j]
        return dxi
    if kind in ("hat_mu", "hat_sigma"):
        hat = spec.hat(q)
        r = hat_radii(hat.mu, hat.sigma, stack.uniform_draws)
        dr = np.full_like(r, hat.mu) if kind == "hat_mu" else hat.sigma * hat_unit_quantile(stack.uniform_draws)
        return xi * (dr / r)
    if kind not in ("g", "b"):
        raise DomainError(f"parameter kind {kind!r} does not move xi")
    blk, jl = divmod(j, d)
    lo = blk * d
    xp = _pad_cols(xs, geo)
    e = np.zeros(d)
    e[jl] = 1.0
    fwht_inplace(e)  # column jl of H
    dxi = np.zeros((X.shape[0], geo.m_total))
    if kind == "g":
        v = xp * b_eff[lo : lo + d]
        fwht_inplace(v)
        v3 = v[:, stack.perms[blk]]
        dxi[:, lo : lo + d] = np.outer(v3[:, jl], s_eff[lo : lo + d] * e / np.sqrt(d))
    else:
        c = g_eff[lo : lo + d] * e[stack.perms[blk]]
        fwht_inplace(c)
        c *= s_eff[lo : lo + d] / np.sqrt(d)
        dxi[:, lo : lo + d] = np.outer(xp[:, jl], c)
    return dxi


def feature_jacobian(spec: KernelSpec, stacks, X: np.ndarray, param_index: int) -> np.ndarray:
    """Exact d(design matrix)/d(packed parameter), same shape as the data.

    project is linear, so xi-derivatives are themselves stack projections
    of scaled inputs; trig rows follow by the chain rule.  Weight parameters
    (log a, log v_q) never move the raw features, so their slices are zero.
    """
    X = np.asarray(X, dtype=float)
    kind, q, j = param_info(spec, param_index)
    n = X.shape[0]
    m = spec.m_realized
    rpg = spec.rows_per_group
    out = np.zeros((spec.n_rows, n))
    if kind in ("log_a", "log_v"):
        return out

    groups = range(spec.Q) if (kind == "log_ell" and spec.family != "pwl") else [q]
    for gq in groups:
        xi = _group_xi(spec, stacks, gq, X)
        # mu moves the phase zeta, not xi, so it has no stack projection
        dxi = None if kind == "mu" else _dxi_for_param(spec, stacks, gq, X, kind, j, xi)
        base = gq * rpg
        if spec.family == "gm":
            comp = spec.component(gq)
            zeta = X @ comp.mu
            if kind == "mu":
                darg_p = np.broadcast_to(X[:, j][:, None], xi.shape)
                darg_m = -darg_p
            else:
                darg_p = darg_m = dxi
            plus = xi + zeta[:, None]
            minus = xi - zeta[:, None]
            out[base : base + m] = (np.cos(plus) * darg_p).T
            out[base + m : base + 2 * m] = (-np.sin(plus) * darg_p).T
            out[base + 2 * m : base + 3 * m] = (np.cos(minus) * darg_m).T
            out[base + 3 * m : base + 4 * m] = (-np.sin(minus) * darg_m).T
        else:
            out[base : base + m] = (-np.sin(xi) * dxi).T
            out[base + m : base + 2 * m] = (np.cos(xi) * dxi).T
    return out
