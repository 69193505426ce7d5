"""Weight-space GP regression: likelihood, gradient, posterior, prediction.

With W = V^{1/2} Phi (D feature rows, n points) the model covariance is
K_y = W^T W + sigma^2 I_n, and everything routes through one of two forms:

  feature form (D < n):  A = sigma^2 I_D + W W^T
      log|K_y| = log|A| + (n - D) log sigma^2
      y^T K_y^{-1} y = (y^T y - (Wy)^T A^{-1} (Wy)) / sigma^2
  data form (D >= n):    K_y assembled directly (n x n)

Both are exact; the switch is purely computational.  Every gradient
ingredient comes from the one multi-RHS solve for the co-matrix
C = A^{-1} W = W K_y^{-1} (push-through identity): q = diag(W K_y^{-1} W^T)
is the row sums of C * W and tr(K_y^{-1}) = (n - sum q) / sigma^2, so no
triangular inverse is ever formed.  The posterior keeps
beta = V^{1/2} A^{-1} W y plus the Cholesky factor of A, which is all the
state prediction needs: mean = phi*^T beta and
var = sigma^2 (1 + ||L^{-1} V^{1/2} phi*||^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .errors import DimensionError, DomainError, IllConditionedError
from .features import (
    DesignMatrix,
    KernelSpec,
    compute_features,
    feature_param_gradients,
    feature_weight_matrix,
    unpack_hyper,
)


def _as_data(phi) -> np.ndarray:
    return phi.data if isinstance(phi, DesignMatrix) else np.asarray(phi, dtype=float)


def chol_with_jitter(a: np.ndarray):
    """Lower Cholesky factor with escalating diagonal jitter.

    Starts at 1e-10 * trace/dim and multiplies by 10 up to 1e-4 * trace
    before giving up.  Returns (L, jitter_used).
    """
    dim = a.shape[0]
    if dim == 0:
        return np.zeros((0, 0)), 0.0
    try:
        return cholesky(a, lower=True), 0.0
    except np.linalg.LinAlgError:
        pass
    trace = float(np.trace(a))
    scale = max(trace, np.finfo(float).tiny)
    jitter = 1e-10 * scale / dim
    cap = 1e-4 * scale
    eye = np.eye(dim)
    while jitter <= cap:
        try:
            return cholesky(a + jitter * eye, lower=True), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise IllConditionedError(f"Cholesky failed after jitter escalation to {cap:g}")


def weighted_features(phi, weight_diag: np.ndarray) -> np.ndarray:
    """W = V^{1/2} Phi."""
    data = _as_data(phi)
    w = np.asarray(weight_diag, dtype=float)
    if w.shape != (data.shape[0],):
        raise DimensionError(f"weight_diag must have length {data.shape[0]}, got {w.shape}")
    if np.any(w < 0):
        raise DomainError("weight_diag entries must be nonnegative")
    return np.sqrt(w)[:, None] * data


def _feature_solve(W: np.ndarray, y: np.ndarray, noise_var: float):
    """Factor A = sigma^2 I_D + W W^T: returns (L, W y, u = A^{-1} W y)."""
    L, _ = chol_with_jitter(noise_var * np.eye(W.shape[0]) + W @ W.T)
    Wy = W @ y
    return L, Wy, cho_solve((L, True), Wy)


def _core(W: np.ndarray, y: np.ndarray, noise_var: float, mode: str, pieces: bool):
    """NLML (and optional gradient ingredients) in the chosen form.

    Returns a dict with f and, when pieces: the co-matrix C = A^{-1} W =
    W K^{-1} (D x n), alpha = K^{-1} y, u = W alpha, r (per-feature-row
    diagonal of W (K^{-1} - alpha alpha^T) W^T) and tr(K^{-1}).  Each form
    solves only for its own C, alpha and u; r and tr(K^{-1}) both come from
    q = diag(W K^{-1} W^T), the row sums of C * W, for either form.  No
    triangular inverse is formed.
    """
    D, n = W.shape
    if mode == "auto":
        mode = "feature" if D < n else "data"
    if mode == "feature":
        L, Wy, u = _feature_solve(W, y, noise_var)
        logdet = 2.0 * np.sum(np.log(np.diag(L))) + (n - D) * np.log(noise_var)
        quad = (y @ y - Wy @ u) / noise_var
        if pieces:
            C = cho_solve((L, True), W)
            alpha = (y - W.T @ u) / noise_var
    elif mode == "data":
        L, _ = chol_with_jitter(W.T @ W + noise_var * np.eye(n))
        alpha = cho_solve((L, True), y)
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        quad = y @ alpha
        if pieces:
            C = cho_solve((L, True), W.T).T
            u = W @ alpha
    else:
        raise DomainError(f"unknown mode {mode!r}")
    out = {"f": 0.5 * (n * np.log(2.0 * np.pi) + logdet + quad)}
    if pieces:
        q = np.einsum("in,in->i", C, W)
        out.update(r=q - u**2, C=C, alpha=alpha, u=u, tr_Kinv=(n - float(np.sum(q))) / noise_var)
    return out


def neg_log_marginal_likelihood(phi, weight_diag, y, noise_var, mode: str = "auto") -> float:
    """-log p(y) for the weight-space GP, never forming what it can avoid.

    mode: "auto" picks the feature (dual) form when D < n, else the data
    form; both available explicitly for cross-checking.
    """
    y = np.asarray(y, dtype=float)
    if noise_var <= 0:
        raise DomainError("noise_var must be positive")
    W = weighted_features(phi, weight_diag)
    if y.ndim != 1 or y.shape[0] != W.shape[1]:
        raise DimensionError(f"y must be ({W.shape[1]},), got {y.shape}")
    if y.size < 1:
        raise DimensionError("need n >= 1")
    return float(_core(W, y, noise_var, mode, pieces=False)["f"])


@dataclass(frozen=True)
class PosteriorState:
    """Everything prediction needs, O(D) + O(D^2), independent of n."""

    beta: np.ndarray
    chol_factor: np.ndarray
    noise_var: float
    weight_diag: np.ndarray


def fit_posterior(phi, weight_diag, y, noise_var) -> PosteriorState:
    """beta = V^{1/2} A^{-1} (V^{1/2} Phi) y with A's Cholesky factor kept."""
    y = np.asarray(y, dtype=float)
    if noise_var <= 0:
        raise DomainError("noise_var must be positive")
    W = weighted_features(phi, weight_diag)
    if y.shape != (W.shape[1],):
        raise DimensionError(f"y must be ({W.shape[1]},), got {y.shape}")
    L, _, u = _feature_solve(W, y, noise_var)
    beta = np.sqrt(np.asarray(weight_diag, dtype=float)) * u
    return PosteriorState(
        beta=beta,
        chol_factor=L,
        noise_var=float(noise_var),
        weight_diag=np.asarray(weight_diag, dtype=float).copy(),
    )


def predict(state: PosteriorState, phi_star):
    """(mean, variance) per test column of phi_star.

    mean = phi*^T beta; var = sigma^2 (1 + ||L^{-1} V^{1/2} phi*||^2), the
    weight-space posterior variance, so var >= sigma^2 always.
    """
    data = _as_data(phi_star)
    single = data.ndim == 1
    if single:
        data = data[:, None]
    if data.shape[0] != state.beta.shape[0]:
        raise DimensionError(
            f"phi_star has {data.shape[0]} rows, model has {state.beta.shape[0]}"
        )
    mean = data.T @ state.beta
    z = np.sqrt(state.weight_diag)[:, None] * data
    half = solve_triangular(state.chol_factor, z, lower=True)
    var = state.noise_var * (1.0 + np.einsum("kj,kj->j", half, half))
    return (float(mean[0]), float(var[0])) if single else (mean, var)


# ---- training objective ---------------------------------------------------


def nlml_value_and_grad(spec: KernelSpec, stacks, X, y, hyper, mode: str = "auto"):
    """NLML and its exact gradient with respect to the packed hyper vector.

    hyper = [log noise-std, spec params...].  Gradient terms: the log
    noise-std coordinate via sigma^2 (tr K^{-1} - |alpha|^2); weight
    coordinates (log a / log v_q) via the group sums of
    r = diag(W (K^{-1} - alpha alpha^T) W^T); everything else through the
    feature co-matrix M = V^{1/2}(C - u alpha^T) contracted against the
    analytic feature derivatives.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    spec_h, log_noise = unpack_hyper(spec, hyper)
    noise_var = np.exp(2.0 * log_noise)
    phi = compute_features(spec_h, stacks, X)
    weight_diag = feature_weight_matrix(spec_h)
    W = weighted_features(phi, weight_diag)
    core = _core(W, y, noise_var, mode, pieces=True)

    grad = np.zeros(spec.n_hypers)
    grad[0] = noise_var * (core["tr_Kinv"] - core["alpha"] @ core["alpha"])

    M = np.sqrt(weight_diag)[:, None] * (core["C"] - np.outer(core["u"], core["alpha"]))
    grad[1:] = feature_param_gradients(spec_h, stacks, X, M, phi)

    r = core["r"]
    rpg = spec_h.rows_per_group
    for idx, group in spec_h.weight_param_info():
        if group is None:
            grad[1 + idx] += float(np.sum(r))
        else:
            grad[1 + idx] += float(np.sum(r[group * rpg : (group + 1) * rpg]))
    return float(core["f"]), grad

