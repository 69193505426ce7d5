"""Weight-space GP regression: likelihood, gradient, posterior, prediction.

With W = V^{1/2} Phi (D feature rows, n points) the model covariance is
K_y = W^T W + sigma^2 I_n, and everything routes through one of two forms:

  feature form (D < n):  factor A = sigma^2 I_D + W W^T, solve u = A^{-1} W y
      log|K_y| = log|A| + (n - D) log sigma^2
      y^T K_y^{-1} y = (y^T y - (Wy)^T u) / sigma^2
  data form (D >= n):    factor K_y (n x n), solve alpha = K_y^{-1} y

Both are exact and differ only in the Gram's side and the vector solved;
the switch is purely computational.  Every gradient
ingredient comes from the co-matrix C = A^{-1} W = W K_y^{-1}
(push-through identity): q = diag(W K_y^{-1} W^T) is the row sums of C * W
and tr(K_y^{-1}) = (n - sum q) / sigma^2, so no inverse of A or K_y is
formed.  The feature gradient contracts M = C - u alpha^T against the
derivatives of W, which equals contracting V^{1/2} M against Phi's: the
weights depend only on log a / log v, and a frequency's cos and sin rows
share one, so the trig chain rule's cross terms carry the same factor.
C itself is one triangular inverse of the Cholesky factor (`dtrtri`, in
place) and two triangular products (`dtrmm`): L^{-T} L^{-1} W in the
feature form, W L^{-T} L^{-1} in the data form.  That is the flop count of
two triangular solves plus D^3/3 (or n^3/3), but scipy's OpenBLAS runs
`trmm` at GEMM speed and `trsm` well below it.  Its accuracy is that of the
solves (tr K_y^{-1} to 1e-10 relative on a rank-deficient A with
sigma^2=1e-6), where `dpotri` + `dsymm` lost six digits.  The posterior
keeps beta = V^{1/2} A^{-1} W y plus the Cholesky factor of A, which is all
the state prediction needs: mean = phi*^T beta and
var = sigma^2 (1 + ||R phi*||^2) with R = L^{-1} V^{1/2}.  R is one more
`dtrtri`, paid by the first prediction from a state (never by a fit), and
each block of test features is then one `dtrmm` product, for the same
GEMM-over-`trsm` reason.

Every BLAS product of an evaluation (nlml_value_and_grad) and of a
prediction runs in scipy's OpenBLAS: the features' and the feature
gradient's GEMMs are `dgemm` (ffgp.features), the Grams `dsyrk` (lower
triangle only, which is all the Cholesky reads), the mat-vecs `dgemv`
(ffgp.blas.matvec), the inner products `ddot`, the rank-one update `dger`,
and the factor and solves scipy's LAPACK.  numpy and scipy each bundle
their own OpenBLAS with its own thread pool; a numpy product between two
scipy calls leaves numpy's threads spinning on the cores the next scipy
call needs (and numpy's vector dot goes multithreaded above 10,000
entries).  The features are checked finite once, in weighted_features, so
the LAPACK calls behind it skip their own scans.

W is Phi's own array wherever the caller built Phi only to weight it:
nlml_value_and_grad, and train.fit through fit_posterior's overwrite_phi,
scale Phi by V^{1/2} in place, so neither holds Phi and W at once.
weighted_features and the default fit_posterior leave Phi as it is.  An
evaluation given a workspace (nlml_value_and_grad's work, one per fit)
writes Phi, the Gram (factored in place by chol_with_jitter's overwrite_a),
C and the chain rule's (m', n) array into the same four arrays every time,
so it allocates only small vectors.  Those four arrays are private
anonymous memory mappings (_buffer), not malloc blocks, so a fit returns
their pages to the OS when it drops the workspace, and its peak RSS does
not depend on how earlier allocations left glibc's heap.  Everything else
(an evaluation without a workspace, the posterior's Gram and factor,
prediction blocks) comes from numpy's allocator.
"""

from __future__ import annotations

import contextlib
import math
import mmap
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg import solve_triangular  # noqa: F401  unused; perfbench/tracer.py wraps it here
from scipy.linalg.blas import ddot, dger, dsyrk, dtrmm
from scipy.linalg.lapack import dpotrf, dtrtri

from .blas import matvec
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


def _buffer(work, name: str, shape) -> np.ndarray:
    """work[name]: a Fortran-order float64 array of shape, stale contents,
    allocated again only when the shape changes (np.empty if work is None).

    A workspace array lives in its own private anonymous mapping, which
    goes back to the OS when the array is dropped.  From malloc, glibc's
    dynamic mmap threshold puts D x n arrays of up to 32 MB on the heap
    once the first one is freed, and a fit's peak RSS then moves with
    whatever else the process allocated first.  Every fit faults its new
    workspace in, so the mapping asks for transparent huge pages, as numpy
    does for its own large arrays: one pwl 5x256 fit on 1,352 rows took
    about 18,400 minor faults on 4 KB pages and 1,500-2,000 with them.
    Where the platform has no anonymous mappings, the workspace comes from
    np.empty as well.
    """
    if work is None:
        return np.empty(shape, order="F")
    if name not in work or work[name].shape != shape:
        try:
            pages = mmap.mmap(-1, max(8 * math.prod(shape), 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        except AttributeError:  # no anonymous mappings on this platform (Windows)
            work[name] = np.empty(shape, order="F")
        else:
            with contextlib.suppress(AttributeError, OSError):  # no MADV_HUGEPAGE on this platform or kernel
                pages.madvise(mmap.MADV_HUGEPAGE)
            work[name] = np.ndarray(shape, np.float64, buffer=pages, order="F")
    return work[name]


def _mirror(a: np.ndarray, zero: bool = False) -> None:
    """Copy a's strict lower triangle onto its strict upper one (zeroes it with
    zero) in cache- and TLB-sized 128 x 128 tiles; _mirror(a.T) copies it back."""
    upper = ~np.tri(128, dtype=bool)  # a diagonal tile's strict upper triangle
    for j in range(0, a.shape[0], 128):
        k = min(j + 128, a.shape[0])
        for i in range(0, j, 128):
            a[i : i + 128, j:k] = 0.0 if zero else a[j:k, i : i + 128].T
        block = a[j:k, j:k]
        np.copyto(block, 0.0 if zero else block.T, where=upper[: k - j, : k - j])


def chol_with_jitter(a: np.ndarray, *, overwrite_a: bool = False):
    """Lower Cholesky factor with escalating diagonal jitter.

    Reads only the lower triangle of a, which must be finite (it is not
    scanned).  Starts at 1e-10 * trace/dim and multiplies by 10 up to
    1e-4 * trace before giving up.  Returns (L, jitter_used).  By default a
    is left as it was and L has a zero upper triangle.  overwrite_a=True
    factors a Fortran-order float64 a (gp's own Grams) in place: L is a, its
    strict upper triangle a copy of a's strict lower one, from which each
    jitter rung restarts, so L may go only to lower-triangle readers
    (`dtrtri`, `dtrmm`, cho_solve).  `dpotrf` skips scipy's slow clean pass.
    """
    dim = a.shape[0]
    if dim == 0:
        return np.zeros((0, 0)), 0.0
    if not overwrite_a:
        a = np.array(a, dtype=float, order="F")
    elif a.dtype != np.float64 or not a.flags.f_contiguous:
        raise DimensionError("overwrite_a needs a Fortran-order float64 array")
    scale = max(float(np.trace(a)), np.finfo(float).tiny)
    diag = a.diagonal().copy()
    _mirror(a)
    jitter, step = 0.0, 1e-10 * scale / dim
    while dpotrf(a, lower=1, clean=0, overwrite_a=1)[1] != 0:  # a leading minor is not positive
        jitter, step = step, step * 10.0
        if jitter > 1e-4 * scale:
            raise IllConditionedError(f"Cholesky failed after jitter escalation to {1e-4 * scale:g}")
        _mirror(a.T)
        np.fill_diagonal(a, diag + jitter)
    if not overwrite_a:
        _mirror(a, zero=True)
    return a, jitter


def weighted_features(phi, weight_diag: np.ndarray) -> np.ndarray:
    """W = V^{1/2} Phi; DimensionError without feature rows, DomainError
    unless every entry is finite."""
    return _weighted(phi, weight_diag, overwrite=False)


def _weighted(phi, weight_diag, overwrite: bool) -> np.ndarray:
    """weighted_features, scaling a float64 Phi in place when overwrite
    (for callers that own Phi and drop it for W)."""
    data = _as_data(phi)
    if data.shape[0] == 0:
        raise DimensionError("phi has no feature rows")
    w = np.asarray(weight_diag, dtype=float)
    if w.shape != (data.shape[0],):
        raise DimensionError(f"weight_diag must have length {data.shape[0]}, got {w.shape}")
    if np.any(w < 0):
        raise DomainError("weight_diag entries must be nonnegative")
    if overwrite:
        W = data
        W *= np.sqrt(w)[:, None]
    else:
        W = np.sqrt(w)[:, None] * data
    # min and max propagate NaN, so this scans W twice without a D x n mask
    if not (np.isfinite(W.min(initial=0.0)) and np.isfinite(W.max(initial=0.0))):
        raise DomainError("weighted features are not finite")
    return W


def _checked(phi, weight_diag, y, noise_var, min_points: int, overwrite: bool = False):
    """(W, y), checked before the first BLAS call: noise_var > 0, W as
    weighted_features checks it (in Phi's array when overwrite), y of
    shape (n,), n >= min_points."""
    y = np.asarray(y, dtype=float)
    if noise_var <= 0:
        raise DomainError("noise_var must be positive")
    W = _weighted(phi, weight_diag, overwrite)
    if y.shape != (W.shape[1],):
        raise DimensionError(f"y must be ({W.shape[1]},), got {y.shape}")
    if y.size < min_points:
        raise DimensionError(f"need n >= {min_points}")
    return W, y


def _gram(W: np.ndarray, noise_var: float, trans: int, out=None) -> np.ndarray:
    """Lower triangle of W W^T (trans=0) or W^T W (trans=1) plus sigma^2 I,
    in out (Fortran-order, its strict upper triangle left as it was) when given."""
    G = dsyrk(1.0, W, lower=1, trans=trans, c=out, overwrite_c=1)
    G[np.diag_indices_from(G)] += noise_var
    return G


def _tri_inverse(L: np.ndarray, overwrite: bool) -> np.ndarray:
    """L^{-1} of a lower-triangular factor by `dtrtri`, in place when
    overwrite (and L is Fortran-ordered); IllConditionedError on a zero
    diagonal entry."""
    Linv, info = dtrtri(L, lower=1, overwrite_c=int(overwrite))
    if info > 0:
        raise IllConditionedError(f"Cholesky factor is singular at diagonal entry {info}")
    return Linv


def _co_matrix(L: np.ndarray, W: np.ndarray, side: int, work=None) -> np.ndarray:
    """L^{-T} L^{-1} W (side=0) or W L^{-T} L^{-1} (side=1); overwrites L.

    One in-place triangular inverse and two in-place `dtrmm` products on a
    copy of W in work's "co" buffer, which keep W's point-major layout on
    either side and read only L's lower triangle.
    """
    Linv = _tri_inverse(L, overwrite=True)
    C = _buffer(work, "co", W.shape)
    C[...] = W
    dtrmm(1.0, Linv, C, side=side, lower=1, trans_a=side, overwrite_b=1)
    return dtrmm(1.0, Linv, C, side=side, lower=1, trans_a=1 - side, overwrite_b=1)


def _form(D: int, n: int) -> str:
    """The form "auto" picks: the feature form below D = n, else the data form."""
    return "feature" if D < n else "data"


def _core(W: np.ndarray, y: np.ndarray, noise_var: float, mode: str, work=None, grad: bool = True):
    """NLML and its gradient ingredients in the chosen form (f alone
    without grad).

    Returns a dict with f, the co-matrix C = A^{-1} W = W K^{-1} (D x n),
    alpha = K^{-1} y, u = W alpha, r (per-feature-row diagonal of
    W (K^{-1} - alpha alpha^T) W^T) and tr(K^{-1}).  The form picks the
    Gram's side (A for 0, K for 1) and the vector its one solve gives (u,
    or alpha); r and tr(K^{-1}) both come from q = diag(W K^{-1} W^T), the
    row sums of C * W.  C comes from _co_matrix, which consumes the factor,
    so it runs last.  The Gram is factored in place and C written in work's
    buffers ("gram", "co"; new arrays when work is None).
    """
    D, n = W.shape
    form = _form(D, n) if mode == "auto" else mode
    if form not in ("feature", "data"):
        raise DomainError(f"unknown mode {mode!r}")
    side = int(form == "data")
    size = W.shape[side]
    L, _ = chol_with_jitter(_gram(W, noise_var, side, _buffer(work, "gram", (size, size))), overwrite_a=True)
    logdet = 2.0 * np.sum(np.log(np.diag(L))) + (n - size) * np.log(noise_var)
    rhs = matvec(W, y) if side == 0 else y
    solved = cho_solve((L, True), rhs, check_finite=False)  # u = A^{-1} W y, or alpha = K^{-1} y
    if side == 0:  # alpha and y^T K^{-1} y by push-through
        u = solved
        alpha = (y - matvec(W.T, u)) / noise_var
        quad = (ddot(y, y) - ddot(rhs, u)) / noise_var
    else:
        alpha = solved
        u = matvec(W, alpha)
        quad = ddot(y, alpha)
    f = 0.5 * (n * np.log(2.0 * np.pi) + logdet + quad)
    if not grad:
        return {"f": f}
    C = _co_matrix(L, W, side, work)
    q = np.einsum("in,in->i", C, W)
    return {"f": f, "C": C, "alpha": alpha, "u": u, "r": q - u**2, "tr_Kinv": (n - float(np.sum(q))) / noise_var}


@dataclass(frozen=True)
class PosteriorState:
    """Everything prediction needs, O(D) + O(D^2), independent of n."""

    beta: np.ndarray
    chol_factor: np.ndarray
    noise_var: float
    weight_diag: np.ndarray

    @cached_property
    def scaled_inverse(self) -> np.ndarray:
        """R = L^{-1} V^{1/2} (lower triangular, D x D), built on first use:
        one `dtrtri` on a copy of the factor, then its columns scaled by
        sqrt(weight_diag) in place.  IllConditionedError on a zero diagonal."""
        R = _tri_inverse(self.chol_factor, overwrite=False)
        R *= np.sqrt(self.weight_diag)
        return R


def fit_posterior(phi, weight_diag, y, noise_var, *, overwrite_phi: bool = False) -> PosteriorState:
    """beta = V^{1/2} A^{-1} (V^{1/2} Phi) y with A's Cholesky factor kept.

    A is factored in its own array.  overwrite_phi=True lets W = V^{1/2} Phi
    overwrite a float64 phi in place (train.fit passes the features it has
    just built), so the posterior holds one D x n and one D x D array; phi
    then holds W.
    """
    W, y = _checked(phi, weight_diag, y, noise_var, min_points=0, overwrite=overwrite_phi)
    L, _ = chol_with_jitter(_gram(W, noise_var, 0), overwrite_a=True)
    u = cho_solve((L, True), matvec(W, y), check_finite=False)
    _mirror(L, zero=True)  # the factor leaves gp here
    w = np.array(weight_diag, dtype=float)  # a copy the state owns
    return PosteriorState(beta=np.sqrt(w) * u, chol_factor=L, noise_var=float(noise_var), weight_diag=w)


def predict(state: PosteriorState, phi_star, *, overwrite_phi: bool = False):
    """(mean, variance) per test column of phi_star.

    mean = phi*^T beta; var = sigma^2 (1 + ||R phi*||^2) with
    R = state.scaled_inverse = L^{-1} V^{1/2}, the weight-space posterior
    variance, so var >= sigma^2 always.  R phi* is one `dtrmm` into a
    D x n copy of phi_star, so callers bound memory by passing column blocks
    (TrainedModel.predict does).  overwrite_phi=True lets the product
    overwrite a point-major (Fortran-order) phi_star, as compute_features
    returns it, instead of copying it; phi_star then holds R phi*.
    """
    data = _as_data(phi_star)
    single = data.ndim == 1
    if single:
        data = data[:, None]
    if data.shape[0] != state.beta.shape[0]:
        raise DimensionError(
            f"phi_star has {data.shape[0]} rows, model has {state.beta.shape[0]}"
        )
    mean = matvec(data.T, state.beta)  # before the product may overwrite data
    # non-finite features propagate to the result (TrainedModel.predict checks it)
    half = dtrmm(1.0, state.scaled_inverse, data, lower=1, overwrite_b=int(overwrite_phi))
    var = state.noise_var * (1.0 + np.einsum("kj,kj->j", half, half))
    return (float(mean[0]), float(var[0])) if single else (mean, var)


# ---- training objective ---------------------------------------------------


def nlml_value_and_grad(spec: KernelSpec, stacks, X, y, hyper, mode: str = "auto", *, work=None, grad: bool = True):
    """NLML and its exact gradient with respect to the packed hyper vector;
    (NLML, None) without grad, the same value bit for bit, for callers that
    never read the gradient (a fit with a zero iteration budget).

    hyper = [log noise-std, spec params...].  Gradient terms: the log
    noise-std coordinate via sigma^2 (tr K^{-1} - |alpha|^2); weight
    coordinates (log a / log v_q) via the group sums of
    r = diag(W (K^{-1} - alpha alpha^T) W^T); everything else through the
    co-matrix M = C - u alpha^T contracted against the analytic feature
    derivatives of W (see the module docstring).  W is Phi scaled in place,
    so an evaluation holds two D x n arrays, W and C (then M), plus the
    Gram, which is factored in place, and the chain rule's (m', n) array.
    work is a dict that keeps these four buffers ("design", "co", "gram",
    "chain") from one call to the next, as train.fit's objective does; None
    gives each call new ones.  Without grad, C, M and the chain rule are
    skipped, and so are the "co" and "chain" buffers.
    """
    spec_h, log_noise = unpack_hyper(spec, hyper)
    noise_var = np.exp(2.0 * log_noise)
    design = _buffer(work, "design", (spec.n_rows, np.shape(X)[0] if np.ndim(X) == 2 else 0))
    phi = compute_features(spec_h, stacks, X, out=design)  # phi.data becomes W below
    W, y = _checked(phi, feature_weight_matrix(spec_h), y, noise_var, min_points=1, overwrite=True)
    core = _core(W, y, noise_var, mode, work, grad)
    if not grad:
        return float(core["f"]), None

    g = np.zeros(spec.n_hypers)
    g[0] = noise_var * (core["tr_Kinv"] - ddot(core["alpha"], core["alpha"]))

    # M = C - u alpha^T, built in place in C's point-major layout, which
    # feature_param_gradients reads alongside W; the rank-one update is
    # `dger`, with no D x n temporary
    M = dger(-1.0, core["u"], core["alpha"], a=core["C"], overwrite_a=1)
    chain = _buffer(work, "chain", (spec.m_realized, W.shape[1]))
    g[1:] = feature_param_gradients(spec_h, stacks, X, M, phi, scratch=chain)

    rpg = spec_h.rows_per_group
    for idx, group in spec_h.weight_param_info():
        rows = slice(None) if group is None else slice(group * rpg, (group + 1) * rpg)
        g[1 + idx] += float(np.sum(core["r"][rows]))
    return float(core["f"]), g

