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
sigma^2=1e-6), where `dpotri` + `dsymm` lost six digits.  In the data form
a row of W K_y^{-1} needs only its row of W, so nlml_value_and_grad builds
C in row blocks of whole groups, the first ceil(Q/2) groups and then the
rest (_group_blocks), each contracted into the gradient before the next is
built; one `dtrtri` serves both, and f and g keep their bits.  The
posterior keeps beta = V^{1/2} A^{-1} W y plus the Cholesky factor of A,
which is all the state prediction needs: mean = phi*^T beta and
var = sigma^2 (1 + ||L^{-1} V^{1/2} phi*||^2).  A prediction of fewer than
2D points solves for L^{-1} V^{1/2} phi* against L by `dtrsm`, one block of
test features at a time, and holds no other D x D array.  A larger one
builds R = L^{-1} V^{1/2} once, one more `dtrtri` and a second triangle
(never paid by a fit), and then takes each block as one `dtrmm`, for the
same GEMM-over-`trsm` reason (_variance_route).

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
writes Phi, the Gram (factored in place by chol_with_jitter), C (a row
block of it in the data form) and the chain rule's (m', n) array into the
same four arrays every time, so it allocates only small vectors.

A fit's workspace, the posterior's Gram (which becomes its factor), R, a
prediction's block of features and the factor model.load_model unpacks
are private anonymous memory mappings (_mapped), not malloc blocks: their
pages go back to the OS when they are dropped, so peak RSS does not
depend on how earlier allocations left glibc's heap.  Nothing writes above
a triangle's diagonal: `dsyrk`, `dpotrf`, the jitter ladder (which
restarts a failed rung from the Gram's source, not from a mirrored copy),
`dtrtri`, `dtrmm`, `dtrsm` and cho_solve all stay in the lower triangle
(`dtrsm` reads a C-order factor as its upper-triangular transpose), so with
4 KB pages a D x D factor costs its 4 D^2 bytes plus the part of each
column's diagonal page above the diagonal (0.60 of 8 D^2 at D = 2560).
An evaluation without a workspace still takes its arrays from numpy's
allocator.
"""

from __future__ import annotations

import contextlib
import math
import mmap
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg import solve_triangular  # noqa: F401  unused; perfbench/tracer.py wraps it here
from scipy.linalg.blas import ddot, dger, dsyrk, dtrmm, dtrsm
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


def _mapped(shape, order: str = "F", huge: bool = False) -> np.ndarray:
    """A zeroed float64 array of shape in its own private anonymous mapping,
    whose pages go back to the OS when the array is dropped and become
    resident only where something writes (np.zeros where the platform has
    no anonymous mappings).

    The mapping asks for 4 KB pages unless huge, so a triangle costs about
    half of its square: one 2 MB huge page under the diagonal would make
    whole columns above it resident too.  Transparent huge pages in
    `madvise` mode give 4 KB pages without advice; the advice keeps them
    under `always`.
    """
    try:
        pages = mmap.mmap(-1, max(8 * math.prod(shape), 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    except AttributeError:  # no anonymous mappings on this platform (Windows)
        return np.zeros(shape, order=order)
    with contextlib.suppress(AttributeError, OSError):  # no such advice on this platform or kernel
        pages.madvise(mmap.MADV_HUGEPAGE if huge else mmap.MADV_NOHUGEPAGE)
    return np.ndarray(shape, np.float64, buffer=pages, order=order)


def _buffer(work, name: str, shape) -> np.ndarray:
    """work[name]: a Fortran-order float64 array of shape, stale contents,
    allocated again only when the shape changes (np.empty if work is None).

    A workspace array is a _mapped one.  From malloc, glibc's dynamic mmap
    threshold puts D x n arrays of up to 32 MB on the heap once the first
    one is freed, and a fit's peak RSS then moves with whatever else the
    process allocated first.  Unlike a triangle, a workspace's D x n arrays
    are written whole, and every fit faults its new workspace in, so it
    asks for huge pages: one pwl 5x256 fit on 1,352 rows took about 18,400
    minor faults on 4 KB pages and 1,500-2,000 with them.
    """
    if work is None:
        return np.empty(shape, order="F")
    if name not in work or work[name].shape != shape:
        work[name] = _mapped(shape, huge=True)
    return work[name]


def _lower_panels(dim: int):
    """(cols, below, lower) for each 128-column panel of a dim x dim lower
    triangle: the panel's columns (and its diagonal tile's rows), the rows
    below that tile, and the tile's lower-triangle mask.  Tiles this size
    keep a copy between memory orders within the cache and the TLB."""
    lower = np.tri(128, dtype=bool)
    for j in range(0, dim, 128):
        k = min(j + 128, dim)
        yield slice(j, k), slice(k, None), lower[: k - j, : k - j]


def _copy_lower(dst: np.ndarray, src: np.ndarray) -> None:
    """Copy src's lower triangle, diagonal included, into dst's; dst's strict
    upper triangle is neither read nor written."""
    for cols, below, lower in _lower_panels(dst.shape[0]):
        np.copyto(dst[cols, cols], src[cols, cols], where=lower)
        dst[below, cols] = src[below, cols]


def chol_with_jitter(a: np.ndarray, *, refill=None):
    """Lower Cholesky factor with escalating diagonal jitter.

    Reads only the lower triangle of a, which must be finite (it is not
    scanned).  Starts at 1e-10 * trace/dim and multiplies by 10 up to
    1e-4 * trace before giving up.  Returns (L, jitter_used).  Nothing
    writes a strict upper triangle.  By default a is left as it was, L is a
    new _mapped array whose strict upper triangle is 0, and each jitter rung
    restarts from a's lower triangle.  With refill, a Fortran-order float64
    a (gp's own Grams) is factored in place, L is a, and each rung restarts
    with refill(a), which must write a's lower triangle again as it was
    (the `dsyrk` that made it), so no copy of the Gram is kept for a rung
    that rarely runs.  `dpotrf` skips scipy's slow clean pass.
    """
    dim = a.shape[0]
    if dim == 0:
        return np.zeros((0, 0)), 0.0
    if refill is None:
        refill = partial(_copy_lower, src=np.asarray(a, dtype=float))
        a = _mapped(a.shape)
        refill(a)
    elif a.dtype != np.float64 or not a.flags.f_contiguous:
        raise DimensionError("factoring in place needs a Fortran-order float64 array")
    scale = max(float(np.trace(a)), np.finfo(float).tiny)
    diag = a.diagonal().copy()
    jitter, step = 0.0, 1e-10 * scale / dim
    while dpotrf(a, lower=1, clean=0, overwrite_a=1)[1] != 0:  # a leading minor is not positive
        jitter, step = step, step * 10.0
        if jitter > 1e-4 * scale:
            raise IllConditionedError(f"Cholesky failed after jitter escalation to {1e-4 * scale:g}")
        refill(a)
        np.fill_diagonal(a, diag + jitter)
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


def _co_blocks(L: np.ndarray, W: np.ndarray, side: int, bounds, work=None):
    """(rows, C[rows]) for each (lo, hi) row block of bounds, in order, of
    C = L^{-T} L^{-1} W (side=0) or W L^{-T} L^{-1} (side=1); overwrites L.

    One in-place triangular inverse serves every block.  Each block copies
    its rows of W into the leading part of work's "co" buffer, which has the
    largest block's rows, and runs two in-place `dtrmm` products on it,
    which keep W's point-major layout on either side and read only L's
    lower triangle; a block's C is overwritten by the next block.  Only the
    data form splits: a row of W K^{-1} needs only its row of W, where every
    row of A^{-1} W needs all of W.
    """
    Linv = _tri_inverse(L, overwrite=True)
    n = W.shape[1]
    co = _buffer(work, "co", (max(hi - lo for lo, hi in bounds), n)).reshape(-1, order="F")
    for lo, hi in bounds:
        C = co[: (hi - lo) * n].reshape((hi - lo, n), order="F")
        C[...] = W[lo:hi]
        dtrmm(1.0, Linv, C, side=side, lower=1, trans_a=side, overwrite_b=1)
        yield slice(lo, hi), dtrmm(1.0, Linv, C, side=side, lower=1, trans_a=1 - side, overwrite_b=1)


def _co_matrix(L: np.ndarray, W: np.ndarray, side: int, work=None) -> np.ndarray:
    """The whole co-matrix, _co_blocks' one block: L^{-T} L^{-1} W (side=0)
    or W L^{-T} L^{-1} (side=1); overwrites L."""
    ((_, C),) = _co_blocks(L, W, side, [(0, W.shape[0])], work)
    return C


def _form(D: int, n: int) -> str:
    """The form "auto" picks: the feature form below D = n, else the data form."""
    return "feature" if D < n else "data"


def _group_blocks(Q: int, side: int) -> list:
    """The ranges of groups whose rows of C an evaluation builds at a time:
    in the data form (side=1) the first ceil(Q/2) groups, then the rest, so
    C holds ceil(Q/2) of Q groups' rows; all Q at once in the feature form
    or for Q=1.  Halves, not single groups: right-side `dtrmm` slows as its
    blocks get fewer rows.  For pwl 5x256 (D = 2560, n = 1,352), C took
    84-113 ms whole, 90-110 ms in halves of 1,536 and 1,024 rows and
    105-141 ms a 512-row group at a time (2 vCPUs, two runs of 11)."""
    half = (Q + 1) // 2
    return [range(Q)] if side == 0 or Q == 1 else [range(half), range(half, Q)]


def _value(W: np.ndarray, y: np.ndarray, noise_var: float, mode: str, work=None):
    """(f, alpha, u, L, side): the NLML and the one solve of the chosen form.

    alpha = K^{-1} y and u = W alpha.  The form picks the Gram's side (A
    for 0, K for 1) and the vector its one solve gives (u, or alpha).  The
    Gram is factored in place in work's "gram" buffer (a new array when
    work is None) into L, which the co-matrix (_co_blocks) consumes; a
    jitter rung rewrites the Gram from W by `dsyrk`.
    """
    D, n = W.shape
    form = _form(D, n) if mode == "auto" else mode
    if form not in ("feature", "data"):
        raise DomainError(f"unknown mode {mode!r}")
    side = int(form == "data")
    size = W.shape[side]
    gram = _gram(W, noise_var, side, _buffer(work, "gram", (size, size)))
    L, _ = chol_with_jitter(gram, refill=partial(_gram, W, noise_var, side))
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
    return 0.5 * (n * np.log(2.0 * np.pi) + logdet + quad), alpha, u, L, side


def _trace_terms(q: np.ndarray, u: np.ndarray, noise_var: float, n: int):
    """(r, tr(K^{-1})) from q = diag(W K^{-1} W^T): r = q - u^2 and
    tr(K^{-1}) = (n - sum q) / sigma^2."""
    return q - u**2, (n - float(np.sum(q))) / noise_var


def _core(W: np.ndarray, y: np.ndarray, noise_var: float, mode: str, work=None):
    """NLML and its gradient ingredients in the chosen form, C whole.

    Returns a dict with f, the co-matrix C = A^{-1} W = W K^{-1} (D x n),
    alpha = K^{-1} y, u = W alpha, r (per-feature-row diagonal of
    W (K^{-1} - alpha alpha^T) W^T) and tr(K^{-1}), both from q, the row
    sums of C * W.  _value gives f, alpha and u, and _co_matrix C in work's
    "co" buffer; nlml_value_and_grad takes the same pieces with C in row
    blocks.
    """
    f, alpha, u, L, side = _value(W, y, noise_var, mode, work)
    C = _co_matrix(L, W, side, work)
    r, tr_Kinv = _trace_terms(np.einsum("in,in->i", C, W), u, noise_var, W.shape[1])
    return {"f": f, "C": C, "alpha": alpha, "u": u, "r": r, "tr_Kinv": tr_Kinv}


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
        the factor's lower triangle copied into a new Fortran-order _mapped
        array (from either memory order), one in-place `dtrtri`, then each
        column's lower part scaled by sqrt(weight_diag).  Nothing writes
        above the diagonal, so R costs its triangle.  IllConditionedError on
        a zero diagonal."""
        R = _mapped(self.chol_factor.shape)
        _copy_lower(R, self.chol_factor)
        _tri_inverse(R, overwrite=True)
        scale = np.sqrt(self.weight_diag)
        for cols, below, lower in _lower_panels(R.shape[0]):
            np.multiply(R[cols, cols], scale[cols], out=R[cols, cols], where=lower)
            R[below, cols] *= scale[cols]
        return R


def fit_posterior(phi, weight_diag, y, noise_var, *, overwrite_phi: bool = False) -> PosteriorState:
    """beta = V^{1/2} A^{-1} (V^{1/2} Phi) y with A's Cholesky factor kept.

    A is factored in place in a new _mapped array, which becomes the
    state's factor: nothing writes its strict upper triangle, which stays 0
    and costs no resident memory, and a jitter rung rewrites the lower one
    from W by `dsyrk`.  overwrite_phi=True lets W = V^{1/2} Phi overwrite a
    float64 phi in place (train.fit passes the features it has just built),
    so the posterior holds one D x n and one D x D array; phi then holds W.
    """
    W, y = _checked(phi, weight_diag, y, noise_var, min_points=0, overwrite=overwrite_phi)
    D = W.shape[0]
    L, _ = chol_with_jitter(_gram(W, noise_var, 0, _mapped((D, D))), refill=partial(_gram, W, noise_var, 0))
    u = cho_solve((L, True), matvec(W, y), check_finite=False)
    w = np.array(weight_diag, dtype=float)  # a copy the state owns
    return PosteriorState(beta=np.sqrt(w) * u, chol_factor=L, noise_var=float(noise_var), weight_diag=w)


def _variance_route(D: int, rows: int) -> str:
    """The variance route of a prediction of rows points from a D x D
    factor: "solve" below 2D rows, else "inverse".

    "solve" scales each block of features by V^{1/2} and solves against L
    by `dtrsm`, with no other D x D array; "inverse" builds
    R = L^{-1} V^{1/2} once (a `dtrtri` of D^3/3 flops and a second
    triangle) and takes one `dtrmm` per block, which runs at GEMM speed
    where `dtrsm` does not.  By scripts/eval_timing.py's predict_ms
    (TrainedModel.predict, 2 vCPUs, `--repeats 5`), at D rows the solve took
    0.77-0.86 of R's time at each of four shapes from D = 768 to 5120
    (frbf 1x1280: 212 against 274 ms); at 2D the two were within 13%
    either way (gm 5x256, D = 5120: 3.72 against 3.71 s), and at 2.5D R was
    faster at three of the four.  Below 2D the solve also holds one D x D
    triangle less.
    """
    return "solve" if rows < 2 * D else "inverse"


def predict(state: PosteriorState, phi_star, *, overwrite_phi: bool = False, rows=None):
    """(mean, variance) per test column of phi_star.

    mean = phi*^T beta; var = sigma^2 (1 + ||L^{-1} V^{1/2} phi*||^2), the
    weight-space posterior variance, so var >= sigma^2 always.  rows is
    the number of points of the whole prediction phi_star is a block of
    (its own columns by default), which sets the route by
    _variance_route(D, rows): a triangular solve against the stored factor
    (`dtrsm` on V^{1/2} phi*, reading L in place in either memory order),
    or one `dtrmm` by R = state.scaled_inverse.  Either way the product
    goes into a D x n copy of phi_star, so callers bound memory by passing
    column blocks (TrainedModel.predict does).  overwrite_phi=True lets it
    overwrite a point-major (Fortran-order) phi_star, as compute_features
    returns it, instead of copying it; phi_star then holds the product.
    """
    data = _as_data(phi_star)
    single = data.ndim == 1
    if single:
        data = data[:, None]
    D = state.beta.shape[0]
    if data.shape[0] != D:
        raise DimensionError(f"phi_star has {data.shape[0]} rows, model has {D}")
    mean = matvec(data.T, state.beta)  # before the product may overwrite data
    # non-finite features propagate to the result (TrainedModel.predict checks it)
    if _variance_route(D, data.shape[1] if rows is None else rows) == "solve":
        half = _scaled_solve(state, data, overwrite_phi)
    else:
        half = dtrmm(1.0, state.scaled_inverse, data, lower=1, overwrite_b=int(overwrite_phi))
    var = state.noise_var * (1.0 + np.einsum("kj,kj->j", half, half))
    return (float(mean[0]), float(var[0])) if single else (mean, var)


def _scaled_solve(state: PosteriorState, data: np.ndarray, overwrite: bool) -> np.ndarray:
    """L^{-1} V^{1/2} data by one `dtrsm` on V^{1/2} data, written over a
    point-major data when overwrite, else into a new array.  The
    factor is read as it is stored: a Fortran-order L (fit_posterior's) as
    lower, a C-order one (load_model's) as its transpose, upper and
    transposed back, so nothing is copied and nothing above the diagonal is
    read.  IllConditionedError on a zero diagonal entry."""
    L = state.chol_factor
    zero = np.flatnonzero(np.diagonal(L) == 0.0)
    if zero.size:
        raise IllConditionedError(f"Cholesky factor is singular at diagonal entry {zero[0] + 1}")
    scale = np.sqrt(state.weight_diag)[:, None]
    if overwrite and data.flags.f_contiguous:
        half = np.multiply(data, scale, out=data)
    else:
        half = np.multiply(data, scale, order="F")
    if L.flags.f_contiguous:
        return dtrsm(1.0, L, half, lower=1, overwrite_b=1)
    return dtrsm(1.0, L.T, half, lower=0, trans_a=1, overwrite_b=1)


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
    so an evaluation holds the D x n array W, C (then M), the Gram, which is
    factored in place, and the chain rule's (m', n) array.  In the feature
    form C is D x n.  In the data form it comes in row blocks of whole
    groups (_group_blocks: the first ceil(Q/2) groups, then the rest), and
    each block's q, M and feature gradient are taken before the next block
    overwrites it, so C holds ceil(Q/2) rows_per_group x n (3/5 of D x n at
    Q=5); every group's gradient goes into g in group order, so f and g are
    the bits of one whole-C contraction.  work is a dict that keeps these
    four buffers ("design", "co", "gram", "chain") from one call to the
    next, as train.fit's objective does; None gives each call new ones.
    Without grad, C, M and the chain rule are skipped, and so are the "co"
    and "chain" buffers.
    """
    spec_h, log_noise = unpack_hyper(spec, hyper)
    noise_var = np.exp(2.0 * log_noise)
    design = _buffer(work, "design", (spec.n_rows, np.shape(X)[0] if np.ndim(X) == 2 else 0))
    phi = compute_features(spec_h, stacks, X, out=design)  # phi.data becomes W below
    W, y = _checked(phi, feature_weight_matrix(spec_h), y, noise_var, min_points=1, overwrite=True)
    f, alpha, u, L, side = _value(W, y, noise_var, mode, work)
    if not grad:
        return float(f), None

    # per row block of groups: its q, then M = C - u alpha^T built in place
    # in C's point-major layout, which feature_param_gradients reads
    # alongside W (the rank-one update is `dger`, with no temporary), into
    # g[1:] in group order
    g = np.zeros(spec.n_hypers)
    q = np.empty(W.shape[0])
    chain = _buffer(work, "chain", (spec.m_realized, W.shape[1]))
    rpg = spec_h.rows_per_group
    groups = _group_blocks(spec.Q, side)
    bounds = [(block.start * rpg, block.stop * rpg) for block in groups]
    for block, (rows, C) in zip(groups, _co_blocks(L, W, side, bounds, work)):
        q[rows] = np.einsum("in,in->i", C, W[rows])
        M = dger(-1.0, u[rows], alpha, a=C, overwrite_a=1)
        feature_param_gradients(spec_h, stacks, X, M, phi, scratch=chain, groups=block, out=g[1:])

    r, tr_Kinv = _trace_terms(q, u, noise_var, W.shape[1])
    g[0] = noise_var * (tr_Kinv - ddot(alpha, alpha))
    for idx, group in spec_h.weight_param_info():
        rows = slice(None) if group is None else slice(group * rpg, (group + 1) * rpg)
        g[1 + idx] += float(np.sum(r[rows]))
    return float(f), g

