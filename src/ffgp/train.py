"""Marginal-likelihood training: per-family initialization plus L-BFGS.

Protocol: restart_count short runs (restart_iters iterations each) from
fresh initializations, keep the lowest NLML endpoint, then continue that
run for max_iters iterations.  Restart 0 always uses the unmodified
initialization recipes; later restarts widen the spectral search on a
geometric ladder (see init_family) so that peaked spectra far from the
origin are still reachable.  Selection by best NLML makes the widened
draws harmless on easy landscapes.

restart_starts is the one owner of a fit's starting point: the Fastfood
stacks drawn from the seed and each restart's initial hyper vector.  The
relaxed family (fsgbard) starts from the stacks' own G and B diagonals, so
its first features are FARD's.
"""

import math
import numbers
import operator

import numpy as np
from dataclasses import dataclass
from scipy.optimize import minimize

from .data import Standardization
from .errors import (
    DimensionError,
    DomainError,
    IllConditionedError,
    InsufficientDataError,
    OptimizationFailureError,
)
from .features import (
    KernelSpec,
    build_stacks,
    compute_features,
    feature_weight_matrix,
    pack_hyper,
    unpack_hyper,
)
from .gp import fit_posterior, nlml_value_and_grad
from .model import TrainedModel
from .spectra import GmComponent, HatSpectrum

QUANTILE_LEVELS = (0.1, 0.3, 0.5, 0.7, 0.9)

LBFGS_MEMORY = 10  # L-BFGS history length (scipy's maxcor)

# ladder ceilings: widest multiplier applied to the spectral-width draw and
# to the PWL hat location at explore=1 (the last restart)
SIGMA_LADDER_MAX = 30.0
PWL_LADDER_MAX = 20.0


@dataclass(frozen=True)
class TrainConfig:
    max_iters: int = 150
    restart_count: int = 10
    restart_iters: int = 20
    gradient_tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        # zero iteration budgets are legal: they return the best init as-is
        for name, low in (("max_iters", 0), ("restart_count", 1), ("restart_iters", 0), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__") or operator.index(value) < low:
                raise DomainError(f"{name} must be an integer >= {low}")
            object.__setattr__(self, name, operator.index(value))  # a Python int, which json writes
        tol = self.gradient_tolerance
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not (math.isfinite(tol) and tol > 0):
            raise DomainError("gradient_tolerance must be a finite positive number")


# ---- initialization recipes -------------------------------------------------


def sample_pair_distances(X, rng) -> np.ndarray:
    """Distances of min(2000, ceil(n/5)) random distinct point pairs; when
    every sampled pair is a duplicate row, drawn again among the distinct rows."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise InsufficientDataError("need at least 2 points for pair distances")
    n_pairs = max(1, min(2000, -(-n // 5)))
    i = rng.integers(0, n, size=n_pairs)
    j = (i + rng.integers(1, n, size=n_pairs)) % n
    dists = np.linalg.norm(X[i] - X[j], axis=1)
    if not np.any(dists > 0):
        # every sampled pair was a duplicate: sample among the distinct rows
        distinct = np.unique(X, axis=0)
        if distinct.shape[0] == 1:
            raise InsufficientDataError("all input rows are identical")
        if distinct.shape[0] < n:
            return sample_pair_distances(distinct, rng)
        raise InsufficientDataError("all sampled pair distances are zero")
    return dists


def init_lengthscale_quantiles(X, rng) -> np.ndarray:
    """The 0.1/0.3/0.5/0.7/0.9 distance quantiles as lengthscale candidates."""
    dists = sample_pair_distances(X, rng)
    return np.quantile(dists, QUANTILE_LEVELS)


def init_ard(X, rng) -> np.ndarray:
    """ell_j = u_j * range_j * sqrt(d), u_j ~ U[0.4, 0.8]; constant column -> 1."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 2:
        raise InsufficientDataError("need at least 2 points for ARD ranges")
    d = X.shape[1]
    ranges = X.max(axis=0) - X.min(axis=0)
    u = rng.uniform(0.4, 0.8, size=d)
    ell = u * ranges * math.sqrt(d)
    ell[ranges <= 0] = 1.0
    return ell


def _per_dim_frequency_caps(X, fallback: float) -> np.ndarray:
    """Rough per-dimension upper frequency: pi over the median sample spacing."""
    X = np.asarray(X, dtype=float)
    caps = np.full(X.shape[1], fallback)
    for j in range(X.shape[1]):
        gaps = np.diff(np.sort(X[:, j]))
        gaps = gaps[gaps > 1e-12]
        if gaps.size:
            caps[j] = math.pi / float(np.median(gaps))
    return caps


def _ladder_mu_std(base: float, caps: np.ndarray, explore: float) -> np.ndarray:
    # geometric interpolation between the near-zero faithful std and half
    # the resolvable frequency; explore=0 reproduces the base recipe exactly
    hi = np.maximum(caps / 2.0, base)
    return base ** (1.0 - explore) * hi**explore


def init_family(spec, stacks, X, y, rng, explore: float = 0.0, restart: int = 0) -> np.ndarray:
    """Packed hyper vector for one restart of spec's shape.

    explore=0 follows the published recipes; explore in (0, 1] widens the
    GM shift / spectral-width draws (and the PWL hat location) on a
    geometric ladder so later restarts can reach high-frequency structure.
    fsgbard starts from the G and B diagonals of stacks; spec's params are not read.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if not 0.0 <= explore <= 1.0:
        raise DomainError("explore must lie in [0, 1]")
    if len(stacks) != spec.Q:
        raise DimensionError(f"need {spec.Q} stacks, got {len(stacks)}")
    with np.errstate(over="ignore"):
        sy = max(float(np.std(y)), 1e-3)
    if not np.isfinite(sy):
        raise DomainError("target statistics overflow float64; rescale y")
    noise0 = sy / 10.0
    d, Q, m = spec.d_in, spec.Q, spec.m_per_group
    family = spec.family

    if family == "frbf":
        cands = init_lengthscale_quantiles(X, rng)
        ell = float(cands[restart % len(cands)])
        if explore > 0:
            ell *= math.exp(rng.uniform(-1, 1) * explore * math.log(SIGMA_LADDER_MAX))
        out = KernelSpec.frbf(d, m, lengthscale=ell, amplitude=sy)
    elif family in ("fard", "fsard", "fsgbard"):
        ell = init_ard(X, rng)
        if explore > 0:
            ell = ell * np.exp(rng.uniform(-1, 1, size=d) * explore * math.log(SIGMA_LADDER_MAX))
        if family == "fard":
            out = KernelSpec.fard(d, m, ell, amplitude=sy)
        elif family == "fsard":
            out = KernelSpec.fsard(d, Q, m, ell, amplitude=sy)
        else:
            out = KernelSpec.fsgbard_from_stacks(d, Q, m, ell, stacks, amplitude=sy)
    elif family == "gm":
        dists = sample_pair_distances(X, rng)
        med = float(np.quantile(dists, 0.5))
        med = med if med > 0 else 1.0
        base_std = 0.01 / med
        caps = _per_dim_frequency_caps(X, fallback=10.0 / med)
        mu_std = _ladder_mu_std(base_std, caps, explore)
        comps = []
        for _ in range(Q):
            sigma = 1.0 / init_ard(X, rng)
            std_q = mu_std
            if explore > 0:
                sigma = sigma * np.exp(
                    rng.uniform(0, explore * math.log(SIGMA_LADDER_MAX), size=d)
                )
                if d > 1 and rng.random() < 0.5:
                    # spike draw: concentrate the wide shift on one axis
                    jstar = int(rng.integers(d))
                    std_q = np.full(d, base_std)
                    std_q[jstar] = mu_std[jstar]
            mu = np.abs(rng.normal(0.0, 1.0, size=d)) * std_q
            comps.append(GmComponent(mu=mu, sigma_diag=sigma, weight=sy / Q))
        out = KernelSpec.gm(d, m, comps)
    elif family == "pwl":
        groups = []
        for _ in range(Q):
            ell = init_ard(X, rng)
            dists = sample_pair_distances(X, rng)
            lam = float(np.quantile(dists, rng.uniform(0.2, 0.8)))
            lam = lam if lam > 0 else 1.0
            hat_mu = max(math.sqrt(d - 1) - 2.0, 0.01) / lam
            hat_sigma = 2.0 / lam
            if explore > 0:
                scale = math.exp(rng.uniform(0, explore * math.log(PWL_LADDER_MAX)))
                hat_mu *= scale
                hat_sigma *= scale
            groups.append((sy / Q, ell, HatSpectrum(mu=hat_mu, sigma=hat_sigma)))
        out = KernelSpec.pwl(d, m, groups)
    else:
        raise DomainError(f"unknown family {family!r}")
    return pack_hyper(out, math.log(noise0))


# ---- optimization loop ------------------------------------------------------


def _make_objective(spec, stacks, X, y, work):
    """(f, g), or (inf, zeros) where an evaluation fails; every evaluation
    reuses the buffers of one workspace, work (see nlml_value_and_grad)."""
    n_hyper = spec.n_hypers

    def objective(h):
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                f, g = nlml_value_and_grad(spec, stacks, X, y, h, work=work)
        except (IllConditionedError, DomainError, FloatingPointError, np.linalg.LinAlgError):
            # DomainError: non-finite features, or a spectrum parameter out
            # of its domain (a hat width that underflowed to 0)
            return np.inf, np.zeros(n_hyper)
        if not (np.isfinite(f) and np.all(np.isfinite(g))):
            return np.inf, np.zeros(n_hyper)
        return f, g

    return objective


def _lbfgs(objective, h0, iters, config):
    if iters == 0:  # a zero budget keeps the start as it is
        return float(objective(h0)[0]), h0
    options = {"maxiter": iters, "maxcor": LBFGS_MEMORY, "gtol": config.gradient_tolerance}
    res = minimize(objective, h0, jac=True, method="L-BFGS-B", options=options)
    if np.isfinite(res.fun) and np.all(np.isfinite(res.x)):
        return float(res.fun), np.asarray(res.x, dtype=float)
    return np.inf, np.asarray(h0, dtype=float)


def restart_starts(spec, X, y, config: TrainConfig):
    """(stacks from config.seed, one initial hyper vector per restart).

    Restart r draws from its own stream, SeedSequence((seed, 1000 + r)), at
    explore level r / (restart_count - 1) (0 for a single restart), so no
    start depends on another or on the optimizer runs between them.
    """
    stacks = build_stacks(spec, config.seed)
    starts = []
    for r in range(config.restart_count):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1000 + r)))
        explore = r / max(config.restart_count - 1, 1)
        starts.append(init_family(spec, stacks, X, y, rng, explore=explore, restart=r))
    return stacks, starts


def fit(spec, X, y, config: TrainConfig, standardization=None):
    """(TrainedModel, final NLML) for a shape template of any family."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DimensionError(f"X {X.shape} does not match y {y.shape}")
    if X.shape[1] != spec.d_in:
        raise DimensionError(f"spec expects d_in={spec.d_in}, data has {X.shape[1]}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DomainError("X and y must be finite")
    stacks, starts = restart_starts(spec, X, y, config)
    work = {}
    objective = _make_objective(spec, stacks, X, y, work)
    endpoints = [_lbfgs(objective, h0, config.restart_iters, config) for h0 in starts]

    values = np.array([f for f, _ in endpoints])
    if not np.any(np.isfinite(values)):
        raise OptimizationFailureError(
            "all restarts diverged (non-finite marginal likelihood)",
            best_hyper=endpoints[0][1],
            best_value=float("inf"),
        )
    best = int(np.argmin(values))  # argmin keeps the lowest index on ties
    f_best, h_best = endpoints[best]

    if config.max_iters > 0:
        f_cont, h_cont = _lbfgs(objective, h_best, config.max_iters, config)
        if f_cont <= f_best:
            f_best, h_best = f_cont, h_cont

    spec_fit, log_noise = unpack_hyper(spec, h_best)
    noise_var = float(np.exp(2.0 * log_noise))
    # the posterior's features reuse the evaluations' design array; the
    # workspace's other arrays go first
    design = work.pop("design", None)
    work.clear()
    phi = compute_features(spec_fit, stacks, X, out=design)
    state = fit_posterior(phi, feature_weight_matrix(spec_fit), y, noise_var, overwrite_phi=True)
    std = standardization if standardization is not None else Standardization.identity(X.shape[1])
    model = TrainedModel(
        spec=spec_fit,
        seed=config.seed,
        noise_var=noise_var,
        nlml=float(f_best),
        beta=state.beta,
        chol_factor=state.chol_factor,
        standardization=std,
        n_train=int(X.shape[0]),
    )
    return model, float(f_best)
