"""Design matrices for the six kernel families, with exact feature derivatives.

Families and their packed hyperparameter layouts (noise log-std always first in
the full hyper vector; everything below is the feature-parameter block):

    frbf     [log a, log ell]
    fard     [log a, log ell_1..d]
    fsard    [log a, log ell_1..d, per group q: log s-multiplier (m')]
    fsgbard  [log a, log ell_1..d, per group q: log s-mult (m'), g raw (m'), b raw (m')]
    gm       per group q: [log v_q, mu_q raw (d), log sigma_diag_q (d)]
    pwl      per group q: [log v_q, log ell_q (d), log hat-mu_q, log hat-sigma_q]

Counts including noise: 3, d+2, Qm'+d+2, 3Qm'+d+2, Q(2d+1)+1, Q(d+3)+1.

Positive parameters live in log space.  GM means, and the G/B diagonals of the
relaxed family, are raw (G and B are signed: G is a normal draw and B a
relaxed sign, so log space cannot represent them).  The scaling diagonal S is
packed as a log *multiplier* against the sampled stack radii with initial
value 0: exp(0.0) == 1.0 exactly, so a freshly initialized fsard/fsgbard spec
reproduces fard features bit for bit, which a log of the raw radii could not
guarantee (exp(log(s)) may differ from s in the last ulp).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, DomainError
from .fastfood import FastfoodStack, build_stack, project, project_transpose, sample_chi_radii
from .hadamard import PadGeometry, fwht_inplace, pad_geometry
from .spectra import GmComponent, HatSpectrum, hat_radii, hat_unit_quantile

FAMILIES = ("frbf", "fard", "fsard", "fsgbard", "gm", "pwl")


def hyper_count(family: str, d_in: int, Q: int, m_realized: int) -> int:
    """Total hyperparameter count for a family, noise included."""
    if family == "frbf":
        return 3
    if family == "fard":
        return d_in + 2
    if family == "fsard":
        return Q * m_realized + d_in + 2
    if family == "fsgbard":
        return 3 * Q * m_realized + d_in + 2
    if family == "gm":
        return Q * (2 * d_in + 1) + 1
    if family == "pwl":
        return Q * (d_in + 3) + 1
    raise DomainError(f"unknown family {family!r}")


@dataclass(frozen=True)
class KernelSpec:
    """One kernel family instance: structure plus packed feature parameters.

    params holds every feature/weight hyperparameter except the noise scale
    (layouts in the module docstring).  The packed array is the source of
    truth; the natural-space accessors below just slice and exponentiate, so
    packing and unpacking never round-trips through exp/log.
    """

    family: str
    d_in: int
    Q: int
    m_per_group: int
    params: np.ndarray

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if self.d_in < 1 or self.Q < 1 or self.m_per_group < 1:
            raise DimensionError("d_in, Q and m_per_group must all be >= 1")
        params = np.asarray(self.params, dtype=float)
        object.__setattr__(self, "params", params)
        want = self.n_params
        if params.shape != (want,):
            raise DimensionError(
                f"{self.family} with d={self.d_in}, Q={self.Q}, m'={self.m_realized} "
                f"needs {want} feature params, got shape {params.shape}"
            )

    # ---- geometry -------------------------------------------------------

    @property
    def geometry(self) -> PadGeometry:
        return pad_geometry(self.d_in, self.m_per_group)

    @property
    def m_realized(self) -> int:
        """Frequencies actually generated per group (requests round up)."""
        return self.geometry.m_total

    @property
    def n_params(self) -> int:
        return hyper_count(self.family, self.d_in, self.Q, self.m_realized) - 1

    @property
    def n_hypers(self) -> int:
        return self.n_params + 1

    @property
    def rows_per_group(self) -> int:
        return 4 * self.m_realized if self.family == "gm" else 2 * self.m_realized

    @property
    def n_rows(self) -> int:
        return self.Q * self.rows_per_group

    # ---- packed layout helpers -----------------------------------------

    def _group_base(self, q: int) -> int:
        d, m = self.d_in, self.m_realized
        if self.family == "gm":
            return q * (2 * d + 1)
        if self.family == "pwl":
            return q * (d + 3)
        if self.family == "fsard":
            return 1 + d + q * m
        if self.family == "fsgbard":
            return 1 + d + q * 3 * m
        raise DomainError(f"{self.family} has no per-group blocks")

    # ---- natural-space accessors ---------------------------------------

    @property
    def amplitude(self) -> float:
        if self.family in ("frbf", "fard", "fsard", "fsgbard"):
            return float(np.exp(self.params[0]))
        raise DomainError(f"{self.family} has per-group weights, not one amplitude")

    @property
    def lengthscales(self) -> np.ndarray:
        if self.family == "frbf":
            return np.exp(self.params[1]) * np.ones(self.d_in)
        if self.family in ("fard", "fsard", "fsgbard"):
            return np.exp(self.params[1 : 1 + self.d_in])
        raise DomainError(f"{self.family} has no shared lengthscales")

    def s_multipliers(self, q: int) -> np.ndarray:
        base = self._group_base(q)
        return self.params[base : base + self.m_realized]

    def g_raw(self, q: int) -> np.ndarray:
        m = self.m_realized
        base = self._group_base(q)
        return self.params[base + m : base + 2 * m]

    def b_raw(self, q: int) -> np.ndarray:
        m = self.m_realized
        base = self._group_base(q)
        return self.params[base + 2 * m : base + 3 * m]

    def component(self, q: int) -> GmComponent:
        d = self.d_in
        base = self._group_base(q)
        return GmComponent(
            mu=self.params[base + 1 : base + 1 + d].copy(),
            sigma_diag=np.exp(self.params[base + 1 + d : base + 1 + 2 * d]),
            weight=float(np.exp(self.params[base])),
        )

    @property
    def components(self) -> list:
        return [self.component(q) for q in range(self.Q)]

    def hat(self, q: int) -> HatSpectrum:
        base = self._group_base(q)
        d = self.d_in
        return HatSpectrum(
            mu=float(np.exp(self.params[base + 1 + d])),
            sigma=float(np.exp(self.params[base + 2 + d])),
        )

    def group_lengthscales(self, q: int) -> np.ndarray:
        base = self._group_base(q)
        return np.exp(self.params[base + 1 : base + 1 + self.d_in])

    def group_weights(self) -> np.ndarray:
        """v_q per group; the single F-family amplitude splits as a/sqrt(Q)."""
        if self.family in ("gm", "pwl"):
            return np.array(
                [np.exp(self.params[self._group_base(q)]) for q in range(self.Q)]
            )
        return np.full(self.Q, self.amplitude / np.sqrt(self.Q))

    def weight_param_info(self) -> list:
        """(param_index, group) pairs for weight-only parameters.

        group None means the parameter scales every group (shared amplitude).
        """
        if self.family in ("gm", "pwl"):
            return [(self._group_base(q), q) for q in range(self.Q)]
        return [(0, None)]

    def with_params(self, params: np.ndarray) -> "KernelSpec":
        return replace(self, params=np.asarray(params, dtype=float))

    # ---- constructors ---------------------------------------------------

    @classmethod
    def template(cls, family: str, d_in: int, Q: int, m_per_group: int) -> "KernelSpec":
        """Shape-valid spec with zero parameters (fill via init or unpack)."""
        m_real = pad_geometry(d_in, m_per_group).m_total
        n = hyper_count(family, d_in, Q, m_real) - 1
        return cls(family=family, d_in=d_in, Q=Q, m_per_group=m_per_group, params=np.zeros(n))

    @classmethod
    def frbf(cls, d_in, m_per_group, lengthscale=1.0, amplitude=1.0):
        if lengthscale <= 0 or amplitude <= 0:
            raise DomainError("scale parameters must be positive")
        return cls("frbf", d_in, 1, m_per_group, np.log([amplitude, lengthscale]))

    @classmethod
    def fard(cls, d_in, m_per_group, lengthscales, amplitude=1.0):
        ell = np.asarray(lengthscales, dtype=float)
        if ell.shape != (d_in,) or np.any(ell <= 0) or amplitude <= 0:
            raise DomainError("need d_in positive lengthscales and positive amplitude")
        return cls("fard", d_in, 1, m_per_group, np.concatenate(([np.log(amplitude)], np.log(ell))))

    @classmethod
    def fsard(cls, d_in, Q, m_per_group, lengthscales, amplitude=1.0, s_multipliers=None):
        ell = np.asarray(lengthscales, dtype=float)
        m = pad_geometry(d_in, m_per_group).m_total
        if s_multipliers is None:
            s_multipliers = np.zeros(Q * m)
        s = np.asarray(s_multipliers, dtype=float).reshape(Q * m)
        params = np.concatenate(([np.log(amplitude)], np.log(ell), s))
        return cls("fsard", d_in, Q, m_per_group, params)

    @classmethod
    def fsgbard_from_stacks(cls, d_in, Q, m_per_group, lengthscales, stacks, amplitude=1.0):
        """Relaxed family at its sampled initial point: s-mult 0, g/b copied."""
        ell = np.asarray(lengthscales, dtype=float)
        m = pad_geometry(d_in, m_per_group).m_total
        blocks = []
        for q in range(Q):
            blocks += [np.zeros(m), stacks[q].g_diag.copy(), stacks[q].b_diag.copy()]
        params = np.concatenate([[np.log(amplitude)], np.log(ell)] + blocks)
        return cls("fsgbard", d_in, Q, m_per_group, params)

    @classmethod
    def gm(cls, d_in, m_per_group, components):
        blocks = []
        for comp in components:
            if comp.weight <= 0 or np.any(comp.sigma_diag <= 0):
                raise DomainError("gm needs positive weights and sigma_diag")
            blocks.append(
                np.concatenate(([np.log(comp.weight)], comp.mu, np.log(comp.sigma_diag)))
            )
        return cls("gm", d_in, len(blocks), m_per_group, np.concatenate(blocks))

    @classmethod
    def pwl(cls, d_in, m_per_group, groups):
        """groups: iterable of (weight, lengthscales, HatSpectrum)."""
        blocks = []
        for weight, ell, hat in groups:
            ell = np.asarray(ell, dtype=float)
            if weight <= 0 or np.any(ell <= 0) or hat.mu <= 0 or hat.sigma <= 0:
                raise DomainError("pwl needs positive weight, lengthscales and hat params")
            blocks.append(
                np.concatenate(([np.log(weight)], np.log(ell), np.log([hat.mu, hat.sigma])))
            )
        return cls("pwl", d_in, len(blocks), m_per_group, np.concatenate(blocks))


# ---- hyper vector (noise first, then the spec's packed params) ----------


def pack_hyper(spec: KernelSpec, log_noise_std: float) -> np.ndarray:
    """Concatenate [log noise std, spec.params].  Noise is passed already in
    log units so that pack and unpack are exact inverses bit for bit."""
    if not np.isfinite(log_noise_std):
        raise DomainError("log_noise_std must be finite")
    return np.concatenate(([log_noise_std], spec.params))


def unpack_hyper(spec: KernelSpec, hyper: np.ndarray):
    """-> (spec with params from hyper, log noise std).  Pure slicing: pack(unpack(h)) == h."""
    hyper = np.asarray(hyper, dtype=float)
    if hyper.shape != (spec.n_hypers,):
        raise DimensionError(f"hyper vector must have length {spec.n_hypers}, got {hyper.shape}")
    return spec.with_params(hyper[1:].copy()), float(hyper[0])


# ---- stacks --------------------------------------------------------------


def build_stacks(spec: KernelSpec, seed: int) -> list:
    """One frozen stack per group, children of one master seed.

    F-families and GM draw chi(d_pad) radii at iid quantiles; PWL uses
    systematic (jittered-grid) quantiles through the group's hat spectrum.
    The PWL radii stored here are a snapshot; feature computation always
    recomputes radii from uniform_draws and the current hat parameters.
    """
    geo = spec.geometry
    stacks = []
    for q in range(spec.Q):
        if spec.family == "pwl":
            hat = spec.hat(q)
            pwl = hat.to_pwl()
            from .spectra import pwl_inverse_cdf

            sampler = lambda u, _p=pwl: pwl_inverse_cdf(_p, u)
            stacks.append(build_stack((seed, q), geo, sampler, systematic=True))
        else:
            sampler = lambda u, _d=geo.d_pad: sample_chi_radii(u, _d)
            stacks.append(build_stack((seed, q), geo, sampler, systematic=False))
    return stacks


@dataclass(frozen=True)
class DesignMatrix:
    """Feature rows by data columns, with group row boundaries."""

    data: np.ndarray
    group_offsets: np.ndarray


def _group_overrides(spec: KernelSpec, stacks, q: int):
    """Effective (s, g, b) diagonals for group q, None where the stack's own apply."""
    stack: FastfoodStack = stacks[q]
    if spec.family == "fsard":
        return stack.s_radii * np.exp(spec.s_multipliers(q)), None, None
    if spec.family == "fsgbard":
        return (
            stack.s_radii * np.exp(spec.s_multipliers(q)),
            spec.g_raw(q),
            spec.b_raw(q),
        )
    if spec.family == "pwl":
        hat = spec.hat(q)
        radii = hat_radii(hat.mu, hat.sigma, stack.uniform_draws)
        d = stack.geometry.d_pad
        return radii / np.repeat(stack.g_frob_norms, d), None, None
    return None, None, None


def _scaled_inputs(spec: KernelSpec, q: int, X: np.ndarray) -> np.ndarray:
    if spec.family in ("frbf", "fard", "fsard", "fsgbard"):
        return X / spec.lengthscales
    if spec.family == "gm":
        return X * spec.component(q).sigma_diag
    if spec.family == "pwl":
        return X / spec.group_lengthscales(q)
    raise DomainError(spec.family)


def _group_xi(spec: KernelSpec, stacks, q: int, X: np.ndarray) -> np.ndarray:
    s, g, b = _group_overrides(spec, stacks, q)
    return project(stacks[q], _scaled_inputs(spec, q, X), s_diag=s, g_diag=g, b_diag=b)


def compute_features(spec: KernelSpec, stacks, X: np.ndarray) -> DesignMatrix:
    """Assemble the (D_feat, n) design matrix for spec at inputs X (n, d_in)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.d_in:
        raise DimensionError(f"X must be (n, {spec.d_in}), got {X.shape}")
    if len(stacks) != spec.Q:
        raise DimensionError(f"need {spec.Q} stacks, got {len(stacks)}")
    if not np.all(np.isfinite(X)):
        raise DomainError("X must be finite")
    n = X.shape[0]
    m = spec.m_realized
    rpg = spec.rows_per_group
    data = np.empty((spec.n_rows, n))
    for q in range(spec.Q):
        xi = _group_xi(spec, stacks, q, X)  # (n, m)
        base = q * rpg
        if spec.family == "gm":
            zeta = X @ spec.component(q).mu  # (n,)
            plus = xi + zeta[:, None]
            minus = xi - zeta[:, None]
            data[base : base + m] = np.sin(plus).T
            data[base + m : base + 2 * m] = np.cos(plus).T
            data[base + 2 * m : base + 3 * m] = np.sin(minus).T
            data[base + 3 * m : base + 4 * m] = np.cos(minus).T
        else:
            data[base : base + m] = np.cos(xi).T
            data[base + m : base + 2 * m] = np.sin(xi).T
    offsets = np.arange(spec.Q + 1) * rpg
    return DesignMatrix(data=data, group_offsets=offsets)


def feature_weight_matrix(spec: KernelSpec) -> np.ndarray:
    """Diagonal of V as a flat (D_feat,) array.

    cos/sin families: v_q^2 / m' over 2m' rows; GM: v_q^2 / (2m') over 4m'
    rows.  Either way k(x, x) = sum_q v_q^2 once the trig identities collapse.
    """
    weights = spec.group_weights()
    m = spec.m_realized
    per_row = weights**2 / (2 * m) if spec.family == "gm" else weights**2 / m
    return np.repeat(per_row, spec.rows_per_group)


# ---- derivatives ----------------------------------------------------------


def param_info(spec: KernelSpec, index: int):
    """Classify packed parameter `index` -> (kind, group, coordinate)."""
    if not (0 <= index < spec.n_params):
        raise DomainError(f"param index {index} out of range [0, {spec.n_params})")
    d, m = spec.d_in, spec.m_realized
    fam = spec.family
    if fam in ("frbf", "fard", "fsard", "fsgbard"):
        if index == 0:
            return ("log_a", None, None)
        n_ell = 1 if fam == "frbf" else d
        if index < 1 + n_ell:
            return ("log_ell", None, index - 1)
        rel = index - 1 - n_ell
        if fam == "fsard":
            return ("s_mult", rel // m, rel % m)
        q, within = divmod(rel, 3 * m)
        kind = ("s_mult", "g", "b")[within // m]
        return (kind, q, within % m)
    if fam == "gm":
        q, within = divmod(index, 2 * d + 1)
        if within == 0:
            return ("log_v", q, None)
        if within <= d:
            return ("mu", q, within - 1)
        return ("log_sd", q, within - 1 - d)
    q, within = divmod(index, d + 3)
    if within == 0:
        return ("log_v", q, None)
    if within <= d:
        return ("log_ell", q, within - 1)
    return ("hat_mu", q, None) if within == d + 1 else ("hat_sigma", q, None)


def _pad_cols(X: np.ndarray, geo: PadGeometry) -> np.ndarray:
    out = np.zeros((X.shape[0], geo.d_pad))
    out[:, : geo.d_in] = X
    return out


def _dxi_for_param(spec, stacks, q, X, kind, j, xi=None):
    """d(xi_q)/d(theta) as an (n, m') array for parameters that move xi."""
    stack = stacks[q]
    geo = stack.geometry
    d = geo.d_pad
    s_eff, g_eff, b_eff = _group_overrides(spec, stacks, q)
    s_all = stack.s_radii if s_eff is None else s_eff
    g_all = stack.g_diag if g_eff is None else g_eff
    b_all = stack.b_diag if b_eff is None else b_eff
    xs = _scaled_inputs(spec, q, X)

    if kind in ("log_ell", "log_sd"):
        sign = 1.0 if kind == "log_sd" else -1.0
        if spec.family == "frbf":
            # one shared lengthscale scales every input column
            Z = sign * xs
        else:
            Z = np.zeros_like(xs)
            Z[:, j] = sign * xs[:, j]
        return project(stack, Z, s_diag=s_eff, g_diag=g_eff, b_diag=b_eff)
    if kind == "s_mult":
        if xi is None:
            xi = _group_xi(spec, stacks, q, X)
        dxi = np.zeros_like(xi)
        dxi[:, j] = xi[:, j]
        return dxi
    if kind in ("hat_mu", "hat_sigma"):
        if xi is None:
            xi = _group_xi(spec, stacks, q, X)
        hat = spec.hat(q)
        r = hat_radii(hat.mu, hat.sigma, stack.uniform_draws)
        dr = np.full_like(r, hat.mu) if kind == "hat_mu" else hat.sigma * hat_unit_quantile(stack.uniform_draws)
        return xi * (dr / r)
    if kind == "g":
        blk, jl = divmod(j, d)
        lo = blk * d
        xp = _pad_cols(xs, geo)
        v = xp * b_all[lo : lo + d]
        fwht_inplace(v)
        v3 = v[:, stack.perms[blk]]
        e = np.zeros(d)
        e[jl] = 1.0
        hcol = fwht_inplace(e)
        dxi = np.zeros((X.shape[0], geo.m_total))
        dxi[:, lo : lo + d] = np.outer(v3[:, jl], s_all[lo : lo + d] * hcol / np.sqrt(d))
        return dxi
    if kind == "b":
        blk, jl = divmod(j, d)
        lo = blk * d
        xp = _pad_cols(xs, geo)
        e = np.zeros(d)
        e[jl] = 1.0
        fwht_inplace(e)
        c = g_all[lo : lo + d] * e[stack.perms[blk]]
        fwht_inplace(c)
        c *= s_all[lo : lo + d] / np.sqrt(d)
        dxi = np.zeros((X.shape[0], geo.m_total))
        dxi[:, lo : lo + d] = np.outer(xp[:, jl], c)
        return dxi
    raise DomainError(f"parameter kind {kind!r} does not move xi")


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
        dxi = None if kind == "mu" else _dxi_for_param(spec, stacks, gq, X, kind, j, xi=xi)
        base = gq * rpg
        if spec.family == "gm":
            comp = spec.component(gq)
            zeta = X @ comp.mu
            if kind == "mu":
                darg_p = np.broadcast_to(X[:, j][:, None], xi.shape)
                darg_m = -darg_p
            else:
                darg_p = dxi
                darg_m = dxi
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


def feature_param_gradients(
    spec: KernelSpec, stacks, X: np.ndarray, M: np.ndarray, phi: DesignMatrix
) -> np.ndarray:
    """Contract a co-matrix M (same shape as phi.data) against all dPhi/dtheta.

    Returns g with g[k] = <M, dPhi/dtheta_k> for every packed feature
    parameter, zeros at weight-only coordinates (the likelihood handles those
    through the weight diagonal).  Uses the transposed stack to batch whole
    parameter blocks instead of calling feature_jacobian per coordinate; the
    fsgbard G and B blocks contract through the (d_in, m) array xs^T T, so
    their transforms never run over the n data rows.
    """
    X = np.asarray(X, dtype=float)
    d_in, m, Q = spec.d_in, spec.m_realized, spec.Q
    rpg = spec.rows_per_group
    grad = np.zeros(spec.n_params)
    fam = spec.family

    # ARD-shared accumulation across groups for the F families
    shared_R = None

    for q in range(Q):
        base = q * rpg
        stack = stacks[q]
        geo = stack.geometry
        s_eff, g_eff, b_eff = _group_overrides(spec, stacks, q)
        xs = _scaled_inputs(spec, q, X)

        if fam == "gm":
            sin_p = phi.data[base : base + m]
            cos_p = phi.data[base + m : base + 2 * m]
            sin_m = phi.data[base + 2 * m : base + 3 * m]
            cos_m = phi.data[base + 3 * m : base + 4 * m]
            Msp = M[base : base + m]
            Mcp = M[base + m : base + 2 * m]
            Msm = M[base + 2 * m : base + 3 * m]
            Mcm = M[base + 3 * m : base + 4 * m]
            t_plus = (Msp * cos_p - Mcp * sin_p).T  # (n, m)
            t_minus = (Msm * cos_m - Mcm * sin_m).T
            t_sum = t_plus + t_minus
            # mu_q: dP = +x_j, dM = -x_j
            gbase = spec._group_base(q)
            grad[gbase + 1 : gbase + 1 + d_in] = X.T @ (t_plus - t_minus).sum(axis=1)
            # log sigma_diag: dxs_j = +xs_j through the stack transpose
            R = project_transpose(stack, t_sum, s_diag=s_eff, g_diag=g_eff, b_diag=b_eff)
            grad[gbase + 1 + d_in : gbase + 1 + 2 * d_in] = np.einsum("nj,nj->j", R, xs)
            continue

        cos_rows = phi.data[base : base + m]
        sin_rows = phi.data[base + m : base + 2 * m]
        Mc = M[base : base + m]
        Ms = M[base + m : base + 2 * m]
        T = (Ms * cos_rows - Mc * sin_rows).T  # (n, m)
        R = project_transpose(stack, T, s_diag=s_eff, g_diag=g_eff, b_diag=b_eff)

        if fam == "pwl":
            gbase = spec._group_base(q)
            grad[gbase + 1 : gbase + 1 + d_in] = -np.einsum("nj,nj->j", R, xs)
            xi = project(stack, xs, s_diag=s_eff, g_diag=g_eff, b_diag=b_eff)
            hat = spec.hat(q)
            r = hat_radii(hat.mu, hat.sigma, stack.uniform_draws)
            qs = hat_unit_quantile(stack.uniform_draws)
            txi = np.einsum("nm,nm->m", T, xi)
            grad[gbase + 1 + d_in] = float(np.sum(txi * (hat.mu / r)))
            grad[gbase + 2 + d_in] = float(np.sum(txi * (hat.sigma * qs / r)))
            continue

        # F families: shared log-lengthscales accumulate over groups
        shared_R = R if shared_R is None else shared_R + R
        if fam in ("fsard", "fsgbard"):
            xi = project(stack, xs, s_diag=s_eff, g_diag=g_eff, b_diag=b_eff)
            gbase = spec._group_base(q)
            grad[gbase : gbase + m] = np.einsum("nm,nm->m", T, xi)
        if fam == "fsgbard":
            C = xs.T @ T  # every G and B derivative is linear in C
            d = geo.d_pad
            scale = 1.0 / np.sqrt(d)
            gbase = spec._group_base(q)
            for blk in range(geo.blocks):
                lo = blk * d
                ct = C[:, lo : lo + d] * (s_eff[lo : lo + d] * scale)
                fwht_inplace(ct)  # ct = H (s*C) / sqrt(d)
                v = np.eye(d_in, d) * b_eff[lo : lo + d]
                fwht_inplace(v)
                w3 = v[:, stack.perms[blk]]  # post-permutation intermediate
                grad[gbase + m + lo : gbase + m + lo + d] = np.einsum("jk,jk->k", w3, ct)
                w2 = np.empty_like(ct)
                w2[:, stack.perms[blk]] = ct * g_eff[lo : lo + d]
                fwht_inplace(w2)  # w2 = L^T C for this block (no b)
                # padded inputs are zero, so only the first d_in B entries move
                grad[gbase + 2 * m + lo : gbase + 2 * m + lo + d_in] = w2.diagonal()

    if fam in ("frbf", "fard", "fsard", "fsgbard") and shared_R is not None:
        xs = _scaled_inputs(spec, 0, X)
        per_dim = -np.einsum("nj,nj->j", shared_R, xs)
        if fam == "frbf":
            grad[1] = per_dim.sum()
        else:
            grad[1 : 1 + d_in] = per_dim
    return grad
