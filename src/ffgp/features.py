"""Design matrices for the six kernel families, with exact feature derivatives.

A family is its _LAYOUTS row below, the one statement of its packed feature
parameters (the noise log-std goes first in the full hyper vector, ahead of
them): counts, offsets, the accessors, param_info and the gradient slots all
read it, and features, stacks and gradients dispatch on the field kinds a
row holds, never on the family's name.

Positive parameters live in log space.  The mu shifts and the g/b diagonals
are raw (G and B are signed: G is a normal draw and B a relaxed sign, so log
space cannot represent them).  The scaling diagonal S is packed as a log
*multiplier* (s_mult) against the stack's chi radii with initial value 0:
exp(0.0) == 1.0 exactly, so a freshly initialized s_mult leaves the stack's
features bit for bit as they were, which a log of the raw radii could not
guarantee (exp(log(s)) may differ from s in the last ulp).

Each evaluation builds a group's Fastfood operator once, in compute_features;
the gradient takes every derivative from it (the per-coordinate reference
Jacobian that the tests check it against lives in ffgp.oracle).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dgemm

from .blas import matvec
from .errors import DimensionError, DomainError
from .fastfood import FastfoodStack, build_stack, project, sample_chi_radii
from .fastfood import project_transpose  # noqa: F401  unused; perfbench/tracer.py wraps it here
from .hadamard import PadGeometry, fwht_inplace, pad_geometry
from .spectra import GmComponent, HatSpectrum, hat_radii, hat_unit_quantile

# Each family's packed params: its shared fields, then one block of per-group
# fields for each of the Q groups.  A field is (kind, length): kind is the
# name param_info reports, length is "d" (d_in entries), "m" (m' entries), 1,
# or None for a scalar, whose param_info coordinate is None.
_LAYOUTS = {
    "frbf": ((("log_a", None), ("log_ell", 1)), ()),
    "fard": ((("log_a", None), ("log_ell", "d")), ()),
    "fsard": ((("log_a", None), ("log_ell", "d")), (("s_mult", "m"),)),
    "fsgbard": ((("log_a", None), ("log_ell", "d")), (("s_mult", "m"), ("g", "m"), ("b", "m"))),
    "gm": ((), (("log_v", None), ("mu", "d"), ("log_sd", "d"))),
    "pwl": ((), (("log_v", None), ("log_ell", "d"), ("hat_mu", None), ("hat_sigma", None))),
}
FAMILIES = tuple(_LAYOUTS)
_SHAPE_FIELDS = ("d_in", "Q", "m_per_group")
_MAX_FLOATS = np.iinfo(np.intp).max // 8  # the most float64 entries numpy can size
# The kinds stored as logs of positive natural values
_LOG_KINDS = frozenset({"log_a", "log_ell", "log_v", "log_sd", "hat_mu", "hat_sigma"})


def _has(family: str, kind: str) -> bool:
    """Whether the family's layout has a field of that kind."""
    if family not in _LAYOUTS:
        raise DomainError(f"unknown family {family!r}")
    return any(k == kind for fields in _LAYOUTS[family] for k, _ in fields)


def _scope(family: str, kind: str, q: int):
    """The group that field() takes for kind: None for a shared field, else q."""
    return q if any(k == kind for k, _ in _LAYOUTS[family][1]) else None


def _field_size(length, d_in: int, m_realized: int) -> int:
    return {None: 1, 1: 1, "d": d_in, "m": m_realized}[length]


def hyper_count(family: str, d_in: int, Q: int, m_realized: int) -> int:
    """Total hyperparameter count for a family, noise included.

    Arithmetic on the table, never a walk over the Q groups, so the model
    loader can size a file from an untrusted header.
    """
    if family not in _LAYOUTS:
        raise DomainError(f"unknown family {family!r}")
    shared, per_group = (
        sum(_field_size(length, d_in, m_realized) for _, length in fields)
        for fields in _LAYOUTS[family]
    )
    return 1 + shared + Q * per_group


def feature_rows(family: str, Q: int, m_realized: int) -> int:
    """Design-matrix rows D: a cos and a sin row per frequency, four where a
    mu phase splits each into a +/- pair."""
    return Q * (4 if _has(family, "mu") else 2) * m_realized


def _shape_ints(family: str, *shape) -> tuple:
    """d_in, Q, m_per_group as Python ints >= 1 (bools refused) whose feature
    rows and parameter count each fit one float64 array, else DimensionError."""
    for name, value in zip(_SHAPE_FIELDS, shape):
        if isinstance(value, bool) or not hasattr(value, "__index__") or operator.index(value) < 1:
            raise DimensionError(f"{name} must be an integer >= 1, got {value!r}")
    d_in, Q, m_per_group = map(operator.index, shape)
    m_real = pad_geometry(d_in, m_per_group).m_total
    if max(feature_rows(family, Q, m_real), hyper_count(family, d_in, Q, m_real)) > _MAX_FLOATS:
        raise DimensionError(f"{family} with d={d_in}, Q={Q}, m={m_per_group} is too large for one array")
    return d_in, Q, m_per_group


@dataclass(frozen=True)
class KernelSpec:
    """One kernel family instance: structure plus packed feature parameters.

    params holds every feature/weight hyperparameter except the noise scale,
    laid out as _LAYOUTS says.  The packed array is the source of truth; the
    natural-space accessors below just slice and exponentiate, so packing
    and unpacking never round-trips through exp/log.
    """

    family: str
    d_in: int
    Q: int
    m_per_group: int
    params: np.ndarray

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        for name, value in zip(_SHAPE_FIELDS, _shape_ints(self.family, self.d_in, self.Q, self.m_per_group)):
            object.__setattr__(self, name, value)  # a Python int, which json writes
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
        return feature_rows(self.family, 1, self.m_realized)

    @property
    def n_rows(self) -> int:
        return feature_rows(self.family, self.Q, self.m_realized)

    # ---- packed layout helpers -----------------------------------------

    def _slots(self) -> list:
        """(kind, group, start, length) of every packed field, in order.

        group None marks a shared field; length is None for a scalar field,
        which takes one entry.
        """
        shared, per_group = _LAYOUTS[self.family]
        slots, start = [], 0
        for group, fields in [(None, shared)] + [(q, per_group) for q in range(self.Q)]:
            for kind, length in fields:
                size = _field_size(length, self.d_in, self.m_realized)
                slots.append((kind, group, start, None if length is None else size))
                start += size
        return slots

    def field(self, kind: str, q=None) -> np.ndarray:
        """View of the packed entries of field `kind` (group q; None for a
        shared field).  A scalar field is a view of length 1.  Writing the
        view writes params."""
        for name, group, start, length in self._slots():
            if name == kind and group == q:
                return self.params[start : start + (1 if length is None else length)]
        raise DomainError(f"{self.family} has no field {kind!r} for group {q}")

    # ---- natural-space accessors ---------------------------------------

    @property
    def amplitude(self) -> float:
        return float(np.exp(self.field("log_a")[0]))

    def component(self, q: int) -> GmComponent:
        return GmComponent(
            mu=self.field("mu", q).copy(),
            sigma_diag=np.exp(self.field("log_sd", q)),
            weight=float(np.exp(self.field("log_v", q)[0])),
        )

    def hat(self, q: int) -> HatSpectrum:
        return HatSpectrum(
            mu=float(np.exp(self.field("hat_mu", q)[0])),
            sigma=float(np.exp(self.field("hat_sigma", q)[0])),
        )

    def group_weights(self) -> np.ndarray:
        """v_q per group; the single F-family amplitude splits as a/sqrt(Q)."""
        info = self.weight_param_info()
        if info[0][1] is None:  # one amplitude shared by every group
            return np.full(self.Q, self.amplitude / np.sqrt(self.Q))
        return np.array([np.exp(self.params[index]) for index, _ in info])

    def weight_param_info(self) -> list:
        """(param_index, group) pairs for weight-only parameters.

        group None means the parameter scales every group (shared amplitude).
        """
        return [
            (start, group)
            for kind, group, start, _ in self._slots()
            if kind in ("log_a", "log_v")
        ]

    def with_params(self, params: np.ndarray) -> "KernelSpec":
        return replace(self, params=np.asarray(params, dtype=float))

    # ---- constructors ---------------------------------------------------

    @classmethod
    def template(cls, family: str, d_in: int, Q: int, m_per_group: int) -> "KernelSpec":
        """Shape-valid spec with zero parameters (fill via init or unpack)."""
        d_in, Q, m_per_group = _shape_ints(family, d_in, Q, m_per_group)
        m_real = pad_geometry(d_in, m_per_group).m_total
        n = hyper_count(family, d_in, Q, m_real) - 1
        return cls(family=family, d_in=d_in, Q=Q, m_per_group=m_per_group, params=np.zeros(n))

    @classmethod
    def _filled(cls, family, d_in, Q, m_per_group, fields) -> "KernelSpec":
        """template() with each (kind, q, natural values) of fields written
        through field(), so the table alone fixes where a value lands; a
        _LOG_KINDS value must be positive and is stored as its log.  Fields
        left out stay zero."""
        spec = cls.template(family, d_in, Q, m_per_group)
        for kind, q, values in fields:
            view = spec.field(kind, q)
            values = np.asarray(values, dtype=float).ravel()
            if values.size != view.size:
                raise DimensionError(f"{family} {kind} needs {view.size} values, got {values.size}")
            if kind in _LOG_KINDS:
                if np.any(values <= 0):
                    raise DomainError(f"{family} {kind} needs positive values (stored as logs)")
                values = np.log(values)
            view[:] = values
        return spec

    @classmethod
    def _ard(cls, family, d_in, Q, m_per_group, lengthscales, amplitude, group_fields=()):
        """An F-family spec: the shared amplitude and lengthscales, then
        group_fields, all as _filled takes them."""
        shared = [("log_a", None, amplitude), ("log_ell", None, lengthscales)]
        return cls._filled(family, d_in, Q, m_per_group, shared + list(group_fields))

    @classmethod
    def frbf(cls, d_in, m_per_group, lengthscale=1.0, amplitude=1.0):
        return cls._ard("frbf", d_in, 1, m_per_group, lengthscale, amplitude)

    @classmethod
    def fard(cls, d_in, m_per_group, lengthscales, amplitude=1.0):
        return cls._ard("fard", d_in, 1, m_per_group, lengthscales, amplitude)

    @classmethod
    def fsard(cls, d_in, Q, m_per_group, lengthscales, amplitude=1.0, s_multipliers=None):
        """s_multipliers: Q * m' values, group by group (default 0)."""
        groups = []
        if s_multipliers is not None:
            s = np.asarray(s_multipliers, dtype=float).reshape(Q, -1)
            groups = [("s_mult", q, s[q]) for q in range(Q)]
        return cls._ard("fsard", d_in, Q, m_per_group, lengthscales, amplitude, groups)

    @classmethod
    def fsgbard_from_stacks(cls, d_in, Q, m_per_group, lengthscales, stacks, amplitude=1.0):
        """Relaxed family at its sampled initial point: s-mult 0, g/b copied."""
        groups = [(kind, q, diag) for q in range(Q)
                  for kind, diag in (("g", stacks[q].g_diag), ("b", stacks[q].b_diag))]
        return cls._ard("fsgbard", d_in, Q, m_per_group, lengthscales, amplitude, groups)

    @classmethod
    def gm(cls, d_in, m_per_group, components):
        components = list(components)
        fields = [(kind, q, value) for q, c in enumerate(components)
                  for kind, value in (("log_v", c.weight), ("mu", c.mu), ("log_sd", c.sigma_diag))]
        return cls._filled("gm", d_in, len(components), m_per_group, fields)

    @classmethod
    def pwl(cls, d_in, m_per_group, groups):
        """groups: iterable of (weight, lengthscales, HatSpectrum)."""
        groups = list(groups)
        fields = [(kind, q, value) for q, (weight, ell, hat) in enumerate(groups)
                  for kind, value in (("log_v", weight), ("log_ell", ell),
                                      ("hat_mu", hat.mu), ("hat_sigma", hat.sigma))]
        return cls._filled("pwl", d_in, len(groups), m_per_group, fields)


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

    A family with hat kinds draws systematic (jittered-grid) quantiles,
    every other family iid ones; each feature build turns them into radii
    (_group_diagonals), so a stack depends on the family's kinds, the shape
    and the seed, never on the params.
    """
    systematic = _has(spec.family, "hat_mu")
    return [build_stack((seed, q), spec.geometry, systematic) for q in range(spec.Q)]


@dataclass(frozen=True)
class DesignMatrix:
    """Feature rows by data columns, and per group the dense (d_in, m')
    Fastfood operator (xi_q = operators[q]^T xs_q^T) with the radii and
    (s, g, b) diagonals it was built from (_group_diagonals), which the
    gradient reads.

    data is point-major (Fortran order): the D features of one point are
    contiguous, so a group's (m', n) trig blocks are Fortran-order slices
    that the scipy products fill and read in place, and gp.predict's
    triangular product can overwrite it in place.
    """

    data: np.ndarray
    operators: tuple = ()
    diagonals: tuple = ()


def _group_diagonals(spec: KernelSpec, stacks, q: int):
    """Radii r and effective (s, g, b) diagonals of group q, the one place
    S is formed: S = r / ||G||_F with r the hat's radii (hat kinds) or
    chi(d_pad) radii at the stack's quantiles, times exp(s_mult) where the
    family learns it.  G and B are the stack's own unless the family
    learns them."""
    stack: FastfoodStack = stacks[q]
    fam = spec.family
    d, u = stack.geometry.d_pad, stack.uniform_draws
    if _has(fam, "hat_mu"):
        hat = spec.hat(q)
        radii = hat_radii(hat.mu, hat.sigma, u)
    else:
        radii = sample_chi_radii(u, d)
    s = radii / np.repeat(stack.g_frob_norms, d)
    if _has(fam, "s_mult"):
        s = s * np.exp(spec.field("s_mult", q))
    g = spec.field("g", q) if _has(fam, "g") else stack.g_diag
    b = spec.field("b", q) if _has(fam, "b") else stack.b_diag
    return radii, s, g, b


def _scaled_inputs(spec: KernelSpec, q: int, X: np.ndarray) -> np.ndarray:
    """xs_q: X divided by the lengthscales (log_ell) or times the widths (log_sd)."""
    fam = spec.family
    if _has(fam, "log_ell"):
        return X / np.exp(spec.field("log_ell", _scope(fam, "log_ell", q)))
    return X * np.exp(spec.field("log_sd", q))


def compute_features(spec: KernelSpec, stacks, X: np.ndarray, *, out=None) -> DesignMatrix:
    """Assemble the (D_feat, n) design matrix for spec at inputs X (n, d_in).

    The matrix is point-major (Fortran order): a new array, or out, a
    Fortran-order (D_feat, n) float64 array (else DimensionError) that it
    overwrites, so that a caller building features again and again (an
    evaluation's workspace, a prediction's blocks) reuses one.  Each stack
    is built once, as op = project(stack, I_{d_in}); projecting the
    identity adds 2 d_in^2 m' flops, d_in / n of the product's.  The
    product xi = op^T xs^T runs in the trig pass (_project_sincos), one
    cache-sized column chunk at a time, so the (m', n) frequencies never
    exist whole: besides the design matrix, a call holds the operators, xs
    and a few chunks.

    Every cos/sin pair (and gm's pairs at xi +/- the phase) comes from one
    tan of the half angle (_sincos): sin = 2t/(1+t^2), cos = 2/(1+t^2) - 1
    with t = tan(x/2).  With numpy 2.4.6 on an AVX-512 Xeon, float64
    np.sin and np.cos run in scalar libm at 11-26 ns per element each and
    np.tan in a SIMD loop at 1.7-3.3 ns (about six to one at any hour), so
    the pair costs a fifth to a quarter of the two libm calls.  Against
    np.sin/np.cos the absolute error is at most 1 eps for sin and 1.5 eps
    for cos, at every scale from 1e-8 to 1e300.  Where numpy has no SIMD
    tan, one libm tan replaces two libm calls; that case is not measured.
    """
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
    data = np.empty((spec.n_rows, n), order="F") if out is None else out
    if data.shape != (spec.n_rows, n) or data.dtype != np.float64 or not data.flags.f_contiguous:
        raise DimensionError(f"out must be a Fortran-order float64 ({spec.n_rows}, {n}) array")
    eye = np.eye(spec.d_in)
    phase = _has(spec.family, "mu")
    operators, diagonals = [], []
    for q in range(spec.Q):
        diagonals.append(_group_diagonals(spec, stacks, q))
        operators.append(project(stacks[q], eye, *diagonals[q][1:]))
        base = q * rpg
        blocks = [data[base + k * m : base + (k + 1) * m] for k in range(rpg // m)]
        if phase:  # sin+, cos+, sin-, cos-
            zeta = matvec(X, spec.field("mu", q))  # (n,)
            trig = [(blocks[0], blocks[1], zeta), (blocks[2], blocks[3], -zeta)]
        else:  # cos, sin
            trig = [(blocks[1], blocks[0], None)]
        _project_sincos(operators[q], _scaled_inputs(spec, q, X), trig)
    return DesignMatrix(data=data, operators=tuple(operators), diagonals=tuple(diagonals))


# elements per column chunk of the frequencies xi: the chunk and _sincos's
# two temporaries (192 KiB) stay in cache
_SINCOS_CHUNK = 8192


def _project_sincos(op: np.ndarray, xs: np.ndarray, trig) -> None:
    """The trig blocks of xi = op^T xs^T, one column chunk of xi at a time.

    op is a group's (d_in, m') operator and xs its (n, d_in) scaled inputs;
    trig lists (sin_out, cos_out, shift) with shift None or a per-column
    (n,) phase, and each pair gets _sincos of the chunk.  A chunk is about
    _SINCOS_CHUNK elements of xi, one `dgemm` from Fortran-order views
    (no copies), so xi never exists whole and every phase reads the chunk
    from cache.  Each element of xi is the same d_in-term product however
    the columns are split, so the bits equal those of one product over all
    n columns.
    """
    m, n = op.shape[1], xs.shape[0]
    step = max(1, _SINCOS_CHUNK // m)
    for j in range(0, n, step):
        cols = slice(j, j + step)
        xi = dgemm(1.0, op.T, xs[cols].T)  # (m', columns)
        for sin_out, cos_out, shift in trig:
            _sincos(xi, sin_out[:, cols], cos_out[:, cols], shift=None if shift is None else shift[cols])


def _sincos(x: np.ndarray, sin_out: np.ndarray, cos_out: np.ndarray, shift=None) -> None:
    """sin(x) into sin_out and cos(x) into cos_out, from t = tan(x / 2).

    With a per-column shift (n,), the angle is x + shift, so no shifted copy
    of x is formed outside the call; the bits equal those of
    _sincos(x + shift), and a shift of -zeta gives those of x - zeta.

    sin x = 2t / (1 + t^2) and cos x = 2 / (1 + t^2) - 1, with two (m, n)
    temporaries, which _project_sincos keeps to one cache-sized chunk.
    numpy runs float64 tan in a SIMD loop and sin and cos in scalar libm
    (see compute_features for the cost and the error).  No double lies
    closer to an odd multiple of pi/2 than 6381956970095103 * 2^797 does,
    where tan is -2.1e18, so t^2 stays far below overflow and finite x
    gives finite output.  np.tan returns the same bits for any memory
    layout, so the outputs do not depend on how x is split.
    """
    if shift is None:
        t = np.multiply(x, 0.5)
    else:
        t = np.add(x, shift)
        t *= 0.5
    np.tan(t, out=t)
    r = np.multiply(t, t)
    r += 1.0
    np.divide(2.0, r, out=r)  # 2 / (1 + t^2)
    np.multiply(t, r, out=sin_out)
    np.subtract(r, 1.0, out=cos_out)


def _trig_chain(a, cos_rows, b, sin_rows, out):
    """a * cos_rows - b * sin_rows into out, with b as scratch."""
    np.multiply(a, cos_rows, out=out)
    return np.subtract(out, np.multiply(b, sin_rows, out=b), out=out)


def feature_weight_matrix(spec: KernelSpec) -> np.ndarray:
    """Diagonal of V as a flat (D_feat,) array.

    v_q^2 / (rows_per_group / 2) on each of group q's rows: v_q^2 / m' over
    2m' cos/sin rows, v_q^2 / (2m') over the 4m' rows of a mu phase.  Either
    way k(x, x) = sum_q v_q^2 once the trig identities collapse.
    """
    rpg = spec.rows_per_group
    return np.repeat(spec.group_weights() ** 2 / (rpg // 2), rpg)


# ---- derivatives ----------------------------------------------------------


def param_info(spec: KernelSpec, index: int):
    """Classify packed parameter `index` -> (kind, group, coordinate)."""
    if not (0 <= index < spec.n_params):
        raise DomainError(f"param index {index} out of range [0, {spec.n_params})")
    for kind, group, start, length in spec._slots():
        if index < start + (1 if length is None else length):
            return (kind, group, None if length is None else index - start)


def feature_param_gradients(
    spec: KernelSpec, stacks, X: np.ndarray, M: np.ndarray, phi: DesignMatrix, *, scratch
) -> np.ndarray:
    """Contract a co-matrix M (same shape as phi.data) against all dPhi/dtheta.

    Returns g with g[k] = <M, dPhi/dtheta_k> for every packed feature
    parameter, zeros at weight-only coordinates (the likelihood handles those
    through the weight diagonal).  phi.data may be W = V^{1/2} Phi, as
    gp.nlml_value_and_grad passes it: the weights depend only on the
    weight-only coordinates, and a frequency's cos and sin rows share one,
    so <M, dW/dtheta_k> = <V^{1/2} M, dPhi/dtheta_k>.  Per group, the trig
    chain rule gives T = dL/dxi (m', n, point-major like phi.data), and
    every parameter that moves xi = op^T xs^T enters through
    C = (T xs)^T (d_in, m') and the operator phi.operators[q]: a scale on
    input column j (log_ell, log_sd) gives row sum j of C * op, a scale on
    frequency k (s_mult, the hat kinds) its column sum k, which equals
    sum_n T * xi.  The G and B transforms run on C as well, so no stack is
    applied to the n data rows here.  They read the (s, g, b) diagonals phi
    was built from, and the hat kinds its radii, so no radii are formed
    again.  The products run in scipy's BLAS, as
    every product of an evaluation does (see ffgp.gp).  The chain rule runs
    in place: it overwrites M (a float64 array) and scratch, a Fortran-order
    (m', n) float64 array that holds each group's T in turn, so a call
    allocates no array of M's size (gp's workspace passes both).
    """
    X = np.asarray(X, dtype=float)
    n, d_in, m = X.shape[0], spec.d_in, spec.m_realized
    T = scratch
    rpg = spec.rows_per_group
    grad = np.zeros(spec.n_params)
    slot = spec.with_params(grad).field  # views into grad, laid out as params
    fam = spec.family

    for q in range(spec.Q):
        rows = slice(q * rpg, (q + 1) * rpg)
        if _has(fam, "mu"):
            sin_p, cos_p, sin_m, cos_m = phi.data[rows].reshape(4, m, n)
            Msp, Mcp, Msm, Mcm = M[rows].reshape(4, m, n)
            t_plus = _trig_chain(Msp, cos_p, Mcp, sin_p, out=Msp)
            t_minus = _trig_chain(Msm, cos_m, Mcm, sin_m, out=Msm)
            # the phase moves the + rows by +x_j and the - rows by -x_j
            slot("mu", q)[:] = matvec(X.T, np.subtract(t_plus, t_minus, out=Mcp).sum(axis=0))
            np.add(t_plus, t_minus, out=T)  # xi moves both
        else:
            cos_rows, sin_rows = phi.data[rows].reshape(2, m, n)
            Mc, Ms = M[rows].reshape(2, m, n)
            _trig_chain(Ms, cos_rows, Mc, sin_rows, out=T)
        # every xi-moving derivative is linear in C; the C-order (d_in, m)
        # transpose of T xs is what fwht_inplace needs below
        C = dgemm(1.0, T, _scaled_inputs(spec, q, X).T, trans_b=1).T
        Cop = C * phi.operators[q]

        if _has(fam, "log_sd"):  # xs_j = x_j * exp(theta_j)
            slot("log_sd", q)[:] = Cop.sum(axis=1)
        if _has(fam, "log_ell"):  # xs_j = x_j / exp(theta_j)
            scope = _scope(fam, "log_ell", q)
            ell = slot("log_ell", scope)
            per_dim = -Cop.sum(axis=1)
            value = per_dim.sum() if ell.size == 1 else per_dim  # one entry for every input
            if scope is None:  # shared by every group, so summed over them
                ell += value
            else:
                ell[:] = value
        if _has(fam, "s_mult"):  # S_k scaled by exp(theta_k)
            slot("s_mult", q)[:] = Cop.sum(axis=0)
        if _has(fam, "hat_mu"):  # S_k = r_k / ||G||_F, so dS_k / S_k = dr_k / r_k
            txi = Cop.sum(axis=0)  # sum_n T * xi
            hat, r, u = spec.hat(q), phi.diagonals[q][0], stacks[q].uniform_draws
            slot("hat_mu", q)[:] = float(np.sum(txi * (hat.mu / r)))
            slot("hat_sigma", q)[:] = float(np.sum(txi * (hat.sigma * hat_unit_quantile(u) / r)))
        if _has(fam, "g"):  # G and B (a layout with g has b): the butterfly's adjoint
            stack = stacks[q]
            shape = (stack.geometry.blocks, stack.geometry.d_pad)
            perms = stack.perms[None]
            _, s_eff, g_eff, b_eff = phi.diagonals[q]
            # C and the intermediates as (d_in, blocks, d_pad): every block at once
            ct = (C * (s_eff * (1.0 / np.sqrt(shape[1])))).reshape(d_in, *shape)
            fwht_inplace(ct)  # ct = H (s*C) / sqrt(d)
            v = np.eye(d_in, shape[1])[:, None, :] * b_eff.reshape(shape)
            fwht_inplace(v)
            w3 = np.take_along_axis(v, perms, axis=2)  # post-permutation intermediate
            slot("g", q).reshape(shape)[:] = np.einsum("jbk,jbk->bk", w3, ct)
            ct *= g_eff.reshape(shape)
            w2 = np.empty_like(ct)
            np.put_along_axis(w2, perms, ct, axis=2)
            fwht_inplace(w2)  # w2 = L^T C for each block (no b)
            # padded inputs are zero, so only the first d_in B entries move
            slot("b", q).reshape(shape)[:, :d_in] = w2.diagonal(axis1=0, axis2=2)
    return grad
