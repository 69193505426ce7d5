"""Structured random projections: draw and apply S H G Pi H B stacks.

Each block expands a zero-padded input x in R^{d_pad} into d_pad projections

    xi = d_pad^{-1/2} * S H G Pi H B x

where B is a random sign diagonal, H the unnormalized Walsh-Hadamard matrix,
Pi a uniform random permutation, G a diagonal of standard normal draws and
S a diagonal of radii divided by ||G||_F.  Rows of H G Pi H B all have
norm sqrt(d_pad) * ||G||_F, so after the two rescalings the i-th projection
direction has Euclidean norm equal to the i-th radius: the stack realizes a
radial spectral sample with exactly controlled row lengths.  A stack holds
only its draws; the radii come from its quantiles, and the caller passes S,
G and B to every application.  Fastfood is the parameterization (O(m) stored
numbers, S/G/B learnable).  To execute a stack, the butterfly builds its
dense (d_in, m) operator in O(d_in m log d_pad) and one matrix product
applies it to n rows in O(n d_in m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.special import gammaincinv

from .errors import DimensionError, DomainError
from .hadamard import PadGeometry, fwht_inplace


@dataclass(frozen=True)
class FastfoodStack:
    """Frozen draws for one feature group (all blocks concatenated).

    b_diag, g_diag and uniform_draws are flat arrays of length
    geometry.m_total laid out block by block; perms has one permutation row
    and g_frob_norms one ||G||_F per block.  uniform_draws are the radial
    quantiles: radius r_i at quantile u_i gives S_i = r_i / ||G_block||_F.
    """

    geometry: PadGeometry
    b_diag: np.ndarray
    g_diag: np.ndarray
    perms: np.ndarray
    g_frob_norms: np.ndarray
    uniform_draws: np.ndarray


def sample_chi_radii(u: np.ndarray, d_pad: int) -> np.ndarray:
    """Inverse-CDF chi(d_pad) radii at quantiles u in (0, 1).

    r = sqrt(2 * gammaincinv(d_pad / 2, u)); the chi distribution is the
    length of a d_pad-dimensional standard normal vector.
    """
    u = np.asarray(u, dtype=float)
    if d_pad < 1:
        raise DimensionError(f"need d_pad >= 1, got {d_pad}")
    if u.size and (np.min(u) <= 0.0 or np.max(u) >= 1.0):
        raise DomainError("chi quantiles must lie strictly inside (0, 1)")
    return np.sqrt(2.0 * gammaincinv(d_pad / 2.0, u))


def build_stack(seed, geometry: PadGeometry, systematic: bool = False) -> FastfoodStack:
    """Draw all per-block matrices for one group.

    seed may be an int or a tuple of ints (fed to numpy's SeedSequence), so a
    master seed plus group index reproduces the stack exactly.  With
    systematic=True the radial quantiles are a jittered uniform grid
    i/m + jitter, jitter ~ U[0, 1/m), instead of iid uniforms.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    d = geometry.d_pad
    nb = geometry.blocks
    m = geometry.m_total

    b_diag = rng.choice(np.array([-1.0, 1.0]), size=m)
    g_diag = rng.standard_normal(m)
    perms = np.stack([rng.permutation(d) for _ in range(nb)])

    if systematic:
        jitter = rng.uniform(0.0, 1.0 / m)
        u = (np.arange(m) + 0.0) / m + jitter
    else:
        u = rng.random(m)
        # rng.random can return exactly 0; nudge into the open interval
        u[u == 0.0] = np.finfo(float).tiny

    g_frob = np.sqrt(np.sum(g_diag.reshape(nb, d) ** 2, axis=1))
    if np.any(g_frob == 0.0):
        # probability zero, but S = r / ||G||_F would be undefined
        raise DomainError("degenerate G block with zero Frobenius norm")
    return FastfoodStack(geometry, b_diag, g_diag, perms, g_frob, u)


def _block_matrix(stack: FastfoodStack, s_diag, g_diag, b_diag) -> np.ndarray:
    """The stack as a dense (d_in, m_total) operator: the butterfly run on the
    rows of the (d_in, d_pad) identity, since padded input columns are zero.
    Every block goes through one pass over a (d_in, blocks, d_pad) array."""
    geo = stack.geometry
    shape = (geo.blocks, geo.d_pad)
    v = np.eye(geo.d_in, geo.d_pad)[:, None, :] * np.asarray(b_diag, dtype=float).reshape(shape)
    fwht_inplace(v)
    v = np.take_along_axis(v, stack.perms[None], axis=2)
    v *= np.asarray(g_diag, dtype=float).reshape(shape)
    fwht_inplace(v)
    v *= (np.asarray(s_diag, dtype=float) * (1.0 / np.sqrt(geo.d_pad))).reshape(shape)
    return v.reshape(geo.d_in, geo.m_total)


def project(stack: FastfoodStack, x: np.ndarray, s_diag, g_diag, b_diag) -> np.ndarray:
    """Apply the stack at diagonals s_diag / g_diag / b_diag (flat, laid out
    as the stack's) to rows of x: (n, d_in) -> (n, m_total)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"expected 2-d input, got shape {x.shape}")
    geo = stack.geometry
    if x.shape[1] != geo.d_in:
        raise DimensionError(f"input has {x.shape[1]} columns, stack expects {geo.d_in}")
    # (x op)^T = op^T x^T from the Fortran-order views, so scipy copies neither
    return dgemm(1.0, _block_matrix(stack, s_diag, g_diag, b_diag).T, x.T).T


def project_transpose(stack: FastfoodStack, t: np.ndarray, s_diag, g_diag, b_diag) -> np.ndarray:
    """Adjoint of `project`: (n, m_total) -> (n, d_in).

    <project(stack, x, s, g, b), t> == <x, project_transpose(stack, t, s, g, b)>.
    """
    t = np.asarray(t, dtype=float)
    geo = stack.geometry
    if t.ndim != 2 or t.shape[1] != geo.m_total:
        raise DimensionError(f"expected (n, {geo.m_total}) array, got {t.shape}")
    return t @ _block_matrix(stack, s_diag, g_diag, b_diag).T
