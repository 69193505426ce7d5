"""Fast Walsh-Hadamard transform and power-of-two padding geometry.

The transform used throughout is the *unnormalized* Walsh-Hadamard transform
H_{2n} = [[H_n, H_n], [H_n, -H_n]] with H_1 = [1].  It is an involution up to
scale: applying it twice multiplies a length-d vector by d, and it scales
squared norms by d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


def next_pow2(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    return 1 << (int(n) - 1).bit_length()


@dataclass(frozen=True)
class PadGeometry:
    """Zero-padding layout for one feature group.

    d_in      ambient input dimension
    d_pad     next power of two >= d_in (Hadamard block size)
    blocks    number of stacked Fastfood blocks
    m_total   blocks * d_pad, the realized per-group feature count (requests
              are rounded *up*, never truncated)
    """

    d_in: int
    d_pad: int
    blocks: int

    @property
    def m_total(self) -> int:
        return self.blocks * self.d_pad


def pad_geometry(d_in: int, m_per_group: int) -> PadGeometry:
    """Geometry for expanding d_in inputs into >= m_per_group frequencies."""
    if d_in < 1:
        raise DimensionError(f"need d_in >= 1, got {d_in}")
    if m_per_group < 1:
        raise DimensionError(f"need m_per_group >= 1, got {m_per_group}")
    d_pad = next_pow2(d_in)
    blocks = -(-m_per_group // d_pad)  # integer ceiling: exact for any int
    return PadGeometry(d_in=d_in, d_pad=d_pad, blocks=blocks)


def fwht_inplace(v: np.ndarray) -> np.ndarray:
    """Unnormalized in-place Walsh-Hadamard transform along the last axis.

    Accepts a vector or a batch (..., d) with d a power of two; rows are
    transformed independently. The array must own C-contiguous storage so the
    butterfly can run in place; the mutated input is also returned.
    """
    if v.ndim == 0:
        raise DimensionError("need at least a 1-d array")
    d = v.shape[-1]
    if d < 1 or (d & (d - 1)) != 0:
        raise DimensionError(f"length {d} is not a power of two")
    if not v.flags.c_contiguous:
        raise DimensionError("fwht_inplace needs a C-contiguous array")
    if d == 1:
        return v
    half = 1
    while half < d:
        # View as (..., pairs, 2, half): butterfly each (top, bottom) pair.
        w = v.reshape(v.shape[:-1] + (d // (2 * half), 2, half))
        top = w[..., 0, :].copy()
        bot = w[..., 1, :]
        w[..., 0, :] = top + bot
        w[..., 1, :] = top - bot
        half *= 2
    return v
