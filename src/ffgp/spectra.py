"""Radial spectral densities: piecewise-linear (hat) spectra and Gaussian mixtures.

A piecewise-linear radial spectrum is defined by knots r_0 < r_1 < ... < r_{k+1}
(r_0 >= 0) with density values (0, alpha_1, ..., alpha_k, 0) interpolated
linearly between knots and zero outside [r_0, r_{k+1}].  Nonnegative alphas are
exactly the constraint under which the induced radial function is a valid
isotropic spectral density, so negative values are rejected at construction.

The workhorse shape is the "hat": knots (mu, mu + sigma/2, mu + sigma) with a
single peak value 1.  Its quantile function has the closed form

    q(u) = sqrt(u / 2)            u <= 1/2
    q(u) = 1 - sqrt((1 - u) / 2)  u >  1/2

on the unit hat, and location-scale transport r = mu + sigma * q(u) keeps
sampled radii smooth in (mu, sigma), which is what gradient-based learning of
the hat parameters needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, DomainError


@dataclass(frozen=True)
class PwlSpectrum:
    """Piecewise-linear radial density, unnormalized.

    knots: strictly increasing, knots[0] >= 0, length k + 2
    alphas: interior peak values, length k, all >= 0, not all zero
    """

    knots: np.ndarray
    alphas: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        alphas = np.asarray(self.alphas, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "alphas", alphas)
        if knots.ndim != 1 or knots.size < 3:
            raise DomainError("need at least 3 knots")
        if alphas.ndim != 1 or alphas.size != knots.size - 2:
            raise DomainError(f"need {knots.size - 2} alphas for {knots.size} knots")
        if knots[0] < 0.0:
            raise DomainError("knots must start at a nonnegative radius")
        if np.any(np.diff(knots) <= 0.0):
            raise DomainError("knots must be strictly increasing")
        if np.any(alphas < 0.0):
            raise DomainError("alphas must be nonnegative for a valid spectral density")
        if not np.any(alphas > 0.0):
            raise DegenerateSpectrumError("spectrum has zero mass")

    @property
    def values(self) -> np.ndarray:
        """Density values at the knots, including the zero endpoints."""
        return np.concatenate(([0.0], self.alphas, [0.0]))


def pwl_density(spec: PwlSpectrum, r) -> np.ndarray:
    """Unnormalized density at radii r (zero outside the support)."""
    r = np.asarray(r, dtype=float)
    return np.interp(r, spec.knots, spec.values, left=0.0, right=0.0)


def pwl_normalizer(spec: PwlSpectrum) -> float:
    """Total mass: sum over interior knots of alpha_i (r_{i+1} - r_{i-1}) / 2.

    This is the trapezoid rule on a piecewise-linear function, regrouped per
    interior knot.
    """
    k = spec.knots
    return float(np.sum(spec.alphas * (k[2:] - k[:-2])) / 2.0)


def _segment_masses(spec: PwlSpectrum) -> np.ndarray:
    v = spec.values
    return (v[:-1] + v[1:]) * np.diff(spec.knots) / 2.0


def pwl_cdf(spec: PwlSpectrum, r) -> np.ndarray:
    """Normalized CDF at radii r."""
    r = np.asarray(r, dtype=float)
    k = spec.knots
    v = spec.values
    z = pwl_normalizer(spec)
    cum = np.concatenate(([0.0], np.cumsum(_segment_masses(spec))))
    idx = np.clip(np.searchsorted(k, r, side="right") - 1, 0, k.size - 2)
    t = np.clip(r - k[idx], 0.0, None)
    width = k[idx + 1] - k[idx]
    slope = (v[idx + 1] - v[idx]) / width
    partial = v[idx] * t + 0.5 * slope * t * t
    out = (cum[idx] + partial) / z
    out = np.where(r <= k[0], 0.0, out)
    out = np.where(r >= k[-1], 1.0, out)
    return out


def pwl_inverse_cdf(spec: PwlSpectrum, u) -> np.ndarray:
    """Exact quantile function of the normalized density, u in [0, 1].

    Inside segment i the CDF is quadratic, c(t) = a t + (b - a) t^2 / (2 w)
    with endpoint densities a, b and width w; it is inverted with the
    numerically stable root  t = 2 c / (a + sqrt(a^2 + 2 (b - a) c / w)).
    """
    u = np.asarray(u, dtype=float)
    if u.size and (np.min(u) < 0.0 or np.max(u) > 1.0):
        raise DomainError("quantiles must lie in [0, 1]")
    k = spec.knots
    v = spec.values
    z = pwl_normalizer(spec)
    masses = _segment_masses(spec)
    cum = np.concatenate(([0.0], np.cumsum(masses)))
    cum[-1] = z  # guard cumsum roundoff at the top end

    c = u * z
    idx = np.clip(np.searchsorted(cum, c, side="right") - 1, 0, masses.size - 1)
    crem = np.maximum(c - cum[idx], 0.0)
    a = v[idx]
    w = k[idx + 1] - k[idx]
    slope = (v[idx + 1] - v[idx]) / w
    disc = np.sqrt(np.maximum(a * a + 2.0 * slope * crem, 0.0))
    denom = a + disc
    t = np.where(denom > 0.0, 2.0 * crem / np.where(denom > 0.0, denom, 1.0), 0.0)
    return k[idx] + np.minimum(t, w)


def systematic_radii(spec: PwlSpectrum, m: int, jitter: float) -> np.ndarray:
    """m radii at the jittered quantile grid u_i = i/m + jitter.

    jitter must lie in [0, 1/m) so the grid stays inside [0, 1); one shared
    jitter preserves the stratification of the grid.
    """
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    if not (0.0 <= jitter < 1.0 / m):
        raise DomainError(f"jitter must lie in [0, 1/m), got {jitter}")
    u = np.arange(m) / m + jitter
    return pwl_inverse_cdf(spec, u)


@dataclass(frozen=True)
class HatSpectrum:
    """Single triangular bump: knots (mu, mu + sigma/2, mu + sigma), peak 1."""

    mu: float
    sigma: float

    def __post_init__(self):
        if self.mu < 0.0:
            raise DomainError(f"hat location must be >= 0, got {self.mu}")
        if self.sigma <= 0.0:
            raise DomainError(f"hat width must be > 0, got {self.sigma}")


def hat_unit_quantile(u) -> np.ndarray:
    """Quantile function of the standard hat on [0, 1] (closed form)."""
    u = np.asarray(u, dtype=float)
    if u.size and (np.min(u) < 0.0 or np.max(u) > 1.0):
        raise DomainError("quantiles must lie in [0, 1]")
    lo = np.sqrt(np.maximum(u, 0.0) / 2.0)
    hi = 1.0 - np.sqrt(np.maximum(1.0 - u, 0.0) / 2.0)
    return np.where(u <= 0.5, lo, hi)


def hat_radii(mu: float, sigma: float, u) -> np.ndarray:
    """Location-scale hat radii r = mu + sigma * q(u); smooth in (mu, sigma)."""
    return mu + sigma * hat_unit_quantile(u)


@dataclass(frozen=True)
class GmComponent:
    """One Gaussian mixture component: weight^2 exp(-|diag(sigma) tau|^2 / 2) cos(mu . tau)."""

    mu: np.ndarray
    sigma_diag: np.ndarray
    weight: float

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        sd = np.atleast_1d(np.asarray(self.sigma_diag, dtype=float))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma_diag", sd)
        if mu.shape != sd.shape:
            raise DomainError("mu and sigma_diag must have matching shapes")
        if np.any(sd < 0.0):
            raise DomainError("sigma_diag entries must be nonnegative")
