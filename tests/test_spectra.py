import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from ffgp.errors import DegenerateSpectrumError, DomainError
from ffgp.oracle import gm_closed_form
from ffgp.spectra import (
    GmComponent,
    HatSpectrum,
    PwlSpectrum,
    hat_radii,
    hat_unit_quantile,
    pwl_cdf,
    pwl_density,
    pwl_inverse_cdf,
    pwl_normalizer,
    systematic_radii,
)

TRI = PwlSpectrum(knots=np.array([0.0, 1.0, 2.0]), alphas=np.array([1.0]))
TRAP = PwlSpectrum(knots=np.array([0.5, 1.0, 2.0, 4.0]), alphas=np.array([0.8, 0.3]))


def quad_cdf(spec, r):
    """Independent CDF: adaptive quadrature of the interpolated density,
    split at the knots so the kinks cost no accuracy."""
    kw = dict(limit=400, epsabs=1e-13, epsrel=1e-13)
    lo, hi = spec.knots[0], spec.knots[-1]
    inner = [float(k) for k in spec.knots[1:-1]]
    z = quad(lambda t: pwl_density(spec, t), lo, hi, points=inner, **kw)[0]
    cuts = [k for k in inner if k < r]
    val = quad(lambda t: pwl_density(spec, t), lo, r, points=cuts or None, **kw)[0]
    return val / z


def test_validation():
    with pytest.raises(DomainError):
        PwlSpectrum(np.array([0.0, 1.0, 2.0]), np.array([-0.5]))  # alpha >= 0 required
    with pytest.raises(DomainError):
        PwlSpectrum(np.array([1.0, 0.5, 2.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        PwlSpectrum(np.array([-1.0, 0.5, 2.0]), np.array([1.0]))
    with pytest.raises(DegenerateSpectrumError):
        PwlSpectrum(np.array([0.0, 1.0, 2.0]), np.array([0.0]))


def test_normalizer_matches_quadrature():
    for spec in (TRI, TRAP):
        z = quad(lambda t: pwl_density(spec, t), spec.knots[0], spec.knots[-1], limit=200)[0]
        assert abs(pwl_normalizer(spec) - z) < 1e-10


def test_density_interpolates_hats():
    # values at knots are the alphas, zero at the boundary knots
    assert pwl_density(TRAP, 1.0) == 0.8
    assert pwl_density(TRAP, 2.0) == 0.3
    assert pwl_density(TRAP, 0.5) == 0.0
    assert pwl_density(TRAP, 4.0) == 0.0
    assert pwl_density(TRAP, 1.5) == pytest.approx(0.55)
    assert pwl_density(TRAP, 10.0) == 0.0


def test_cdf_endpoints_and_monotone():
    r = np.linspace(0.5, 4.0, 50)
    c = pwl_cdf(TRAP, r)
    assert c[0] == 0.0 and abs(c[-1] - 1.0) < 1e-12
    assert np.all(np.diff(c) >= -1e-15)


@settings(max_examples=60)
@given(u=st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_inverse_cdf_inverts(u):
    r = pwl_inverse_cdf(TRAP, np.array([u]))[0]
    assert abs(pwl_cdf(TRAP, np.array([r]))[0] - u) < 1e-10


def test_inverse_cdf_against_brentq():
    # independent inversion of the quadrature CDF
    for spec in (TRI, TRAP):
        lo, hi = spec.knots[0], spec.knots[-1]
        for u in np.linspace(0.02, 0.98, 25):
            r_ref = brentq(lambda r: quad_cdf(spec, r) - u, lo, hi, xtol=1e-13)
            r_got = pwl_inverse_cdf(spec, np.array([u]))[0]
            assert abs(r_got - r_ref) < 1e-9


def test_inverse_cdf_domain():
    with pytest.raises(DomainError):
        pwl_inverse_cdf(TRI, np.array([-0.01]))
    with pytest.raises(DomainError):
        pwl_inverse_cdf(TRI, np.array([1.01]))
    assert pwl_inverse_cdf(TRI, np.array([0.0]))[0] == TRI.knots[0]
    assert pwl_inverse_cdf(TRI, np.array([1.0]))[0] == TRI.knots[-1]


def test_systematic_radii_quantile_grid():
    # m=2, jitter=0.25 -> radii at quantiles {0.25, 0.75}
    got = systematic_radii(TRI, 2, 0.25)
    want = pwl_inverse_cdf(TRI, np.array([0.25, 0.75]))
    assert np.array_equal(got, want)
    got4 = systematic_radii(TRI, 4, 0.0)
    want4 = pwl_inverse_cdf(TRI, np.array([0.0, 0.25, 0.5, 0.75]))
    assert np.array_equal(got4, want4)
    with pytest.raises(DomainError):
        systematic_radii(TRI, 4, 0.25)  # jitter must stay below 1/m
    with pytest.raises(DomainError):
        systematic_radii(TRI, 4, -0.01)


def _hat_knots(hat):
    """The hat's knot form: knots (mu, mu + sigma/2, mu + sigma), peak 1."""
    return PwlSpectrum([hat.mu, hat.mu + hat.sigma / 2, hat.mu + hat.sigma], [1.0])


def test_hat_geometry():
    hat = HatSpectrum(mu=0.5, sigma=2.0)
    spec = _hat_knots(hat)
    assert np.allclose(spec.knots, [0.5, 1.5, 2.5])  # {mu, mu+sigma/2, mu+sigma}
    assert np.allclose(spec.values, [0.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        HatSpectrum(mu=-0.1, sigma=1.0)
    with pytest.raises(DomainError):
        HatSpectrum(mu=0.5, sigma=0.0)


def test_hat_unit_quantile_closed_form():
    # q(u) = sqrt(u/2) below the midpoint, 1 - sqrt((1-u)/2) above
    for u in np.linspace(0.001, 0.999, 41):
        want = math.sqrt(u / 2) if u <= 0.5 else 1.0 - math.sqrt((1 - u) / 2)
        assert abs(hat_unit_quantile(np.array([u]))[0] - want) < 1e-12
    assert hat_unit_quantile(np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-12)


def test_hat_radii_location_scale():
    u = np.linspace(0.05, 0.95, 9)
    hat = HatSpectrum(mu=1.2, sigma=0.7)
    got = hat_radii(1.2, 0.7, u)
    want = 1.2 + 0.7 * hat_unit_quantile(u)
    assert np.allclose(got, want, atol=1e-14)
    ref = pwl_inverse_cdf(_hat_knots(hat), u)
    assert np.allclose(got, ref, atol=1e-10)  # same law through the generic path


def test_gm_closed_form_values():
    comp = GmComponent(mu=np.array([2.0]), sigma_diag=np.array([0.5]), weight=1.5)
    tau = np.array([0.0])
    assert gm_closed_form([comp], tau) == pytest.approx(1.5**2)
    tau = np.array([0.3])
    want = 1.5**2 * math.exp(-0.5 * (0.5 * 0.3) ** 2) * math.cos(2.0 * 0.3)
    assert gm_closed_form([comp], tau) == pytest.approx(want, rel=1e-12)


def test_gm_closed_form_even_and_batch():
    rng = np.random.default_rng(4)
    comps = [
        GmComponent(mu=rng.normal(size=3), sigma_diag=rng.uniform(0.2, 1.0, 3), weight=0.8),
        GmComponent(mu=rng.normal(size=3), sigma_diag=rng.uniform(0.2, 1.0, 3), weight=0.4),
    ]
    taus = rng.normal(size=(6, 3))
    vals = gm_closed_form(comps, taus)
    assert vals.shape == (6,)
    assert np.allclose(vals, gm_closed_form(comps, -taus), atol=1e-14)  # even in tau
    one = gm_closed_form(comps, taus[2])
    assert one == pytest.approx(vals[2], rel=1e-14)
