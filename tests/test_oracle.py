"""Reference-implementation checks: the oracle must be trustworthy before
anything fast is compared against it."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import ffgp
from ffgp.errors import DimensionError, DomainError
from ffgp.oracle import (
    MAX_ORACLE_N,
    ExactKernel,
    dense_gp_nlml_predict,
    dense_hadamard_matrix,
    exact_cross_gram,
    exact_gram,
    gm_closed_form,
)
from ffgp.spectra import GmComponent


def test_dense_hadamard_is_orthogonal_pm1():
    for d in (1, 2, 8, 64):
        H = dense_hadamard_matrix(d)
        assert set(np.unique(H)) <= {-1.0, 1.0}
        np.testing.assert_allclose(H @ H.T, d * np.eye(d), rtol=0, atol=0)


def test_ard_with_equal_lengthscales_is_rbf():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 5))
    rbf = ExactKernel("rbf", amplitude=1.3, lengthscales=0.8)
    ard = ExactKernel("ard", amplitude=1.3, lengthscales=np.full(5, 0.8))
    np.testing.assert_allclose(exact_gram(ard, X), exact_gram(rbf, X), rtol=1e-14)


def test_gm_oracle_matches_spectra_closed_form():
    rng = np.random.default_rng(1)
    comps = [
        (0.9, rng.normal(0, 2, 3), rng.uniform(0.2, 1.0, 3)),
        (0.4, rng.normal(0, 2, 3), rng.uniform(0.2, 1.0, 3)),
    ]
    kernel = ExactKernel("gm", components=tuple(comps))
    X = rng.standard_normal((12, 3))
    gram = exact_gram(kernel, X)
    gmc = [GmComponent(mu, sd, w) for w, mu, sd in comps]
    taus = X[:, None, :] - X[None, :, :]
    want = gm_closed_form(gmc, taus.reshape(-1, 3)).reshape(12, 12)
    np.testing.assert_allclose(gram, want, rtol=1e-12, atol=1e-14)


def test_gm_oracle_against_its_own_monte_carlo():
    # spectral sampling of one GM component must reproduce the closed form
    # within Monte-Carlo error (3 standard errors on each entry)
    rng = np.random.default_rng(2)
    mu = np.array([1.5, -0.5])
    sd = np.array([0.7, 0.3])
    kernel = ExactKernel("gm", components=((1.0, mu, sd),))
    X = rng.standard_normal((8, 2))
    gram = exact_gram(kernel, X)

    n_draws = 200_000
    omega = mu + sd * rng.standard_normal((n_draws, 2))
    proj = X @ omega.T  # (8, draws)
    for i in range(8):
        for j in range(8):
            samples = np.cos(proj[i] - proj[j])
            mc = samples.mean()
            se = samples.std(ddof=1) / np.sqrt(n_draws)
            assert abs(gram[i, j] - mc) <= 3 * se + 1e-12


def test_mc_radial_determinism_and_symmetry():
    kernel = ExactKernel(
        "mc_radial",
        amplitude=1.1,
        lengthscales=np.ones(2),
        knots=np.array([0.2, 0.7, 1.2]),
        alphas=np.array([1.0]),
        ambient_dim=4,
        n_draws=20_000,
        seed=5,
    )
    X = np.random.default_rng(3).standard_normal((6, 2))
    g1 = exact_gram(kernel, X)
    g2 = exact_gram(kernel, X)
    np.testing.assert_array_equal(g1, g2)  # fixed seed, fixed draws
    np.testing.assert_allclose(g1, g1.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.diag(g1), kernel.amplitude**2, rtol=1e-12)


def test_mc_radial_shrinks_with_distance():
    kernel = ExactKernel(
        "mc_radial",
        lengthscales=np.ones(1),
        knots=np.array([0.5, 1.0, 1.5]),
        alphas=np.array([1.0]),
        n_draws=50_000,
        seed=7,
    )
    X = np.array([[0.0], [0.3], [6.0]])
    g = exact_gram(kernel, X)
    assert g[0, 1] > g[0, 2]


def test_oracle_size_guard():
    X = np.zeros((MAX_ORACLE_N + 1, 2))
    with pytest.raises(DimensionError):
        exact_gram(ExactKernel("rbf"), X)
    with pytest.raises(DimensionError):
        dense_gp_nlml_predict(np.eye(MAX_ORACLE_N + 1), np.zeros(MAX_ORACLE_N + 1), 0.1)


def test_oracle_rejects_unknown_family_and_bad_noise():
    X = np.zeros((2, 1))
    with pytest.raises(DomainError):
        exact_gram(ExactKernel("matern"), X)
    with pytest.raises(DomainError):
        dense_gp_nlml_predict(np.eye(2), np.zeros(2), 0.0)


def test_cross_gram_shape():
    rng = np.random.default_rng(8)
    xa = rng.standard_normal((5, 3))
    xb = rng.standard_normal((9, 3))
    out = exact_cross_gram(ExactKernel("rbf", lengthscales=1.5), xa, xb)
    assert out.shape == (5, 9)
    np.testing.assert_allclose(
        out, exact_cross_gram(ExactKernel("rbf", lengthscales=1.5), xb, xa).T, rtol=1e-14
    )


def test_dense_gp_jitter_continuity():
    # near-duplicate rows: the dense path must stay finite and move smoothly
    X = np.array([[0.0], [1e-9], [1.0]])
    y = np.array([0.5, 0.5, -0.2])
    g = exact_gram(ExactKernel("rbf"), X)
    f1, _, _ = dense_gp_nlml_predict(g, y, 0.1)
    f2, _, _ = dense_gp_nlml_predict(g + 1e-12 * np.eye(3), y, 0.1)
    assert np.isfinite(f1) and abs(f1 - f2) < 1e-6


def _imported_modules(tree):
    """Absolute names of every module an ffgp module's source imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["ffgp" if node.level else "", node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_library_never_imports_the_oracle_and_exports_resolve():
    # the oracle is for tests only, and the package exports what the README
    # quickstart imports from it
    package = Path(ffgp.__file__).parent
    for path in package.glob("*.py"):
        if path.name != "oracle.py":
            found = set(_imported_modules(ast.parse(path.read_text())))
            assert "ffgp.oracle" not in found, path.name
    assert all(hasattr(ffgp, name) for name in ffgp.__all__)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quickstart = re.findall(r"^from ffgp import (.+)$", readme, re.M)
    assert quickstart
    for line in quickstart:
        assert set(line.split(", ")) <= set(ffgp.__all__), line
