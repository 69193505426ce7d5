import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import hadamard

from ffgp.errors import DimensionError, DomainError
from ffgp.fastfood import build_stack, project, project_transpose, sample_chi_radii
from ffgp.hadamard import pad_geometry
from ffgp.oracle import dense_hadamard_matrix


def chi_radii(stack):
    """The stack's chi(d_pad) radii at its quantiles."""
    return sample_chi_radii(stack.uniform_draws, stack.geometry.d_pad)


def chi_diagonals(stack):
    """(s, g, b) of a stack whose S is its chi radii over ||G||_F per block."""
    s = chi_radii(stack) / np.repeat(stack.g_frob_norms, stack.geometry.d_pad)
    return s, stack.g_diag, stack.b_diag


def dense_operator(stack, s_diag, g_diag, b_diag):
    """Assemble d_pad^{-1/2} S H G Pi H B block by block, the slow way."""
    geo = stack.geometry
    d = geo.d_pad
    H = dense_hadamard_matrix(d)
    blocks = []
    for b in range(geo.blocks):
        sl = slice(b * d, (b + 1) * d)
        B = np.diag(b_diag[sl])
        G = np.diag(g_diag[sl])
        P = np.eye(d)[stack.perms[b]]  # row gather: (Pv)_i = v[perm[i]]
        S = np.diag(s_diag[sl])
        blocks.append(S @ H @ G @ P @ H @ B / np.sqrt(d))
    return np.vstack(blocks)


def test_project_matches_dense_operator():
    geo = pad_geometry(5, 20)
    stack = build_stack(11, geo)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((9, 5))
    Xp = np.zeros((9, geo.d_pad))
    Xp[:, :5] = X  # inputs are zero-padded into the Hadamard dimension
    diagonals = chi_diagonals(stack)
    assert np.allclose(project(stack, X, *diagonals), Xp @ dense_operator(stack, *diagonals).T, atol=1e-10)


def test_project_matches_dense_operator_at_large_d():
    # d_in=1000 pads to 1024, two blocks; each block's reference is built
    # from scipy's dense Hadamard matrix with its own permutation
    geo = pad_geometry(1000, 2048)
    assert (geo.d_pad, geo.blocks) == (1024, 2)
    stack = build_stack(21, geo)
    diagonals = chi_diagonals(stack)
    s = diagonals[0]
    X = np.random.default_rng(1).standard_normal((3, 1000))
    H = hadamard(1024, dtype=float)
    want = []
    for blk, perm in enumerate(stack.perms):
        sl = slice(blk * 1024, (blk + 1) * 1024)
        # G Pi H B as a matrix: (Pi H)[i] = H[perm[i]]
        gph_b = stack.g_diag[sl, None] * H[perm] * stack.b_diag[sl]
        V = (s[sl, None] / np.sqrt(1024)) * (H @ gph_b)
        want.append(X @ V[:, :1000].T)  # padded input columns are zero
    want = np.hstack(want)
    np.testing.assert_allclose(project(stack, X, *diagonals), want, rtol=0, atol=1e-10 * np.abs(want).max())


def test_project_transpose_is_the_adjoint():
    geo = pad_geometry(5, 20)
    stack = build_stack(3, geo)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((7, 5))
    T = rng.standard_normal((7, geo.m_total))
    m = geo.m_total
    s = chi_diagonals(stack)[0] * np.exp(0.3 * rng.standard_normal(m))
    g = rng.standard_normal(m)
    b = rng.uniform(-1.5, 1.5, m)
    for diagonals in (chi_diagonals(stack), (s, g, b)):
        V = dense_operator(stack, *diagonals)[:, :5]  # padded input columns are zero
        R = project_transpose(stack, T, *diagonals)
        assert R.shape == (7, 5)
        assert np.allclose(R, T @ V, atol=1e-10)
        lhs = np.sum(project(stack, X, *diagonals) * T)
        assert np.isclose(lhs, np.sum(X * R), rtol=1e-12, atol=1e-10)


def test_effective_row_radii_equal_sampled_radii():
    # each row of the dense operator has norm exactly its sampled radius
    geo = pad_geometry(3, 12)
    stack = build_stack(5, geo)
    V = dense_operator(stack, *chi_diagonals(stack))
    assert np.allclose(np.linalg.norm(V, axis=1), chi_radii(stack), atol=1e-10)


def test_chi_radii_match_scipy_ppf():
    u = np.linspace(0.01, 0.99, 25)
    for d in (1, 2, 8, 64):
        assert np.allclose(sample_chi_radii(u, d), stats.chi.ppf(u, d), rtol=1e-10)


def test_chi_median_one_dim():
    # chi(1) median: |N(0,1)| has median 0.6745
    assert abs(sample_chi_radii(np.array([0.5]), 1)[0] - 0.6744897501960817) < 1e-12


def test_chi_radii_domain():
    with pytest.raises(DomainError):
        sample_chi_radii(np.array([0.0]), 4)
    with pytest.raises(DomainError):
        sample_chi_radii(np.array([1.0]), 4)
    with pytest.raises(DimensionError):
        sample_chi_radii(np.array([0.5]), 0)


def test_build_stack_determinism_and_seed_separation():
    geo = pad_geometry(4, 8)
    a = build_stack(7, geo)
    b = build_stack(7, geo)
    c = build_stack(8, geo)
    assert np.array_equal(a.b_diag, b.b_diag)
    assert np.array_equal(a.g_diag, b.g_diag)
    assert np.array_equal(a.uniform_draws, b.uniform_draws)
    assert np.array_equal(a.g_frob_norms, b.g_frob_norms)
    assert all(np.array_equal(p, q) for p, q in zip(a.perms, b.perms))
    assert not np.array_equal(a.g_diag, c.g_diag)
    assert build_stack((7, 1), geo).g_diag is not None  # tuple seeds work


def test_stack_fields_valid():
    geo = pad_geometry(6, 10)
    st_ = build_stack(0, geo)
    assert set(np.unique(st_.b_diag)) == {-1.0, 1.0}
    for p in st_.perms:
        assert np.array_equal(np.sort(p), np.arange(geo.d_pad))
    assert np.all(st_.g_frob_norms > 0) and st_.g_frob_norms.shape == (geo.blocks,)
    assert np.all((st_.uniform_draws > 0) & (st_.uniform_draws < 1))
    assert st_.uniform_draws.shape == (geo.m_total,)
    assert np.all(chi_radii(st_) > 0)


@settings(max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**31), jitter=st.floats(0, 0.4))
def test_systematic_draws_hit_each_stratum(seed, jitter):
    geo = pad_geometry(2, 8)
    st_ = build_stack(seed, geo, systematic=True)
    u = np.sort(st_.uniform_draws)
    m = geo.m_total
    strata = np.floor(u * m).astype(int)
    assert np.array_equal(strata, np.arange(m))  # exactly one draw per [i/m,(i+1)/m)
