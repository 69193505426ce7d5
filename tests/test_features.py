import ast
import dataclasses
import inspect
import textwrap
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffgp import features as ft
from ffgp.errors import DimensionError, DomainError
from ffgp.oracle import feature_jacobian, gm_closed_form
from ffgp.spectra import GmComponent, HatSpectrum, hat_radii


def spec_zoo(m=4):
    rng = np.random.default_rng(42)
    zoo = {
        "frbf": ft.KernelSpec.frbf(3, m, 1.3, 0.9),
        "fard": ft.KernelSpec.fard(3, m, np.array([0.7, 1.1, 2.3]), 1.2),
        "fsard": ft.KernelSpec.fsard(
            3, 2, m, np.array([0.7, 1.1, 2.3]), 1.2,
            s_multipliers=0.1 * rng.standard_normal(2 * ft.pad_geometry(3, m).m_total),
        ),
        "gm": ft.KernelSpec.gm(2, m, [
            GmComponent(np.array([0.4, -1.0]), np.array([0.8, 0.5]), 0.9),
            GmComponent(np.array([2.0, 0.1]), np.array([0.3, 1.4]), 0.5),
        ]),
        "pwl": ft.KernelSpec.pwl(2, m, [
            (0.8, np.array([1.0, 1.6]), HatSpectrum(0.4, 1.2)),
            (0.5, np.array([0.6, 2.0]), HatSpectrum(1.1, 0.5)),
        ]),
    }
    stacks0 = ft.build_stacks(ft.KernelSpec.template("fsgbard", 3, 2, m), 17)
    zoo["fsgbard"] = ft.KernelSpec.fsgbard_from_stacks(
        3, 2, m, np.array([0.7, 1.1, 2.3]), stacks0, amplitude=1.2
    )
    return zoo


def test_hyper_counts():
    d, Q, mpg = 7, 3, 10
    m = ft.pad_geometry(d, mpg).m_total  # 16 after padding to d_pad=8
    want = {
        "frbf": 3,
        "fard": d + 2,
        "fsard": Q * m + d + 2,
        "fsgbard": 3 * Q * m + d + 2,
        "gm": Q * (2 * d + 1) + 1,
        "pwl": Q * (d + 3) + 1,
    }
    for fam, n in want.items():
        assert ft.hyper_count(fam, d, Q, m) == n
        spec = ft.KernelSpec.template(fam, d, Q if fam not in ("frbf", "fard") else 1, mpg)
        assert spec.n_hypers == n


def test_rows_per_group():
    zoo = spec_zoo()
    for fam, spec in zoo.items():
        rows = 4 * spec.m_realized if fam == "gm" else 2 * spec.m_realized
        assert spec.rows_per_group == rows
        assert spec.n_rows == rows * spec.Q


@settings(max_examples=30)
@given(seed=st.integers(0, 2**31), log_noise=st.floats(-9.0, 2.3))
def test_pack_unpack_round_trip(seed, log_noise):
    zoo = spec_zoo()
    rng = np.random.default_rng(seed)
    for spec in zoo.values():
        h = ft.pack_hyper(spec, log_noise)
        assert h.shape == (spec.n_hypers,)
        h2 = h + 0.1 * rng.standard_normal(h.shape)
        spec2, log_noise2 = ft.unpack_hyper(spec, h2)
        assert np.array_equal(ft.pack_hyper(spec2, log_noise2), h2)


def test_unpack_rejects_bad_length():
    spec = spec_zoo()["frbf"]
    with pytest.raises(DimensionError):
        ft.unpack_hyper(spec, np.zeros(spec.n_hypers + 1))


def test_weight_conventions():
    zoo = spec_zoo()
    rng = np.random.default_rng(6)
    for fam, spec in zoo.items():
        w = spec.group_weights()
        if fam in ("frbf", "fard", "fsard", "fsgbard"):
            assert np.allclose(w, spec.amplitude / np.sqrt(spec.Q))
        V = ft.feature_weight_matrix(spec)
        assert V.shape == (spec.n_rows,)
        assert np.all(V > 0)
        # k(x,x) = sum_j V_j phi_j(x)^2 = sum_q w_q^2 exactly, per draw:
        # each frequency contributes cos^2 + sin^2 = 1 at lag zero
        X = rng.standard_normal((3, spec.d_in))
        phi = ft.compute_features(spec, ft.build_stacks(spec, 1), X)
        kxx = V @ (phi.data**2)
        assert np.allclose(kxx, np.sum(w**2), rtol=1e-12)


def test_fsgbard_at_init_reproduces_fard_bitwise():
    ell = np.array([0.8, 1.4, 2.0])
    seed = 23
    fard = ft.KernelSpec.fard(3, 8, ell, amplitude=1.1)
    st_f = ft.build_stacks(fard, seed)
    tmpl = ft.KernelSpec.template("fsgbard", 3, 1, 8)
    st_g = ft.build_stacks(tmpl, seed)
    fsg = ft.KernelSpec.fsgbard_from_stacks(3, 1, 8, ell, st_g, amplitude=1.1)
    X = np.random.default_rng(1).standard_normal((6, 3))
    a = ft.compute_features(fard, st_f, X).data
    b = ft.compute_features(fsg, ft.build_stacks(fsg, seed), X).data
    assert np.array_equal(a, b)


def test_pwl_stacks_accept_a_hat_too_narrow_for_pwl_knots():
    # mu + sigma/2 rounds to mu, so this valid hat has no strictly increasing
    # PWL knots; the stack draws its radii in the features' closed form
    hat = HatSpectrum(1.0, 1e-17)
    spec = ft.KernelSpec.pwl(2, 8, [(1.0, np.ones(2), hat)])
    stacks = ft.build_stacks(spec, 0)
    want = hat_radii(spec.hat(0).mu, spec.hat(0).sigma, stacks[0].uniform_draws)
    s = ft._group_diagonals(spec, stacks, 0)[1]
    np.testing.assert_allclose(s * np.repeat(stacks[0].g_frob_norms, 2), want, rtol=1e-14)
    phi = ft.compute_features(spec, stacks, np.random.default_rng(2).standard_normal((5, 2)))
    assert np.all(np.isfinite(phi.data))


@pytest.mark.parametrize("family", ft.FAMILIES)
def test_stacks_depend_on_the_shape_and_seed_not_the_params(family):
    # a stack is its draws: the template and a spec of the same shape with
    # other params build the same stacks, field by field
    Q = 1 if family in ("frbf", "fard") else 2
    template = ft.KernelSpec.template(family, 3, Q, 8)
    spec = template.with_params(np.random.default_rng(4).uniform(-1, 1, template.n_params))
    for ours, theirs in zip(ft.build_stacks(template, 6), ft.build_stacks(spec, 6), strict=True):
        for field in dataclasses.fields(ours):
            a, b = getattr(ours, field.name), getattr(theirs, field.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name


def test_gm_gram_converges_to_closed_form():
    spec = spec_zoo(m=512)["gm"]
    stacks = ft.build_stacks(spec, 5)
    rng = np.random.default_rng(7)
    X = rng.standard_normal((24, 2))
    phi = ft.compute_features(spec, stacks, X)
    V = ft.feature_weight_matrix(spec)
    G = (V[:, None] * phi.data).T @ phi.data
    taus = X[:, None, :] - X[None, :, :]
    K = gm_closed_form([spec.component(q) for q in range(spec.Q)], taus.reshape(-1, 2)).reshape(24, 24)
    assert np.abs(G - K).mean() < 0.05


@pytest.mark.parametrize("family", ft.FAMILIES)
def test_design_matrix_is_point_major_and_equals_transposed_writes(family):
    spec = spec_zoo()[family]
    stacks = ft.build_stacks(spec, 5)
    X = np.random.default_rng(1).standard_normal((37, spec.d_in))
    phi = ft.compute_features(spec, stacks, X)
    assert phi.data.flags.f_contiguous
    m, rpg = spec.m_realized, spec.rows_per_group
    ref = np.empty((spec.n_rows, X.shape[0]))

    def sincos(x):  # the kernel compute_features runs, on a C-order (n, m) block
        sin, cos = np.empty_like(x), np.empty_like(x)
        ft._sincos(x, sin, cos)
        return sin, cos

    for q in range(spec.Q):
        xi = ft._scaled_inputs(spec, q, X) @ phi.operators[q]
        if family == "gm":
            zeta = (X @ spec.component(q).mu)[:, None]
            blocks = [*sincos(xi + zeta), *sincos(xi - zeta)]
        else:
            blocks = sincos(xi)[::-1]
        for k, block in enumerate(blocks):
            ref[q * rpg + k * m : q * rpg + (k + 1) * m] = block.T
    np.testing.assert_array_equal(phi.data, ref)


def sincos_fortran(x):
    """_sincos of x into two row slices of one Fortran-order matrix, as
    compute_features writes a group's trig blocks."""
    m = x.shape[0]
    data = np.empty((3 * m, x.shape[1]), order="F")
    sin, cos = data[m : 2 * m], data[2 * m :]
    ft._sincos(np.asfortranarray(x), sin, cos)
    return sin, cos


def test_sincos_matches_libm():
    eps = np.finfo(float).eps
    rng = np.random.default_rng(11)

    def close_to_libm(x, sin, cos):
        assert np.all(np.isfinite(sin)) and np.all(np.isfinite(cos))
        return (np.abs(sin - np.sin(x)).max(initial=0.0) <= 2 * eps
                and np.abs(cos - np.cos(x)).max(initial=0.0) <= 2 * eps)

    for scale in 10.0 ** np.arange(-8, 301, 4):
        x = scale * rng.standard_normal((300, 70))
        sin, cos = sincos_fortran(x)
        assert not sin.flags.contiguous  # strided row slices of a Fortran matrix
        assert close_to_libm(x, sin, cos), scale
    # the last value halves to the double nearest an odd multiple of pi/2,
    # where |tan(x / 2)| is largest: 2.1e18
    special = np.array([[0.0, -0.0, np.pi, -np.pi, np.pi / 2, 5e-324, 1.7e308, -1.7e308,
                         np.ldexp(6381956970095103.0, 798)]])
    assert close_to_libm(special, *sincos_fortran(special))
    assert np.array_equal(np.signbit(sincos_fortran(special)[0][0, :2]), [False, True])  # sin(-0) = -0
    # more rows than one chunk holds, no columns, one column, many chunks:
    # the bits equal one call per column
    for m, n in [(ft._SINCOS_CHUNK + 5, 3), (7, 0), (7, 1), (40, 1000)]:
        x = 30.0 * rng.standard_normal((m, n))
        sin, cos = sincos_fortran(x)
        assert sin.shape == cos.shape == (m, n)
        one_sin, one_cos = np.empty((m, n), order="F"), np.empty((m, n), order="F")
        for j in range(n):
            ft._sincos(x[:, j : j + 1], one_sin[:, j : j + 1], one_cos[:, j : j + 1])
        np.testing.assert_array_equal(sin, one_sin)
        np.testing.assert_array_equal(cos, one_cos)
        assert close_to_libm(x, sin, cos), (m, n)


def test_sincos_shift_equals_the_shifted_angle_bit_for_bit():
    # compute_features passes gm's phase as a per-column shift instead of
    # forming xi +/- zeta; the bits are those of the sum, and x - zeta is
    # x + (-zeta) in IEEE arithmetic
    rng = np.random.default_rng(12)
    for m, n in [(ft._SINCOS_CHUNK + 5, 3), (7, 1), (40, 1000), (3, 2 * ft._SINCOS_CHUNK + 1)]:
        x = np.asfortranarray(30.0 * rng.standard_normal((m, n)))
        shift = 5.0 * rng.standard_normal(n)
        for total, step in [(x + shift, shift), (x - shift, -shift)]:
            sin, cos = np.empty((m, n), order="F"), np.empty((m, n), order="F")
            ft._sincos(x, sin, cos, shift=step)
            want_sin, want_cos = sincos_fortran(total)
            np.testing.assert_array_equal(sin, want_sin)
            np.testing.assert_array_equal(cos, want_cos)


@pytest.mark.parametrize("family, Q, m", [("frbf", 1, 1280), ("gm", 3, 64), ("pwl", 5, 256)])
def test_compute_features_forms_no_frequency_array(family, Q, m):
    # the projection runs per column chunk inside the trig pass, so besides
    # the design matrix a call holds only chunks; forming the whole (m', n)
    # xi first read 1.18-1.50 D x n arrays
    rng = np.random.default_rng(3)
    d, n = 5, 8000
    spec = ft.KernelSpec.template(family, d, Q, m)
    spec = spec.with_params(spec.params + 0.1 * rng.standard_normal(spec.n_params))
    stacks = ft.build_stacks(spec, seed=1)
    X = rng.standard_normal((n, d))
    ft.compute_features(spec, stacks, X[:10])  # warm-up: first-call allocations
    tracemalloc.start()
    try:
        ft.compute_features(spec, stacks, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 8 * spec.n_rows * n


def test_compute_features_writes_into_out():
    rng = np.random.default_rng(8)
    spec = ft.KernelSpec.template("gm", 3, 2, 8)
    spec = spec.with_params(spec.params + 0.1 * rng.standard_normal(spec.n_params))
    stacks = ft.build_stacks(spec, 4)
    X = rng.standard_normal((30, 3))
    want = ft.compute_features(spec, stacks, X)
    out = np.full((spec.n_rows, 30), np.nan, order="F")
    got = ft.compute_features(spec, stacks, X, out=out)
    assert got.data is out
    np.testing.assert_array_equal(out, want.data)
    for bad in (np.empty((spec.n_rows, 31), order="F"), np.empty((spec.n_rows, 30)),
                np.empty((spec.n_rows, 30), dtype=np.float32, order="F")):
        with pytest.raises(DimensionError):
            ft.compute_features(spec, stacks, X, out=bad)


def test_compute_features_calls_no_libm_trig():
    # np.sin and np.cos run in scalar libm, several times slower than the
    # SIMD tan _sincos builds both from, so every trig block goes through it
    tree = ast.parse(textwrap.dedent(inspect.getsource(ft.compute_features)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            assert name not in ("sin", "cos"), f"{name} at line {node.lineno}"


def natural_params(spec):
    """Every accessor value, keyed by the (kind, group, coordinate) that
    param_info reports for the packed entry it is read from."""
    fam, d = spec.family, spec.d_in
    out = {}
    if fam in ("frbf", "fard", "fsard", "fsgbard"):
        out[("log_a", None, None)] = spec.amplitude
        ell = np.exp(spec.field("log_ell")) * np.ones(d)  # one entry stands for every input
        assert ell.shape == (d,)
        if fam == "frbf":
            assert np.all(ell == ell[0])  # one shared lengthscale
        for j in range(1 if fam == "frbf" else d):
            out[("log_ell", None, j)] = ell[j]
        for q in range(spec.Q if fam in ("fsard", "fsgbard") else 0):
            slots = [("s_mult", spec.field("s_mult", q))]
            if fam == "fsgbard":
                slots += [("g", spec.field("g", q)), ("b", spec.field("b", q))]
            for kind, values in slots:
                assert values.shape == (spec.m_realized,)
                out.update({(kind, q, k): v for k, v in enumerate(values)})
        return out
    weights = spec.group_weights()
    for q in range(spec.Q):
        out[("log_v", q, None)] = weights[q]
        if fam == "gm":
            comp = spec.component(q)
            assert comp.weight == weights[q]
            out.update({("mu", q, j): comp.mu[j] for j in range(d)})
            out.update({("log_sd", q, j): comp.sigma_diag[j] for j in range(d)})
        else:
            out.update({("log_ell", q, j): v for j, v in enumerate(np.exp(spec.field("log_ell", q)))})
            hat = spec.hat(q)
            out[("hat_mu", q, None)] = hat.mu
            out[("hat_sigma", q, None)] = hat.sigma
    return out


def layout_specs():
    specs = list(spec_zoo().values())
    for fam in ft.FAMILIES:
        specs.append(ft.KernelSpec.template(fam, 5, 1 if fam in ("frbf", "fard") else 2, 12))
    return specs


@pytest.mark.parametrize("spec", layout_specs(), ids=lambda s: f"{s.family}-d{s.d_in}")
def test_param_info_names_the_accessor_each_entry_moves(spec):
    delta = 0.25
    before = natural_params(spec)
    infos = [ft.param_info(spec, i) for i in range(spec.n_params)]
    assert sorted(infos, key=repr) == sorted(before, key=repr)  # one entry per value
    for i, info in enumerate(infos):
        params = spec.params.copy()
        params[i] += delta
        after = natural_params(spec.with_params(params))
        changed = [key for key in before if after[key] != before[key]]
        assert changed == [info], (spec.family, i)
        kind = info[0]
        if kind in ("s_mult", "g", "b", "mu"):
            assert after[info] == pytest.approx(before[info] + delta)
        else:
            assert after[info] == pytest.approx(before[info] * np.exp(delta))
    weights = [(i, q) for i, (kind, q, _) in enumerate(infos) if kind in ("log_a", "log_v")]
    assert spec.weight_param_info() == weights
    for bad in (spec.n_params, -1):
        with pytest.raises(DomainError):
            ft.param_info(spec, bad)


def test_accessors_return_what_the_constructors_were_given():
    zoo = spec_zoo()
    assert zoo["frbf"].amplitude == pytest.approx(0.9)
    np.testing.assert_allclose(np.exp(zoo["frbf"].field("log_ell")), 1.3)
    for fam in ("fard", "fsard", "fsgbard"):
        assert zoo[fam].amplitude == pytest.approx(1.2)
        np.testing.assert_allclose(np.exp(zoo[fam].field("log_ell")), [0.7, 1.1, 2.3])
    s = 0.1 * np.random.default_rng(42).standard_normal(2 * zoo["fsard"].m_realized)
    np.testing.assert_array_equal(np.concatenate([zoo["fsard"].field("s_mult", q) for q in (0, 1)]), s)
    stacks0 = ft.build_stacks(ft.KernelSpec.template("fsgbard", 3, 2, 4), 17)
    for q, stack in enumerate(stacks0):
        assert not np.any(zoo["fsgbard"].field("s_mult", q))
        np.testing.assert_array_equal(zoo["fsgbard"].field("g", q), stack.g_diag)
        np.testing.assert_array_equal(zoo["fsgbard"].field("b", q), stack.b_diag)
    comp = zoo["gm"].component(1)
    np.testing.assert_array_equal(comp.mu, [2.0, 0.1])
    np.testing.assert_allclose(comp.sigma_diag, [0.3, 1.4])
    assert comp.weight == pytest.approx(0.5)
    pwl = zoo["pwl"]
    np.testing.assert_allclose(pwl.group_weights(), [0.8, 0.5])
    np.testing.assert_allclose(np.exp(pwl.field("log_ell", 1)), [0.6, 2.0])
    assert (pwl.hat(1).mu, pwl.hat(1).sigma) == pytest.approx((1.1, 0.5))


def fd_jacobian(spec, stacks, X, i, h=1e-6):
    up = spec.params.copy()
    dn = spec.params.copy()
    up[i] += h
    dn[i] -= h
    a = ft.compute_features(spec.with_params(up), stacks, X).data
    b = ft.compute_features(spec.with_params(dn), stacks, X).data
    return (a - b) / (2 * h)


@pytest.mark.parametrize("family", ft.FAMILIES)
def test_feature_jacobian_matches_fd(family):
    spec = spec_zoo()[family]
    stacks = ft.build_stacks(spec, 9)
    X = np.random.default_rng(2).standard_normal((6, spec.d_in))
    for i in range(spec.n_params):
        J = feature_jacobian(spec, stacks, X, i)
        J_fd = fd_jacobian(spec, stacks, X, i)
        scale = max(1e-8, np.abs(J_fd).max())
        assert np.abs(J - J_fd).max() < 2e-6 * max(1.0, scale), (family, i)


@pytest.mark.parametrize(
    "family, Q",
    [(family, None) for family in ft.FAMILIES] + [("frbf", 2), ("fard", 2)],
    ids=list(ft.FAMILIES) + ["frbf-Q2", "fard-Q2"],
)
def test_feature_param_gradients_contract_jacobian(family, Q):
    # <M, dPhi/dtheta_i> for every i at once must match the explicit jacobians;
    # Q=2 sums the shared lengthscales' contractions over two groups
    spec = spec_zoo()[family]
    if Q is not None:
        spec = ft.KernelSpec.template(family, 3, Q, 4)
        spec = spec.with_params(spec.params + 0.2 * np.random.default_rng(5).standard_normal(spec.n_params))
    stacks = ft.build_stacks(spec, 13)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, spec.d_in))
    phi = ft.compute_features(spec, stacks, X)
    M = rng.standard_normal(phi.data.shape)
    scratch = np.empty((spec.m_realized, X.shape[0]), order="F")
    got = ft.feature_param_gradients(spec, stacks, X, M.copy(), phi, scratch=scratch)
    want = np.array([
        np.sum(M * feature_jacobian(spec, stacks, X, i)) for i in range(spec.n_params)
    ])
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


def test_g_and_b_gradients_match_the_oracle_at_large_d():
    # d_in=1000 pads to 1024: two blocks, and b entries 1000..1023 of each
    # block scale padded (zero) inputs, so their gradient is exactly 0
    stacks = ft.build_stacks(ft.KernelSpec.template("fsgbard", 1000, 1, 2048), 6)
    spec = ft.KernelSpec.fsgbard_from_stacks(1000, 1, 2048, np.full(1000, 30.0), stacks)
    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 1000))
    phi = ft.compute_features(spec, stacks, X)
    M = rng.standard_normal(phi.data.shape)
    scratch = np.empty((spec.m_realized, X.shape[0]), order="F")
    got = ft.feature_param_gradients(spec, stacks, X, M.copy(), phi, scratch=scratch)
    index = spec.with_params(np.arange(spec.n_params, dtype=float)).field  # packed positions
    coords = [("g", 3), ("g", 1024 + 700), ("b", 5), ("b", 1024 + 999), ("b", 1010), ("b", 1024 + 1023)]
    for kind, k in coords:
        i = int(index(kind, 0)[k])
        want = np.sum(M * feature_jacobian(spec, stacks, X, i))
        assert np.isclose(got[i], want, rtol=1e-9, atol=1e-9), (kind, k)
        if kind == "b" and k % 1024 >= 1000:
            assert got[i] == 0.0 and want == 0.0


def test_validation_errors():
    with pytest.raises(DomainError):
        ft.KernelSpec.frbf(3, 4, lengthscale=-1.0)
    with pytest.raises(DomainError):
        ft.KernelSpec.fard(3, 4, np.array([1.0, -2.0, 1.0]))
    with pytest.raises(DomainError):
        ft.KernelSpec.fsard(3, 2, 4, np.array([1.0, 0.0, 1.0]))
    stacks = ft.build_stacks(ft.KernelSpec.template("fsgbard", 3, 1, 4), seed=0)
    with pytest.raises(DomainError):
        ft.KernelSpec.fsgbard_from_stacks(3, 1, 4, np.ones(3), stacks, amplitude=0.0)
    with pytest.raises(DimensionError):  # a field given the wrong number of values
        ft.KernelSpec.gm(3, 4, [GmComponent(mu=np.zeros(2), sigma_diag=np.ones(2), weight=1.0)])
    with pytest.raises(DomainError):
        ft.KernelSpec("nope", 3, 1, 4, np.zeros(3))
    with pytest.raises(DomainError):  # not a KeyError from the layout table
        ft.feature_rows("nope", 1, 4)
    with pytest.raises(DimensionError):
        ft.KernelSpec("frbf", 3, 1, 4, np.zeros(7))


LOG_FIELDS = [
    (family, kind, q)
    for family, (shared, per_group) in ft._LAYOUTS.items()
    for fields, q in ((shared, None), (per_group, 0))
    for kind, _ in fields
    if kind in ft._LOG_KINDS
]


@pytest.mark.parametrize("family,kind,q", LOG_FIELDS, ids=lambda v: str(v))
def test_filled_checks_and_logs_every_log_stored_field(family, kind, q):
    size = ft.KernelSpec.template(family, 3, 1, 4).field(kind, q).size
    spec = ft.KernelSpec._filled(family, 3, 1, 4, [(kind, q, np.full(size, 2.0))])
    np.testing.assert_array_equal(spec.field(kind, q), np.log(np.full(size, 2.0)))
    for bad in (0.0, -1.0):
        values = np.ones(size)
        values[-1] = bad
        with pytest.raises(DomainError, match=f"^{family} {kind} needs positive values"):
            ft.KernelSpec._filled(family, 3, 1, 4, [(kind, q, values)])
    with pytest.raises(DimensionError, match=f"{family} {kind} needs {size} values"):
        ft.KernelSpec._filled(family, 3, 1, 4, [(kind, q, np.ones(size + 1))])


def natural_arguments():
    """Name -> build(value): one constructor with one natural argument set to value."""
    stacks = ft.build_stacks(ft.KernelSpec.template("fsgbard", 3, 1, 4), seed=0)
    ard = {
        "fard": lambda ell, a: ft.KernelSpec.fard(3, 4, ell, a),
        "fsard": lambda ell, a: ft.KernelSpec.fsard(3, 1, 4, ell, a),
        "fsgbard": lambda ell, a: ft.KernelSpec.fsgbard_from_stacks(3, 1, 4, ell, stacks, a),
    }

    def gm(weight=0.9, sd=0.5):
        component = GmComponent(np.array([0.4, -1.0]), np.array([0.8, sd]), weight)
        return ft.KernelSpec.gm(2, 4, [component])

    def pwl(weight=0.8, ell=1.6, mu=0.4, sigma=1.2):
        # HatSpectrum refuses a width <= 0 itself; pwl reads only mu and sigma
        hat = SimpleNamespace(mu=mu, sigma=sigma)
        return ft.KernelSpec.pwl(2, 4, [(weight, np.array([1.0, ell]), hat)])

    builds = {
        "frbf lengthscale": lambda v: ft.KernelSpec.frbf(3, 4, lengthscale=v),
        "frbf amplitude": lambda v: ft.KernelSpec.frbf(3, 4, amplitude=v),
        "gm weight": lambda v: gm(weight=v),
        "gm sigma_diag": lambda v: gm(sd=v),
        "pwl weight": lambda v: pwl(weight=v),
        "pwl lengthscale": lambda v: pwl(ell=v),
        "pwl hat mu": lambda v: pwl(mu=v),
        "pwl hat sigma": lambda v: pwl(sigma=v),
    }
    for family, make in ard.items():
        builds[f"{family} lengthscale"] = lambda v, make=make: make(np.array([0.7, v, 2.3]), 1.2)
        builds[f"{family} amplitude"] = lambda v, make=make: make(np.array([0.7, 1.1, 2.3]), v)
    return builds


@pytest.mark.parametrize("name", sorted(natural_arguments()))
def test_constructors_reject_non_positive_natural_values(name):
    build = natural_arguments()[name]
    build(1.0)
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            build(bad)
