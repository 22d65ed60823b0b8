"""Moving-basis spectral machinery: geometry, overlaps, coefficients, moments."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hypothesis as hyp
import hypothesis.strategies as st

from qtrap import quad, spectral
from qtrap.quad import integrate
from qtrap.special import DomainError, NumericError, bessel_j, bessel_j_prime
from qtrap.spectral import (
    TrapGeometry,
    TruncationError,
    b_coeffs,
    b_coeffs_direct,
    coeffs_from_eigenstate,
    coeffs_from_initial,
    energy_ratio,
    energy_ratio_paths,
    expectation,
    matrix_element,
    moment_tables,
    overlap_I,
    uncertainties,
)


def _zeros(m, count):
    return spectral._zeros_cached(m, count)


# --------------------------------------------------------------------------
# Geometry

def test_geometry_basics():
    geom = TrapGeometry(a=2.0, u=0.5, hbar=1.0, mu=1.0)
    assert geom.L(0.0) == 2.0
    assert geom.xi(4.0) == 2.0
    assert geom.alpha == pytest.approx(2.0 * 0.5 / 2.0)
    e = geom.energy(0, 1)
    x01 = _zeros(0, 1)[0][0]
    assert_allclose(e, x01 ** 2 / (2.0 * 4.0), rtol=1e-14)


def test_geometry_from_alpha_round_trip():
    geom = TrapGeometry.from_alpha(1.7)
    assert_allclose(geom.alpha, 1.7, rtol=1e-15)
    geom_c = TrapGeometry.from_alpha(-0.3)
    assert geom_c.u < 0


def test_geometry_domain_errors():
    with pytest.raises(DomainError):
        TrapGeometry(a=-1.0)
    with pytest.raises(DomainError):
        TrapGeometry(a=1.0, u=1.0).xi(-0.5)
    contracting = TrapGeometry(a=1.0, u=-1.0)
    with pytest.raises(DomainError):
        contracting.xi(0.999)  # wall collapsed
    expanding = TrapGeometry(a=1.0, u=1.0)
    for bad in (math.nan, math.inf, np.array([0.1, math.nan])):
        with pytest.raises(DomainError, match="finite"):
            expanding.xi(bad)
    with pytest.raises(DomainError, match="finite"):
        expanding.L(math.inf)
    with pytest.raises(DomainError, match="finite"):
        expanding.tau(math.nan)
    # a denormal wall speed reaches xi = 2 only at t = inf
    crawling = TrapGeometry.from_alpha(5e-324)
    with pytest.raises(DomainError, match="finite"):
        crawling.tau(1.0 / crawling.u)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["a", "u", "hbar", "mu"])
def test_geometry_rejects_non_finite_units(name, value):
    # NaN fails every comparison: only a test that NaN fails rejects it
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        TrapGeometry(**{name: value})
    with pytest.raises(DomainError, match="^alpha must be finite"):
        TrapGeometry.from_alpha(value)


@pytest.mark.parametrize("n", [-1, 0])
def test_energy_rejects_non_positive_radial_index(n):
    # n = -1 used to slice the zero table to x_{0,58}, n = 0 to an empty one
    with pytest.raises(DomainError, match=f"radial index n = {n}"):
        TrapGeometry().energy(0, n)


def test_geometry_accepts_time_arrays():
    geom = TrapGeometry(a=1.0, u=-1.0)
    assert type(geom.xi(0.5)) is float
    assert type(geom.L(0.5)) is float
    assert type(geom.tau(0.5)) is float
    ts = np.array([0.0, 0.25, 0.5])
    assert_allclose(geom.xi(ts), [geom.xi(t) for t in ts], rtol=0, atol=0)
    assert_allclose(geom.tau(ts), [geom.tau(t) for t in ts], rtol=0, atol=0)
    with pytest.raises(DomainError, match="nonnegative"):
        geom.xi(np.array([0.1, -0.2, 0.3]))
    with pytest.raises(DomainError, match="compressed"):
        geom.xi(np.array([0.1, 0.99, 0.3]))


def test_tau_closed_form():
    # hbar t / (2 mu a^2 xi) equals (1 - 1/xi)/(4 alpha) for a moving wall
    geom = TrapGeometry(a=1.3, u=0.7, hbar=1.0, mu=2.0)
    for t in (0.0, 0.4, 2.0):
        xi_t = geom.xi(t)
        lhs = geom.tau(t)
        rhs = (1.0 - 1.0 / xi_t) / (4.0 * geom.alpha) if t else 0.0
        assert_allclose(lhs, rhs, atol=1e-15)


# --------------------------------------------------------------------------
# Overlap integrals

def test_overlap_reduces_to_orthogonality():
    geom = TrapGeometry()
    zeros, absj = _zeros(0, 3)
    for i in range(1, 4):
        for j in range(1, 4):
            val = overlap_I(0, i, j, 0.0, 0.0, geom)
            want = absj[i - 1] ** 2 / 2.0 if i == j else 0.0
            assert abs(val - want) < 1e-12


def test_overlap_conjugation_and_symmetry():
    geom = TrapGeometry.from_alpha(0.9)
    t = 0.6
    a = overlap_I(1, 2, 4, t, 0.9, geom)
    b = overlap_I(1, 4, 2, t, 0.9, geom)
    c = overlap_I(1, 2, 4, t, -0.9, geom)
    assert_allclose(a, b, rtol=1e-12)
    assert_allclose(c, np.conj(a), rtol=1e-12)


def test_overlap_matrix_consistent_with_scalar():
    geom = TrapGeometry.from_alpha(1.4)
    t = 0.5
    mat = spectral._i_matrix(2, geom.xi(t), geom.alpha, 6)
    for (i, j) in ((0, 0), (1, 4), (3, 2)):
        val = overlap_I(2, i + 1, j + 1, t, geom.alpha, geom)
        assert abs(mat[i, j] - val) < 1e-11


def _spy_integrate(monkeypatch):
    """Record every adaptive `integrate` call made from the spectral module."""
    calls = []
    real = spectral.integrate

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "integrate", spy)
    return calls


_PROBES = ((0, 0), (0, 59), (17, 42), (30, 31), (59, 59))


def test_tabulated_overlap_matches_adaptive(monkeypatch):
    geom = TrapGeometry.from_alpha(2.3)
    t = 0.4
    calls = _spy_integrate(monkeypatch)
    mat = spectral._i_matrix(0, geom.xi(t), geom.alpha, 60)
    assert calls == []  # served by the grid, no adaptive quadrature
    for i, j in _PROBES:
        assert abs(mat[i, j] - overlap_I(0, i + 1, j + 1, t, geom.alpha, geom)) < 1e-11


def test_overlap_beyond_grid_falls_back_to_adaptive(monkeypatch):
    geom = TrapGeometry.from_alpha(250.0)
    t = 0.6 / geom.u  # xi = 1.6, wall phase 400
    x_max = _zeros(0, 60)[0][-1]
    panels = spectral._bessel_grid(0, 60).s.shape[0]
    assert abs(geom.alpha) * geom.xi(t) + 2.0 * x_max > math.pi * panels
    calls = _spy_integrate(monkeypatch)
    mat = spectral._i_matrix(0, geom.xi(t), geom.alpha, 60)
    assert len(calls) == 1
    for i, j in _PROBES:
        assert abs(mat[i, j] - overlap_I(0, i + 1, j + 1, t, geom.alpha, geom)) < 1e-11


def test_overlap_falls_back_when_grid_estimate_misses(monkeypatch):
    # a zero target cannot be met by any error estimate
    geom = TrapGeometry.from_alpha(1.1)
    on_grid = spectral._i_matrix(1, 1.5, geom.alpha, 8)
    monkeypatch.setattr(spectral, "ABS_TOL", 0.0)
    monkeypatch.setattr(spectral, "REL_TOL", 0.0)
    calls = _spy_integrate(monkeypatch)
    adaptive = spectral._i_matrix(1, 1.5, geom.alpha, 8)
    assert len(calls) == 1
    assert np.max(np.abs(adaptive - on_grid)) < 1e-11


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_overlap_rejects_non_finite_alpha(alpha):
    with pytest.raises(DomainError, match="^alpha must be finite"):
        overlap_I(0, 1, 2, 0.0, alpha, TrapGeometry())


def test_osc_panels_refuses_phase_past_budget(monkeypatch):
    # the limit scales with the panel budget, read at call time
    assert spectral._osc_panels(-1e5) == 2048
    with pytest.raises(NumericError, match=r"total phase 1\.001e\+05 rad .*PANEL_BUDGET = 20000"):
        spectral._osc_panels(1.001e5)
    with pytest.raises(NumericError):
        spectral._osc_panels(math.nan)
    monkeypatch.setattr(quad, "PANEL_BUDGET", 40000)
    assert spectral._osc_panels(1.5e5) == 2048


@hyp.settings(max_examples=10, deadline=None)
@hyp.given(st.floats(min_value=-1.2, max_value=3.0))
def test_overlap_conjugation_property(alpha):
    # contraction stays shy of wall collapse at t = 0.1 in this alpha range
    geom = TrapGeometry.from_alpha(alpha if alpha else 0.5)
    val = overlap_I(0, 1, 2, 0.1, geom.alpha, geom)
    flipped = overlap_I(0, 1, 2, 0.1, -geom.alpha, geom)
    assert abs(flipped - np.conj(val)) < 1e-11


# --------------------------------------------------------------------------
# Coefficients

def test_eigenstate_coeffs_near_static_limit():
    geom = TrapGeometry.from_alpha(1e-6)
    state = coeffs_from_eigenstate(0, 2, geom, n_max=30)
    want = np.zeros(30)
    want[1] = 1.0
    assert np.max(np.abs(np.abs(state.coeffs) - want)) < 1e-5
    assert state.norm_deficit < 1e-12


def test_truncation_guard_raises():
    x02 = _zeros(0, 2)[0][1]
    geom = TrapGeometry.from_alpha(10.0 * x02 / 2.0)
    with pytest.raises(TruncationError) as exc_info:
        coeffs_from_eigenstate(0, 2, geom, n_max=4)
    assert exc_info.value.deficit > 1e-4


def test_initial_projection_matches_eigenstate_route():
    m, n = 1, 2
    zeros, absj = _zeros(m, n)
    x = zeros[n - 1]
    geom = TrapGeometry.from_alpha(2.0)

    def psi0(rho):
        # radial profile, unit norm against the rho drho measure
        return math.sqrt(2.0) / absj[n - 1] * bessel_j(m, x * rho)

    direct = coeffs_from_initial(psi0, m, geom, n_max=30)
    via_mode = coeffs_from_eigenstate(m, n, geom, n_max=30)
    assert np.max(np.abs(direct.coeffs - via_mode.coeffs)) < 1e-9


def test_initial_projection_rejects_unnormalized():
    geom = TrapGeometry.from_alpha(1.0)
    with pytest.raises(DomainError):
        coeffs_from_initial(lambda rho: 0.5 * np.exp(-rho), 0, geom)


def test_static_trap_coefficients_only_rotate():
    geom = TrapGeometry()  # u = 0
    state = coeffs_from_eigenstate(0, 1, geom, n_max=10)
    t = 0.8
    b = b_coeffs(state, t, geom)
    zeros, _ = _zeros(0, 10)
    expected = state.coeffs * np.exp(-1j * zeros ** 2 * t / 2.0)
    assert np.max(np.abs(b - expected)) < 1e-12


def test_two_path_coefficients_agree():
    x01 = _zeros(0, 1)[0][0]
    geom = TrapGeometry.from_alpha(2.0 * x01 / 2.0)
    state = coeffs_from_eigenstate(0, 1, geom, n_max=40)
    t = 0.5 / geom.u  # xi = 1.5
    series = b_coeffs(state, t, geom)
    direct = b_coeffs_direct(state, t, geom)
    assert np.max(np.abs(series - direct)) < 1e-8


def test_dropping_moving_phase_is_detected():
    x01 = _zeros(0, 1)[0][0]
    geom = TrapGeometry.from_alpha(2.0 * x01 / 2.0)
    state = coeffs_from_eigenstate(0, 1, geom, n_max=40)
    t = 0.5 / geom.u
    series = b_coeffs(state, t, geom)
    broken = b_coeffs_direct(state, t, geom, drop_moving_phase=True)
    assert np.max(np.abs(series - broken)) > 1e-3


def test_unitarity_fast_expansion():
    x01 = _zeros(0, 1)[0][0]
    geom = TrapGeometry.from_alpha(5.0 * x01 / 2.0)
    state = coeffs_from_eigenstate(0, 1, geom)
    for xi_t in (1.5, 2.0, 3.0):
        t = (xi_t - 1.0) / geom.u
        b = b_coeffs(state, t, geom)
        assert abs(np.sum(np.abs(b) ** 2) - 1.0) < 1e-6


def _norm_gap(m, n, ratio, xi_t, n_max=60):
    """sum |b|^2 - 1 at xi_t for the eigenstate (m, n) at the given alpha-ratio."""
    geom = TrapGeometry.from_alpha(ratio * 0.5 * _zeros(m, n)[0][n - 1])
    b = b_coeffs(coeffs_from_eigenstate(m, n, geom, n_max), (xi_t - 1.0) / geom.u, geom)
    return float(np.sum(np.abs(b) ** 2)) - 1.0


@hyp.settings(max_examples=25, deadline=None)
@hyp.given(st.sampled_from([(0, 1), (0, 2), (1, 1)]),
           st.floats(min_value=0.01, max_value=5.0), st.booleans(), st.data())
def test_unitarity_property(mode, speed, expand, data):
    # criterion 2's modes, wall speeds and target sides, drawn off its grid
    ratio = speed if expand else -speed
    xi_t = data.draw(st.floats(min_value=1.2, max_value=3.0) if expand
                     else st.floats(min_value=0.5, max_value=0.9))
    gap = _norm_gap(*mode, ratio, xi_t)
    assert gap <= 1e-6  # a truncated basis can only lose norm
    if gap < -1e-6:
        # the n_max = 60 shortfall of test_unitarity_fast_contraction_truncates;
        # it must be truncation, so a larger basis closes it
        assert abs(_norm_gap(*mode, ratio, xi_t, n_max=90)) <= 1e-6


@pytest.mark.xfail(strict=True, reason="n_max = 60 truncates the populations")
def test_unitarity_fast_contraction_truncates():
    # (0, 2) contracting at alpha-ratio -5 to xi = 0.825 misses 2.8e-6 of the
    # norm at the default basis size (3.4e-7 at n_max = 90)
    assert abs(_norm_gap(0, 2, -5.0, 0.825)) <= 1e-6


def test_state_geometry_mismatch_rejected():
    state = coeffs_from_eigenstate(0, 1, TrapGeometry.from_alpha(1.0), n_max=10)
    other = TrapGeometry.from_alpha(2.0)
    with pytest.raises(DomainError):
        b_coeffs(state, 0.1, other)


# --------------------------------------------------------------------------
# Dressed modes

@pytest.mark.parametrize("m", [0, 5])
@pytest.mark.parametrize("drop", [False, True])
def test_modes_match_single_mode_formula(m, drop):
    geom = TrapGeometry.from_alpha(-0.7)
    t, n_max = 0.3, 8
    sigma = np.linspace(0.0, 0.98, 13)
    got = spectral.modes(m, sigma, t, geom, n_max, drop_moving_phase=drop)
    assert got.shape == (sigma.size, n_max)
    zeros, absj = _zeros(m, n_max)
    L, xi_t, tau = geom.L(t), geom.xi(t), geom.tau(t)
    for n in (1, 4, n_max):
        # the mode written out term by term, one column at a time
        x = zeros[n - 1]
        arg = -x * x * tau
        if not drop:
            arg = arg + geom.alpha * xi_t * sigma * sigma
        want = np.exp(1j * arg) * (math.sqrt(2.0) / (L * absj[n - 1])) * bessel_j(m, x * sigma)
        # phases up to ~100 rad are summed in another order: last digits differ
        assert_allclose(got[:, n - 1], want, rtol=1e-12, atol=1e-13)


def test_drop_moving_phase_changes_phase_not_modulus():
    geom = TrapGeometry.from_alpha(2.0)
    t = 0.2
    sigma = np.array([0.5 / geom.L(t)])
    full = spectral.modes(0, sigma, t, geom, 1)[0, 0]
    bare = spectral.modes(0, sigma, t, geom, 1, drop_moving_phase=True)[0, 0]
    assert abs(abs(full) - abs(bare)) < 1e-14
    assert abs(full - bare) > 1e-3


def test_modes_one_time_per_point_matches_scalar_calls():
    geom = TrapGeometry.from_alpha(1.3)
    sigma = np.array([0.1, 0.45, 0.45, 0.9])
    ts = np.array([0.0, 0.2, 0.7, 1.5])
    got = spectral.modes(2, sigma, ts, geom, 10)
    for i, (s, t) in enumerate(zip(sigma, ts)):
        row = spectral.modes(2, np.array([s]), t, geom, 10)[0]
        assert_allclose(got[i], row, rtol=1e-14, atol=1e-15)


@hyp.settings(max_examples=8, deadline=None)
@hyp.given(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=12),
           st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=0.3, max_value=3.0))
def test_modes_orthonormal(m, n_max, alpha, xi_t):
    # the wall reaches xi_t at some finite t > 0
    hyp.assume(abs(alpha) >= 0.01 and alpha * (xi_t - 1.0) > 0.0)
    geom = TrapGeometry.from_alpha(alpha)
    t = (xi_t - 1.0) / geom.u
    L = geom.L(t)

    def f(s):
        md = spectral.modes(m, s, t, geom, n_max)
        return (L * L * s)[:, None, None] * np.conj(md)[:, :, None] * md[:, None, :]

    x_hi = float(_zeros(m, n_max)[0][-1])
    gram = integrate(f, 0.0, 1.0, initial_panels=spectral._osc_panels(2.0 * x_hi)).value
    assert np.max(np.abs(gram - np.eye(n_max))) < 1e-10


# --------------------------------------------------------------------------
# Moment tables

@pytest.mark.parametrize("m", [0, 1, 4])
def test_moment_table_identities(m):
    tab = moment_tables(m, 12)
    zeros, absj = _zeros(m, 12)
    d = np.arange(12)
    b0_diag = tab.B0[d, d]
    if m == 0:
        assert np.max(np.abs(b0_diag + 0.5)) < 1e-11
        assert np.all(np.isnan(tab.Aneg1))
    else:
        assert np.max(np.abs(b0_diag)) < 1e-11
    assert np.max(np.abs(tab.A1[d, d] + tab.B2[d, d])) < 1e-11
    assert np.max(np.abs(tab.A3 - tab.A3.T)) < 1e-13
    # A1 orthonormality
    assert np.max(np.abs(tab.A1 - np.diag(absj ** 2 / 2.0))) < 1e-11


@pytest.mark.parametrize("m", [1, 2, 5])
def test_inverse_moment_elementary_form(m):
    # int_0^1 J_m(x s)^2 / s ds = (1 - J_0^2 - 2 sum_{k<m} J_k^2) / (2m) at a zero
    tab = moment_tables(m, 6)
    zeros, _ = _zeros(m, 6)
    for i, x in enumerate(zeros):
        elem = 1.0 - bessel_j(0, x) ** 2
        for k in range(1, m):
            elem -= 2.0 * bessel_j(k, x) ** 2
        elem /= 2.0 * m
        assert_allclose(tab.Aneg1[i, i], elem, rtol=1e-11)


@pytest.mark.parametrize("m", [0, 1, 3])
def test_gradient_moment_elementary_form(m):
    tab = moment_tables(m, 6)
    zeros, _ = _zeros(m, 6)
    for i, x in enumerate(zeros):
        grad = tab.B0[i, i] + tab.C1[i, i]
        if m == 0:
            elem = -x ** 2 * bessel_j(1, x) ** 2 / 2.0
        else:
            aneg = tab.Aneg1[i, i]
            elem = -x ** 2 * bessel_j(m - 1, x) ** 2 / 2.0 + m ** 2 * aneg
        assert_allclose(grad, elem, rtol=1e-10)


def test_kinetic_diag_closed_form():
    # the radial Dirichlet form m^2 A^{-1} - B0 - C1 of the quadrature tables
    # is x^2 J_{m+1}(x)^2 / 2 on the diagonal, as the zero-only block says
    for m in (0, 2):
        tab = moment_tables(m, 8)
        zeros, absj = _zeros(m, 8)
        _, _, _, kinetic = spectral._zero_blocks(m, 8)
        msq_aneg1 = 0.0 if m == 0 else m * m * tab.Aneg1
        ref = np.diag(msq_aneg1 - tab.B0 - tab.C1)
        assert_allclose(np.diag(kinetic) * absj ** 2, ref, rtol=1e-10)
        assert_allclose(np.diag(kinetic), zeros ** 2 / 2.0, rtol=1e-15)


def test_gradient_moment_against_direct_quadrature():
    from qtrap.quad import integrate
    m, n = 2, 3
    tab = moment_tables(m, n)
    zeros, _ = _zeros(m, n)
    x = zeros[n - 1]

    def f(s):
        return s * (x * bessel_j_prime(m, x * s)) ** 2

    ref = -integrate(f, 0.0, 1.0, initial_panels=16).value
    assert_allclose(tab.B0[n - 1, n - 1] + tab.C1[n - 1, n - 1], ref, rtol=1e-11)


_MOMENTS = (("A3", 3, 0), ("A1", 1, 0), ("Aneg1", -1, 0), ("B0", 0, 1), ("B2", 2, 1))


def _adaptive_moment(m, n_max, k, derivatives):
    """int s^k g_i g_j ds, with g'_j on the right for one derivative and
    g'_i g'_j for two, by adaptive quadrature from the adaptive route's
    initial layout."""
    from qtrap.quad import integrate
    zeros, _ = _zeros(m, n_max)

    def f(s):
        sx = s[:, None] * zeros[None, :]
        j = bessel_j(m, sx)
        jp = zeros[None, :] * bessel_j_prime(m, sx) if derivatives else j
        left = jp if derivatives == 2 else j
        return (s ** k)[:, None, None] * left[:, :, None] * jp[:, None, :]

    panels = spectral._osc_panels(2.0 * zeros[-1])
    return integrate(f, 0.0, 1.0, initial_panels=panels).value


@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_fixed_rule_moment_tables_match_adaptive(m, cold_memo, monkeypatch):
    calls = _spy_integrate(monkeypatch)
    tab = moment_tables(m, 60)
    assert calls == []  # every table met its target on the fixed rule
    ref = {}
    for name, k, derivatives in _MOMENTS:
        if m == 0 and name == "Aneg1":
            continue  # divergent at m = 0, stored as NaN
        ref[name] = _adaptive_moment(m, 60, k, derivatives)
        assert np.max(np.abs(getattr(tab, name) - ref[name])) < 1e-12, name
    # C1 by parts: -B0 - int s g'_i g'_j
    grad = _adaptive_moment(m, 60, 1, 2)
    c1_ref = -ref["B0"] - grad
    assert np.max(np.abs(tab.C1 - c1_ref)) < 1e-12 * np.max(np.abs(c1_ref))
    # the zero-only blocks, undone from their |J_{m+1}| normalisation; the
    # kinetic reference is the Dirichlet form int s g'_i g'_j + m^2 A^{-1}
    _, absj = _zeros(m, 60)
    jj = np.outer(absj, absj)
    a1, a3, b2, kinetic = spectral._zero_blocks(m, 60)
    for name, block in (("A1", a1), ("A3", a3), ("B2", b2)):
        assert np.max(np.abs(block * jj - ref[name])) < 1e-12, name
    k_ref = grad + (m * m * ref["Aneg1"] if m else 0.0)
    assert np.max(np.abs(kinetic * jj - k_ref)) < 1e-12 * np.max(np.abs(k_ref))


def test_bessel_sign_alternates_at_zeros():
    # the zero-only blocks take sign J_{m+1}(x_mn) = (-1)^(n+1) as given
    n = np.arange(1, 61)
    for m in range(21):
        zeros, _ = _zeros(m, 60)
        values = bessel_j(m + 1, zeros)
        assert np.array_equal(np.sign(values), (-1.0) ** (n + 1)), m


def test_moment_tables_fall_back_when_estimate_misses(cold_memo, monkeypatch):
    # a zero target cannot be met by any error estimate
    on_rule = moment_tables(1, 8)
    spectral._moment_tables.cache_clear()
    monkeypatch.setattr(spectral, "ABS_TOL", 0.0)
    monkeypatch.setattr(spectral, "REL_TOL", 0.0)
    calls = _spy_integrate(monkeypatch)
    adaptive = moment_tables(1, 8)
    assert len(calls) == len(_MOMENTS) + 1  # one per quadrature, int s g' g' included
    for name in ("A3", "A1", "Aneg1", "B0", "B2", "C1"):
        assert np.max(np.abs(getattr(adaptive, name) - getattr(on_rule, name))) < 1e-12, name


def test_moment_tables_do_not_read_overlap_grid(cold_memo, monkeypatch):
    # the quadrature reference must not share the overlap route's nodes
    def refuse(*args):
        raise AssertionError("moment tables read the overlap grid")

    monkeypatch.setattr(spectral, "_bessel_grid", refuse)
    tab = moment_tables(0, 20)
    assert tab.n_max == 20
    assert np.all(np.isfinite(tab.A3))


def test_moment_tables_default_size_is_one_entry():
    assert moment_tables(0) is moment_tables(0, 60)


# --------------------------------------------------------------------------
# Expectation values

def test_first_moments_vanish():
    geom = TrapGeometry.from_alpha(1.1)
    state = coeffs_from_eigenstate(0, 1, geom, n_max=20)
    assert expectation("q0", state, 0.3, geom) == 0.0
    assert expectation("p0", state, 0.3, geom) == 0.0


def test_operator_paths_read_no_quadrature(monkeypatch):
    # the operator matrices and route 2 come from the zeros alone; only
    # energy_ratio_paths' route 1 still integrates, on the overlap grid
    geom = TrapGeometry.from_alpha(0.8)
    state = coeffs_from_eigenstate(1, 2, geom, n_max=30)
    t = 0.5 / geom.u  # xi = 1.5
    # route 2 on the quadrature tables, as it was formed before
    tab = moment_tables(1, 2)
    a3, kinetic = tab.A3[1, 1], (tab.Aneg1 - tab.B0 - tab.C1)[1, 1]
    drift = 4.0 * geom.alpha ** 2 * a3
    closed_ref = (drift + kinetic / geom.xi(t) ** 2) / (drift + kinetic)

    def refuse(*args, **kwargs):
        raise AssertionError("an operator path reached quadrature")

    monkeypatch.setattr(spectral, "moment_tables", refuse)
    assert_allclose(energy_ratio_paths(1, 2, t, geom)[1], closed_ref, rtol=1e-13)
    monkeypatch.setattr(spectral, "integrate", refuse)
    monkeypatch.setattr(spectral, "bessel_j", refuse)
    dq, dp, prod = uncertainties(1, 2, t, geom)
    assert prod > 0.5 and dq * dp == prod
    static = TrapGeometry()
    h = matrix_element("H", 1, 2, 2, 0.0, static)
    assert_allclose(h.real, static.energy(1, 2), rtol=1e-14)
    assert expectation("q0sq", state, t, geom) > 0.0


def test_uncertainties_validate_tables_argument():
    geom = TrapGeometry()
    tab = moment_tables(1, 4)
    assert uncertainties(1, 4, 0.0, geom, tab) == uncertainties(1, 4, 0.0, geom)
    with pytest.raises(DomainError):
        uncertainties(2, 1, 0.0, geom, tab)   # tables for another m
    with pytest.raises(DomainError):
        uncertainties(1, 5, 0.0, geom, tab)   # n beyond the tables
    with pytest.raises(DomainError):
        uncertainties(1, 0, 0.0, geom)


def test_h_reproduces_static_energies():
    geom = TrapGeometry()
    for (m, n) in ((0, 1), (1, 3), (3, 2)):
        h = matrix_element("H", m, n, n, 0.0, geom)
        assert_allclose(h.real, geom.energy(m, n), rtol=1e-10)
        assert abs(h.imag) < 1e-14


def test_invalid_operator_kind():
    geom = TrapGeometry()
    with pytest.raises(DomainError):
        matrix_element("qp", 0, 1, 1, 0.0, geom)
    with pytest.raises(DomainError):
        matrix_element("H", 0, 0, 1, 0.0, geom)


def test_energy_expectation_matches_level_populations():
    # c^dag H c must equal the population-weighted instantaneous energies
    x01 = _zeros(0, 1)[0][0]
    geom = TrapGeometry.from_alpha(5.0 * x01 / 2.0)
    state = coeffs_from_eigenstate(0, 1, geom)
    t = 2.0 / geom.u  # xi = 3
    h = expectation("H", state, t, geom)
    b = b_coeffs(state, t, geom)
    zeros, _ = _zeros(0, state.n_max)
    levels = zeros ** 2 / (2.0 * geom.L(t) ** 2)
    pops = np.sum(np.abs(b) ** 2 * levels)
    assert_allclose(h, pops, rtol=1e-4)


# --------------------------------------------------------------------------
# Uncertainties and energy ratio

def test_position_spread_scales_exactly_with_wall():
    geom = TrapGeometry.from_alpha(0.9)
    dq0, _, _ = uncertainties(0, 1, 0.0, geom)
    for xi_t in (1.3, 2.0, 4.2):
        t = (xi_t - 1.0) / geom.u
        dq, _, _ = uncertainties(0, 1, t, geom)
        assert_allclose(dq / dq0, xi_t, rtol=1e-12)


def test_stationary_uncertainty_product():
    geom = TrapGeometry()
    dq, dp, prod = uncertainties(0, 1, 0.0, geom)
    assert_allclose(prod, dq * dp, rtol=1e-15)
    # frozen value for the ground mode with the azimuth-inclusive convention
    assert_allclose(prod / (0.5 * geom.hbar), 7.055829630410952, rtol=1e-10)


def test_uncertainty_product_above_floor():
    geom = TrapGeometry.from_alpha(-0.6)
    for (m, n) in ((0, 1), (2, 2), (5, 4)):
        for xi_t in (1.0, 0.5, 0.2):
            t = (xi_t - 1.0) / geom.u
            _, _, prod = uncertainties(m, n, t, geom)
            assert prod > 0.5 * geom.hbar


def test_energy_ratio_two_routes():
    x01 = _zeros(0, 1)[0][0]
    geom = TrapGeometry.from_alpha(x01 / 2.0)
    t = 1.0 / geom.u  # xi = 2
    isum, closed = energy_ratio_paths(0, 1, t, geom)
    assert abs(isum - closed) < 1e-6
    # frozen closed-route value
    assert_allclose(closed, 0.38426507660859827, rtol=1e-9)
    assert_allclose(energy_ratio(0, 1, t, geom), closed, rtol=1e-6)


def test_energy_ratio_static_is_one():
    geom = TrapGeometry.from_alpha(0.5 * _zeros(0, 1)[0][0])
    isum, closed = energy_ratio_paths(0, 1, 0.0, geom)
    assert_allclose(isum, 1.0, atol=1e-12)
    assert_allclose(closed, 1.0, atol=1e-15)
