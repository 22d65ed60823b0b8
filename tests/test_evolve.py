"""Wavefunctions, density traces, the two-time kernel and the PDE residual."""

import math
import tracemalloc

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose

from qtrap import evolve, spectral
from qtrap.evolve import (
    FlightTimes,
    density_profile,
    density_timeseries,
    long_time_radial,
    pde_residual,
    propagate_through_kernel,
    propagator,
    psi_exact,
    psi_general,
    visibility,
)
from qtrap.quad import integrate
from qtrap.special import DomainError, NumericError, bessel_j
from qtrap.spectral import TrapGeometry, coeffs_from_eigenstate


def _x(m, n):
    zeros, _ = spectral._zeros_cached(m, n)
    return float(zeros[n - 1])


# --------------------------------------------------------------------------
# Exact modes

@pytest.mark.parametrize("m,n,t", [(0, 1, 0.0), (1, 2, 0.35), (3, 1, 0.8)])
def test_mode_normalization(m, n, t):
    geom = TrapGeometry.from_alpha(0.8)
    L = geom.L(t)

    def f(rho):
        return np.abs(psi_exact(m, n, rho, 0.0, t, geom)) ** 2 * rho

    norm = 2.0 * math.pi * integrate(f, 0.0, L, radians=2.0 * _x(m, n)).value
    assert_allclose(norm, 1.0, rtol=1e-10)


def test_mode_vanishes_at_and_past_wall():
    geom = TrapGeometry.from_alpha(1.0)
    t = 0.25
    L = geom.L(t)
    assert psi_exact(0, 1, L, 0.3, t, geom) == 0.0
    assert psi_exact(0, 1, 2.0 * L, 0.3, t, geom) == 0.0


def test_mode_broadcast_and_scalar(monkeypatch):
    geom = TrapGeometry()
    val = psi_exact(2, 1, 0.4, 1.1, 0.0, geom)
    assert isinstance(val, complex)
    calls = []
    real = evolve._radial_wave

    def spy(state, sigma, *rest):
        calls.append(np.shape(sigma))
        return real(state, sigma, *rest)

    monkeypatch.setattr(evolve, "_radial_wave", spy)
    rho, phi = np.linspace(0, 0.9, 5), np.linspace(0.0, 2.0, 3)
    arr = psi_exact(2, 1, rho[:, None], phi[None, :], 0.0, geom)
    assert arr.shape == (5, 3)
    assert calls == [(5,)]  # the radial factor once per radius, not per angle
    # the same points pre-broadcast to (5, 3) give the same values
    flat = psi_exact(2, 1, *np.broadcast_arrays(rho[:, None], phi[None, :]), 0.0, geom)
    for part in (np.real, np.imag):
        np.testing.assert_array_max_ulp(part(arr), part(flat), maxulp=2)
    assert psi_exact(2, 1, 0.4, phi, 0.0, geom).shape == (3,)
    assert psi_exact(2, 1, rho, 1.1, 0.0, geom).shape == (5,)
    assert psi_exact(2, 1, rho, np.linspace(0.0, 2.0, 5), 0.0, geom).shape == (5,)
    with pytest.raises(DomainError):
        psi_exact(0, 1, -0.1, 0.0, 0.0, geom)
    with pytest.raises(DomainError, match="rho"):
        psi_exact(0, 1, math.nan, 0.0, 0.1, TrapGeometry.from_alpha(1.0))
    with pytest.raises(DomainError, match="phi"):
        psi_exact(0, 1, 0.5, math.inf, 0.0, geom)
    assert psi_exact(0, 1, math.inf, 0.0, 0.0, geom) == 0j


def test_azimuthal_dependence():
    geom = TrapGeometry()
    a = psi_exact(3, 1, 0.5, 0.0, 0.0, geom)
    b = psi_exact(3, 1, 0.5, math.pi / 3.0, 0.0, geom)
    assert_allclose(b, a * np.exp(1j * math.pi), rtol=1e-12)


def test_general_state_matches_mode_in_static_trap():
    geom = TrapGeometry()
    state = coeffs_from_eigenstate(1, 2, geom, n_max=12)
    rho = np.linspace(0.05, 0.95, 9)
    for t in (0.0, 0.6):
        got = psi_general(state, rho, 0.4, t, geom)
        want = psi_exact(1, 2, rho, 0.4, t, geom)
        assert np.max(np.abs(got - want)) < 1e-10


def test_general_state_rejects_other_geometry():
    state = coeffs_from_eigenstate(0, 1, TrapGeometry.from_alpha(1.2))
    with pytest.raises(DomainError):
        psi_general(state, 0.5, 0.0, 0.1, TrapGeometry.from_alpha(3.0))


def test_general_state_reproduces_initial_wave():
    # at t = 0 the coefficient sum must rebuild the undressed eigenmode
    m, n = 0, 2
    x = _x(m, n)
    geom = TrapGeometry.from_alpha(x / 2.0)
    state = coeffs_from_eigenstate(m, n, geom)
    zeros, absj = spectral._zeros_cached(m, n)
    rho = np.linspace(0.02, 0.97, 11)
    got = psi_general(state, rho, 0.0, 0.0, geom)
    want = math.sqrt(2.0) / absj[n - 1] * bessel_j(m, x * rho) / math.sqrt(2 * math.pi)
    # residual is pure truncation of the dressed-basis sum, worst near the wall
    assert np.max(np.abs(got - want)) < 1e-4


# --------------------------------------------------------------------------
# Kernel

def test_propagator_time_reversal_symmetry():
    geom = TrapGeometry.from_alpha(1.1)
    r, rp = (0.5, 0.3), (0.62, 1.7)
    fwd = propagator([0, 1, 2], r, 0.7, rp, 0.2, geom, n_max=40)
    bwd = propagator([0, 1, 2], rp, 0.2, r, 0.7, geom, n_max=40)
    assert abs(fwd - np.conj(bwd)) < 1e-10


def test_propagator_outside_wall_is_zero():
    geom = TrapGeometry.from_alpha(1.0)
    assert propagator([0], (1.5, 0.0), 0.0, (0.5, 0.0), 0.0, geom) == 0.0


@pytest.mark.parametrize("rho", [math.nan, -0.2, math.inf])
def test_kernels_reject_nan_and_negative_rho(rho):
    # +inf lies past the wall and gives zero; NaN and rho < 0 are errors
    geom = TrapGeometry.from_alpha(1.2)

    def src(rho_p, phi_p):
        return psi_exact(0, 1, rho_p, phi_p, 0.0, geom)

    reads = [lambda: propagator([0, 1], (rho, 0.3), 0.2, (0.5, 0.0), 0.1, geom, n_max=20),
             lambda: propagator([0, 1], (0.5, 0.3), 0.2, (rho, 0.0), 0.1, geom, n_max=20),
             lambda: propagate_through_kernel([0], (rho, 0.3), 0.2, src, 0.0, geom, n_max=20),
             lambda: psi_exact(0, 1, rho, 0.3, 0.2, geom)]
    for read in reads:
        if math.isinf(rho):
            assert read() == 0.0
        else:
            with pytest.raises(DomainError):
                read()


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_kernels_reject_non_finite_phi(phi):
    geom = TrapGeometry.from_alpha(1.2)

    def src(rho_p, phi_p):
        return psi_exact(0, 1, rho_p, phi_p, 0.0, geom)

    reads = [lambda: propagator([0, 1], (0.5, phi), 0.2, (0.5, 0.0), 0.1, geom, n_max=20),
             lambda: propagator([0, 1], (0.5, 0.3), 0.2, (0.4, phi), 0.1, geom, n_max=20),
             lambda: propagate_through_kernel([0, 1], (0.5, phi), 0.2, src, 0.0, geom, n_max=20)]
    for read in reads:
        with pytest.raises(DomainError, match="phi"):
            read()


def test_kernel_checks_rho_before_projecting(monkeypatch):
    geom = TrapGeometry.from_alpha(1.2)
    calls = []
    real = spectral._gram

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "_gram", spy)

    def src(rho_p, phi_p):
        return psi_exact(0, 1, rho_p, phi_p, 0.0, geom)

    with pytest.raises(DomainError, match="rho"):
        propagate_through_kernel([0], (math.nan, 0.3), 0.2, src, 0.0, geom, n_max=20)
    assert calls == []
    # +inf passes the check, and the point past the wall reads zero
    assert propagate_through_kernel([0], (math.inf, 0.3), 0.2, src, 0.0, geom, n_max=20) == 0.0
    assert len(calls) == 1


def test_kernel_rejects_non_finite_source():
    # a NaN wave gives a NaN error estimate on the angular rule, which quad's
    # target refuses instead of returning NaN
    geom = TrapGeometry.from_alpha(1.2)

    def src(rho_p, phi_p):
        return np.full(np.broadcast(rho_p, phi_p).shape, complex(math.nan, 0.0))

    with pytest.raises(NumericError):
        propagate_through_kernel([0], (0.5, 0.3), 0.2, src, 0.0, geom, n_max=20)


def test_propagator_rejects_negative_m():
    geom = TrapGeometry()
    with pytest.raises(DomainError):
        propagator([0, -1], (0.3, 0.0), 0.1, (0.2, 0.0), 0.0, geom)


@pytest.mark.parametrize("m_list", [[1, 1], []])
def test_propagator_rejects_repeated_or_empty_m_list(m_list):
    geom = TrapGeometry.from_alpha(1.2)
    with pytest.raises(DomainError):
        propagator(m_list, (0.3, 0.0), 0.1, (0.2, 0.0), 0.0, geom)


@pytest.mark.parametrize("m_list", [[1, 1], []])
def test_kernel_rejects_repeated_or_empty_m_list(m_list):
    geom = TrapGeometry.from_alpha(1.2)

    def src(rho, phi):
        return psi_exact(1, 1, rho, phi, 0.0, geom)

    with pytest.raises(DomainError):
        propagate_through_kernel(m_list, (0.5, 0.1), 0.3, src, 0.0, geom)


def test_kernel_advances_exact_mode():
    geom = TrapGeometry.from_alpha(1.2)
    t_src, t_dst = 0.0, 0.4
    target = (0.55, 1.3)

    def src(rho, phi):
        return psi_exact(0, 1, rho, phi, t_src, geom)

    via_kernel = propagate_through_kernel([0], target, t_dst, src, t_src, geom)
    direct = psi_exact(0, 1, target[0], target[1], t_dst, geom)
    assert abs(via_kernel - direct) < 1e-8


def test_kernel_resolves_high_angular_index():
    # the angular rule starts on 2m + 2 = 66 angles at m = 32: 64 would alias
    # the frequency 2m onto the constant term and double the result
    geom = TrapGeometry.from_alpha(1.2)
    t_src, t_dst = 0.1, 0.4
    target = (0.85 * geom.L(t_dst), 0.0)  # near the peak of the n = 1 mode

    def src(rho, phi):
        return psi_exact(32, 1, rho, phi, t_src, geom)

    via_kernel = propagate_through_kernel([32], target, t_dst, src, t_src, geom, n_max=20)
    direct = psi_exact(32, 1, target[0], target[1], t_dst, geom)
    assert abs(direct) > 0.1
    assert abs(via_kernel - direct) < 1e-10


def _angle_spy(src):
    """`src` and the list of angle counts each call of it is sampled on."""
    counts = []

    def spy(rho, phi):
        counts.append(np.shape(phi)[-1])
        return src(rho, phi)

    return spy, counts


def test_kernel_angular_rule_climbs_past_an_alias():
    # m_list [0] starts on 8 angles, where the m = 16 component aliases onto
    # m = 0; so it does on 16, and a check of 16 angles against 8 would pass
    # the wrong answer.  The turned angles see the alias: the rule climbs to
    # 32 angles, which resolve it, and drops the m = 16 part
    geom = TrapGeometry.from_alpha(1.2)
    t_src, t_dst = 0.1, 0.4
    target = (0.55, 1.3)
    src, counts = _angle_spy(lambda rho, phi: psi_exact(0, 1, rho, phi, t_src, geom)
                             + psi_exact(16, 1, rho, phi, t_src, geom))
    via_kernel = propagate_through_kernel([0], target, t_dst, src, t_src, geom)
    assert abs(via_kernel - psi_exact(0, 1, target[0], target[1], t_dst, geom)) < 1e-10
    # each call samples n angles and n turned: 8, 16 and 32 of each
    assert counts == [16, 32, 64]


def test_kernel_angular_rule_stops_at_its_cap():
    # a component at frequency 256 aliases onto m = 0 at every level up to
    # 4 * 64 = 256 angles; past that the rule refuses instead of doubling on
    geom = TrapGeometry.from_alpha(1.2)
    src, counts = _angle_spy(lambda rho, phi: psi_exact(0, 1, rho, phi, 0.1, geom)
                             * (1.0 + np.exp(256j * phi)))
    with pytest.raises(NumericError, match="angular rule missed its target at 256 angles"):
        propagate_through_kernel([0], (0.55, 1.3), 0.4, src, 0.1, geom)
    assert counts == [16, 32, 64, 128, 256, 512]


def test_kernel_sums_angular_indices():
    geom = TrapGeometry.from_alpha(1.2)
    t_src, t_dst = 0.1, 0.4
    target = (0.6, 0.9)

    def wave(rho, phi, t):
        return (psi_exact(0, 1, rho, phi, t, geom)
                + psi_exact(2, 1, rho, phi, t, geom)) / math.sqrt(2.0)

    def src(rho, phi):
        return wave(rho, phi, t_src)

    via_kernel = propagate_through_kernel([0, 2], target, t_dst, src, t_src, geom, n_max=30)
    direct = wave(target[0], target[1], t_dst)
    assert abs(via_kernel - direct) < 1e-10
    # the m = 2 part is not carried by the m = 0 kernel alone
    only_m0 = propagate_through_kernel([0], target, t_dst, src, t_src, geom, n_max=30)
    assert abs(only_m0 - direct) > 1e-2


@hyp.settings(max_examples=20, deadline=None)
@hyp.given(m=st.integers(0, 5), alpha=st.floats(-3.0, 3.0),
           times=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3, unique=True),
           r_frac=st.tuples(st.floats(0.05, 0.95), st.floats(0.0, 2.0 * math.pi)),
           r0_frac=st.tuples(st.floats(0.05, 0.95), st.floats(0.0, 2.0 * math.pi)))
def test_kernel_semigroup(m, alpha, times, r_frac, r0_frac):
    # int K(t2, t1) K(t1, t0) = K(t2, t0), with times up to where a
    # contraction would reach XI_MIN
    geom = TrapGeometry.from_alpha(alpha)
    t_end = 1.0 if alpha >= 0.0 else min(1.0, 0.9 * (1.0 - spectral.XI_MIN) / (-2.0 * alpha))
    t0, t1, t2 = sorted(t_end * f for f in times)
    r = (r_frac[0] * geom.L(t2), r_frac[1])
    rho0, phi0 = r0_frac[0] * geom.L(t0), r0_frac[1]
    k0 = np.conj(spectral.modes(m, [rho0 / geom.L(t0)], t0, geom, 20)[0])

    def src(rho_p, phi_p):
        # K(rho', phi', t1; r0, t0) on a column of radii and a row of angles
        rad = spectral.modes(m, np.ravel(rho_p) / geom.L(t1), t1, geom, 20) @ k0
        ang = (1.0 if m == 0 else 2.0) * np.cos(m * (phi_p - phi0))
        return rad[:, None] * ang / (2.0 * math.pi)

    via_kernel = propagate_through_kernel([m], r, t2, src, t1, geom, n_max=20)
    direct = propagator([m], r, t2, (rho0, phi0), t0, geom, n_max=20)
    assert abs(via_kernel - direct) <= 1e-10 * max(1.0, abs(direct))


def _spy(monkeypatch, name):
    """Replace the spectral and evolve bindings of `name` by a wrapper;
    returns the list of the positional arguments of each call."""
    seen = []
    real = getattr(spectral, name)

    def spy(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    for module in (spectral, evolve):
        monkeypatch.setattr(module, name, spy)
    return seen


@pytest.mark.parametrize("m", [0, 5])
def test_kernel_projects_on_overlap_rule(m, monkeypatch):
    # an exact-mode source is resolved on the tabulated rule, with no
    # integrate call, and on the angular rule's first level: max(8, 2m + 2)
    # angles are exact for its frequencies 0 and 2m, so no radius is sampled
    # on more than twice that
    geom = TrapGeometry.from_alpha(-0.5 * _x(m, 1))
    t = -0.5 / geom.u  # xi = 0.5
    target = (0.4 * geom.L(t), 0.7)
    src, counts = _angle_spy(lambda rho, phi: psi_exact(m, 1, rho, phi, 0.0, geom))
    integrals = _spy(monkeypatch, "integrate")
    via_kernel = propagate_through_kernel([m], target, t, src, 0.0, geom)
    assert integrals == []
    assert abs(via_kernel - psi_exact(m, 1, target[0], target[1], t, geom)) < 1e-10
    assert counts and max(counts) <= 2 * max(8, 2 * m + 2)


def test_kernel_read_bessel_points(monkeypatch):
    # a warm read at (m, n, alpha-ratio) = (5, 1, -1) evaluates the source on
    # the rule's nodes and the modes at one point: about 3.8k Bessel points,
    # against 59.5k node by node under adaptive quadrature
    geom = TrapGeometry.from_alpha(-0.5 * _x(5, 1))
    t = -0.4 / geom.u

    def src(rho, phi):
        return psi_exact(5, 1, rho, phi, 0.0, geom)

    def read():
        return propagate_through_kernel([5], (0.3, 1.1), t, src, 0.0, geom)

    read()
    calls = _spy(monkeypatch, "bessel_j")
    read()
    assert 0 < sum(np.size(x) for _, x in calls) < 10_000


def test_kernel_falls_back_past_rule_headroom(monkeypatch):
    # a wall phase |alpha| xi(t') past what the largest tabulated level
    # resolves with 2 x_max takes the projection on a bare level, the source
    # sampled slice by slice: no table, no integrate call, same kernel
    geom = TrapGeometry.from_alpha(500.0)
    t0, t1, t2 = 0.0, 0.002, 0.004
    x_max = spectral._zeros_cached(0, 20)[0][-1]
    assert spectral._rule_nodes(abs(geom.alpha) * geom.xi(t1) + 2.0 * x_max) > spectral._RULE_NODES_MAX
    rho0, phi0 = 0.3, 0.4
    k0 = np.conj(spectral.modes(0, [rho0], t0, geom, 20)[0])

    def src(rho_p, phi_p):
        rad = spectral.modes(0, np.ravel(rho_p) / geom.L(t1), t1, geom, 20) @ k0
        return rad[:, None] * np.ones_like(phi_p) / (2.0 * math.pi)

    r = (0.5 * geom.L(t2), 1.0)

    def refuse(*key):
        raise AssertionError(f"the kernel read the tabulated level {key}")

    integrals = _spy(monkeypatch, "integrate")
    monkeypatch.setattr(spectral, "_bessel_grid", refuse)
    via_kernel = propagate_through_kernel([0], r, t2, src, t1, geom, n_max=20)
    assert integrals == []
    direct = propagator([0], r, t2, (rho0, phi0), t0, geom, n_max=20)
    assert abs(via_kernel - direct) <= 1e-10 * max(1.0, abs(direct))


def test_kernel_memory():
    # verify's kernel check: a 60-mode source at m = 0, sampled in one call
    # per read on all 1023 nodes of the rule x 16 angles, 8 of them turned;
    # the source's 1023 x 60 mode block sets the traced peak (3.8 MB, as it
    # did on 64 angles)
    geom = TrapGeometry.from_alpha(1.2)
    state = coeffs_from_eigenstate(0, 1, geom)
    radii = []

    def src(rho_p, phi_p):
        radii.append(np.shape(rho_p)[0])
        return psi_general(state, rho_p, phi_p, 0.2, geom)

    def read():
        return propagate_through_kernel([0], (0.7, 0.3), 0.55, src, 0.2, geom)

    read()
    tracemalloc.start()
    try:
        read()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
    assert radii == [1023, 1023]


# --------------------------------------------------------------------------
# Equation residual

def test_residual_converges_quadratically():
    geom = TrapGeometry.from_alpha(1.3)
    r1 = pde_residual(0, 1, geom, 48)
    r2 = pde_residual(0, 1, geom, 96)
    assert 3.0 < r1 / r2 < 5.0


def test_residual_evaluates_each_stencil_point_once(monkeypatch):
    # five stencil points: rho at t and t +- ht, rho +- h at t
    geom = TrapGeometry.from_alpha(1.3)
    expected = pde_residual(0, 1, geom, 32)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return spectral.modes(*args, **kwargs)

    monkeypatch.setattr(evolve, "modes", spy)
    assert pde_residual(0, 1, geom, 32) == expected
    assert len(calls) == 5


def test_residual_contraction_and_static():
    contracting = TrapGeometry.from_alpha(-0.9)
    assert pde_residual(0, 1, contracting, 40) < 1e-2
    static = TrapGeometry()
    r1 = pde_residual(2, 2, static, 80)
    r2 = pde_residual(2, 2, static, 160)
    assert 3.0 < r1 / r2 < 5.0


# --------------------------------------------------------------------------
# Density diagnostics

def test_density_profile_layout():
    samples = density_profile(0, 1, 1.0, 2.0, grid_size=50)
    assert len(samples) == 50
    x = _x(0, 1)
    assert_allclose(samples[-1].eta, 2.0 * x / (2.0 * math.pi), rtol=1e-12)
    assert samples[-1].rho_density == 0.0
    assert samples[0].rho_density == 0.0  # eta = 0 axis point
    assert all(s.rho_density >= 0.0 for s in samples)


def test_density_profile_static_is_eigen_density():
    samples = density_profile(0, 2, 0.0, 1.0, grid_size=64)
    x = _x(0, 2)
    lam = 2.0 * math.pi / x
    zeros, absj = spectral._zeros_cached(0, 2)
    for s in samples[:-1]:
        sig = s.eta * lam
        want = lam ** 2 * s.eta * (2.0 / absj[1] ** 2) * bessel_j(0, x * sig) ** 2
        assert abs(s.rho_density - want) < 1e-8


def test_density_profile_bad_targets():
    with pytest.raises(DomainError):
        density_profile(0, 1, 1.0, 0.5)   # expansion cannot shrink the box
    with pytest.raises(DomainError):
        density_profile(0, 1, 0.0, 2.0)   # static wall never reaches xi = 2
    with pytest.raises(DomainError):
        density_profile(0, 1, 1.0, 2.0, grid_size=1)


def test_density_profile_integrates_to_one():
    samples = density_profile(1, 1, 2.0, 1.8, grid_size=600)
    eta = np.array([s.eta for s in samples])
    d = np.array([s.rho_density for s in samples])
    assert_allclose(np.trapezoid(d, eta), 1.0, rtol=1e-5)


def test_timeseries_flight_times_and_quiet_zone():
    m, n = 0, 6
    x = _x(m, n)
    eta_obs = x / math.pi        # rho_0 = 2 a
    samples, flight = density_timeseries(m, n, 1.0, eta_obs, 6.0, steps=400)
    assert_allclose(flight.T1, x / (4.0 * math.pi), rtol=1e-12)
    assert_allclose(flight.T2, 3.0 * x / (4.0 * math.pi), rtol=1e-12)
    for s in samples:
        if s.T < flight.T1:
            assert s.rho_density == 0.0
    assert max(s.rho_density for s in samples) > 0.0


@pytest.mark.parametrize("m,n,r", [(0, 6, 0.5), (0, 6, 0.9), (0, 6, 2.0), (2, 3, 2.0)])
def test_timeseries_zero_until_the_wall_arrives(m, n, r):
    # the wall, L = a + r x t, reaches rho_0 = 2a at t = 1/(r x), that is at
    # T = x/(4 pi r): the density is exactly zero before and nonzero after
    x = _x(m, n)
    arrival = x / (4.0 * math.pi * r)
    # no sample lands within rounding of the arrival (it falls at 137.6 steps)
    samples, _ = density_timeseries(m, n, r, x / math.pi, 2.9 * arrival, steps=400)
    before = [s.rho_density for s in samples if s.T < arrival]
    after = [s.rho_density for s in samples if s.T > arrival]
    assert len(before) > 100 and len(after) > 100
    assert all(d == 0.0 for d in before)
    assert all(d > 0.0 for d in after)


def test_timeseries_rejects_bad_geometry():
    x = _x(0, 1)
    with pytest.raises(DomainError):
        density_timeseries(0, 1, -1.0, x / math.pi, 4.0)
    with pytest.raises(DomainError):
        density_timeseries(0, 1, 1.0, 0.2 * x / (2.0 * math.pi), 4.0)


def test_visibility_counts_fringes():
    m, n = 0, 6
    x = _x(m, n)
    samples, flight = density_timeseries(m, n, 1.0, x / math.pi, 6.0, steps=800)
    v = visibility(samples, flight)
    assert 0.05 < v < 0.2


def test_visibility_of_flat_series_is_zero():
    flight = FlightTimes(T1=0.1, T2=0.9)
    flat = [evolve.RadialDensitySample(eta=1.0, T=t, rho_density=1.0)
            for t in np.linspace(0.0, 1.0, 50)]
    assert visibility(flat, flight) == 0.0


@pytest.mark.parametrize("size", [0, 1, 2])
def test_visibility_of_short_series_is_zero(size):
    flight = FlightTimes(T1=0.0, T2=1.0)
    short = [evolve.RadialDensitySample(eta=1.0, T=t, rho_density=t)
             for t in np.linspace(0.2, 0.8, size)]
    assert visibility(short, flight) == 0.0


def test_long_time_envelope_bounds_amplitude():
    geom = TrapGeometry.from_alpha(3.0)
    t, rho_obs = 40.0, 2.0
    env = long_time_radial(0, 1, 3.0, rho_obs, t)
    actual = abs(psi_exact(0, 1, rho_obs, 0.0, t, geom)) * math.sqrt(2.0 * math.pi)
    assert 0.0 < actual <= env
    assert env < 10.0 * actual  # same order, not a vacuous bound


@pytest.mark.parametrize("n", [-1, 0, 61])
def test_long_time_envelope_rejects_bad_n(n):
    with pytest.raises(DomainError, match="need 1 <= n <= n_max"):
        long_time_radial(0, n, 3.0, 2.0, 40.0, n_max=60)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["alpha", "t"])
def test_long_time_envelope_rejects_non_finite(name, value):
    args = {"alpha": 3.0, "t": 40.0, name: value}
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        long_time_radial(0, 1, args["alpha"], 2.0, args["t"])


_TYPED_ERRORS = {
    # id: (call, fragment of the DomainError's message)
    "psi-exact-n-0": (lambda: psi_exact(0, 0, 0.5, 0.0, 0.0, TrapGeometry()),
                      "radial index must be >= 1"),
    "timeseries-one-step": (lambda: density_timeseries(0, 1, 1.0, 1.0, 3.0, steps=1),
                            "steps must be >= 2"),
    "residual-grid-3": (lambda: pde_residual(0, 1, TrapGeometry(), 3), "grid must be >= 4"),
    "envelope-static-wall": (lambda: long_time_radial(0, 1, 0.0, 0.1, 10.0), "expanding wall"),
    "envelope-contracting-wall": (lambda: long_time_radial(0, 1, -0.5, 0.1, 1.0),
                                  "expanding wall"),
    "envelope-wall-not-past": (lambda: long_time_radial(0, 1, 1.0, 2.0, 1.0), "too early"),
}


@pytest.mark.parametrize("case", list(_TYPED_ERRORS))
def test_typed_errors(case):
    call, fragment = _TYPED_ERRORS[case]
    with pytest.raises(DomainError, match=fragment):
        call()
