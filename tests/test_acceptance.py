"""End-to-end acceptance battery.

Each criterion prints a single PASS/FAIL line with its measured figures
before asserting, so `pytest -s tests/test_acceptance.py` reads as a
checklist.  Criteria with a stated wall-clock budget time themselves.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from qtrap import evolve, oracle, quad, spectral
from qtrap.evolve import (
    density_profile,
    density_timeseries,
    pde_residual,
    propagate_through_kernel,
    psi_exact,
    visibility,
)
from qtrap.quad import integrate
from qtrap.special import bessel_j, bessel_j_prime, bessel_zeros
from qtrap.spectral import TrapGeometry


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {name}: {detail}")


def _x(m, n):
    zeros, _ = spectral._zeros_cached(m, n)
    return float(zeros[n - 1])


# --------------------------------------------------------------------------
# 1. Zero table and basis orthogonality

def test_criterion_01_zeros_and_orthogonality():
    t0 = time.perf_counter()
    pinned = [(0, 1, 2.404825558), (1, 1, 3.831705970), (0, 2, 5.520078110)]
    zero_err = max(abs(bessel_zeros(m, n).zeros[n - 1] - want)
                   for m, n, want in pinned)

    worst = 0.0
    for m in range(6):
        x = np.array(bessel_zeros(m, 10).zeros)
        j2 = np.array([bessel_j(m + 1, z) for z in x]) ** 2

        def f(s, m=m, x=x):
            s = np.asarray(s)
            J = bessel_j(m, s[:, None] * x[None, :])
            return s[:, None, None] * J[:, :, None] * J[:, None, :]

        gram = integrate(f, 0.0, 1.0, radians=2.0 * x[-1]).value
        worst = max(worst, float(np.max(np.abs(gram - np.diag(j2 / 2.0)))))
    elapsed = time.perf_counter() - t0

    ok = zero_err < 1e-9 and worst < 1e-10 and elapsed < 10.0
    _report(1, "zeros/orthogonality", ok,
            f"zero error {zero_err:.3g} (<1e-9), gram deviation {worst:.3g} "
            f"(<1e-10), {elapsed:.2f}s (<10s)")
    assert ok


# --------------------------------------------------------------------------
# 2 + 3. Unitarity and two-path agreement share one sweep

SWEEP_MODES = ((0, 1), (0, 2), (1, 1))
SWEEP_RATIOS = (-1.0, -0.01, 0.01, 1.0, 5.0)
XI_EXPAND = (1.2, 1.6, 2.0, 2.5, 3.0)
XI_CONTRACT = (0.9, 0.8, 0.7, 0.6, 0.5)


@pytest.fixture(scope="module")
def coefficient_sweep():
    t0 = time.perf_counter()
    worst_norm = 0.0
    worst_agree = 0.0
    for m, n in SWEEP_MODES:
        x = _x(m, n)
        for ratio in SWEEP_RATIOS:
            geom = TrapGeometry.from_alpha(ratio * 0.5 * x)
            state = spectral.coeffs_from_eigenstate(m, n, geom)
            for xi in (XI_EXPAND if ratio > 0 else XI_CONTRACT):
                t = (xi - 1.0) / geom.u
                b1 = spectral.b_coeffs(state, t, geom)
                b2 = spectral.b_coeffs_direct(state, t, geom)
                worst_norm = max(worst_norm,
                                 abs(float(np.sum(np.abs(b1) ** 2)) - 1.0))
                worst_agree = max(worst_agree, float(np.max(np.abs(b1 - b2))))
    return worst_norm, worst_agree, time.perf_counter() - t0


def test_criterion_02_unitarity(coefficient_sweep):
    worst_norm, _, elapsed = coefficient_sweep
    ok = worst_norm < 1e-6 and elapsed < 60.0
    _report(2, "unitarity", ok,
            f"worst |sum|b|^2 - 1| = {worst_norm:.3g} (<1e-6) over "
            f"{len(SWEEP_MODES) * len(SWEEP_RATIOS) * len(XI_EXPAND)} cells, "
            f"{elapsed:.1f}s (<60s)")
    assert ok


def test_criterion_03_two_path_coefficients(coefficient_sweep):
    _, worst_agree, _ = coefficient_sweep
    ok = worst_agree < 1e-8
    _report(3, "two-path b", ok,
            f"worst |b_matrix - b_direct| = {worst_agree:.3g} (<1e-8)")
    assert ok


def test_criterion_02_corners_need_no_refinement(monkeypatch):
    # at the ends of each sweep range, and beyond it at xi = 0.1 and for the
    # state (50, 1) at the (0, 1) cells' wall speeds (its own mode scale
    # truncates at alpha-ratio 5), the direct route takes the first pair of
    # Gauss-Legendre orders sized from its phase, climbs no rung and never
    # calls integrate; b_coeffs and an m = 5 kernel read stay on the overlap
    # rule
    calls, orders = [], []
    real_integrate, real_gauss = spectral.integrate, quad.gauss_legendre

    def spy(f, a, b, radians=0.0):
        calls.append(radians)
        return real_integrate(f, a, b, radians=radians)

    def gauss_spy(nodes):
        orders.append(nodes)
        return real_gauss(nodes)

    monkeypatch.setattr(spectral, "integrate", spy)
    monkeypatch.setattr(quad, "gauss_legendre", gauss_spy)
    x5 = _x(5, 1)
    cells = [(m, n, _x(m, n)) for m, n in SWEEP_MODES] + [(50, 1, _x(0, 1))]
    for ratio in SWEEP_RATIOS:
        xis = (XI_EXPAND[0], XI_EXPAND[-1]) if ratio > 0 else (XI_CONTRACT[0], XI_CONTRACT[-1], 0.1)
        for xi in xis:
            for m, n, x in cells:
                geom = TrapGeometry.from_alpha(ratio * 0.5 * x)
                state = spectral.coeffs_from_eigenstate(m, n, geom)
                t = (xi - 1.0) / geom.u
                calls.clear()
                spectral.b_coeffs(state, t, geom)
                assert calls == [], (m, n, ratio, xi)
                orders.clear()
                spectral.b_coeffs_direct(state, t, geom)
                x_max = spectral._zeros_cached(m, state.n_max)[0][-1]
                panels, first = next(quad._direct_rungs(abs(geom.alpha) * xi, 2.0 * x_max))
                assert calls == [] and panels == 1, (m, n, ratio, xi, calls, panels)
                assert orders == [first, first + 32], (m, n, ratio, xi, orders)

            geom = TrapGeometry.from_alpha(ratio * 0.5 * x5)
            t = (xi - 1.0) / geom.u
            r = (0.5 * geom.L(t), 1.1)
            calls.clear()
            via_kernel = propagate_through_kernel(
                [5], r, t, lambda rho, phi: psi_exact(5, 1, rho, phi, t, geom), t, geom)
            assert calls == [], (ratio, xi)
            assert abs(via_kernel - psi_exact(5, 1, r[0], r[1], t, geom)) < 1e-10


# --------------------------------------------------------------------------
# 4. The exact mode satisfies the equation of motion to O(h^2)

def test_criterion_04_pde_residual_order():
    geom = TrapGeometry.from_alpha(1.3)
    r1 = pde_residual(0, 1, geom, 48)
    r2 = pde_residual(0, 1, geom, 96)
    ratio = r1 / r2
    ok = abs(ratio - 4.0) <= 0.8
    _report(4, "residual order", ok,
            f"refinement ratio {ratio:.3f} (4 +- 0.8), residuals "
            f"{r1:.3g} -> {r2:.3g}")
    assert ok


# --------------------------------------------------------------------------
# 5. Spread scaling and the uncertainty floor

def test_criterion_05_uncertainty_scaling():
    worst_scale = 0.0
    min_product = math.inf
    for m in (0, 2, 5):
        for n in (1, 7, 20):
            for xi in (0.1, 0.5, 2.0, 5.0):
                geom = TrapGeometry.from_alpha(1.0 if xi > 1 else -1.0)
                t = (xi - 1.0) / geom.u
                dq0, _, _ = spectral.uncertainties(m, n, 0.0, geom)
                dq, _, prod = spectral.uncertainties(m, n, t, geom)
                worst_scale = max(worst_scale, abs(dq / dq0 - xi))
                min_product = min(min_product, prod)

    static = TrapGeometry()
    _, _, prod0 = spectral.uncertainties(0, 1, 0.7, static)
    factor = prod0 / (0.5 * static.hbar)

    ok = worst_scale < 1e-10 and min_product >= 0.5 and factor > 1.0
    _report(5, "uncertainty scaling", ok,
            f"worst |dq(t)/dq(0) - xi| = {worst_scale:.3g} (<1e-10), "
            f"min dq*dp = {min_product:.4g} (>=hbar/2), stationary factor "
            f"{factor:.4f} (>1)")
    assert ok


# --------------------------------------------------------------------------
# 6. Mean energy vs expansion factor

def test_criterion_06_energy_monotonicity_and_limit():
    m, n = 0, 1
    x = _x(m, n)
    monotone_ok = True
    for ratio in (0.1, 1.0, -0.1, -1.0):
        geom = TrapGeometry.from_alpha(ratio * 0.5 * x)
        xis = np.linspace(1.0, 2.0 if ratio > 0 else 0.5, 6)
        vals = [spectral.energy_ratio(m, n, (xi - 1.0) / geom.u, geom)
                for xi in xis]
        diffs = np.diff(vals)
        if ratio > 0:
            monotone_ok = monotone_ok and bool(np.all(diffs < 0.0))
        else:
            monotone_ok = monotone_ok and bool(np.all(diffs > 0.0))

    slow = TrapGeometry.from_alpha(1e-3 * 0.5 * x)
    limit_err = max(
        abs(spectral.energy_ratio(m, n, (xi - 1.0) / slow.u, slow) * xi ** 2 - 1.0)
        for xi in (1.5, 2.0, 3.0))

    ok = monotone_ok and limit_err < 1e-4
    _report(6, "energy ratio", ok,
            f"monotone in xi for ratios +-0.1, +-1: {monotone_ok}; adiabatic "
            f"limit error {limit_err:.3g} (<1e-4)")
    assert ok


# --------------------------------------------------------------------------
# 7. Closed-form moments against direct quadrature

def _direct_a_neg1(m, n):
    x = _x(m, n)
    return integrate(lambda s: bessel_j(m, x * s) ** 2 / s, 0.0, 1.0, radians=2.0 * x).value


def _direct_a3(m, n):
    x = _x(m, n)
    return integrate(lambda s: s ** 3 * bessel_j(m, x * s) ** 2, 0.0, 1.0, radians=2.0 * x).value


def _direct_c1(m, n):
    x = _x(m, n)
    return -integrate(lambda s: s * (x * bessel_j_prime(m, x * s)) ** 2,
                      0.0, 1.0, radians=2.0 * x).value


def test_criterion_07_oracle_identities():
    m0_err = 0.0
    for n in range(1, 16):
        closed = oracle.c1_closed(0, n).value
        direct = _direct_c1(0, n)
        m0_err = max(m0_err, abs(closed - direct) / abs(direct))

    hyper_err = 0.0
    hyper_count = 0
    for m in range(4):
        for n in range(1, 6):
            pairs = [(oracle.a3_closed(m, n), _direct_a3)]
            if m >= 1:
                pairs.append((oracle.a_neg1_closed(m, n), _direct_a_neg1))
                pairs.append((oracle.c1_closed(m, n), _direct_c1))
            for res, direct_fn in pairs:
                if res.path != oracle.PATH_HYPER:
                    continue
                direct = direct_fn(m, n)
                hyper_err = max(hyper_err, abs(res.value - direct) / abs(direct))
                hyper_count += 1

    ok = m0_err < 1e-9 and hyper_err < 1e-6 and hyper_count > 0
    _report(7, "moment oracle", ok,
            f"m=0 gradient identity error {m0_err:.3g} (<1e-9, n<=15); "
            f"{hyper_count} convergent series paths vs quadrature, worst "
            f"{hyper_err:.3g} (<1e-6)")
    assert ok


# --------------------------------------------------------------------------
# 8. Kernel propagation reproduces the exact mode

def test_criterion_08_kernel_propagation():
    geom = TrapGeometry.from_alpha(1.0)
    t_dst = 1.0  # wall at twice its initial radius
    rng = np.random.default_rng(20260816)

    def src(rho, phi):
        return psi_exact(0, 1, rho, phi, 0.0, geom)

    worst = 0.0
    for _ in range(20):
        rho = 0.05 + 0.9 * rng.random() * geom.L(t_dst)
        phi = 2.0 * math.pi * rng.random()
        via = propagate_through_kernel([0], (rho, phi), t_dst, src, 0.0, geom)
        direct = psi_exact(0, 1, rho, phi, t_dst, geom)
        worst = max(worst, abs(via - direct))

    ok = worst < 1e-6
    _report(8, "kernel propagation", ok,
            f"worst |K-propagated - exact| = {worst:.3g} (<1e-6) over 20 "
            f"random interior points at doubled radius")
    assert ok


# --------------------------------------------------------------------------
# 9. Rescaled density across the wall-speed regimes

def _density_mismatch(m, n, ratio, xi_target, frozen=False):
    """Sup deviation from the rescaled (or initial) eigen-density, relative
    to the reference peak."""
    samples = density_profile(m, n, ratio, xi_target, 400)
    eta = np.array([s.eta for s in samples])
    d = np.array([s.rho_density for s in samples])
    x = _x(m, n)
    zeros, absj = spectral._zeros_cached(m, n)
    j2 = absj[n - 1] ** 2
    lam = 2.0 * math.pi / x
    xi_ref = 1.0 if frozen else xi_target
    sig = eta * lam / xi_ref
    ref = np.where(sig < 1.0,
                   lam ** 2 * eta * (2.0 / j2)
                   * bessel_j(m, x * np.clip(sig, 0.0, 1.0)) ** 2 / xi_ref ** 2,
                   0.0)
    return float(np.max(np.abs(d - ref)) / np.max(ref))


def test_criterion_09_density_regimes():
    adiabatic = _density_mismatch(0, 1, -0.01, 0.1)
    sudden = _density_mismatch(0, 1, -20.0, 0.1)
    frozen = _density_mismatch(0, 2, 10.0, 2.0, frozen=True)

    ok_a = adiabatic <= 1e-2
    ok_s = sudden > 0.1
    ok_f = frozen <= 5e-2
    ok = ok_a and ok_s and ok_f
    _report(9, "density regimes", ok,
            f"slow contraction tracks the rescaled mode: {adiabatic:.3g} "
            f"(<=1e-2, {'ok' if ok_a else 'VIOLATED'}); fast contraction "
            f"departs: {sudden:.3g} (>0.1, {'ok' if ok_s else 'VIOLATED'}); "
            f"fast expansion holds the initial profile: {frozen:.3g} "
            f"(<=5e-2, {'ok' if ok_f else 'VIOLATED'})")
    assert ok


# --------------------------------------------------------------------------
# 10. Time-of-flight fringes at a fixed observer

def test_criterion_10_flight_fringes(tmp_path):
    m, n = 0, 6
    x = _x(m, n)
    eta_obs = x / math.pi

    vis = {}
    pre_wall_ok = True
    for ratio in (0.9, 1.0, 2.0):
        samples, flight = density_timeseries(m, n, ratio, eta_obs, 6.0, 800)
        vis[ratio] = visibility(samples, flight)
        t_wall = flight.T1 / ratio  # scaled instant the wall passes the observer
        pre_wall_ok = pre_wall_ok and all(
            s.rho_density == 0.0 for s in samples if s.T < t_wall)
    ordered = vis[0.9] > vis[1.0] > vis[2.0]

    out = tmp_path / "flight.csv"
    from qtrap.cli import main
    rc = main(["density-t", "--m", "0", "--n", "6", "--alpha-ratio", "1.0",
               "--t-max", "3.0", "--grid", "60", "--out", str(out)])
    header = out.read_text().splitlines()
    times_in_output = (rc == 0
                       and any(line.startswith("# T1:") for line in header)
                       and any(line.startswith("# T2:") for line in header))

    t0 = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-c",
         "from qtrap.cli import main; raise SystemExit(main(['verify']))"],
        capture_output=True, text=True)
    verify_elapsed = time.perf_counter() - t0
    verify_ok = res.returncode == 0 and verify_elapsed < 300.0

    ok = ordered and pre_wall_ok and times_in_output and verify_ok
    _report(10, "flight fringes", ok,
            f"visibility {vis[0.9]:.4f} > {vis[1.0]:.4f} > {vis[2.0]:.4f} "
            f"(slow > matched > fast): {ordered}; density zero before wall "
            f"arrival: {pre_wall_ok}; T1/T2 in CLI output: {times_in_output}; "
            f"verify rc={res.returncode} in {verify_elapsed:.1f}s (<300s)")
    assert ok
