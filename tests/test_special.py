"""Bessel and hypergeometric routines against independent references."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps
from numpy.testing import assert_allclose

import hypothesis as hyp
import hypothesis.strategies as st
import mpmath

from qtrap.special import (
    DomainError,
    NonConvergence,
    NumericError,
    bessel_j,
    bessel_j_prime,
    bessel_zeros,
    pfq,
)
from qtrap import special
from qtrap.special import (_HANKEL_FLOOR, _HANKEL_TERMS, _SERIES_TERMS, _SERIES_TOP, M_MAX,
                           X_MAX)


# values from a 30-digit arbitrary-precision evaluation
BESSEL_REFERENCE = [
    (0, 1.0, 0.7651976865579665514497),
    (1, 2.5, 0.4970941024642740380108),
    (7, 11.3, -0.04466963419245480238889),
    (23, 17.0, 0.003651205893489901538265),
    (40, 900.0, -0.0009897013130477690330167),
    (12, 10000.0, -0.007122242961785649864239),
    (50, 300.0, 0.01043437004824333029535),
    (3, 1e-08, 2.083333333333333451079e-26),
    (2, 55.7, 0.003165966766143125583119),
    (33, 33.0, 0.1394373376806489279816),
    # x <= m past the series: Miller's band, where upward recurrence would run
    # beyond k = x
    (30, 29.99, 0.1435198401002349273851),
    (40, 37.0, 0.04322314083807957284329),
    (45, 40.5, 0.021233299863733304222),
    (51, 44.0, 0.005634779590812935891872),
    (51, 50.9, 0.1176682054838380484437),
    # 22-digit values of tiny J, where a stop test with an absolute floor of
    # 1e-50 ends the series too early
    (34, 1.0, 1.957551210137319745736e-49),
    (40, 2.0, 1.196077458113680027086e-48),
    (50, 0.5, 2.590558066078543123537e-95),
    (51, 5.0, 1.127293943152023891107e-46),
]

ZERO_REFERENCE = [
    (5, 10, 38.15986856196713209708),
    (40, 3, 56.65831345543006309626),
    (0, 30, 93.46371878194477417119),
    (17, 1, 22.1724946188263262056),
]


@pytest.mark.parametrize("m,x,expected", BESSEL_REFERENCE)
def test_bessel_reference_values(m, x, expected):
    got = bessel_j(m, x)
    assert_allclose(got, expected, rtol=5e-14, atol=1e-300)


def test_bessel_against_scipy_sweep():
    rng = np.random.default_rng(7)
    worst = 0.0
    # 50 and 51, which bessel_j_prime(50) calls, are where the upward
    # recurrence after the Hankel start runs longest
    for m in [*range(0, 51, 3), 50, 51]:
        x = rng.uniform(0.0, 200.0, size=300)
        mine = bessel_j(m, x)
        ref = sps.jv(m, x)
        # scipy itself loses digits near zeros of high orders, so mixed tol
        worst = max(worst, np.max(np.abs(mine - ref) / (np.abs(ref) + 1e-6)))
    assert worst < 1e-10


def test_bessel_large_argument_against_scipy():
    x = np.geomspace(200.0, 1e4, 80)
    for m in (0, 1, 6, 25):
        assert_allclose(bessel_j(m, x), sps.jv(m, x), rtol=2e-11, atol=1e-13)


def test_bessel_large_argument_phase():
    # the phase comes from cos x and sin x of the exact x: a rounded phase
    # x - pi/4 would be off by about ulp(x), 5e-13 of the amplitude at 1e4
    x = np.geomspace(50.0, 1e4, 40)
    for m in (0, 1, 12, 40):
        want = np.array([float(mpmath.besselj(m, mpmath.mpf(v))) for v in x])
        err = np.abs(bessel_j(m, x) - want) / np.sqrt(2.0 / (np.pi * x))
        assert np.max(err) <= 2e-15, m


@pytest.mark.parametrize("m", [40, 51])
def test_bessel_just_past_order(m):
    # just past x = m the float64 upward recurrence is longest: the module
    # docstring's 8.0e-15 of the amplitude, which the grid of the test above,
    # from x = 50, does not reach at m = 40
    x = np.linspace(m, m + 30.0, 201)[1:]
    with mpmath.workdps(30):
        want = np.array([float(mpmath.besselj(m, mpmath.mpf(v))) for v in x])
    err = np.abs(bessel_j(m, x) - want) / np.sqrt(2.0 / (np.pi * x))
    assert np.max(err) <= 1e-14


def test_bessel_array_shape_and_scalar():
    out = bessel_j(4, np.ones((3, 2)))
    assert out.shape == (3, 2)
    assert isinstance(bessel_j(4, 1.0), float)
    assert bessel_j(3, 0.0) == 0.0
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(2, np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("m", [0, 2, 5])
def test_bessel_past_series_cut_memory_per_point(m):
    # the Miller and Hankel routes work in bounded slices, so their peak
    # allocation per point is the caller's arrays plus a few masks, in the
    # Miller band alone as well as across both
    rng = np.random.default_rng(m)
    for x in (rng.uniform(_SERIES_TOP, _HANKEL_FLOOR, 200_000),
              rng.uniform(_SERIES_TOP, 400.0, 200_000)):
        tracemalloc.start()
        try:
            bessel_j(m, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / x.size < 80.0


def test_bessel_at_smallest_subnormal():
    # x / 2 underflows to 0 in float64 here; J_0 must still take the series,
    # not the Hankel sum, and no floating-point warning (a log of 0) may escape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bessel_j(0, 5e-324) == 1.0
        assert bessel_j(3, 5e-324) == 0.0


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(-1, 1.0)
    with pytest.raises(DomainError):
        bessel_j(52, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, -0.5)
    with pytest.raises(DomainError):
        bessel_j(0, 1.5e4)
    with pytest.raises(DomainError):
        bessel_j(0, np.nan)


@hyp.settings(max_examples=10, deadline=None)
@hyp.given(st.floats(min_value=0.05, max_value=150.0))
def test_bessel_prime_matches_central_difference(x):
    h = 1e-6 * max(1.0, x)
    for m in (0, 1, 5):
        fd = (bessel_j(m, x + h) - bessel_j(m, x - h)) / (2 * h)
        assert abs(bessel_j_prime(m, x) - fd) < 5e-8


def test_bessel_prime_against_scipy():
    x = np.linspace(0.1, 120.0, 137)
    for m in (0, 1, 2, 17, 50):
        assert_allclose(bessel_j_prime(m, x), sps.jvp(m, x), rtol=1e-10, atol=1e-11)


@pytest.mark.parametrize("m,k,expected", ZERO_REFERENCE)
def test_zero_reference_values(m, k, expected):
    assert_allclose(bessel_zeros(m, k).zeros[k - 1], expected, rtol=1e-13)


def test_zero_table_invariants():
    for m in (0, 3, 21):
        z = bessel_zeros(m, 25).zeros
        assert z.size == 25
        assert np.all(np.diff(z) > 0)
        assert np.max(np.abs(bessel_j(m, z))) < 1e-12
        # consecutive zeros of J_m straddle one zero of J_{m+1}
        z_up = bessel_zeros(m + 1, 24).zeros
        assert np.all(z[:-1] < z_up) and np.all(z_up < z[1:])


def test_zeros_against_scipy():
    for m, count in ((0, 30), (1, 30), (5, 30), (40, 30), (50, 30),
                     (0, 200), (5, 200)):
        assert_allclose(bessel_zeros(m, count).zeros, sps.jn_zeros(m, count),
                        rtol=0, atol=1e-11)


def _scalar_scan_zeros(m, count):
    """Reference finder: one bessel_j call per scan step and per Newton step."""
    zeros = []
    x0 = m + 1.8
    f0 = bessel_j(m, x0)
    while len(zeros) < count:
        x1 = x0 + math.pi / 4.0
        f1 = bessel_j(m, x1)
        if f0 == 0.0:
            zeros.append(x0)
        elif f0 * f1 < 0.0:
            lo, hi = x0, x1
            x = 0.5 * (lo + hi)
            for _ in range(60):
                f = bessel_j(m, x)
                x_new = x - f / bessel_j_prime(m, x)
                if not lo - 1.0 < x_new < hi + 1.0:
                    if bessel_j(m, lo) * f < 0.0:
                        hi = x
                    else:
                        lo = x
                    x_new = 0.5 * (lo + hi)
                if abs(x_new - x) < 1e-13:
                    break
                x = x_new
            else:
                raise AssertionError(f"reference Newton stalled near {x}")
            zeros.append(x_new)
        x0, f0 = x1, f1
    return np.array(zeros)


def test_zeros_match_scalar_scan():
    # the batched scan and polish must reproduce the one-point-at-a-time finder
    for m, count in ((0, 20), (3, 20), (50, 12)):
        assert_allclose(bessel_zeros(m, count).zeros, _scalar_scan_zeros(m, count),
                        rtol=0, atol=1e-13)


def test_zero_table_rejects_bad_input(monkeypatch):
    with pytest.raises(DomainError):
        bessel_zeros(0, 0)
    # J_0 has 3183 zeros below X_MAX; the scan stops there and names the count
    assert bessel_zeros(0, 3183).zeros[-1] < X_MAX
    with pytest.raises(DomainError, match=r"J_0.*3184.*X_MAX"):
        bessel_zeros(0, 3184)
    # a step so short that the whole budget, 16 count + 400 steps from 1.8,
    # ends far below the first zero 2.405: the budget runs out before X_MAX
    monkeypatch.setattr(special, "_SCAN_STEP", 1e-6)
    with pytest.raises(NumericError, match="J_0 within scan budget"):
        bessel_zeros(0, 3)


@pytest.mark.parametrize("m,count", [(32, 225), (26, 493), (42, 378), (45, 383),
                                     (8, 582), (18, 623), (50, 713), (5, 3145)])
def test_zeros_past_512_converge(m, count):
    # the first table of each order whose Newton polish, stopped at a step of
    # 1e-13 that is below one ulp there, alternated between two doubles
    z = bessel_zeros(m, count).zeros
    assert z.size == count and z[-1] > 512.0


def _zeros_below_x_max(m):
    # McMahon's (n + m/2 - 1/4) pi counts them exactly for every m <= 50
    return int(X_MAX / math.pi - m / 2.0 + 0.25)


def test_zero_envelope_sweep():
    # every zero of J_0..J_50 below X_MAX, and not one more; consecutive
    # orders interlace, so no table skips or repeats a zero
    below = None
    for m in range(M_MAX + 1):
        count = _zeros_below_x_max(m)
        z = bessel_zeros(m, count).zeros
        with pytest.raises(DomainError):
            bessel_zeros(m, count + 1)
        if below is not None:
            assert np.all(below[:z.size] < z) and np.all(z[:below.size - 1] < below[1:])
        below = z


def test_zero_scan_stops_allocating_at_x_max():
    # a count far past X_MAX builds no scan node beyond it before it fails
    tracemalloc.start()
    try:
        with pytest.raises(DomainError):
            bessel_zeros(0, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def _series_term(m, k, x):
    """k-th term of the ascending series of J_m(x) in mpmath, independently of
    the float64 sum."""
    return (mpmath.mpf(x) / 2) ** (m + 2 * k) / (mpmath.factorial(k) * mpmath.factorial(m + k))


def test_series_term_count_bounds_the_tail():
    # at x = 2, the top of the series, the first term left out is below
    # 2^-60 of J_m(2) for every order, and the last one summed is not at m = 0
    with mpmath.workdps(30):
        for m in range(M_MAX + 2):
            value = abs(mpmath.besselj(m, _SERIES_TOP))
            assert _series_term(m, _SERIES_TERMS, _SERIES_TOP) < 2.0 ** -60 * value, m
        j0 = mpmath.besselj(0, _SERIES_TOP)
        assert _series_term(0, _SERIES_TERMS - 1, _SERIES_TOP) >= 2.0 ** -60 * j0


def test_miller_start_bounds_the_tail():
    # each start is the first even order N with (x/2)^N / N! < 2^-60 at the
    # top of its band, x = max(_HANKEL_FLOOR, m); J_N lies below it there
    with mpmath.workdps(30):
        for m in range(M_MAX + 2):
            top, n = max(_HANKEL_FLOOR, m), special._miller_start(m)
            assert n % 2 == 0 and n > m, m
            assert _series_term(n, 0, top) < 2.0 ** -60 <= _series_term(n - 2, 0, top), m
            assert mpmath.besselj(n, top) < 2.0 ** -60, m
    assert special._miller_start(15) == 48 and special._miller_start(51) == 102


def test_hankel_term_count_bounds_the_tail():
    # the Hankel terms shrink up to the count at the floor, the lowest point
    # the sums serve, for both orders, and the count's own ratio reaches 1 at
    # order 0; mpmath gives the ratios independently of float64
    x = mpmath.mpf(_HANKEL_FLOOR)

    def ratio(mu, j):
        return abs(mu - (2 * j - 1) ** 2) / (8 * j * x)
    for mu in (0, 4):
        assert all(ratio(mu, j) < 1 for j in range(1, _HANKEL_TERMS)), mu
    assert ratio(0, _HANKEL_TERMS) >= 1


def test_hankel_sums_match_term_by_term():
    # the tabulated Horner sums against the same _HANKEL_TERMS - 1 terms
    # summed one by one in 30-digit mpmath; P is near 1 and Q near 1/(8x), so
    # P is held to 2 ulps of 1 and Q to 2 ulps of itself (measured: 0 and 0.9)
    eps = np.spacing(1.0)
    x = np.concatenate([[_HANKEL_FLOOR, 50.0, 188.0], np.geomspace(_HANKEL_FLOOR, X_MAX, 60)])
    p, q = special._hankel_pq(x)
    with mpmath.workdps(30):
        for order, mu in enumerate((0, 4)):
            for i, v in enumerate(x):
                term, sums = mpmath.mpf(1), [mpmath.mpf(1), mpmath.mpf(0)]
                for j in range(1, _HANKEL_TERMS):
                    term *= (mu - (2 * j - 1) ** 2) / ((-1) ** (j + 1) * 8 * j * mpmath.mpf(v))
                    sums[j % 2] += term
                assert abs(p[order, i] - sums[0]) <= 2 * eps, (order, v)
                assert abs(q[order, i] - sums[1]) <= 2 * eps * abs(sums[1]), (order, v)
    # each coefficient against its exact rational: building c_j takes two
    # roundings of half an ulp per factor, so j ulps at most (measured: 2.1)
    for order, mu in enumerate((0, 4)):
        exact = Fraction(1)
        for j in range(_HANKEL_TERMS):
            if j:
                exact *= Fraction(mu - (2 * j - 1) ** 2, (-1) ** (j + 1) * 8 * j)
            got = Fraction(float(special._HANKEL_PQ[j // 2, j % 2, order, 0]))
            assert abs(got - exact) <= j * Fraction(eps) * abs(exact), (order, j)


def test_hankel_shortcut_is_bit_identical():
    # at m <= 1 only order m's P and Q are summed: the value is, bit for bit,
    # the one formed from both orders' sums, on the grid of the test above
    x = np.concatenate([[_HANKEL_FLOOR, 50.0, 188.0], np.geomspace(_HANKEL_FLOOR, X_MAX, 60)])
    p, q = special._hankel_pq(x)
    c, s = np.cos(x), np.sin(x)
    cos, sin = c + s, s - c
    amp = np.sqrt(1.0 / (np.pi * x))
    assert np.array_equal(special._jm_hankel_recurrence(0, x), amp * (p[0] * cos - q[0] * sin))
    assert np.array_equal(special._jm_hankel_recurrence(1, x), amp * (p[1] * sin + q[1] * cos))


def test_series_twice_the_terms_changes_no_bit(monkeypatch):
    x = np.concatenate([[0.0, 5e-324], np.linspace(0.0, _SERIES_TOP, 2001)[1:]])
    fixed = [bessel_j(m, x) for m in range(M_MAX + 2)]
    monkeypatch.setattr(special, "_SERIES_TERMS", 2 * _SERIES_TERMS)
    for m in range(M_MAX + 2):
        assert np.array_equal(bessel_j(m, x), fixed[m]), m


@pytest.fixture
def fresh_tables():
    """Miller's band reads tables cached on first use: build them anew for
    the test, and again for the tests after it."""
    special._taylor_tables.cache_clear()
    yield
    special._taylor_tables.cache_clear()


def test_miller_later_start_moves_values_by_rounding_only(monkeypatch, fresh_tables):
    # starting every order 20 higher changes the rounding, not the values: no
    # point of any band moves by more than 2 ulps of 1, the sum the recurrence
    # is normalised by (largest change measured: 0, as the double-double
    # recurrence rounds each value once); the tables are rebuilt from the
    # later start, or the test would compare a cached table with itself
    grids = [np.linspace(_SERIES_TOP, max(_HANKEL_FLOOR, m), 2001)[1:] for m in range(M_MAX + 2)]
    fixed = [bessel_j(m, x) for m, x in enumerate(grids)]
    start = special._miller_start
    monkeypatch.setattr(special, "_miller_start", lambda m: start(m) + 20)
    special._taylor_tables.cache_clear()
    for m, x in enumerate(grids):
        assert np.max(np.abs(bessel_j(m, x) - fixed[m])) <= 2 * np.spacing(1.0), m


def test_miller_builder_rounds_each_value_once():
    # the double-double run the tables are built from gives J_m and J_{m+1}
    # at every piece centre within half an ulp of themselves against 30-digit
    # mpmath (measured: 0.49990), on both sides of the shared band's edge and
    # up to the top order; in plain float64 the recurrence leaves up to 1.9
    # ulps of 1
    with mpmath.workdps(30):
        for m in (0, 1, 5, 15, 16, 30, M_MAX + 1):
            count = math.ceil((max(_HANKEL_FLOOR, m) - _SERIES_TOP) / special._TAYLOR_STEP)
            c = _SERIES_TOP + (np.arange(count) + 0.5) * special._TAYLOR_STEP
            j = special._jm_miller(max(m, special._SHARED_BAND), c)
            for order in (m, m + 1):
                for got, v in zip(j[order], c):
                    err = abs(mpmath.mpf(got) - mpmath.besselj(order, mpmath.mpf(v)))
                    assert err <= 0.501 * np.spacing(abs(got)), (order, v)


def _piece_grid(m):
    """Each Taylor piece's edges, centre and quarter points in Miller's band
    of order m, and the band's top."""
    top = max(_HANKEL_FLOOR, m)
    count = math.ceil((top - _SERIES_TOP) / special._TAYLOR_STEP)
    x = _SERIES_TOP + np.arange(4 * count + 1) * (special._TAYLOR_STEP / 4)
    return np.append(x[(x > _SERIES_TOP) & (x < top)], top)


def test_taylor_tables_match_their_builder():
    # every order's pieces against the double-double Miller run they are
    # built from, within 2 ulps of 1 (measured: 0.5, also on 20000 random
    # points per order); and where x < 0.9 m, J_m falls away from its peak
    # and only the scaled pieces keep its relative accuracy: within 1e-14 of
    # 30-digit mpmath there (measured: 5.6e-16)
    for m in range(M_MAX + 2):
        x = _piece_grid(m)
        want = special._jm_miller(max(m, special._SHARED_BAND), x)[m]
        assert np.max(np.abs(bessel_j(m, x) - want)) <= 2 * np.spacing(1.0), m
    with mpmath.workdps(30):
        for m in range(3, M_MAX + 2):
            x = _piece_grid(m)
            x = x[x < 0.9 * m][::10]
            want = np.array([float(mpmath.besselj(m, mpmath.mpf(v))) for v in x])
            assert np.max(np.abs(bessel_j(m, x) / want - 1.0)) <= 1e-14, m


def _taylor_edge_term(m, degree, step):
    """The first term left out at the edge of each piece of order m, step
    wide, over the piece's amplitude sqrt(J_m(c)^2 + J_{m+1}(c)^2): the
    coefficients of t^k in J_m(c + t) (c/(c + t))^m from scipy's J_m(c) and
    -J_{m+1}(c) and the Bessel equation of J_m(x) (2/x)^m, which
    test_taylor_tables_match_their_builder holds the pieces to."""
    count = math.ceil((max(_HANKEL_FLOOR, m) - _SERIES_TOP) / step)
    c = _SERIES_TOP + (np.arange(count) + 0.5) * step
    a = [sps.jv(m, c), -sps.jv(m + 1, c)]
    for k in range(degree):
        a.append(-((k + 1) * (k + 2 * m + 1) * a[k + 1] + c * a[k] + (a[k - 1] if k else 0.0))
                 / (c * (k + 1) * (k + 2)))
    return np.abs(a[degree + 1]) * (step / 2) ** (degree + 1) / np.hypot(a[0], a[1])


def test_taylor_step_and_degree_bound_the_remainder():
    # at every piece's edge the first term left out is below 2^-54 of the
    # piece's amplitude, for every order; a degree less, or twice the step,
    # leaves a larger one at m = 0 (measured: 2^-54.6 at degree 8 against
    # 2^-47.4 at degree 7 and 2^-45.6 at twice the step)
    step, degree = special._TAYLOR_STEP, special._TAYLOR_DEGREE
    for m in range(M_MAX + 2):
        assert np.max(_taylor_edge_term(m, degree, step)) < 2.0 ** -54, m
    assert np.max(_taylor_edge_term(0, degree - 1, step)) >= 2.0 ** -54
    assert np.max(_taylor_edge_term(0, degree, 2 * step)) >= 2.0 ** -54


def test_taylor_tables_are_built_on_first_use():
    # importing the package builds no table; the orders up to the shared
    # band share one, and a table past it holds one order in at most 28 KB
    code = ("import qtrap.cli, qtrap.special as s; "
            "print(s._taylor_tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split() == ["0"]
    shared = special._taylor_tables(special._SHARED_BAND)
    assert sorted(shared) == list(range(special._SHARED_BAND + 1))
    assert list(special._taylor_tables(M_MAX + 1)) == [M_MAX + 1]
    assert special._taylor_tables(M_MAX + 1)[M_MAX + 1].nbytes <= 28 * 1024
    assert not shared[0].flags.writeable


def test_bessel_both_sides_of_series_cut():
    # and of each order's Hankel floor, where Miller's band ends
    for m in range(M_MAX + 2):
        for edge in (_SERIES_TOP, max(_HANKEL_FLOOR, m)):
            x = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)])
            assert_allclose(bessel_j(m, x), sps.jv(m, x), rtol=0, atol=2e-14)


def test_bessel_is_float64_only(monkeypatch):
    # no route may reach long double: with it made float64, every route
    # gives the same bits
    x = np.concatenate([[0.0, 5e-324], np.linspace(0.0, 2.0, 41)[1:],
                        np.linspace(2.0, 51.0, 99)[1:], np.geomspace(51.0, X_MAX, 60)[1:]])
    fixed = {m: bessel_j(m, x) for m in (0, 1, 5, 30, 51)}
    monkeypatch.setattr(special.np, "longdouble", np.float64)
    for m, want in fixed.items():
        assert np.array_equal(bessel_j(m, x), want), m


# generalized hypergeometric sums, references from mpmath.hyper
PFQ_REFERENCE = [
    ((0.5, 2.0), (1.0, 1.0, 3.0), -25.0, 0.1023565707534025842576),
    ((1.5, 3.0), (2.0, 4.0, 5.0), -100.0, 0.008589502081563732446078),
    ((2.0,), (1.0, 3.0), -8.0, -0.1920459816310153028343),
    ((0.5, 2.5), (1.5, 2.0, 6.0), 30.0, 13.48239098228238066608),
]


@pytest.mark.parametrize("a,b,z,expected", PFQ_REFERENCE)
def test_pfq_reference_values(a, b, z, expected):
    # at z = -100 the largest term is 1.64e5 times the sum
    assert_allclose(pfq(a, b, z), expected, rtol=1e-14)


def test_pfq_is_float64_only(monkeypatch):
    # no step reaches long double: with it made float64, every sum gives the
    # same bits
    fixed = [pfq(a, b, z) for a, b, z, _ in PFQ_REFERENCE]
    monkeypatch.setattr(special.np, "longdouble", np.float64)
    assert [pfq(a, b, z) for a, b, z, _ in PFQ_REFERENCE] == fixed


def test_pfq_trivial_and_domain():
    assert pfq((0.5, 1.0), (2.0, 2.0, 2.0), 0.0) == 1.0
    with pytest.raises(DomainError):
        pfq((1.0,), (0.0, 2.0), 1.0)
    with pytest.raises(DomainError):
        pfq((1.0,), (-3.0, 2.0), 1.0)


@pytest.mark.parametrize("build, error, fragment", [
    (lambda: special.BesselZeroTable(0, []), DomainError, "at least one zero"),
    (lambda: special.BesselZeroTable(0, bessel_zeros(0, 2).zeros[::-1]), NumericError,
     "not strictly increasing"),
    (lambda: special.BesselZeroTable(0, [2.5]), NumericError, "residual check"),
    (lambda: pfq((1.0,) * 4, (2.0,), -1.0), DomainError, "p=4, q=1"),
    (lambda: pfq((1.0,), (2.0,) * 5, -1.0), DomainError, "p=1, q=5"),
], ids=["empty-table", "decreasing-table", "non-zero-table", "pfq-p4", "pfq-q5"])
def test_malformed_input_raises_typed_error(build, error, fragment):
    with pytest.raises(error, match=fragment):
        build()


def _peak_bits(a, b, z):
    """log2 of the largest term of pFq(a; b; z), z < 0, from log-gamma."""
    k = np.arange(int(4 * math.sqrt(-z)) + 10, dtype=float)
    log_term = (sum(sps.gammaln(ai + k) - sps.gammaln(ai) for ai in a)
                - sum(sps.gammaln(bi + k) - sps.gammaln(bi) for bi in b)
                - sps.gammaln(k + 1.0) + k * math.log(-z))
    return float(np.max(log_term)) / math.log(2.0)


def test_pfq_peak_bound_admits_the_oracle_at_x_max():
    # the refusal bound sits above the largest term of every form the oracle
    # sums, at any order, up to x = X_MAX, and within 128 bits of the
    # largest of them; a divergent 3F1 is refused at the bound
    z = -X_MAX * X_MAX
    peaks = []
    for m in (0, 1, 5, 50):
        forms = [((m + 0.5, m + 2.0), (m + 1.0, m + 3.0, 2.0 * m + 1.0))]
        if m:
            forms += [((m, m + 0.5), (m + 1.0, m + 1.0, 2.0 * m + 1.0)),
                      ((m + 0.5, m + 1.0, m + 1.0), (m, m + 2.0, m + 2.0, 2.0 * m + 1.0))]
        else:
            forms += [((1.5,), (3.0, 3.0))]
        peaks += [_peak_bits(a, b, z) for a, b in forms]
    assert max(peaks) < special._PFQ_PEAK_BITS < max(peaks) + 128
    with pytest.raises(NonConvergence, match="runs away"):
        pfq((1.0, 1.0, 1.0), (2.0,), -2.0)


def test_pfq_cancellation_guard():
    # alternating series with huge intermediate terms (the largest is 2^284
    # times the sum) come out exact: the fixed point runs 64 bits past them
    with mpmath.workdps(30):
        want = mpmath.hyper([2, 3], [1, 1, 1], -10000)
    assert_allclose(pfq((2.0, 3.0), (1.0, 1.0, 1.0), -1e4), float(want), rtol=1e-14)


def test_pfq_redo_runs_where_the_first_shift_falls_short(monkeypatch):
    # a3's 2F3 at m = 50, n = 1 is 2^-94 of its largest term, 2^37: past the
    # first shift's allowance of 2 * 37 bits, so the one redo sums it again
    # at the shift the integers measured
    shifts = []

    def spy(up, down, z, shift):
        shifts.append(shift)
        return fixed_sum(up, down, z, shift)

    fixed_sum = special._fixed_sum
    monkeypatch.setattr(special, "_fixed_sum", spy)
    x = float(bessel_zeros(50, 1).zeros[0])
    a, b = (50.5, 52.0), (51.0, 53.0, 101.0)
    value = pfq(a, b, -x * x)
    assert len(shifts) == 2 and shifts[1] > shifts[0]
    with mpmath.workdps(30):
        want = mpmath.hyper(a, b, -mpmath.mpf(x) ** 2)
    assert_allclose(value, float(want), rtol=1e-14)


@pytest.mark.parametrize("z", [0.0, -2.0])
def test_pfq_overflowed_terms_refuse_at_once(z):
    # the term products overflow float64 in the float walk that sizes the
    # fixed point: times z = 0 each term is NaN, at z = -2 it is inf, and
    # both are refused at the first term
    with pytest.raises(NonConvergence, match="runs away") as info:
        pfq((1e200, 1e200), (1.5,), z)
    assert "at k = 0 " in str(info.value)


def _j0(x):
    with mpmath.workdps(30):
        return float(mpmath.besselj(0, x))


@hyp.settings(max_examples=10, deadline=None)
@hyp.given(st.floats(min_value=0.1, max_value=15.0))
def test_pfq_0f1_is_scaled_bessel(x):
    # J_0(x) = 0F1(; 1; -x^2/4)
    assert abs(pfq((), (1.0,), -x * x / 4.0) - _j0(x)) <= 1e-15


def test_pfq_0f1_holds_near_zeros():
    # on [0.1, 15], and within 0.02 of J_0's five zeros there, where |J_0|
    # is small against the largest term, the sum gives J_0 to 1e-15
    zeros = [float(mpmath.besseljzero(0, n)) for n in range(1, 6)]
    x = np.concatenate([np.linspace(0.1, 15.0, 150)]
                       + [np.linspace(z - 0.02, z + 0.02, 9) for z in zeros])
    assert max(abs(pfq((), (1.0,), -xi * xi / 4.0) - _j0(xi)) for xi in x) <= 1e-15
