"""Bessel and hypergeometric routines against independent references."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special as sps
from numpy.testing import assert_allclose

import hypothesis as hyp
import hypothesis.strategies as st
import mpmath

from qtrap.special import (
    CancellationError,
    DomainError,
    NonConvergence,
    NumericError,
    bessel_j,
    bessel_j_prime,
    bessel_zeros,
    pfq,
)
from qtrap import special
from qtrap.special import (_HANKEL_TERMS, _SERIES_CUT, _SERIES_TAIL, _SERIES_TERMS, M_MAX,
                           SERIES_LOG_CAP, X_MAX)


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
    # past the series cut with x <= m: upward recurrence runs beyond k = x
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
    for m in range(0, 51, 3):
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


def test_bessel_array_shape_and_scalar():
    out = bessel_j(4, np.ones((3, 2)))
    assert out.shape == (3, 2)
    assert isinstance(bessel_j(4, 1.0), float)
    assert bessel_j(3, 0.0) == 0.0
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(2, np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("m", [0, 2, 5])
def test_bessel_past_series_cut_memory_per_point(m):
    # the Hankel-and-recurrence route works in bounded slices, so its peak
    # allocation per point is the caller's arrays plus a few masks (32 B/pt
    # measured)
    x = np.random.default_rng(m).uniform(_SERIES_CUT[m], 400.0, 200_000)
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


def _series_peak_pointwise(m, x):
    """ln of the largest ascending-series term of J_m(x), at k* = (sqrt(m^2 +
    x^2) - m) / 2, point by point: the series test the per-order cut replaces."""
    kstar = 0.5 * (-m + np.sqrt(m * m + x * x))
    lgamma = np.vectorize(math.lgamma)
    return (m + 2.0 * kstar) * np.log(x / 2.0) - lgamma(kstar + 1.0) - lgamma(m + kstar + 1.0)


def test_series_cut_matches_pointwise_criterion():
    rng = np.random.default_rng(11)
    for m in range(M_MAX + 2):
        cut = _SERIES_CUT[m]
        x = np.sort(np.concatenate([rng.uniform(1e-3, 100.0, 4000),
                                    np.linspace(0.9 * cut, 1.1 * cut, 4001)]))
        peak = _series_peak_pointwise(m, x)
        # the peak rises with x from x = 1 on and stays under the cap below it
        # (at m = 0 it dips first), so one cut per order suffices
        assert np.all(np.diff(peak[x >= 1.0]) > 0.0), m
        assert np.all(peak[x < 1.0] <= SERIES_LOG_CAP), m
        differ = (peak <= SERIES_LOG_CAP) != (x <= cut)
        assert np.all(np.abs(x[differ] - cut) <= 1e-12 * cut), m


def test_series_term_count_bounds_the_tail():
    # the first term left out is below the tail at the cut, the last one
    # summed is not, and the terms shrink from there on (past the peak);
    # mpmath gives the terms independently of lgamma
    for m, (cut, terms) in enumerate(zip(_SERIES_CUT, _SERIES_TERMS)):
        def term(k):
            return ((mpmath.mpf(cut) / 2) ** (m + 2 * k)
                    / (mpmath.factorial(k) * mpmath.factorial(m + k)))
        assert term(terms) < _SERIES_TAIL <= term(terms - 1), m
        assert term(terms + 1) < term(terms), m


def test_hankel_term_count_bounds_the_tail():
    # the Hankel terms shrink up to the count at the lowest point the sums
    # serve, for both orders, and the count's own ratio reaches 1 at order 0;
    # mpmath gives the ratios independently of float64
    x = mpmath.mpf(min(_SERIES_CUT))
    assert min(_SERIES_CUT) == _SERIES_CUT[0]

    def ratio(mu, j):
        return abs(mu - (2 * j - 1) ** 2) / (8 * j * x)
    for mu in (0, 4):
        assert all(ratio(mu, j) < 1 for j in range(1, _HANKEL_TERMS)), mu
    assert ratio(0, _HANKEL_TERMS) >= 1


def test_series_twice_the_terms_changes_no_bit(monkeypatch):
    grids = [np.concatenate([[0.0, 5e-324], np.linspace(0.0, cut, 2001)[1:]])
             for cut in _SERIES_CUT]
    fixed = [bessel_j(m, x) for m, x in enumerate(grids)]
    monkeypatch.setattr(special, "_SERIES_TERMS", tuple(2 * k for k in _SERIES_TERMS))
    for m, x in enumerate(grids):
        assert x[-1] == _SERIES_CUT[m]
        assert np.array_equal(bessel_j(m, x), fixed[m]), m


def test_bessel_both_sides_of_series_cut():
    for m, cut in enumerate(_SERIES_CUT):
        x = np.array([np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf)])
        assert_allclose(bessel_j(m, x), sps.jv(m, x), rtol=0, atol=2e-14)


# generalized hypergeometric sums, references from mpmath.hyper
PFQ_REFERENCE = [
    ((0.5, 2.0), (1.0, 1.0, 3.0), -25.0, 0.1023565707534025842576),
    ((1.5, 3.0), (2.0, 4.0, 5.0), -100.0, 0.008589502081563732446078),
    ((2.0,), (1.0, 3.0), -8.0, -0.1920459816310153028343),
    ((0.5, 2.5), (1.5, 2.0, 6.0), 30.0, 13.48239098228238066608),
]


@pytest.mark.parametrize("a,b,z,expected", PFQ_REFERENCE)
def test_pfq_reference_values(a, b, z, expected):
    assert_allclose(pfq(a, b, z), expected, rtol=1e-12)


def test_pfq_trivial_and_domain():
    assert pfq((0.5, 1.0), (2.0, 2.0, 2.0), 0.0) == 1.0
    with pytest.raises(DomainError):
        pfq((1.0,), (0.0, 2.0), 1.0)
    with pytest.raises(DomainError):
        pfq((1.0,), (-3.0, 2.0), 1.0)


def test_pfq_limits_follow_long_double():
    ld = np.finfo(np.longdouble)
    assert np.isfinite(special._PFQ_OVERFLOW) and special._PFQ_OVERFLOW < ld.max
    assert special._PFQ_GUARD * ld.eps <= 1.1e-11


def test_pfq_cancellation_guard():
    # alternating series with huge intermediate terms must refuse, not lie
    with pytest.raises((CancellationError, NonConvergence)):
        pfq((2.0, 3.0), (1.0, 1.0, 1.0), -1e4)


@hyp.settings(max_examples=10, deadline=None)
@hyp.given(st.floats(min_value=0.1, max_value=15.0))
def test_pfq_0f1_is_scaled_bessel(x):
    # J_0(x) = 0F1(; 1; -x^2/4); past x ~ 19 the raw sum hits its own
    # cancellation guard, which is the intended refusal
    assert_allclose(pfq((), (1.0,), -x * x / 4.0), bessel_j(0, x),
                    rtol=1e-9, atol=1e-12)
