"""Closed-form diagonal moment integrals against high-precision references."""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from qtrap import oracle
from qtrap.oracle import (
    PATH_HYPER,
    a3_closed,
    a_neg1_closed,
    c1_closed,
)
from qtrap.quad import integrate
from qtrap.special import DomainError, bessel_j, bessel_j_prime, bessel_zeros


# references from a 30-digit quadrature of the defining integrals

A_NEG1_REFERENCE = [
    (1, 1, 0.4188924345866571772564),
    (2, 3, 0.2225849365079057220342),
    (3, 5, 0.1502257748525312251627),
    (5, 2, 0.07357826384896011593743),
    (8, 1, 0.03445437930136461383089),
    (25, 2, 0.01009494491944841257038),
    (50, 1, 0.003244736214944751545105),
    (50, 2, 0.004147053239635385261622),
]

A3_REFERENCE = [
    (0, 1, 0.0293846695416027017207),
    (0, 4, 0.008876713238579748751543),
    (1, 2, 0.01501157748572114066562),
    (2, 1, 0.02360360816602507793066),
    (3, 3, 0.00869100796504495171722),
    (8, 1, 0.01221839920911505054726),
    (25, 2, 0.004225240579465633258739),
    (50, 1, 0.002296945543920752201804),
    (50, 2, 0.002322745838300868593417),
]

C1_REFERENCE = [
    (0, 1, -0.7793251491983969357019),
    (0, 3, -2.759075138966875877437),
    (1, 1, -0.7719264596661854218112),
    (2, 4, -3.755564666081382462924),
    (3, 2, -1.759816067310327115267),
    (8, 1, -0.7672483798672395876722),
    (25, 2, -1.758034787481032491074),
    (50, 1, -0.7665145130916462177640),
    (50, 2, -1.757893586332531933484),
]


@pytest.mark.parametrize("m,n,expected", A_NEG1_REFERENCE)
def test_a_neg1_values(m, n, expected):
    res = a_neg1_closed(m, n)
    assert_allclose(res.value, expected, rtol=1e-11)


@pytest.mark.parametrize("m,n,expected", A3_REFERENCE)
def test_a3_values(m, n, expected):
    res = a3_closed(m, n)
    assert_allclose(res.value, expected, rtol=1e-11)


@pytest.mark.parametrize("m,n,expected", C1_REFERENCE)
def test_c1_values(m, n, expected):
    res = c1_closed(m, n)
    assert_allclose(res.value, expected, rtol=1e-11)


def _forms(m):
    return (a3_closed, c1_closed) + ((a_neg1_closed,) if m else ())


def test_route_selection():
    # one route: every value over m <= 5, n <= 20 and at m = 50 is the
    # paper's hypergeometric form
    assert {form(m, n).path for m in (0, 1, 2, 3, 4, 5, 50) for n in range(1, 21)
            for form in _forms(m)} == {PATH_HYPER}


def _integrand(form, m, x):
    if form is a3_closed:
        return lambda s: s ** 3 * bessel_j(m, x * s) ** 2
    if form is c1_closed:
        return lambda s: -s * (x * bessel_j_prime(m, x * s)) ** 2
    # J_m(z)/z = (J_{m-1}(z) + J_{m+1}(z)) / (2m) removes the 1/s so the
    # integrand stays benign near the axis
    return lambda s: (x * x / (4.0 * m * m)) * s * (bessel_j(m - 1, x * s)
                                                    + bessel_j(m + 1, x * s)) ** 2


def test_routes_cross_validate():
    # every value, all on the hypergeometric path, against the Gauss-Legendre
    # ladder's quadrature of its defining integral
    for m in range(4):
        for n in range(1, 6):
            x = bessel_zeros(m, n).zeros[n - 1]
            for form in _forms(m):
                ref = integrate(_integrand(form, m, x), 0.0, 1.0, radians=2.0 * x).value
                assert_allclose(form(m, n).value, ref, rtol=1e-10,
                                err_msg=f"{form.__name__}{m, n}")


def _lommel_reference(m, n):
    """{form: value} at the n-th zero of J_m by the Lommel forms (Watson,
    5.11), in 30-digit mpmath: a route neither the oracle nor the package's
    quadrature takes."""
    with mpmath.workdps(30):
        x = mpmath.besseljzero(m, n)
        jsq = mpmath.besselj(m + 1, x) ** 2
        ref = {a3_closed: jsq * (x * x + 2 * (m * m - 1)) / (6 * x * x),
               c1_closed: -x * x * jsq / 2}
        if m:
            tail = sum(mpmath.besselj(k, x) ** 2 for k in range(1, m))
            ref[a_neg1_closed] = (1 - mpmath.besselj(0, x) ** 2 - 2 * tail) / (2 * m)
            ref[c1_closed] += m * m * ref[a_neg1_closed]
        return ref


def test_every_value_against_mpmath():
    # all 340 values at m <= 5, n <= 20, and m = 50, n <= 20
    for m in (0, 1, 2, 3, 4, 5, 50):
        for n in range(1, 21):
            for form, want in _lommel_reference(m, n).items():
                rel = float(abs((form(m, n).value - want) / want))
                assert rel <= 1e-13, (form.__name__, m, n, rel)


def test_m0_inverse_moment_rejected():
    with pytest.raises(DomainError):
        a_neg1_closed(0, 1)


def test_bad_indices_rejected():
    with pytest.raises(DomainError):
        a3_closed(-1, 1)
    with pytest.raises(DomainError):
        c1_closed(0, 0)


@pytest.mark.parametrize("form, fragment", [(a3_closed, "angular index must be >= 0"),
                                            (a_neg1_closed, "only m >= 1"),
                                            (c1_closed, "angular index must be >= 0")],
                         ids=["a3", "a_neg1", "c1"])
def test_negative_order_rejected(form, fragment):
    with pytest.raises(DomainError, match=fragment):
        form(-1, 1)


def test_result_is_frozen():
    res = a3_closed(0, 1)
    with pytest.raises(AttributeError):
        res.value = 0.0


def test_c1_m0_closed_form_is_exact():
    # -x^2 J_1(x)^2 / 2 at a zero of J_0
    for n in (1, 5, 12):
        x = bessel_zeros(0, n).zeros[n - 1]
        assert_allclose(c1_closed(0, n).value, -x ** 2 * bessel_j(1, x) ** 2 / 2.0, rtol=1e-14)


def test_closed_forms_evaluate_no_bessel_function(monkeypatch):
    # the oracle's route shares no Bessel evaluation with the routes it is
    # held against: with its Bessel bindings made to raise, every form
    # still returns
    def refuse(*args):
        raise AssertionError("the oracle evaluated a Bessel function")

    for name in ("bessel_j", "bessel_j_prime"):
        monkeypatch.setattr(oracle, name, refuse)
    for m in (0, 1, 5, 50):
        for n in (1, 7, 20):
            for form in _forms(m):
                assert math.isfinite(form(m, n).value)


def test_oracle_is_float64_only(monkeypatch):
    # with long double made float64, every form over m <= 5, n <= 20 gives
    # the same bits on the same path
    def table():
        return [form(m, n) for m in range(6) for n in range(1, 21)
                for form in (a3_closed, c1_closed) + ((a_neg1_closed,) if m else ())]

    fixed = table()
    monkeypatch.setattr(np, "longdouble", np.float64)
    assert table() == fixed


def _c1_paper_terms(m, n):
    """The paper's c1 = -(x^2/4)(t0 + t1 + t2 + t3 + t4) at the n-th zero of
    J_m, in 30-digit mpmath: t0 its 3F4 term, t1-t3 its J_{m-2} and J_{m-1}
    terms, t4 = J_{m+1}^2 / 2."""
    x = mpmath.besseljzero(m, n)
    jm2, jm1, jp1 = (mpmath.besselj(m + k, x) for k in (-2, -1, 1))
    t0 = -((x / 2) ** (2 * m) / (mpmath.gamma(m) * mpmath.factorial(m) * (m + 1) ** 2)
           * mpmath.hyper([m + 0.5, m + 1, m + 1], [m, m + 2, m + 2, 2 * m + 1], -x * x))
    t1 = 2 * jm2 * jm1 * (4 * m * (m * m - 1) + x * x * (1 - 2 * m)) / x ** 3
    t2 = jm2 * jm2 * (x * x - 2 * m * (m + 1)) / (x * x)
    t3 = jm1 * jm1 * (0.5 - 4 * m * (m - 1) * (2 * m * m - 2 - x * x) / x ** 4)
    t4 = jp1 * jp1 / 2
    return x, jp1, (t0, t1, t2, t3, t4)


def test_c1_paper_form_reduces_at_zeros():
    # J_{m-1} = -J_{m+1} and J_{m-2} = 2 (m - 1) J_{m-1} / x at a zero of J_m
    # fold t1 + t2 + t3 into J_{m+1}^2 / 2, the form c1_closed sums
    with mpmath.workdps(30):
        for m in range(1, 11):
            for n in range(1, 4):
                x, jp1, (t0, *rest) = _c1_paper_terms(m, n)
                paper = -(x * x / 4) * (t0 + sum(rest))
                reduced = -(x * x / 4) * (t0 + jp1 * jp1)
                assert abs(paper - reduced) <= 1e-25 * abs(reduced), (m, n)
