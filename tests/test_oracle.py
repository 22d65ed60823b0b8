"""Closed-form diagonal moment integrals against high-precision references."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qtrap import oracle
from qtrap.oracle import (
    PATH_HYPER,
    PATH_LOMMEL,
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


def test_route_selection():
    # small zeros keep the raw hypergeometric sums convergent; larger ones
    # must fall back to the Lommel forms instead of returning garbage
    assert a3_closed(0, 1).path == PATH_HYPER
    assert a3_closed(1, 1).path == PATH_HYPER
    assert a3_closed(3, 1).path == PATH_HYPER
    assert c1_closed(1, 1).path == PATH_HYPER
    assert a3_closed(3, 2).path == PATH_LOMMEL
    assert a3_closed(0, 4).path == PATH_LOMMEL
    assert a3_closed(3, 3).path == PATH_LOMMEL
    assert a3_closed(2, 2).path == PATH_LOMMEL
    assert c1_closed(0, 1).path == PATH_LOMMEL
    assert c1_closed(0, 9).path == PATH_LOMMEL
    assert c1_closed(1, 4).path == PATH_LOMMEL
    assert a_neg1_closed(1, 4).path == PATH_LOMMEL
    assert a_neg1_closed(2, 4).path == PATH_LOMMEL


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
    # every value, on whichever path it took, against adaptive quadrature
    # of its defining integral
    paths = set()
    for m in range(4):
        for n in range(1, 6):
            x = bessel_zeros(m, n).zeros[n - 1]
            for form in (a3_closed, c1_closed) + ((a_neg1_closed,) if m else ()):
                res = form(m, n)
                paths.add(res.path)
                ref = integrate(_integrand(form, m, x), 0.0, 1.0,
                                initial_panels=max(8, int(x))).value
                assert_allclose(res.value, ref, rtol=1e-10, err_msg=f"{form.__name__}{m, n}")
    assert paths == {PATH_HYPER, PATH_LOMMEL}


def test_m0_inverse_moment_rejected():
    with pytest.raises(DomainError):
        a_neg1_closed(0, 1)


def test_bad_indices_rejected():
    with pytest.raises(DomainError):
        a3_closed(-1, 1)
    with pytest.raises(DomainError):
        c1_closed(0, 0)


def test_result_is_frozen():
    res = a3_closed(0, 1)
    with pytest.raises(AttributeError):
        res.value = 0.0


def test_c1_m0_closed_form_is_exact():
    # -x^2 J_1(x)^2 / 2 at a zero of J_0
    for n in (1, 5, 12):
        x = bessel_zeros(0, n).zeros[n - 1]
        res = c1_closed(0, n)
        assert res.path == PATH_LOMMEL
        assert_allclose(res.value, -x ** 2 * bessel_j(1, x) ** 2 / 2.0, rtol=1e-14)


def test_oracle_is_float64_only(monkeypatch):
    # with long double made float64, every form over m <= 5, n <= 20 gives
    # the same bits on the same path
    def table():
        return [form(m, n) for m in range(6) for n in range(1, 21)
                for form in (a3_closed, c1_closed) + ((a_neg1_closed,) if m else ())]

    fixed = table()
    monkeypatch.setattr(np, "longdouble", np.float64)
    assert table() == fixed
