"""Closed-form diagonal moment integrals against high-precision references."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qtrap import oracle
from qtrap.oracle import (
    PATH_HYPER,
    PATH_M0,
    PATH_QUAD,
    a3_closed,
    a_neg1_closed,
    c1_closed,
)
from qtrap.special import DomainError


# references from a 30-digit quadrature of the defining integrals

A_NEG1_REFERENCE = [
    (1, 1, 0.4188924345866571772564),
    (2, 3, 0.2225849365079057220342),
    (3, 5, 0.1502257748525312251627),
    (5, 2, 0.07357826384896011593743),
]

A3_REFERENCE = [
    (0, 1, 0.0293846695416027017207),
    (0, 4, 0.008876713238579748751543),
    (1, 2, 0.01501157748572114066562),
    (2, 1, 0.02360360816602507793066),
    (3, 3, 0.00869100796504495171722),
]

C1_REFERENCE = [
    (0, 1, -0.7793251491983969357019),
    (0, 3, -2.759075138966875877437),
    (1, 1, -0.7719264596661854218112),
    (2, 4, -3.755564666081382462924),
    (3, 2, -1.759816067310327115267),
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
    # must fall back to quadrature instead of returning garbage
    assert a3_closed(0, 1).path == PATH_HYPER
    assert a3_closed(3, 2).path == PATH_HYPER
    assert a3_closed(0, 4).path == PATH_QUAD
    assert a3_closed(3, 3).path == PATH_QUAD
    assert c1_closed(0, 1).path == PATH_M0
    assert c1_closed(0, 9).path == PATH_M0
    assert c1_closed(1, 1).path == PATH_HYPER
    assert c1_closed(1, 4).path == PATH_QUAD
    assert a_neg1_closed(1, 4).path == PATH_HYPER
    assert a_neg1_closed(2, 4).path == PATH_QUAD


def test_routes_cross_validate():
    # wherever the series converges it must agree with the quadrature route
    # of a neighboring table entry computed the slow way
    from qtrap.quad import integrate
    from qtrap.special import bessel_j, bessel_zeros

    for m, n in ((1, 1), (2, 2), (3, 1)):
        x = bessel_zeros(m, n).zeros[n - 1]
        res = a3_closed(m, n)
        assert res.path == PATH_HYPER
        ref = integrate(lambda s: s ** 3 * bessel_j(m, x * s) ** 2, 0.0, 1.0,
                        initial_panels=8).value
        assert_allclose(res.value, ref, rtol=1e-10)


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
    from qtrap.special import bessel_j, bessel_zeros
    for n in (1, 5, 12):
        x = bessel_zeros(0, n).zeros[n - 1]
        res = c1_closed(0, n)
        assert res.path == PATH_M0
        assert_allclose(res.value, -x ** 2 * bessel_j(1, x) ** 2 / 2.0, rtol=1e-14)
