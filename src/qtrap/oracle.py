"""Closed-form values for the diagonal Bessel moment integrals.

These are the same quantities the spectral layer obtains by quadrature,
evaluated here through an entirely different route: the paper's generalized
hypergeometric sums at argument -x_mn^2, each over the leading coefficient
lead = ((x/2)^m / m!)^2 of J_m(x)^2, summed exactly by `special.pfq`.  No
Bessel function is evaluated here; the zero x_mn and, in c1, |J_{m+1}(x_mn)|
come from the zero table.  Agreement between the routes validates both, and
the Lommel forms `spectral._zero_blocks` builds on are a third route.

Conventions, with g(s) = J_m(x_mn s), x = x_mn and J = J_{m+1}(x):

    a_neg1 = int_0^1 g^2 / s ds          (m >= 1; diverges at m = 0)
           = lead / (2m) 2F3(m, m + 1/2; m + 1, m + 1, 2m + 1; -x^2)
    a3     = int_0^1 s^3 g^2 ds
           = lead / (2 (m + 2)) 2F3(m + 1/2, m + 2; m + 1, m + 3, 2m + 1; -x^2)
    c1     = -int_0^1 s g'^2 ds                                   (< 0)
           = -(x^2 / 4) (J^2 - lead m / (m + 1)^2
                         3F4(m + 1/2, m + 1, m + 1; m, m + 2, m + 2, 2m + 1; -x^2))
           = -(x^4 / 16) 1F2(3/2; 3, 3; -x^2)                     (m = 0)

The paper's c1 carries J_{m-2} and J_{m-1} terms besides J_{m+1}^2 / 2; at
a zero of J_m, where J_{m-1} = -J_{m+1} and J_{m-2} = 2 (m - 1) J_{m-1} / x
(Watson, 3.2), they add up to exactly J_{m+1}^2 / 2, which leaves the J^2
above.  Its 3F4 has a pole at m = 0, where g' = -x J_1(x s) and c1 is the
series of -x^2 int_0^1 s J_1(x s)^2 ds term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# `integrate`, `bessel_j`, `bessel_j_prime` and `bessel_zeros` stay bound,
# unused, because the benchmark's layer tracing (benchmarks/tracing.py) pins
# all four here
from .quad import integrate  # noqa: F401
from .special import (  # noqa: F401
    DomainError,
    bessel_j,
    bessel_j_prime,
    bessel_zeros,
    pfq,
)
from .spectral import _zeros_cached

__all__ = ["ClosedFormResult", "a_neg1_closed", "a3_closed", "c1_closed"]

PATH_HYPER = "hypergeometric"


@dataclass(frozen=True)
class ClosedFormResult:
    value: float
    # always PATH_HYPER, the one route; kept because the benchmark's oracle
    # reads and its `oracle.hyper_frac` figure report it
    path: str


def _at_zero(m: int, n: int, a, b, form) -> ClosedFormResult:
    """form(x, J^2, lead pFq(a; b; -x^2)) at x = x_mn and J = J_{m+1}(x)."""
    zeros, absj = _zeros_cached(m, n)
    x, jsq = float(zeros[n - 1]), float(absj[n - 1]) ** 2
    lead = ((0.5 * x) ** m / math.factorial(m)) ** 2
    return ClosedFormResult(value=form(x, jsq, lead * pfq(a, b, -x * x)), path=PATH_HYPER)


def a_neg1_closed(m: int, n: int) -> ClosedFormResult:
    """int_0^1 J_m(x s)^2 / s ds for m >= 1."""
    if m < 1:
        raise DomainError("a_neg1 diverges at m = 0; only m >= 1 is defined")
    return _at_zero(m, n, (m, m + 0.5), (m + 1.0, m + 1.0, 2.0 * m + 1.0),
                    lambda x, jsq, f: f / (2.0 * m))


def a3_closed(m: int, n: int) -> ClosedFormResult:
    """int_0^1 s^3 J_m(x s)^2 ds."""
    if m < 0:
        raise DomainError("angular index must be >= 0")
    return _at_zero(m, n, (m + 0.5, m + 2.0), (m + 1.0, m + 3.0, 2.0 * m + 1.0),
                    lambda x, jsq, f: f / (2.0 * (m + 2.0)))


def c1_closed(m: int, n: int) -> ClosedFormResult:
    """-int_0^1 s (d J_m(x s)/ds)^2 ds, always negative."""
    if m < 0:
        raise DomainError("angular index must be >= 0")
    if m == 0:  # the 3F4 has a pole at its lower parameter m
        return _at_zero(m, n, (1.5,), (3.0, 3.0), lambda x, jsq, f: -(x ** 4 / 16.0) * f)
    return _at_zero(m, n, (m + 0.5, m + 1.0, m + 1.0), (float(m), m + 2.0, m + 2.0, 2.0 * m + 1.0),
                    lambda x, jsq, f: -(x * x / 4.0) * (jsq - m / (m + 1.0) ** 2 * f))
