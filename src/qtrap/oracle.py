"""Closed-form values for the diagonal Bessel moment integrals.

These are the same quantities the spectral layer obtains by adaptive
quadrature, evaluated here through an entirely different route: the paper's
generalized hypergeometric sums at argument -x_mn^2, each over the leading
coefficient lead = ((x/2)^m / m!)^2 of J_m(x)^2.  Agreement between the two
routes validates both.

The hypergeometric sums alternate with enormous terms once x_mn grows, so
each closed form watches for the cancellation guard of `pfq` and falls back
to the elementary Lommel form at the zero (Watson, 5.11) when the sum cannot
be trusted; the result always says which path produced it.  Its a3 and the
x^2 J^2 / 2 in c1 are diagonals that `spectral._zero_blocks` builds on.

Conventions, with g(s) = J_m(x_mn s), x = x_mn and J = J_{m+1}(x):

    a_neg1 = int_0^1 g^2 / s ds          (m >= 1; diverges at m = 0)
           = lead / (2m) 2F3(m, m + 1/2; m + 1, m + 1, 2m + 1; -x^2)
           = (1 - J_0(x)^2 - 2 sum_{k=1}^{m-1} J_k(x)^2) / (2m)
    a3     = int_0^1 s^3 g^2 ds
           = lead / (2 (m + 2)) 2F3(m + 1/2, m + 2; m + 1, m + 3, 2m + 1; -x^2)
           = J^2 (x^2 + 2 (m^2 - 1)) / (6 x^2)
    c1     = -int_0^1 s g'^2 ds                                   (< 0)
           = -(x^2 / 4) (J^2 - lead m / (m + 1)^2
                         3F4(m + 1/2, m + 1, m + 1; m, m + 2, m + 2, 2m + 1; -x^2))
           = m^2 a_neg1 - x^2 J^2 / 2

The paper's c1 carries J_{m-2} and J_{m-1} terms besides J_{m+1}^2 / 2; at
a zero of J_m, where J_{m-1} = -J_{m+1} and J_{m-2} = 2 (m - 1) J_{m-1} / x
(Watson, 3.2), they add up to exactly J_{m+1}^2 / 2, which leaves the J^2
above.  Its 3F4 has a pole at m = 0, so c1 takes the Lommel form there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# `integrate`, `bessel_j_prime` and `bessel_zeros` stay bound, unused, because
# the benchmark's layer tracing (benchmarks/tracing.py) pins all three here
from .quad import integrate  # noqa: F401
from .special import (  # noqa: F401
    CancellationError,
    DomainError,
    NonConvergence,
    bessel_j,
    bessel_j_prime,
    bessel_zeros,
    pfq,
)
from .spectral import _lommel_diagonals, _zeros_cached

__all__ = ["ClosedFormResult", "a_neg1_closed", "a3_closed", "c1_closed"]

PATH_HYPER = "hypergeometric"
PATH_LOMMEL = "lommel"


@dataclass(frozen=True)
class ClosedFormResult:
    value: float
    path: str


def _at_zero(m: int, n: int, lommel, a=None, b=None, hyper=None) -> ClosedFormResult:
    """hyper(x, J^2, lead pFq(a; b; -x^2)) at x = x_mn and J = J_{m+1}(x)
    where `pfq`'s guard accepts the sum, otherwise lommel(x, J^2)."""
    zeros, absj = _zeros_cached(m, n)
    x, jsq = float(zeros[n - 1]), float(absj[n - 1]) ** 2
    if hyper is not None:
        try:
            f = pfq(a, b, -x * x)
        except (CancellationError, NonConvergence):
            pass
        else:
            lead = ((0.5 * x) ** m / math.factorial(m)) ** 2
            return ClosedFormResult(value=hyper(x, jsq, lead * f), path=PATH_HYPER)
    return ClosedFormResult(value=lommel(x, jsq), path=PATH_LOMMEL)


def _a_neg1_lommel(m: int, x: float) -> float:
    # J_{k-1} + J_{k+1} = (2k/t) J_k and J_0^2 + 2 sum_k J_k^2 = 1; the
    # -J_m(x)^2 / (2m) term of the general identity vanishes at the zero
    tail = sum(bessel_j(k, x) ** 2 for k in range(1, m))
    return (1.0 - bessel_j(0, x) ** 2 - 2.0 * tail) / (2.0 * m)


def a_neg1_closed(m: int, n: int) -> ClosedFormResult:
    """int_0^1 J_m(x s)^2 / s ds for m >= 1."""
    if m < 1:
        raise DomainError("a_neg1 diverges at m = 0; only m >= 1 is defined")
    return _at_zero(m, n, lambda x, jsq: _a_neg1_lommel(m, x),
                    (m, m + 0.5), (m + 1.0, m + 1.0, 2.0 * m + 1.0),
                    lambda x, jsq, f: f / (2.0 * m))


def a3_closed(m: int, n: int) -> ClosedFormResult:
    """int_0^1 s^3 J_m(x s)^2 ds."""
    if m < 0:
        raise DomainError("angular index must be >= 0")
    return _at_zero(m, n, lambda x, jsq: jsq * _lommel_diagonals(m, x)[0],
                    (m + 0.5, m + 2.0), (m + 1.0, m + 3.0, 2.0 * m + 1.0),
                    lambda x, jsq, f: f / (2.0 * (m + 2.0)))


def c1_closed(m: int, n: int) -> ClosedFormResult:
    """-int_0^1 s (d J_m(x s)/ds)^2 ds, always negative."""
    if m < 0:
        raise DomainError("angular index must be >= 0")

    def lommel(x, jsq):
        gradient = m * m * _a_neg1_lommel(m, x) if m else 0.0
        return gradient - jsq * _lommel_diagonals(m, x)[1]

    if m == 0:  # the 3F4 has a pole at its lower parameter m
        return _at_zero(m, n, lommel)
    return _at_zero(m, n, lommel,
                    (m + 0.5, m + 1.0, m + 1.0), (float(m), m + 2.0, m + 2.0, 2.0 * m + 1.0),
                    lambda x, jsq, f: -(x * x / 4.0) * (jsq - m / (m + 1.0) ** 2 * f))
