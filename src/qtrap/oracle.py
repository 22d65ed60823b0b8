"""Closed-form values for the diagonal Bessel moment integrals.

These are the same quantities the spectral layer obtains by adaptive
quadrature, evaluated here through an entirely different route: terminating
combinations of Bessel values plus generalized hypergeometric sums at
argument -x_mn^2.  Agreement between the two routes validates both.

The hypergeometric sums alternate with enormous terms once x_mn grows, so
each closed form watches for the cancellation guard of `pfq` and falls back
to the elementary Lommel form at the zero (Watson, 5.11) when the sum cannot
be trusted; the result always says which path produced it.  Its a3 and the
x^2 J^2 / 2 in c1 are diagonals that `spectral._zero_blocks` builds on.

Conventions, with g(s) = J_m(x_mn s), x = x_mn and J = J_{m+1}(x):

    a_neg1 = int_0^1 g^2 / s ds          (m >= 1; diverges at m = 0)
           = (1 - J_0(x)^2 - 2 sum_{k=1}^{m-1} J_k(x)^2) / (2m)
    a3     = int_0^1 s^3 g^2 ds = J^2 (x^2 + 2 (m^2 - 1)) / (6 x^2)
    c1     = -int_0^1 s g'^2 ds = m^2 a_neg1 - x^2 J^2 / 2    (< 0)
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


def _zero(m: int, n: int) -> float:
    if n < 1:
        raise DomainError(f"radial index must be >= 1, got {n}")
    return float(_zeros_cached(m, n)[0][n - 1])


def _j_signed(order: int, x: float) -> float:
    """J_order with the negative-order reflection J_{-k} = (-1)^k J_k."""
    if order >= 0:
        return float(bessel_j(order, x))
    k = -order
    return float((-1) ** k * bessel_j(k, x))


@dataclass(frozen=True)
class ClosedFormResult:
    value: float
    path: str


def _regularized_prefactor(logs_plus, logs_minus) -> float:
    return math.exp(sum(logs_plus) - sum(logs_minus))


def _a_neg1_lommel(m: int, x: float) -> float:
    # J_{k-1} + J_{k+1} = (2k/t) J_k and J_0^2 + 2 sum_k J_k^2 = 1; the
    # -J_m(x)^2 / (2m) term of the general identity vanishes at the zero
    tail = sum(bessel_j(k, x) ** 2 for k in range(1, m))
    return (1.0 - bessel_j(0, x) ** 2 - 2.0 * tail) / (2.0 * m)


def _c1_lommel(m: int, x: float) -> float:
    jp1 = bessel_j(m + 1, x)
    gradient = m * m * _a_neg1_lommel(m, x) if m else 0.0
    return gradient - jp1 * jp1 * _lommel_diagonals(m, x)[1]


def a_neg1_closed(m: int, n: int) -> ClosedFormResult:
    """int_0^1 J_m(x s)^2 / s ds for m >= 1."""
    if m < 1:
        raise DomainError("a_neg1 diverges at m = 0; only m >= 1 is defined")
    x = _zero(m, n)
    try:
        f = pfq((m, m + 0.5), (m + 1.0, m + 1.0, 2.0 * m + 1.0), -x * x)
        pre = _regularized_prefactor(
            [2.0 * m * math.log(x), math.lgamma(2.0 * m)],
            [m * math.log(4.0), 2.0 * math.lgamma(m + 1.0), math.lgamma(2.0 * m + 1.0)],
        )
        return ClosedFormResult(value=pre * f, path=PATH_HYPER)
    except (CancellationError, NonConvergence):
        return ClosedFormResult(value=_a_neg1_lommel(m, x), path=PATH_LOMMEL)


def a3_closed(m: int, n: int) -> ClosedFormResult:
    """int_0^1 s^3 J_m(x s)^2 ds."""
    if m < 0:
        raise DomainError("angular index must be >= 0")
    x = _zero(m, n)
    try:
        if m == 0:
            f = pfq((0.5, 2.0), (1.0, 1.0, 3.0), -x * x)
            return ClosedFormResult(value=0.25 * f, path=PATH_HYPER)
        f = pfq((m + 0.5, m + 2.0), (m + 1.0, m + 3.0, 2.0 * m + 1.0), -x * x)
        pre = _regularized_prefactor(
            [2.0 * m * math.log(x), math.log(m), math.log(m + 1.0), math.lgamma(2.0 * m)],
            [m * math.log(4.0), math.lgamma(m + 1.0), math.lgamma(m + 3.0),
             math.lgamma(2.0 * m + 1.0)],
        )
        return ClosedFormResult(value=pre * f, path=PATH_HYPER)
    except (CancellationError, NonConvergence):
        jp1 = bessel_j(m + 1, x)
        return ClosedFormResult(value=jp1 * jp1 * _lommel_diagonals(m, x)[0],
                                path=PATH_LOMMEL)


def c1_closed(m: int, n: int) -> ClosedFormResult:
    """-int_0^1 s (d J_m(x s)/ds)^2 ds, always negative."""
    if m < 0:
        raise DomainError("angular index must be >= 0")
    x = _zero(m, n)
    if m == 0:  # the hypergeometric form divides by Gamma(m)
        return ClosedFormResult(value=_c1_lommel(m, x), path=PATH_LOMMEL)
    try:
        f = pfq(
            (m + 0.5, m + 1.0, m + 1.0),
            (float(m), m + 2.0, m + 2.0, 2.0 * m + 1.0),
            -x * x,
        )
        pre = _regularized_prefactor(
            [2.0 * m * math.log(x)],
            [m * math.log(4.0), math.lgamma(float(m)), math.lgamma(m + 1.0),
             2.0 * math.log(m + 1.0)],
        )
        t0 = -pre * f
        jm2 = _j_signed(m - 2, x)
        jm1 = _j_signed(m - 1, x)
        jp1 = float(bessel_j(m + 1, x))
        t1 = 2.0 * jm2 * jm1 * (4.0 * m * (m * m - 1.0) + x * x * (1.0 - 2.0 * m)) / x ** 3
        t2 = jm2 * jm2 * (x * x - 2.0 * m * (m + 1.0)) / (x * x)
        t3 = jm1 * jm1 * (0.5 - 4.0 * m * (m - 1.0) * (2.0 * m * m - 2.0 - x * x) / x ** 4)
        t4 = 0.5 * jp1 * jp1
        val = -(x * x / 4.0) * (t0 + t1 + t2 + t3 + t4)
        return ClosedFormResult(value=val, path=PATH_HYPER)
    except (CancellationError, NonConvergence):
        return ClosedFormResult(value=_c1_lommel(m, x), path=PATH_LOMMEL)
