"""Closed-form values for the diagonal Bessel moment integrals.

These are the same quantities the spectral layer obtains by adaptive
quadrature, evaluated here through an entirely different route: terminating
combinations of Bessel values plus generalized hypergeometric sums at
argument -x_mn^2.  Agreement between the two routes validates both.

The hypergeometric sums alternate with enormous terms once x_mn grows, so
each closed form watches for the cancellation guard of `pfq` and falls back
to direct quadrature when the sum cannot be trusted; the result always says
which path produced it.

Conventions, with g(s) = J_m(x_mn s) and x = x_mn:

    a_neg1 = int_0^1 g^2 / s ds          (m >= 1; diverges at m = 0)
    a3     = int_0^1 s^3 g^2 ds
    c1     = -int_0^1 s g'^2 ds          (radial gradient integral, < 0)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quad import integrate
# the zeros come from spectral's table; `qtrap.oracle.bessel_zeros` stays
# bound because the benchmark's layer tracing (benchmarks/tracing.py) pins it
from .special import (  # noqa: F401
    CancellationError,
    DomainError,
    NonConvergence,
    bessel_j,
    bessel_j_prime,
    bessel_zeros,
    pfq,
)
from .spectral import _zeros_cached

__all__ = ["ClosedFormResult", "a_neg1_closed", "a3_closed", "c1_closed"]

PATH_HYPER = "hypergeometric"
PATH_M0 = "special_case_m0"
PATH_QUAD = "quadrature_fallback"


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
        pass

    # J_m(z)/z = (J_{m-1}(z) + J_{m+1}(z)) / (2m) removes the 1/s so the
    # integrand stays benign near the axis.
    def f_quad(s):
        z = x * s
        tot = bessel_j(m - 1, z) + bessel_j(m + 1, z)
        return (x * x / (4.0 * m * m)) * s * tot * tot

    val = integrate(f_quad, 0.0, 1.0, initial_panels=max(8, int(x))).value
    return ClosedFormResult(value=float(val), path=PATH_QUAD)


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
        pass

    def f_quad(s):
        j = bessel_j(m, x * s)
        return s ** 3 * j * j

    val = integrate(f_quad, 0.0, 1.0, initial_panels=max(8, int(x))).value
    return ClosedFormResult(value=float(val), path=PATH_QUAD)


def c1_closed(m: int, n: int) -> ClosedFormResult:
    """-int_0^1 s (d J_m(x s)/ds)^2 ds, always negative."""
    if m < 0:
        raise DomainError("angular index must be >= 0")
    x = _zero(m, n)
    if m == 0:
        j1 = float(bessel_j(1, x))
        return ClosedFormResult(value=-0.5 * x * x * j1 * j1, path=PATH_M0)

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
        pass

    def f_quad(s):
        dj = bessel_j_prime(m, x * s)
        return s * (x * dj) ** 2

    val = -float(integrate(f_quad, 0.0, 1.0, initial_panels=max(8, int(x))).value)
    return ClosedFormResult(value=val, path=PATH_QUAD)
