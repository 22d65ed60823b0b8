"""Real special functions built from scratch: Bessel J_m, its derivative and
positive zeros, and a guarded generalized hypergeometric series.  Every
routine is float64 throughout, so none depends on the platform's long
double.  Each route of J_m runs only where it does not cancel: the
ascending series, 13 terms, for x <= 2; Miller's backward recurrence for
2 < x <= max(15.3, m); past that, J_0 and J_1 from `_HANKEL_TERMS` Hankel
terms and upward recurrence to m, which then runs only through k < x.

Everything in this module is pure and reentrant.  No caching happens here;
callers that want tables cache them themselves.

Supported envelope: integer order 0 <= m <= 50, argument 0 <= x <= 1e4.
Within it, absolute error <= 1e-13 for x <= 50 and relative error <= 1e-11
beyond, which is what the quadrature and spectral layers budget for.
Measured against 30-digit mpmath: at most 8.9e-16 absolute on [0, 70] (12
orders up to 51), 3.7e-15 of the amplitude sqrt(2/(pi x)) on [50, 1e4].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainError",
    "NumericError",
    "CancellationError",
    "NonConvergence",
    "BesselZeroTable",
    "bessel_j",
    "bessel_j_prime",
    "bessel_zeros",
    "pfq",
]

M_MAX = 50
X_MAX = 1.0e4

# Points go through each route of bessel_j in slices of this many.
_HANKEL_SLICE = 8192


class DomainError(ValueError):
    """Argument outside the supported envelope."""


class NumericError(RuntimeError):
    """An iteration failed to meet its own stopping criterion."""


class CancellationError(NumericError):
    """Alternating series lost too many digits; caller should fall back."""


class NonConvergence(NumericError):
    """Series did not converge within the term budget."""


# --------------------------------------------------------------------------
# Bessel J_m

# Each route serves only points where it does not cancel, all in float64.
# The series serves 0 <= x <= 2 and sums _SERIES_TERMS terms: at x = 2 the
# first one left out is below 2^-60 of J_m(2) for every order.
_SERIES_TOP = 2.0
_SERIES_TERMS = 13
# The Hankel sums serve x > max(_HANKEL_FLOOR, m), and stop before the first
# term whose ratio (2j-1)^2 / (8jx) to the last reaches 1 at the floor; mu = 4
# shrinks that ratio from j = 2 on.  Their smallest term there is 7.3e-15.
_HANKEL_FLOOR = 15.3
_HANKEL_TERMS = next(j for j in itertools.count(1)
                     if (2 * j - 1) ** 2 >= 8 * j * _HANKEL_FLOOR)


def _miller_start(m: int) -> int:
    """The first even N with (x/2)^N / N! < 2^-60 at the top of the Miller
    band, x = max(_HANKEL_FLOOR, m): 48 up to m = 15, 102 at m = 51."""
    log_h = math.log(max(_HANKEL_FLOOR, m) / 2.0)
    return next(n for n in itertools.count(2, 2)
                if n * log_h - math.lgamma(n + 1.0) < -60.0 * math.log(2.0))


def _jm_series(m: int, x: np.ndarray) -> np.ndarray:
    """The first _SERIES_TERMS terms of the ascending series.  For x <= 2 no
    term exceeds the first, and J_m(x) is at least 0.22 of it (J_0(2))."""
    h = 0.5 * x
    q = h * h
    # (x/2)^m / m! by repeated squaring: no log(0), and faster than pow
    term = np.full_like(h, 1.0 / math.factorial(m))
    e, base = m, h
    while e:
        if e & 1:
            term *= base
        e, base = e >> 1, base * base
    total = term.copy()
    for k in range(1, _SERIES_TERMS):
        term *= q
        term /= -k * (k + m)
        total += term
    return total


def _jm_miller(m: int, x: np.ndarray) -> np.ndarray:
    """J_m(x) for 2 < x <= max(_HANKEL_FLOOR, m): J_{k-1} = (2k/x) J_k - J_{k+1}
    down from J_N = 1, J_{N+1} = 0 at N = _miller_start(m), the direction in
    which J dominates, then normalised by J_0 + 2 sum J_2k = 1 (Miller's
    algorithm).  Unnormalised, J_0 stays below 1/J_102(2), about 1e162."""
    inv = 2.0 / x
    jk, jk1, even = np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
    for k in range(_miller_start(m), 0, -1):  # jk is J_k, jk1 J_{k+1}
        if k == m:
            jm = jk
        if k % 2 == 0:
            even += jk
        jk, jk1 = (k * inv) * jk - jk1, jk
    return (jm if m else jk) / (jk + 2.0 * even)


def _hankel_pq(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hankel P and Q sums of orders 0 and 1, rows 0 and 1: terms 1 to
    _HANKEL_TERMS - 1 after the leading 1 of P, each smaller than the one
    before it wherever x is past the floor."""
    mu = np.array([[0.0], [4.0]])
    pq = np.zeros((2, 2, x.size))
    pq[0] = 1.0
    term = np.ones((2, x.size))
    for j in range(1, _HANKEL_TERMS):
        # the terms' sign flips at every even j; odd terms feed Q
        term *= (mu - (2.0 * j - 1.0) ** 2) / ((-1) ** (j + 1) * 8.0 * j * x)
        pq[j % 2] += term
    return pq[0], pq[1]


def _jm_hankel_recurrence(m: int, x: np.ndarray) -> np.ndarray:
    """J_m(x) for x > max(_HANKEL_FLOOR, m): J_0 and J_1 from the Hankel
    expansion, with phase and amplitude from cos x and sin x of the exact x,
    then J_{k+1} = (2k/x) J_k - J_{k-1} up to order m, stable while k < x
    (Gautschi, SIAM Rev. 9, 1967), as here throughout."""
    p, q = _hankel_pq(x)
    c, s = np.cos(x), np.sin(x)
    cos, sin = c + s, s - c  # sqrt(2) times those of chi = x - pi/4
    amp = np.sqrt(1.0 / (np.pi * x))
    # order 1 has phase chi - pi/2: its cos is sin(chi), its sin -cos(chi)
    jk = amp * (p[0] * cos - q[0] * sin)
    jk1 = amp * (p[1] * sin + q[1] * cos)
    inv = 2.0 / x
    for k in range(1, m):
        jk, jk1 = jk1, (k * inv) * jk1 - jk
    return jk1 if m else jk


def _validate_order(m, limit: int = M_MAX) -> int:
    if not float(m).is_integer() or m < 0:
        raise DomainError(f"order must be a nonnegative integer, got {m}")
    if m > limit:
        raise DomainError(f"order {m} above supported maximum {limit}")
    return int(m)


def bessel_j(m, x):
    """Bessel function of the first kind, J_m(x).

    `x` may be a scalar or an ndarray (any shape); negative arguments and
    arguments beyond the envelope raise DomainError.  Orders up to 51 are
    accepted so that the derivative recurrence stays inside the engine.
    Points up to 2, 0 included, take the ascending series, points up to
    max(15.3, m) Miller's backward recurrence, and the rest the Hankel
    expansion of J_0 and J_1 and upward recurrence to order m.
    """
    m = _validate_order(m, limit=M_MAX + 1)
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= X_MAX)):
        raise DomainError("argument outside [0, 1e4]")  # rejects NaN too

    out = np.empty_like(arr)
    top = max(_HANKEL_FLOOR, m)
    for route, sel in ((_jm_series, arr <= _SERIES_TOP),
                       (_jm_miller, (_SERIES_TOP < arr) & (arr <= top)),
                       (_jm_hankel_recurrence, top < arr)):
        xs = arr[sel]
        part = np.empty_like(xs)
        for lo in range(0, xs.size, _HANKEL_SLICE):
            part[lo:lo + _HANKEL_SLICE] = route(m, xs[lo:lo + _HANKEL_SLICE])
        out[sel] = part
    return float(out) if out.ndim == 0 else out


def bessel_j_prime(m, x):
    """dJ_m/dx via the recurrence J'_m = (J_{m-1} - J_{m+1})/2."""
    m = _validate_order(m)
    if m == 0:
        return -bessel_j(1, x)
    return 0.5 * (bessel_j(m - 1, x) - bessel_j(m + 1, x))


# --------------------------------------------------------------------------
# Zeros

@dataclass(frozen=True)
class BesselZeroTable:
    """Ordered positive zeros x_mn of J_m, n = 1..N.

    The trivial zero at the origin for m > 0 is excluded.  Zeros are strictly
    increasing and each satisfies |J_m(zero)| < 1e-12.
    """

    m: int
    zeros: np.ndarray = field(repr=False)

    def __post_init__(self):
        z = np.asarray(self.zeros, dtype=float)
        z.setflags(write=False)
        object.__setattr__(self, "zeros", z)
        if z.size == 0:
            raise DomainError("zero table must hold at least one zero")
        if not np.all(np.diff(z) > 0.0):
            raise NumericError("zeros are not strictly increasing")
        resid = np.abs(bessel_j(self.m, z))
        if np.max(resid) >= 1e-12:
            raise NumericError(f"stored zero fails residual check: {np.max(resid):.3e}")


_SCAN_STEP = math.pi / 4.0


def bessel_zeros(m: int, count: int) -> BesselZeroTable:
    """First `count` positive zeros of J_m.

    Brackets are the sign changes between consecutive nodes of a scan with
    step pi/4 starting just above m (the first zero of J_m exceeds m), over
    the scan budget of 16 count + 400 steps in one `bessel_j` call.  The
    nodes are fixed for each order, and for m <= 50 none up to X_MAX is a
    zero (the least |J_m| on them is 2.4e-8), so each zero lies strictly
    inside a bracket.  Nodes stop at X_MAX, and none past it is built:
    running out of them there raises DomainError, and running out of the
    budget first raises NumericError.  Newton iteration then polishes the
    midpoints of all brackets together, until a step is at most one ulp of
    x or 1e-13.
    """
    m = _validate_order(m)
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")

    # accumulated rather than x0 + k step, so each node is bit-identical to
    # the one a step-by-step scan reaches; the steps stop two past the last
    # node that x0 + k step puts below X_MAX, and no node past it is kept
    budget = 16 * count + 400
    x0 = m + 1.8
    steps = min(budget, int((X_MAX - x0) / _SCAN_STEP) + 2)
    xs = np.add.accumulate(np.concatenate([[x0], np.full(steps, _SCAN_STEP)]))
    xs = xs[xs <= X_MAX]
    fs = bessel_j(m, xs)
    hits = np.flatnonzero(fs[:-1] * fs[1:] < 0.0)
    if hits.size < count:
        if xs.size <= budget:  # cut short at X_MAX
            raise DomainError(f"J_{m} has fewer than {count} zeros below X_MAX = {X_MAX:g}")
        raise NumericError(f"failed to bracket {count} zeros of J_{m} within scan budget")
    hits = hits[:count]
    return BesselZeroTable(m=m, zeros=_newton_zeros(m, 0.5 * (xs[hits] + xs[hits + 1])))


def _newton_zeros(m: int, x: np.ndarray) -> np.ndarray:
    """Polish every bracket midpoint x_i at once.  A step of 1e-13 is below
    one ulp once x >= 512, so the stop is the larger of the two.  Over the
    whole envelope, m <= 50 and x <= X_MAX, every zero stops within 5 steps,
    no iterate strays more than 0.03 past its bracket and each lands on the
    zero its bracket holds; a polish that does not stop raises NumericError."""
    out = np.empty_like(x)
    live = np.arange(x.size)
    for _ in range(60):
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = x - bessel_j(m, x) / bessel_j_prime(m, x)
        done = np.abs(x_new - x) <= np.maximum(1e-13, np.spacing(x))
        out[live[done]] = x_new[done]
        keep = ~done
        if not np.any(keep):
            return out
        x, live = x_new[keep], live[keep]
    raise NumericError(f"Newton polish stalled for J_{m} zero near {x[0]:.6f}")


# --------------------------------------------------------------------------
# Generalized hypergeometric series

# Refuse a sum whose rounding error, about eps times its largest term, may
# pass 1e-11 of it, and any term that _PFQ_BUDGET terms of its size could
# overflow.
_PFQ_GUARD = 1e-11 / np.finfo(float).eps
_PFQ_BUDGET = 50_000
_PFQ_OVERFLOW = np.finfo(float).max / _PFQ_BUDGET


def pfq(a, b, z: float) -> float:
    """Partial-sum evaluation of pFq(a; b; z) for p <= 3, q <= 4.

    Terms are accumulated in float64 with a running cancellation guard:
    if (max partial term)/|sum| exceeds `_PFQ_GUARD` the value cannot be
    trusted and CancellationError is raised so the caller can take another
    route.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    if len(a) > 3 or len(b) > 4:
        raise DomainError(f"pfq supports p <= 3, q <= 4, got p={len(a)}, q={len(b)}")
    for bi in b:
        if bi <= 0.0 and bi == math.floor(bi):
            raise DomainError(f"lower parameter {bi} is a nonpositive integer (pole)")
    z = float(z)

    term = total = max_term = 1.0
    settled = 0
    for k in range(_PFQ_BUDGET):
        num = 1.0
        for ai in a:
            num *= ai + k
        den = k + 1.0
        for bi in b:
            den *= bi + k
        term = term * num / den * z
        total += term
        at = abs(term)
        if at > max_term:
            max_term = at
        if at > _PFQ_OVERFLOW:
            raise CancellationError("hypergeometric terms overflow float64 range")
        if at <= 1e-24 * max(abs(total), 1e-300):
            settled += 1
            if settled >= 3:
                break
        else:
            settled = 0
    else:
        raise NonConvergence(f"pfq did not converge within {_PFQ_BUDGET} terms")

    if abs(total) == 0.0 or max_term / abs(total) > _PFQ_GUARD:
        raise CancellationError(
            f"cancellation guard tripped: max term / |sum| = {max_term / max(abs(total), 1e-300):.3e}"
        )
    return total
