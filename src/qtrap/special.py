"""Real special functions built from scratch: Bessel J_m, its derivative and
positive zeros, and an exact generalized hypergeometric sum.  The Bessel
routines are float64 throughout and `pfq` sums in Python integers, so none
depends on the platform's long double.  Each route of J_m runs only where
it does not cancel: the ascending series, 13 terms, for x <= 2; Miller's
band, 2 < x <= max(15.3, m), read from degree-8 Taylor pieces 1/8 wide of
J_m(x) (2/x)^m, built from one run of Miller's backward recurrence in
double-double; past that, J_0 and J_1 from `_HANKEL_TERMS` Hankel terms
(order m's alone at m <= 1) and upward recurrence to m, which then runs
only through k < x.  The Hankel P and Q are polynomials in 1/x^2 (Q after a
factor 1/x); their fixed coefficients are tabulated once at import and
summed by Horner's rule.

Everything in this module is pure and reentrant.  One cache lives here:
`_taylor_tables`, the Taylor pieces of Miller's band, built on the band's
first call and never at import, one table for orders 0 to 15 together
(123 KB) and one for each higher order (at most 28 KB, at m = 51).  Callers
that want other tables cache them themselves.

Supported envelope: integer order 0 <= m <= 50, argument 0 <= x <= 1e4.
Within it, absolute error <= 1e-13 for x <= 50 and relative error <= 1e-11
beyond, which is what the quadrature and spectral layers budget for.
Measured against 30-digit mpmath: at most 1.2e-15 absolute on [0, 70] in
steps of 0.02 (12 orders up to 51), just past the Hankel floor (m = 15 at
x = 15.34), and 1.1e-16 in Miller's band; 3.7e-15 of the amplitude
sqrt(2/(pi x)) on 40 geometric points of [50, 1e4], and up to 8.0e-15 of
it just past x = m (m = 51 at x = 51.14), where the float64 upward
recurrence is longest.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainError",
    "NumericError",
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
# Miller's band reads Taylor pieces this wide, of this degree (_taylor_tables).
_TAYLOR_STEP = 0.125
_TAYLOR_DEGREE = 8


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


# Error-free transformations (Knuth's two-sum, Dekker's split and product):
# each returns a float64 pair whose exact sum is the exact result.
def _two_sum(a, b):
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _split(a):
    c = 134217729.0 * a  # 2^27 + 1: hi keeps the top 26 bits of a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, a_split, b):
    # a_split is _split(a), which callers reuse across products
    p = a * b
    (ah, al), (bh, bl) = a_split, _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _jm_miller(m: int, x: np.ndarray) -> np.ndarray:
    """J_0(x) to J_{m+1}(x), one row each, for 2 < x <= max(_HANKEL_FLOOR, m),
    the values `_taylor_tables` is built from: J_{k-1} = (2k/x) J_k - J_{k+1}
    down from J_N = 1, J_{N+1} = 0 at N = _miller_start(m), the direction in
    which J dominates, then normalised by J_0 + 2 sum J_2k = 1 (Miller's
    algorithm).  Every step, the sum and the quotients are carried as
    unevaluated pairs hi + lo (double-double), so each value is within about
    half an ulp of itself; in plain float64 the recurrence's roundings leave
    up to 1.9 ulps of 1.  Unnormalised, J_0 stays below 1/J_102(2), about
    1e162."""
    n = _miller_start(m)
    k2 = 2.0 * np.arange(n, 0, -1)[:, None]
    r = k2 / x  # row i holds 2k/x at k = n - i, and r + r_lo is 2k/x
    r_split = _split(r)
    p, e = _two_prod(r, r_split, x)
    r_lo = ((k2 - p) - e) / x
    rows = np.empty((2, m + 2, x.size))  # hi and lo of J_0 .. J_{m+1}
    jk, jk_lo = np.ones_like(x), np.zeros_like(x)  # J_k, as hi + lo
    jk1, jk1_lo = np.zeros_like(x), np.zeros_like(x)  # J_{k+1}
    even, even_lo = np.zeros_like(x), np.zeros_like(x)
    for i, k in enumerate(range(n, 0, -1)):
        if k <= m + 1:
            rows[0, k], rows[1, k] = jk, jk_lo
        if k % 2 == 0:
            even, lo = _two_sum(even, jk)
            even_lo += lo + jk_lo
        p, e = _two_prod(r[i], (r_split[0][i], r_split[1][i]), jk)
        e += r[i] * jk_lo + r_lo[i] * jk
        s, lo = _two_sum(p, -jk1)
        lo += e - jk1_lo
        jk1, jk1_lo = jk, jk_lo
        jk = s + lo
        jk_lo = lo - (jk - s)
    rows[0, 0], rows[1, 0] = jk, jk_lo
    norm, lo = _two_sum(jk, 2.0 * even)
    norm_lo = lo + (jk_lo + 2.0 * even_lo)
    q = rows[0] / norm
    p, e = _two_prod(norm, _split(norm), q)
    return q + (((rows[0] - p) - e) + rows[1] - q * norm_lo) / norm


# Orders up to this one share one band, 2 < x <= _HANKEL_FLOOR.
_SHARED_BAND = int(_HANKEL_FLOOR)


@functools.cache
def _taylor_tables(band: int) -> dict[int, np.ndarray]:
    """Taylor pieces of J_m on the Miller band 2 < x <= max(_HANKEL_FLOOR,
    band), for every order m whose band it is: 0 to _SHARED_BAND for that
    one, and `band` alone past it.  Row i of order m's table holds the
    piece centred at c = 2 + (i + 1/2) _TAYLOR_STEP (the last one reaches
    past the band), column k its coefficient of t^k, t = x - c, in
    G(t) = J_m(c + t) (c/(c + t))^m = (c/2)^m g(c + t), g(x) = J_m(x) (2/x)^m.
    g, unlike J_m, is near 1/m! wherever J_m is tiny, so each piece keeps
    J_m's relative accuracy.  a_0 = J_m(c) and, since
    g'(x) = -(2/x)^m J_{m+1}(x) (DLMF 10.6.6), a_1 = -J_{m+1}(c), both from
    one `_jm_miller` run; g's equation x g'' + (2m + 1) g' + x g = 0 gives
    the rest:
    a_{k+2} = -[(k+1)(k+2m+1) a_{k+1} + c a_k + a_{k-1}] / (c (k+1)(k+2)).
    Built on first use, read-only."""
    count = math.ceil((max(_HANKEL_FLOOR, band) - _SERIES_TOP) / _TAYLOR_STEP)
    c = _SERIES_TOP + (np.arange(count) + 0.5) * _TAYLOR_STEP
    j = _jm_miller(band, c)
    orders = range(band + 1) if band == _SHARED_BAND else [band]
    m = np.array(orders, dtype=float)[:, None]
    a = np.zeros((len(orders), _TAYLOR_DEGREE + 1, count))
    a[:, 0], a[:, 1] = j[orders], -j[[k + 1 for k in orders]]
    for k in range(_TAYLOR_DEGREE - 1):
        a[:, k + 2] = -((k + 1) * (k + 2 * m + 1) * a[:, k + 1] + c * a[:, k]
                        + (a[:, k - 1] if k else 0.0)) / (c * ((k + 1) * (k + 2)))
    a = np.ascontiguousarray(a.transpose(0, 2, 1))  # a piece's row is one gather
    a.setflags(write=False)
    return dict(zip(orders, a))


def _jm_taylor(m: int, x: np.ndarray) -> np.ndarray:
    """J_m(x) for 2 < x <= max(_HANKEL_FLOOR, m): the piece of order m's
    `_taylor_tables` that holds x, summed by Horner's rule at t = x - c,
    which is exact, times (1 + u)^m, u = t/c.  That power is taken by
    repeated squaring of w = (1 + u)^k - 1, so each rounding stays relative
    to w, not to 1: (x/2)^m by repeated squaring carries the first square's
    rounding m/2 times, up to 2.1 ulps of 1 at m = 50."""
    a = _taylor_tables(max(m, _SHARED_BAND))[m]
    i = ((x - _SERIES_TOP) * (1.0 / _TAYLOR_STEP)).astype(np.intp)
    np.minimum(i, a.shape[0] - 1, out=i)  # x at the band's top edge
    c = _SERIES_TOP + (i + 0.5) * _TAYLOR_STEP
    t = x - c
    co = np.take(a, i, axis=0).T
    acc = co[-1] * t
    for row in co[-2:0:-1]:
        acc += row
        acc *= t
    acc += co[0]
    if m:
        # power is (1 + u)^j - 1 over the bits j of m taken so far
        e, w, power = m, t / c, None
        while True:
            if e & 1:
                power = w if power is None else power + w * (power + 1.0)
            e >>= 1
            if not e:
                break
            w = w * (w + 2.0)
        acc += acc * power
    return acc


def _hankel_coefficients() -> np.ndarray:
    """The fixed coefficients of the Hankel sums, as polynomials in
    y = 1/x^2: row [k, 0, i] multiplies y^k in P of order i, row [k, 1, i]
    y^k in x Q.  Term j of the expansion is c_j / x^j, with c_0 = 1 and
    c_j / c_{j-1} = (mu - (2j-1)^2) / ((-1)^(j+1) 8j), mu = 4 i^2; even j
    feed P and odd j feed Q (Abramowitz & Stegun 9.2.9-9.2.10)."""
    mu = np.array([0.0, 4.0])
    c = np.ones((_HANKEL_TERMS, 2))
    for j in range(1, _HANKEL_TERMS):
        c[j] = c[j - 1] * (mu - (2.0 * j - 1.0) ** 2) / ((-1) ** (j + 1) * 8.0 * j)
    return c.reshape(_HANKEL_TERMS // 2, 2, 2, 1)


_HANKEL_PQ = _hankel_coefficients()


def _hankel_pq(x: np.ndarray, orders: slice = slice(0, 2)) -> tuple[np.ndarray, np.ndarray]:
    """Hankel P and Q sums of the `orders` among 0 and 1, one row each:
    terms 1 to _HANKEL_TERMS - 1 after the leading 1 of P, each smaller
    than the one before it wherever x is past the floor.  P and x Q are
    polynomials in y = 1/x^2 with the tabulated coefficients `_HANKEL_PQ`,
    summed by Horner's rule from the highest power down."""
    coef = _HANKEL_PQ[:, :, orders]
    y = 1.0 / (x * x)
    pq = coef[-1] * y
    for c in coef[-2:0:-1]:
        pq += c
        pq *= y
    pq += coef[0]
    return pq[0], pq[1] / x


def _jm_hankel_recurrence(m: int, x: np.ndarray) -> np.ndarray:
    """J_m(x) for x > max(_HANKEL_FLOOR, m): J_0 and J_1 from the Hankel
    expansion, with phase and amplitude from cos x and sin x of the exact x,
    then J_{k+1} = (2k/x) J_k - J_{k-1} up to order m, stable while k < x
    (Gautschi, SIAM Rev. 9, 1967), as here throughout.  At m <= 1 only
    order m's P and Q are summed."""
    p, q = _hankel_pq(x, slice(m, m + 1) if m <= 1 else slice(0, 2))
    c, s = np.cos(x), np.sin(x)
    cos, sin = c + s, s - c  # sqrt(2) times those of chi = x - pi/4
    amp = np.sqrt(1.0 / (np.pi * x))
    if m == 0:
        return amp * (p[0] * cos - q[0] * sin)
    # order 1 has phase chi - pi/2: its cos is sin(chi), its sin -cos(chi)
    jk1 = amp * (p[-1] * sin + q[-1] * cos)
    if m == 1:
        return jk1
    jk = amp * (p[0] * cos - q[0] * sin)
    inv = 2.0 / x
    for k in range(1, m):
        jk, jk1 = jk1, (k * inv) * jk1 - jk
    return jk1


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
    Points up to 2, 0 included, take the ascending series; points up to
    max(15.3, m) a degree-8 Taylor piece, 1/8 wide, from order m's table of
    J_m(x) (2/x)^m, which the first call in that band builds from one
    double-double run of Miller's backward recurrence; and the rest the
    Hankel expansion of J_0 and J_1 and upward recurrence to order m.
    """
    m = _validate_order(m, limit=M_MAX + 1)
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= X_MAX)):
        raise DomainError("argument outside [0, 1e4]")  # rejects NaN too

    out = np.empty_like(arr)
    top = max(_HANKEL_FLOOR, m)
    for route, sel in ((_jm_series, arr <= _SERIES_TOP),
                       (_jm_taylor, (_SERIES_TOP < arr) & (arr <= top)),
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

# Every sum the oracle makes at a zero x <= X_MAX has terms below e^(2 x):
# times its leading coefficient, at least 1 there, they are those of a
# Bessel square J_m(x)^2, below those of I_m(x)^2 <= e^(2 x) (x^2 I_m(x)^2
# for c1's gradient, within the 64 bits of slack).  A term past
# 2^_PFQ_PEAK_BITS marks a sum that runs away.
_PFQ_BUDGET = 50_000
_PFQ_PEAK_BITS = 2.0 * X_MAX / math.log(2.0) + 64.0


def _fixed_sum(up, down, z, shift: int) -> tuple[int, int]:
    """The sum of pFq's terms in integer units of 2^-shift, and the bit
    length of the largest term.  `up`, `down` and `z` are (numerator,
    denominator) pairs; term k + 1 is term k times
    z prod(a + k) / ((k + 1) prod(b + k)), floored."""
    num0 = z[0] * math.prod(q for _, q in down)
    den0 = z[1] * math.prod(q for _, q in up)
    term = total = 1 << shift
    bits = shift + 1
    for k in range(_PFQ_BUDGET):
        num, den = num0, den0 * (k + 1)
        for p, q in up:
            num *= p + k * q
        for p, q in down:
            den *= p + k * q
        term = term * num // den
        if -1 <= term <= 0:  # below one unit: 0, or -1 once floored
            return total, bits
        total += term
        if term.bit_length() > bits:
            bits = term.bit_length()
    raise NonConvergence(f"pfq did not converge within {_PFQ_BUDGET} terms")


def pfq(a, b, z: float) -> float:
    """pFq(a; b; z) for p <= 3, q <= 4, summed exactly and correctly rounded.

    The parameters and z are taken as the exact rationals their doubles
    hold, and the terms as one fixed-point integer with S bits below the
    point, S = log2(largest term / |sum|) + 64, so no cancellation can reach
    the result.  A float walk to the largest term sizes the first S as if
    |sum| were 1 / (largest term); where the integers show that S fell
    short, the sum is redone once at the S they measure.  A term past
    2^_PFQ_PEAK_BITS (or one whose float products overflow) and a sum that
    needs more than _PFQ_BUDGET terms raise NonConvergence.

    The cost grows about as |z|: a sum of the oracle's forms at a zero x,
    z = -x^2, runs about 4x terms on integers of about 6x bits, so the cost
    grows as x^2 (0.20 s at x = 3141, 1.95 s at x = 9999).
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    if len(a) > 3 or len(b) > 4:
        raise DomainError(f"pfq supports p <= 3, q <= 4, got p={len(a)}, q={len(b)}")
    for bi in b:
        if bi <= 0.0 and bi == math.floor(bi):
            raise DomainError(f"lower parameter {bi} is a nonpositive integer (pole)")
    z = float(z)

    peak = 0.0  # log2 of the largest term
    for k in range(_PFQ_BUDGET):
        num, den = 1.0, k + 1.0
        for ai in a:
            num *= ai + k
        for bi in b:
            den *= bi + k
        ratio = abs(num / den * z)
        if ratio < 1.0:  # past the largest term, or the sum ends (ratio 0)
            break
        peak += math.log2(ratio)  # NaN or inf where the products overflowed
        if not peak <= _PFQ_PEAK_BITS:
            raise NonConvergence(f"hypergeometric term 2^{peak:.0f} at k = {k} is past "
                                 f"2^{_PFQ_PEAK_BITS:.0f}: the sum runs away")
    else:
        raise NonConvergence(f"pfq did not reach its largest term within {_PFQ_BUDGET} terms")

    exact = ([v.as_integer_ratio() for v in a], [v.as_integer_ratio() for v in b],
             z.as_integer_ratio())
    shift = int(2.0 * peak) + 64
    total, bits = _fixed_sum(*exact, shift)
    need = bits - total.bit_length() + 65
    if need > shift:
        shift = need
        total, _ = _fixed_sum(*exact, shift)
    return total / (1 << shift)
