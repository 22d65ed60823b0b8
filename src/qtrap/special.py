"""Real special functions built from scratch: Bessel J_m, its derivative and
positive zeros, and a guarded generalized hypergeometric series.  J_m takes
its ascending series up to one cutoff per order, `_SERIES_CUT[m]`.  Beyond
it, every order takes J_0 and J_1 from the Hankel expansion and recurs upward
to m.

Everything in this module is pure and reentrant.  No caching happens here;
callers that want tables cache them themselves.

Supported envelope: integer order 0 <= m <= 50, argument 0 <= x <= 1e4.
Within it, absolute error <= 1e-13 for x <= 50 and relative error <= 1e-11
beyond, which is what the quadrature and spectral layers budget for.
"""

from __future__ import annotations

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

# Ascending series is used while its largest term stays below exp(SERIES_LOG_CAP).
# long double keeps ~1.1e-19; e^11.4 ~ 9e4 worst-term cancellation => ~1e-14 abs.
SERIES_LOG_CAP = 11.4

# Past the series cut every order recurs upward from the Hankel J_0 and J_1.
# The recurrence is stable while k < x (Gautschi, SIAM Rev. 9, 1967); it runs
# past k = x only for m >= 30, where the cut keeps x above 0.85 m (tests pin
# that band).  Points go through in slices of this many, to bound memory.
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

def _series_log_peak(m: int, x: float) -> float:
    """ln of the largest term of the ascending series of J_m(x), x > 0, which
    sits at k* = (sqrt(m^2 + x^2) - m) / 2."""
    kstar = 0.5 * (-m + math.sqrt(m * m + x * x))
    return ((m + 2.0 * kstar) * math.log(x / 2.0)
            - math.lgamma(kstar + 1.0) - math.lgamma(m + kstar + 1.0))


def _series_cut(m: int) -> float:
    """Largest x whose series peak stays within exp(SERIES_LOG_CAP), by
    bisection down to adjacent doubles.  The peak is below the cap for x < 1
    and rises with x from there, so the series domain is one interval."""
    lo, hi = 0.0, X_MAX
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if _series_log_peak(m, mid) <= SERIES_LOG_CAP:
            lo = mid
        else:
            hi = mid


# The ascending series serves 0 < x <= _SERIES_CUT[m], one cutoff per order
# (bessel_j accepts m up to M_MAX + 1).
_SERIES_CUT = tuple(_series_cut(m) for m in range(M_MAX + 2))


def _jm_series(m: int, x: np.ndarray) -> np.ndarray:
    """Ascending power series in long double, for x > 0."""
    xl = x.astype(np.longdouble)
    q = (0.5 * xl) ** 2
    term = np.exp(m * np.log(0.5 * xl) - math.lgamma(m + 1))
    total = term.copy()
    tiny = np.longdouble(1e-25)
    for k in range(400):
        term = -term * q / np.longdouble((k + 1.0) * (k + 1.0 + m))
        total += term
        if not np.any(np.abs(term) > tiny * (np.abs(total) + tiny)):
            break
    else:
        raise NonConvergence("Bessel series did not settle in 400 terms")
    return total.astype(float)


def _hankel_pq(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hankel P and Q sums of orders 0 and 1, rows 0 and 1, in float64.

    The terms shrink while |mu - (2j-1)^2| < 8xj and grow from there, so each
    entry stops at its smallest term: the first ratio that reaches 1 in
    magnitude is set to zero, and that entry takes no more terms.
    """
    mu = np.array([[0.0], [4.0]])
    p = np.ones((2, x.size))
    q = np.zeros((2, x.size))
    term = np.ones((2, x.size))
    for j in range(1, 64):
        ratio = (mu - (2.0 * j - 1.0) ** 2) / (8.0 * j * x)
        ratio[np.abs(ratio) >= 1.0] = 0.0
        term *= ratio
        sgn = -1.0 if (j // 2) % 2 else 1.0
        if j % 2:  # odd terms feed Q
            q += sgn * term
        else:
            p += sgn * term
        # smaller terms are lost against P ~ 1, relative to J's amplitude
        if not np.any(np.abs(term) > 1e-18):
            break
    return p, q


def _jm_hankel_recurrence(m: int, x: np.ndarray) -> np.ndarray:
    """J_m(x) past the series cut: J_0 and J_1 from the Hankel expansion,
    then J_{k+1} = (2k/x) J_k - J_{k-1} up to order m.

    Phase, amplitude and recurrence are in long double, the P and Q sums in
    float64.
    """
    out = np.empty_like(x)
    pi = np.longdouble(math.pi)
    for lo in range(0, x.size, _HANKEL_SLICE):
        xs = x[lo:lo + _HANKEL_SLICE]
        p, q = _hankel_pq(xs)
        xl = xs.astype(np.longdouble)
        chi = xl - 0.25 * pi
        cos, sin = np.cos(chi), np.sin(chi)
        amp = np.sqrt(2.0 / (pi * xl))
        # order 1 has phase chi - pi/2: its cos is sin(chi), its sin -cos(chi)
        jk = amp * (p[0] * cos - q[0] * sin)
        jk1 = amp * (p[1] * sin + q[1] * cos)
        inv = 2.0 / xl
        for k in range(1, m):
            jk, jk1 = jk1, (k * inv) * jk1 - jk
        out[lo:lo + _HANKEL_SLICE] = jk1 if m else jk
    return out


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
    Points up to `_SERIES_CUT[m]` take the ascending series, the rest the
    Hankel expansion of J_0 and J_1 and upward recurrence to order m.
    """
    m = _validate_order(m, limit=M_MAX + 1)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    if flat.size and not (np.min(flat) >= 0.0 and np.max(flat) <= X_MAX):
        raise DomainError("argument outside [0, 1e4]")  # rejects NaN too

    out = np.empty_like(flat)
    zero = flat == 0.0
    out[zero] = 1.0 if m == 0 else 0.0

    rest = ~zero
    xs = flat[rest]
    if xs.size:
        res = np.empty_like(xs)
        ser = xs <= _SERIES_CUT[m]
        if np.any(ser):
            res[ser] = _jm_series(m, xs[ser])
        hard = ~ser
        if np.any(hard):
            res[hard] = _jm_hankel_recurrence(m, xs[hard])
        out[rest] = res

    out = out.reshape(arr.shape)
    return float(out) if scalar else out


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

    Brackets come from a sign scan with step pi/4 starting just above m
    (the first zero of J_m exceeds m).  The scan nodes are evaluated in one
    `bessel_j` call per window: the first window spans 4 steps per zero
    wanted, and each further one 4 steps per zero still missing (plus 8), until
    `count` brackets are found or the scan budget of 16 count + 400 steps
    runs out.  All brackets are then polished together by Newton iteration
    to |dx| < 1e-13.
    """
    m = _validate_order(m)
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")

    # accumulated rather than x0 + k step, so each node is bit-identical to
    # the one a step-by-step scan reaches
    budget = 16 * count + 400
    xs = np.add.accumulate(np.concatenate([[m + 1.8], np.full(budget, _SCAN_STEP)]))
    fs = np.empty(0)
    found = 0
    while found < count:
        if fs.size == xs.size:
            raise NumericError(f"failed to bracket {count} zeros of J_{m} within scan budget")
        upto = min(xs.size, fs.size + 4 * (count - found) + 9)
        fs = np.concatenate([fs, bessel_j(m, xs[fs.size:upto])])
        f0 = fs[:-1]
        exact = f0 == 0.0
        hits = np.flatnonzero(exact | (f0 * fs[1:] < 0.0))
        found = hits.size
    hits = hits[:count]
    zeros = xs[hits]
    bracket = ~exact[hits]
    zeros[bracket] = _newton_zeros(m, xs[hits[bracket]], xs[hits[bracket] + 1])
    return BesselZeroTable(m=m, zeros=zeros)


def _newton_zeros(m: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Polish every bracket [lo_i, hi_i] at once; each iterate that escapes
    its bracket by more than 1 falls back to a bisection step."""
    lo, hi = lo.copy(), hi.copy()
    x = 0.5 * (lo + hi)
    out = np.empty_like(x)
    live = np.arange(x.size)
    for _ in range(60):
        f = bessel_j(m, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = x - f / bessel_j_prime(m, x)
        esc = ~((lo - 1.0 < x_new) & (x_new < hi + 1.0))
        if np.any(esc):
            left = bessel_j(m, lo[esc]) * f[esc] < 0.0
            xe = x[esc]
            hi[esc] = np.where(left, xe, hi[esc])
            lo[esc] = np.where(left, lo[esc], xe)
            x_new[esc] = 0.5 * (lo[esc] + hi[esc])
        done = np.abs(x_new - x) < 1e-13
        out[live[done]] = x_new[done]
        keep = ~done
        if not np.any(keep):
            return out
        x, lo, hi, live = x_new[keep], lo[keep], hi[keep], live[keep]
    raise NumericError(f"Newton polish stalled for J_{m} zero near {x[0]:.6f}")


# --------------------------------------------------------------------------
# Generalized hypergeometric series

_PFQ_GUARD = 1e8
_PFQ_BUDGET = 50_000
_PFQ_OVERFLOW = np.longdouble("1e4000")


def pfq(a, b, z: float) -> float:
    """Partial-sum evaluation of pFq(a; b; z) for p <= 3, q <= 4.

    Terms are accumulated in long double with a running cancellation guard:
    if (max partial term)/|sum| exceeds 1e8 the value cannot be trusted and
    CancellationError is raised so the caller can fall back to quadrature.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    if len(a) > 3 or len(b) > 4:
        raise DomainError(f"pfq supports p <= 3, q <= 4, got p={len(a)}, q={len(b)}")
    for bi in b:
        if bi <= 0.0 and bi == math.floor(bi):
            raise DomainError(f"lower parameter {bi} is a nonpositive integer (pole)")
    z = float(z)
    if z == 0.0:
        return 1.0

    zl = np.longdouble(z)
    term = np.longdouble(1.0)
    total = np.longdouble(1.0)
    max_term = np.longdouble(1.0)
    settled = 0
    for k in range(_PFQ_BUDGET):
        num = np.longdouble(1.0)
        for ai in a:
            num *= np.longdouble(ai + k)
        den = np.longdouble(k + 1.0)
        for bi in b:
            den *= np.longdouble(bi + k)
        term = term * num / den * zl
        total += term
        at = abs(term)
        if at > max_term:
            max_term = at
        if at > _PFQ_OVERFLOW:
            raise CancellationError("hypergeometric terms overflow long double range")
        if at <= np.longdouble(1e-24) * max(abs(total), np.longdouble(1e-300)):
            settled += 1
            if settled >= 3:
                break
        else:
            settled = 0
    else:
        raise NonConvergence(f"pfq did not converge within {_PFQ_BUDGET} terms")

    if abs(total) == 0.0 or max_term / abs(total) > _PFQ_GUARD:
        raise CancellationError(
            f"cancellation guard tripped: max term / |sum| = {float(max_term / max(abs(total), np.longdouble(1e-300))):.3e}"
        )
    return float(total)
