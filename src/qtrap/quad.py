"""Quadrature on a finite interval: adaptive Gauss-Kronrod for smooth,
possibly oscillatory, possibly vector-valued integrands, and two fixed rule
families over (0, 1) for callers that size and judge their own sums.

`integrate` calls its integrand with 1-D arrays of abscissae, whole panels
of the current refinement wave at most _SLICE_NODES at a time, so
array-natured integrands (Bessel rows, phase factors) are evaluated in bulk.
Refinement bisects every panel whose local error estimate exceeds its share
of the target, which converges in few waves even for strongly oscillatory
phases.

Panels are open: no node ever lands on an interval endpoint, so integrable
endpoint behavior (like the 1/rho coordinate singularity at the axis) needs
no special casing.

`fejer2` gives Fejer's second rule over (0, 1), with its nested error
weights, for callers that tabulate part of an integrand once and reuse it
across many integrals.  `gauss_legendre` gives Gauss-Legendre rules over
(0, 1) on a ladder of orders, for a caller that judges one order by the next
and splits the interval itself past the largest.  Such a sum meets
`integrate`'s target (`_target`) in `integrate`'s slices (_SLICE_NODES).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .special import NumericError

__all__ = ["QuadResult", "BudgetExceededError", "integrate", "fejer2", "gauss_legendre"]

# accuracy target of every sum, max(ABS_TOL, REL_TOL * max|component|)
# (`_target`), and the most panels `integrate` may evaluate; all three are
# read at call time
ABS_TOL = 1e-12
REL_TOL = 1e-10
PANEL_BUDGET = 20000

# the most abscissae one integrand call evaluates
_SLICE_NODES = 2048

# 15-point Kronrod abscissae (positive half) and weights, with the embedded
# 7-point Gauss rule on the odd-indexed nodes.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# full 15-node layout: -x0 .. -x6, 0, +x6 .. +x0
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_W_KRON = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:7:2] = _WG[:3]
_W_GAUSS[7] = _WG[3]
_W_GAUSS[9:15:2] = _WG[2::-1]


@dataclass(frozen=True)
class QuadResult:
    value: object          # scalar or ndarray of component values
    err_estimate: float    # max-component accumulated |K15 - G7|
    panels_used: int       # total panel evaluations spent


class BudgetExceededError(NumericError):
    """A sum's budget ran out; `.result` holds the best estimate so far."""

    def __init__(self, message: str, result: QuadResult):
        super().__init__(message)
        self.result = result


def _target(err: float, value) -> float:
    """max(ABS_TOL, REL_TOL * max|value|) for a sum `value` whose error
    estimate is `err`; NumericError if `err` is NaN or infinite."""
    if not np.isfinite(err):
        raise NumericError(f"integrand is not finite: error estimate {err}")
    return max(ABS_TOL, REL_TOL * float(np.max(np.abs(value))))


def _eval_panels(f, lo: np.ndarray, hi: np.ndarray):
    """Apply GK15 to each [lo_i, hi_i]; returns (kron, err) per panel.

    `f` is called once per slice of whole panels, at most _SLICE_NODES
    abscissae each.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    pts = c[:, None] + h[:, None] * _NODES[None, :]
    step = _SLICE_NODES // _NODES.size
    krons, errs = [], []
    for a in range(0, lo.size, step):
        sub = pts[a:a + step]
        vals = np.asarray(f(sub.ravel()))
        if vals.shape[0] != sub.size:
            raise ValueError("integrand must return one leading value per abscissa")
        vals = vals.reshape(sub.shape + vals.shape[1:])
        hb = h[a:a + step].reshape((sub.shape[0],) + (1,) * (vals.ndim - 2))
        kron = hb * np.tensordot(_W_KRON, vals, axes=([0], [1]))
        gauss = hb * np.tensordot(_W_GAUSS, vals, axes=([0], [1]))
        diff = np.abs(kron - gauss)
        krons.append(kron)
        errs.append(diff.reshape(diff.shape[0], -1).max(axis=1))
    return np.concatenate(krons), np.concatenate(errs)


def _fejer2_weights(n: int) -> np.ndarray:
    """Weights on the n - 1 interior nodes by one FFT (Waldvogel 2006)."""
    odd = np.arange(1, n, 2)
    v = np.zeros(n + 1)
    v[:odd.size] = 2.0 / (odd * (odd - 2.0))
    v[odd.size] = 1.0 / odd[-1]
    return 0.5 * np.fft.ifft(-v[:-1] - v[:0:-1]).real[1:]


def fejer2(nodes: int):
    """Fejer's second rule on `nodes` = 2^k - 1 >= 3 nodes over (0, 1).

    Returns (s, w, w_err), each of shape (nodes,).  The nodes s_j =
    sin^2(pi j / (2 (nodes + 1))) are open, none at 0 or 1, and the rule on
    (nodes - 1)/2 nodes sits bit for bit on every other one; w_err is w less
    that half-rule's weights, so sum(w_err * f) is the difference of the two
    rules.  The weights are positive and exact below degree `nodes`.
    """
    n = nodes + 1
    if nodes < 3 or n & nodes:
        raise ValueError(f"nodes must be 2^k - 1 >= 3, got {nodes}")
    s = np.sin(0.5 * np.pi * (np.arange(1, n) / n)) ** 2
    w = _fejer2_weights(n)
    w_err = w.copy()
    w_err[1::2] -= _fejer2_weights(n // 2)
    return s, w, w_err


# the orders `gauss_legendre` builds: multiples of _GAUSS_STEP up to
# _GAUSS_NODES_MAX.  A build costs three passes of the recurrence, so it grows
# as nodes^2: the first in a fresh process took 2.8 ms at 224 nodes, 7.0 ms at
# 512 and 17 ms at 1024 (2 cores), while a caller past the cap loses nothing
# per node by splitting the interval into panels at the cap
_GAUSS_STEP = 32
_GAUSS_NODES_MAX = 512


@cache
def gauss_legendre(nodes: int):
    """Gauss-Legendre rule on `nodes` nodes over (0, 1), for `nodes` a
    multiple of 32 up to 512.

    Returns (s, w), read-only and each of shape (nodes,).  The nodes ascend
    and are open, s_j + s_{nodes-1-j} = 1 to rounding, w is symmetric and
    positive, and the rule is exact below degree 2 nodes.  The roots x of
    P_nodes in (0, 1) start from Tricomi's asymptotic form and take Newton
    steps on the three-term recurrence until a step is below 1e-15 (three on
    every order but 32, which takes four); w = (1 - x^2) / d^2 with
    d = (1 - x^2) P'_nodes(x), from the same recurrence.
    """
    if not (0 < nodes <= _GAUSS_NODES_MAX and nodes % _GAUSS_STEP == 0):
        raise ValueError(f"nodes must be a multiple of {_GAUSS_STEP} up to {_GAUSS_NODES_MAX}, "
                         f"got {nodes}")
    theta = np.pi * (4.0 * np.arange(1, nodes // 2 + 1) - 1.0) / (4.0 * nodes + 2.0)
    x = np.cos(theta) * (1.0 - (nodes - 1) / (8.0 * nodes ** 3)
                         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * nodes ** 4))
    # P_j = a_j x P_{j-1} - b_j P_{j-2}
    ab = [((2 * j - 1) / j, (j - 1) / j) for j in range(2, nodes + 1)]
    for _ in range(8):
        p_prev, p = np.ones_like(x), x
        for a, b in ab:
            p_prev, p = p, a * (x * p) - b * p_prev
        d = nodes * (p_prev - x * p)
        step = p * (1.0 - x) * (1.0 + x) / d
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    half = 0.5 * (1.0 - x)
    s = np.concatenate([half, 1.0 - half[::-1]])
    w = (1.0 - x) * (1.0 + x) / d ** 2
    w = np.concatenate([w, w[::-1]])
    s.setflags(write=False)
    w.setflags(write=False)
    return s, w


def integrate(f, a: float, b: float, initial_panels: int = 8) -> QuadResult:
    """Integrate f over [a, b] to max(ABS_TOL, REL_TOL * max|component|),
    starting from `initial_panels` equal panels.

    `f` maps a 1-D abscissa array of length N to an array whose leading axis
    has length N; trailing axes (if any) are integrated componentwise and the
    error target applies to the worst component.  Real and complex values are
    both fine.  `f` sees at most _SLICE_NODES abscissae per call.

    The target (`_target`, which every fixed-rule sum in `spectral` meets
    too) and the panel budget read ABS_TOL, REL_TOL and PANEL_BUDGET.  Raises
    BudgetExceededError (carrying the best QuadResult) if PANEL_BUDGET panels
    are spent before the target is met, NumericError on a NaN or infinite
    error estimate.
    """
    a, b = float(a), float(b)
    if not np.isfinite(a) or not np.isfinite(b):
        raise ValueError("endpoints must be finite")
    if a == b:
        return QuadResult(value=0.0, err_estimate=0.0, panels_used=0)
    if initial_panels < 1:
        raise ValueError("initial_panels must be >= 1")

    edges = np.linspace(a, b, initial_panels + 1)
    lo, hi = edges[:-1].copy(), edges[1:].copy()
    kron, err = _eval_panels(f, lo, hi)
    used = int(lo.size)

    while True:
        total = kron.sum(axis=0)
        total_err = float(err.sum())
        target = _target(total_err, total)
        value = total if np.ndim(total) else complex(total) if np.iscomplexobj(kron) else float(total)
        if total_err <= target:
            return QuadResult(value=value, err_estimate=total_err, panels_used=used)

        # never empty: total_err > target, so the largest of the lo.size
        # panel errors is at least total_err / lo.size > target / (2 lo.size)
        bad = err > target / (2.0 * lo.size)
        n_new = 2 * int(bad.sum())
        if used + n_new > PANEL_BUDGET:
            best = QuadResult(value=value, err_estimate=total_err, panels_used=used)
            raise BudgetExceededError(
                f"panel budget {PANEL_BUDGET} exhausted at error {total_err:.3e} (target {target:.3e})",
                best,
            )

        mid = 0.5 * (lo[bad] + hi[bad])
        new_lo = np.concatenate([lo[bad], mid])
        new_hi = np.concatenate([mid, hi[bad]])
        new_kron, new_err = _eval_panels(f, new_lo, new_hi)
        used += int(new_lo.size)

        keep = ~bad
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        kron = np.concatenate([kron[keep], new_kron], axis=0)
        err = np.concatenate([err[keep], new_err])
