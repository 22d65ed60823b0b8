"""Adaptive Gauss-Kronrod quadrature for smooth, possibly oscillatory,
possibly vector-valued integrands on a finite interval.

The integrand is called with a single 1-D array holding every abscissa of the
current refinement wave, so array-natured integrands (Bessel rows, phase
factors) are evaluated in one shot.  Refinement bisects every panel whose
local error estimate exceeds its share of the target, which converges in few
waves even for strongly oscillatory phases.

Panels are open: no node ever lands on an interval endpoint, so integrable
endpoint behavior (like the 1/rho coordinate singularity at the axis) needs
no special casing.

`gk15_panels` lays the same rule on a fixed grid of equal panels, for callers
that tabulate part of their integrand once and reuse it across many
integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special import NumericError

__all__ = ["QuadResult", "BudgetExceededError", "integrate", "gk15_panels"]

# default accuracy target of `integrate`: max(ABS_TOL, REL_TOL * max|component|)
ABS_TOL = 1e-12
REL_TOL = 1e-10

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


class BudgetExceededError(RuntimeError):
    """Panel budget ran out; `.result` holds the best estimate so far."""

    def __init__(self, message: str, result: QuadResult):
        super().__init__(message)
        self.result = result


# cap on value-array elements evaluated per integrand call; vector-valued
# integrands can otherwise demand panels * 15 * components in one allocation
_CHUNK_ELEMS = 6_000_000


def _eval_panels(f, lo: np.ndarray, hi: np.ndarray):
    """Apply GK15 to each [lo_i, hi_i]; returns (kron, err) per panel.

    Evaluation is chunked: a one-panel probe reveals the component count,
    then the rest is processed in slices bounded by _CHUNK_ELEMS.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    pts = c[:, None] + h[:, None] * _NODES[None, :]
    kron_out = None
    err_out = np.empty(lo.size)
    start, chunk = 0, 1
    while start < pts.shape[0]:
        stop = min(pts.shape[0], start + chunk)
        sub = pts[start:stop]
        vals = np.asarray(f(sub.ravel()))
        if vals.shape[0] != sub.size:
            raise ValueError("integrand must return one leading value per abscissa")
        vals = vals.reshape(sub.shape + vals.shape[1:])
        hb = h[start:stop].reshape((stop - start,) + (1,) * (vals.ndim - 2))
        kron = hb * np.tensordot(_W_KRON, vals, axes=([0], [1]))
        gauss = hb * np.tensordot(_W_GAUSS, vals, axes=([0], [1]))
        diff = np.abs(kron - gauss)
        err = diff.reshape(diff.shape[0], -1).max(axis=1) if diff.ndim > 1 else diff
        if kron_out is None:
            kron_out = np.empty((lo.size,) + kron.shape[1:], dtype=kron.dtype)
            comps = int(np.prod(kron.shape[1:])) if kron.ndim > 1 else 1
            chunk = max(1, _CHUNK_ELEMS // (15 * comps))
        kron_out[start:stop] = kron
        err_out[start:stop] = err
        start = stop
    return kron_out, err_out


def gk15_panels(a: float, b: float, panels: int):
    """Composite GK15 rule on `panels` equal panels of [a, b].

    Returns (nodes, kronrod_weights, error_weights), each of shape
    (panels, 15).  Summing kronrod_weights * f over a row gives that panel's
    K15 value; summing error_weights * f gives its K15 - G7 difference, the
    local error estimate `integrate` refines on.
    """
    if panels < 1:
        raise ValueError("panels must be >= 1")
    edges = np.linspace(float(a), float(b), panels + 1)
    c = 0.5 * (edges[:-1] + edges[1:])[:, None]
    h = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return c + h * _NODES, h * _W_KRON, h * (_W_KRON - _W_GAUSS)


def integrate(f, a: float, b: float, abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL,
              initial_panels: int = 8, panel_budget: int = 20000) -> QuadResult:
    """Integrate f over [a, b] to max(abs_tol, rel_tol * max|component|).

    `f` maps a 1-D abscissa array of length N to an array whose leading axis
    has length N; trailing axes (if any) are integrated componentwise and the
    error target applies to the worst component.  Real and complex values are
    both fine.

    Raises BudgetExceededError (carrying the best QuadResult) if the panel
    budget is exhausted before the target is met, NumericError on a NaN or
    infinite error estimate.
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
        scale = float(np.max(np.abs(total))) if np.ndim(total) else abs(total)
        target = max(abs_tol, rel_tol * scale)
        total_err = float(err.sum())
        if not np.isfinite(total_err):
            raise NumericError(f"integrand is not finite: error estimate {total_err}")
        if total_err <= target:
            value = total if np.ndim(total) else complex(total) if np.iscomplexobj(kron) else float(total)
            return QuadResult(value=value, err_estimate=total_err, panels_used=used)

        bad = err > target / (2.0 * lo.size)
        if not np.any(bad):
            bad = err == err.max()
        n_new = 2 * int(bad.sum())
        if used + n_new > panel_budget:
            value = total if np.ndim(total) else complex(total) if np.iscomplexobj(kron) else float(total)
            best = QuadResult(value=value, err_estimate=total_err, panels_used=used)
            raise BudgetExceededError(
                f"panel budget {panel_budget} exhausted at error {total_err:.3e} (target {target:.3e})",
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
