"""Quadrature on a finite interval: one ladder of Gauss-Legendre rules for
smooth, possibly oscillatory, possibly vector-valued integrands, and the
nested levels of Fejer's second rule over (0, 1) for callers that tabulate
part of an integrand.

Every sum climbs a ladder of rules (`_Rule`), coarsest first, and returns
the first whose own error estimate meets the target (`_target`); one loop
(`_ladder`) does the climbing, the slicing (_SLICE_NODES abscissae per
integrand call, so array-natured integrands such as Bessel rows and phase
factors are evaluated in bulk) and the budgeting for every driver.
`integrate` climbs the Gauss-Legendre ladder (`_gauss_rules`): orders n and
n + 32 on equal panels, judged by their difference, from the first rung that
resolves a bound on the integrand's phase.  `spectral`'s products of Bessel
blocks climb that ladder too, or the Fejer levels.

Every rule is open: no node ever lands on an interval endpoint, so
integrable endpoint behavior (like the 1/rho coordinate singularity at the
axis) needs no special casing.

`fejer2` gives Fejer's second rule over (0, 1), with its nested error
weights, and `gauss_legendre` the Gauss-Legendre rules of the ladder's
orders over (0, 1).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .special import NumericError

__all__ = ["QuadResult", "BudgetExceededError", "integrate", "fejer2", "gauss_legendre"]

# accuracy target of every sum, max(ABS_TOL, REL_TOL * max|component|)
# (`_target`), and the budget of every sum, 15 * PANEL_BUDGET nodes; all
# three are read at call time
ABS_TOL = 1e-12
REL_TOL = 1e-10
PANEL_BUDGET = 20000

# the most abscissae one integrand call evaluates
_SLICE_NODES = 2048

# Radians of phase per panel of PANEL_BUDGET that `_phase_within_budget`
# accepts for every sum: a `spectral` product's total phase, or `integrate`'s
# bound on its integrand's peak phase rate times the interval.  At the budget
# of 20000 (300000 nodes), the limit of 1e5 rad starts an evenly turning
# phase on 90 panels at orders 480 and 512 (89280 nodes) and leaves it three
# rungs more.  Measured by `integrate` (2 cores, one BLAS thread): the m = 0,
# n = 1 overlap, which spent adaptive Gauss-Kronrod's 20000 panels at wall
# phases 3.04e4 and 3.65e4 rad, meets the target on its first rung at every
# wall phase tried up to 4.99e4 (a bound of 1e5 rad), within 2.3e-15 of
# `spectral._i_matrix` and in at most 10 ms; so do cos(1e5 s) and, at 4.99e4
# rad, a chirp whose amplitude vanishes as (1 - s)^8 at the wall.
_RADIANS_PER_BUDGET_PANEL = 5.0


@dataclass(frozen=True)
class QuadResult:
    value: object          # scalar or ndarray of component values
    err_estimate: float    # max-component |difference| of the ladder's two orders
    panels_used: int       # rungs of the ladder summed


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


def _phase_within_budget(radians: float):
    """NumericError at once on |radians| past what quad.PANEL_BUDGET panels
    can resolve, instead of spending the budget."""
    limit = _RADIANS_PER_BUDGET_PANEL * PANEL_BUDGET
    if not abs(radians) <= limit:
        raise NumericError(
            f"total phase {abs(radians):.4g} rad is beyond the {limit:.4g} rad that "
            f"quad.PANEL_BUDGET = {PANEL_BUDGET} panels can resolve")


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


# The ladder's Gauss-Legendre orders: n nodes resolve 2.4 rad of total phase
# per node past their first 16.  Against composite Gauss-Legendre at 512
# nodes a panel, over m in {0, 1, 5, 20, 50}, n_max in {4, 20, 60} and xi
# 0.1-5, on eigenstate starts at alpha-ratios -5 to 5 (248 cells, 24-754 rad)
# and on random states at +-1 and +-20 (180 cells, up to 3379 rad), the fewest
# nodes meeting a tenth of the target were at most 16 past 2.76 rad per node
# (a random state at alpha-ratio 20 with n_max 4, where the wall's chirp
# dominates; 3.54 on the eigenstate starts).
_DIRECT_RADIANS_PER_NODE = 2.4
_DIRECT_SPARE_NODES = 16


def _direct_rungs(wall: float, even: float):
    """The ladder's rungs (panels, n): Gauss-Legendre of orders n and n + 32
    on `panels` equal panels of [0, 1].

    The first rung is the fewest panels whose worst, the last, resolves its
    total phase at an order within the cap: a wall's chirp, `wall` = |alpha|
    xi over [0, 1], turns (2 panels - 1) / panels^2 of it there, and the
    `even` radians (the Bessel blocks' 2 x_max, or `integrate`'s bound) turn
    evenly.  Each next rung takes 32 nodes more per panel up to the cap, then
    one panel more.
    """
    step, cap = _GAUSS_STEP, _GAUSS_NODES_MAX
    panels = 1
    while True:
        phase = (wall * (2 * panels - 1) / panels + even) / panels
        nodes = math.ceil(phase / _DIRECT_RADIANS_PER_NODE) + _DIRECT_SPARE_NODES
        n = step * math.ceil(nodes / step)
        if n + step <= cap:
            break
        panels += 1
    while True:
        yield panels, n
        if n + 2 * step <= cap:
            n += step
        else:
            panels += 1


class _Rule(NamedTuple):
    """Nodes `s` in (0, 1) with weights `w` and error weights `w_err`, so
    sum(w_err f) estimates the error of sum(w f), and `tab`, what a caller
    tabulated on the nodes (`spectral`'s Bessel blocks, one row per node; at
    most one slice of nodes), or None."""

    s: np.ndarray
    w: np.ndarray
    w_err: np.ndarray
    tab: tuple[np.ndarray, ...] | None = None


def _gauss_rules(wall: float, even: float) -> Iterator[_Rule]:
    """The Gauss-Legendre ladder, one rule per rung of `_direct_rungs`: the
    nodes of both orders on each panel, w the higher order's weights and
    w_err the higher's less the lower's."""
    for panels, n in _direct_rungs(wall, even):
        (s_lo, w_lo), (s_hi, w_hi) = (gauss_legendre(k) for k in (n, n + _GAUSS_STEP))
        s = ((np.arange(panels)[:, None] + np.concatenate([s_lo, s_hi])) / panels).ravel()
        w = np.tile(np.concatenate([np.zeros(n), w_hi]) / panels, panels)
        w_err = np.tile(np.concatenate([-w_lo, w_hi]) / panels, panels)
        yield _Rule(s, w, w_err)


def _ladder(rules: Iterator[_Rule], contract, radians: float) -> QuadResult:
    """The first sum on the ladder `rules` whose estimate meets `_target`.

    `contract(rule, part)` returns (sum(w f), sum(w_err f)) over the nodes
    rule.s[part], a slice of at most _SLICE_NODES; a rule's slices are added
    in order, and the largest component of the summed estimate judges it.
    NumericError up front on `radians` past `_phase_within_budget` and on a
    NaN or infinite estimate; BudgetExceededError, carrying the last sum, its
    estimate and the rules summed, once PANEL_BUDGET * 15 nodes are spent.
    """
    _phase_within_budget(radians)
    budget = PANEL_BUDGET * 15
    spent = 0
    for rungs, rule in enumerate(rules, 1):
        value = est = 0.0
        for a in range(0, rule.s.size, _SLICE_NODES):
            part_value, part_est = contract(rule, slice(a, a + _SLICE_NODES))
            value = value + part_value
            est = est + part_est
        spent += rule.s.size
        err = float(np.max(np.abs(est)))
        target = _target(err, value)
        if err <= target:
            return QuadResult(value=value, err_estimate=err, panels_used=rungs)
        if spent >= budget:
            raise BudgetExceededError(
                f"node budget {budget} exhausted at error {err:.3e} (target {target:.3e})",
                QuadResult(value=value, err_estimate=err, panels_used=rungs))


def integrate(f, a: float, b: float, radians: float = 0.0) -> QuadResult:
    """Integrate f over [a, b] to the target on the Gauss-Legendre ladder
    (`_gauss_rules`), from the first rung that resolves `radians`, a bound on
    the integrand's peak phase rate times |b - a|.

    `f` maps a 1-D abscissa array of length N to an array whose leading axis
    has length N; trailing axes (if any) are integrated componentwise and the
    target applies to the worst component.  Real and complex values are
    both fine.  `f` sees at most _SLICE_NODES abscissae per call, never an
    endpoint.

    The target and the budget read ABS_TOL, REL_TOL and PANEL_BUDGET, as
    every sum of `_ladder` does.  ValueError on an infinite endpoint or a NaN
    or negative `radians`; NumericError on `radians` past
    `_phase_within_budget` or a NaN or infinite error estimate;
    BudgetExceededError, carrying the last QuadResult, once PANEL_BUDGET * 15
    nodes are spent.
    """
    a, b = float(a), float(b)
    if not np.isfinite(a) or not np.isfinite(b):
        raise ValueError("endpoints must be finite")
    if not radians >= 0.0:
        raise ValueError(f"radians must be >= 0, got {radians}")
    if a == b:
        return QuadResult(value=0.0, err_estimate=0.0, panels_used=0)
    width = b - a

    def contract(rule, part):
        s = rule.s[part]
        vals = np.asarray(f(a + width * s))
        if vals.shape[:1] != s.shape:
            raise ValueError("integrand must return one leading value per abscissa")
        return (width * np.tensordot(rule.w[part], vals, axes=1),
                width * np.tensordot(rule.w_err[part], vals, axes=1))

    res = _ladder(_gauss_rules(0.0, radians), contract, radians)
    value = res.value
    if not np.ndim(value):
        value = complex(value) if np.iscomplexobj(value) else float(value)
    return QuadResult(value=value, err_estimate=res.err_estimate, panels_used=res.panels_used)
