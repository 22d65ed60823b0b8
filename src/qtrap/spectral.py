"""Spectral solution of a particle in a flat circular trap whose hard wall
moves radially at constant speed u: L(t) = a + u t.

Everything is expressed through the exact self-similar modes

    Psi_mn = exp[i alpha xi (rho/L)^2 - i x_mn^2 tau] u_mn(rho, L) e^{i m phi}/sqrt(2 pi),

with u_mn = sqrt(2)/(L |J_{m+1}(x_mn)|) J_m(x_mn rho / L), xi = L/a,
alpha = mu a u / (2 hbar), and the compressed time

    tau(t) = hbar t / (2 mu a^2 xi),

which for u != 0 equals (1 - 1/xi)/(4 alpha); the identity form is used so no
branch at u = 0 is needed.  `modes` is the one place this mode factor is
formed: it returns the radial factors of the modes n = 1..N_max as one
(points x modes) matrix, and every wave function, density and kernel in
`evolve` is built from it; `_mode_coeffs` takes a wave back onto them, so the
kernel is the projection at t' followed by `modes` at t.  A general state is
carried as coefficients c_n' over the dressed modes at t = 0; its projection
b_n'(t) onto the moving instantaneous basis is the overlap matrix

    I_{m n' n''}(t, alpha) = int_0^1 s exp(-i alpha xi s^2)
                             J_m(x_mn' s) J_m(x_mn'' s) ds

applied to one vector.

Every fixed-rule radial integral of Bessel blocks goes through one product,
`_gram`: int w(s) h^T right(s, h) ds for a right factor formed at the
nodes, summed on a ladder of rules (`quad._Rule`) that the blocks carry
(`_Blocks.rules`), each with its own error estimate; the first rule whose
estimate meets the target is taken, by the loop `quad.integrate` climbs
with (`quad._ladder`).  Each integrand is entire in s, so every rung
converges geometrically.  The overlap rule and the moment tables climb the
nested levels of Fejer's second rule over (0, 1), from the smallest whose
half-rule resolves the total phase (`_rule_nodes`), judged by the
difference to that half-rule; levels up to `_RULE_NODES_MAX` nodes are
tabulated once per key, and the overlap rule holds J_m(x_mn s_j) once per
(m, N_max, level).  Overlaps (`_i_matrix`) take the wave h u of the one
vector u a caller needs, so no caller forms a whole overlap matrix (I is
symmetric: a row is I e_n); the moment tables take the block h itself;
projections of a wave onto the modes (`_mode_coeffs`, the kernel) take the
wave's own samples, on the overlap rule under the overlaps' weight.  The
real-space routes never read the rule.  `b_coeffs_direct`, held against
`b_coeffs` by the two-path check, is a `_gram` on Gauss-Legendre rules, a
family the overlap rule does not use, at two orders sized from its total
phase and judged by their difference (`quad._gauss_rules`).  The references
sum on that same ladder by `quad.integrate`, from a bound on their
integrand's peak phase rate: `coeffs_from_initial`, held against
`coeffs_from_eigenstate` (its initial state need not be entire), and the
single overlap `overlap_I`, which the rule's tests hold the products to.

Operator matrix elements in that moving basis are elementary in the zeros
alone (`_zero_blocks`, the Lommel integrals); the spreads and the energy
ratio's closed route read one diagonal element from one zero (`_diag_sq`).
The six Bessel moment integrals of `moment_tables`, products on a rule of
their own with the J and x J' blocks, are the quadrature reference these and
the oracle's closed forms, exact hypergeometric sums that share neither
route's numerics, are held against; no operator reads them.  Zero tables,
overlap rules and moment tables are each built once per key by a
`functools.cache` builder.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from . import quad
from .quad import integrate
from .special import DomainError, NumericError, bessel_j, bessel_zeros

__all__ = [
    "TrapGeometry",
    "TruncationError",
    "SpectralState",
    "MomentTable",
    "overlap_I",
    "coeffs_from_eigenstate",
    "coeffs_from_initial",
    "b_coeffs",
    "b_coeffs_direct",
    "modes",
    "moment_tables",
    "matrix_element",
    "expectation",
    "uncertainties",
    "energy_ratio",
    "energy_ratio_paths",
]

N_MAX_DEFAULT = 60

# Below this the instantaneous level spacing has grown by 2500x and the
# truncated basis cannot follow the compression any further.
XI_MIN = 0.02

OP_KINDS = ("q0", "p0", "q0sq", "p0sq", "H")


class TruncationError(NumericError):
    """The retained basis misses too much of the state's norm."""

    def __init__(self, message: str, deficit: float):
        super().__init__(message)
        self.deficit = deficit


# --------------------------------------------------------------------------
# Geometry

@dataclass(frozen=True)
class TrapGeometry:
    """Trap of initial radius `a` whose wall moves at constant speed `u`.

    u > 0 is expansion, u < 0 compression, u = 0 a static trap.  Natural
    units hbar = mu = a = 1 are the defaults; any consistent unit system
    works.
    """

    a: float = 1.0
    u: float = 0.0
    hbar: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        for name in ("a", "hbar", "mu"):  # a NaN fails `0 < x` as well
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not math.isfinite(self.u):
            raise DomainError(f"u must be finite, got {self.u}")

    @classmethod
    def from_alpha(cls, alpha: float, a: float = 1.0, hbar: float = 1.0,
                   mu: float = 1.0) -> "TrapGeometry":
        """Geometry with the dimensionless wall-speed parameter set directly."""
        if not math.isfinite(alpha):
            raise DomainError(f"alpha must be finite, got {alpha}")
        u = 2.0 * hbar * alpha / (mu * a)
        return cls(a=a, u=u, hbar=hbar, mu=mu)

    @property
    def alpha(self) -> float:
        return self.mu * self.a * self.u / (2.0 * self.hbar)

    def L(self, t):
        """Wall radius at time t >= 0 (one time or an array of times)."""
        return self.a * self.xi(t)

    def xi(self, t):
        """Expansion factor L(t)/a; a float for one time, an array for many.

        Every time must be finite and nonnegative and keep xi >= XI_MIN.
        """
        t = np.asarray(t, dtype=float)
        # ndarray methods, not np.any / np.all: a read checks scalar times by
        # the hundred, and the functions cost twice as much per call
        if (t < 0.0).any():
            raise DomainError(f"time must be nonnegative, got {t.min()}")
        val = 1.0 + self.u * t / self.a
        if not np.isfinite(val).all():
            raise DomainError("time must be finite and give a finite expansion factor")
        if (val < XI_MIN).any():
            raise DomainError(
                f"wall compressed to xi = {val.min():.4g} < {XI_MIN}; beyond supported range"
            )
        return float(val) if val.ndim == 0 else val

    def tau(self, t):
        """Compressed time hbar t / (2 mu a^2 xi), elementwise like `xi`."""
        val = self.hbar * np.asarray(t, dtype=float) / (2.0 * self.mu * self.a ** 2 * self.xi(t))
        return float(val) if val.ndim == 0 else val

    def energy(self, m: int, n: int, t: float = 0.0) -> float:
        """Instantaneous mode energy hbar^2 x_mn^2 / (2 mu L^2)."""
        x = _zero(m, n)
        return self.hbar ** 2 * x * x / (2.0 * self.mu * self.L(t) ** 2)


# --------------------------------------------------------------------------
# Zero tables

@cache
def _zero_table(m: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(zeros x_mn, |J_{m+1}(x_mn)|) for n = 1..size."""
    zeros = bessel_zeros(m, size).zeros
    return zeros, np.abs(bessel_j(m + 1, zeros))


def _zeros_cached(m: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(zeros x_mn, |J_{m+1}(x_mn)|) for n = 1..count, sliced from the table
    of max(count, N_MAX_DEFAULT) zeros."""
    if count < 1:  # a slice [:count] would hand back the wrong zeros or none
        raise DomainError(f"radial index n = {count} at m = {m}: modes are numbered from n = 1")
    zeros, absj = _zero_table(m, max(count, N_MAX_DEFAULT))
    return zeros[:count], absj[:count]


def _zero(m: int, n: int) -> float:
    """The zero x_mn of J_m, n >= 1."""
    return float(_zeros_cached(m, n)[0][n - 1])


# A rule's half-rule of h nodes resolves 1.4 rad of total phase per node past
# its first 32.  Against a 3000-node rule, over m in {0, 1, 2, 5, 20}, n_max in
# {2, 4, 8, 20, 60}, wall phases 0-900 rad and the A^{-1} table, the fewest
# nodes meeting a tenth of the target were at most 31.3 past 1.4 rad per
# node.  Levels within one slice, 2047 nodes (1387 rad), are tabulated and
# cached; a level past it is summed slice by slice with its blocks evaluated
# there, never held whole (a level for 1e5 rad would hold 126 MB at n_max 60).
_RADIANS_PER_NODE = 1.4
_SPARE_NODES = 32
_RULE_NODES_MAX = quad._SLICE_NODES - 1


def _rule_nodes(radians: float) -> int:
    """Nodes N = 2^k - 1 of the smallest rule whose half-rule of (N - 1)/2
    nodes resolves the total phase `radians`."""
    half = math.ceil(radians / _RADIANS_PER_NODE) + _SPARE_NODES
    return 2 ** (half.bit_length() + 1) - 1


# --------------------------------------------------------------------------
# Overlap matrix

def overlap_I(m: int, n_row: int, n_col: int, t: float, alpha: float,
              geom: TrapGeometry) -> complex:
    """Single overlap I_{m n_row n_col}(t, alpha).

    The wall position comes from `geom` at time `t`; `alpha` sets the phase
    factor independently, which makes the conjugation relation
    I(t, -alpha) = conj(I(t, alpha)) directly checkable.  The integrand's
    phase turns at most 2 |alpha| xi + x_row + x_col rad per unit s, at the
    wall.
    """
    if n_row < 1 or n_col < 1:
        raise DomainError("mode indices are 1-based and must be >= 1")
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha}")
    xi_t = geom.xi(t)
    n_hi = max(n_row, n_col)
    zeros, _ = _zeros_cached(m, n_hi)
    x1, x2 = zeros[n_row - 1], zeros[n_col - 1]

    def f(s):
        return s * np.exp(-1j * alpha * xi_t * s * s) * bessel_j(m, x1 * s) * bessel_j(m, x2 * s)

    return complex(integrate(f, 0.0, 1.0, radians=2.0 * abs(alpha) * xi_t + x1 + x2).value)


class _Blocks(NamedTuple):
    """Bessel blocks for `_gram`: `at(s)` evaluates them at nodes s (as
    `quad._Rule.tab`), `phase` is the total phase 2 x_max of a product of two
    and `rules(wall)` is the ladder of rules, coarsest first, for a product
    whose other factors carry `wall` radians more."""

    at: Callable[[np.ndarray], tuple[np.ndarray, ...]]
    phase: float
    rules: Callable[[float], Iterator[quad._Rule]]


def _tabulate(at, nodes: int) -> quad._Rule:
    s, w, w_err = quad.fejer2(nodes)
    return quad._Rule(s, w, w_err, at(s))


def _fejer_blocks(at, phase: float, tabulated: Callable[[int], quad._Rule]) -> _Blocks:
    """Blocks `at` of total phase `phase` on the nested levels of Fejer's
    second rule, from the smallest whose half-rule resolves the product's
    phase (`_rule_nodes`): `tabulated(nodes)` up to _RULE_NODES_MAX nodes,
    the bare rule past it."""
    def rules(wall):
        nodes = _rule_nodes(wall + phase)
        while True:
            yield tabulated(nodes) if nodes <= _RULE_NODES_MAX else quad._Rule(*quad.fejer2(nodes))
            nodes = 2 * nodes + 1

    return _Blocks(at, phase, rules)


def _overlap_blocks(m: int, n_max: int) -> _Blocks:
    """The one block J_m(x_mn s) for zeros 1..n_max, on the overlap rule."""
    zeros, _ = _zeros_cached(m, n_max)
    return _fejer_blocks(lambda s: (bessel_j(m, s[:, None] * zeros[None, :]),),
                         2.0 * float(zeros[-1]), lambda nodes: _bessel_grid(m, n_max, nodes))


@cache
def _bessel_grid(m: int, n_max: int, nodes: int) -> quad._Rule:
    """The overlap rule: J_m(x_mn s) for zeros 1..n_max on `nodes` nodes.
    At m = 0, n_max = 60, 1023 nodes serve wall phases up to 295 rad and
    2047 up to 1012 rad."""
    return _tabulate(_overlap_blocks(m, n_max).at, nodes)


def _real_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a real a; a complex b is split into its real and imaginary
    parts, so a is never copied to complex."""
    if not np.iscomplexobj(b):
        return np.matmul(a, b)
    return (np.matmul(a, np.ascontiguousarray(b.real))
            + 1j * np.matmul(a, np.ascontiguousarray(b.imag)))


def _gram(blocks: _Blocks, weight, right, left: int = 0, phase: float = 0.0) -> np.ndarray:
    """int_0^1 weight(s) h_left(s)^T right(s, h) ds, h the tuple of the
    blocks at the nodes s.

    `right(s, h)` forms the right factor at nodes s, one row per node and k
    columns, and the result is (columns of h_left, k); the weight is put on
    the narrow side, h_left^T (w right).  `phase` is the total phase the
    weight and the right factor carry.  `quad._ladder` sums the product on
    each rule of `blocks.rules(phase)` in turn, slice by slice (a tabulated
    rule is one slice), and returns the first that meets quad's target, with
    its errors: NumericError up front on a total phase past
    `quad._phase_within_budget`, BudgetExceededError once its node budget is
    spent.
    """
    def contract(rule, part):
        s = rule.s[part]
        h = rule.tab or blocks.at(s)
        lb = h[left].T
        rb = weight(s)[:, None] * right(s, h)
        return (_real_matmul(lb, rule.w[part, None] * rb),
                _real_matmul(lb, rule.w_err[part, None] * rb))

    return quad._ladder(blocks.rules(phase), contract, phase + blocks.phase).value


def _i_matrix(m: int, xi_t: float, alpha: float, n_max: int,
              u: np.ndarray) -> np.ndarray:
    """I u for the overlap matrix I at expansion factor xi_t and a vector or
    (n_max, k) block u: a `_gram` of the overlap rule under the wall phase
    |alpha| xi_t with the wave h u as its right factor.  I is symmetric, so
    I e_n is its row n."""
    cols = np.reshape(u, (np.shape(u)[0], -1))
    mat = _gram(_overlap_blocks(m, n_max),
                lambda s: s * np.exp(-1j * alpha * xi_t * s ** 2),
                lambda s, h: _real_matmul(h[0], cols), phase=abs(alpha) * xi_t)
    return mat.reshape((n_max,) + np.shape(u)[1:])


# --------------------------------------------------------------------------
# States and coefficients

@dataclass(frozen=True)
class SpectralState:
    """Expansion coefficients of an initial state over the dressed modes.

    `coeffs[k]` multiplies the mode with radial index n = k + 1 at fixed
    angular index `m`.  `alpha` records the wall-speed parameter the
    projection was taken with; evolving the state under a geometry with a
    different alpha is an error.
    """

    m: int
    alpha: float
    coeffs: np.ndarray = field(repr=False)
    norm_deficit: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def n_max(self) -> int:
        return int(self.coeffs.size)


_DEFICIT_LIMIT = 1e-4


def _deficit_guard(coeffs: np.ndarray, what: str) -> float:
    deficit = float(abs(1.0 - np.sum(np.abs(coeffs) ** 2)))
    if deficit > _DEFICIT_LIMIT:
        raise TruncationError(
            f"retained basis captures too little of {what}: norm deficit {deficit:.3e}",
            deficit,
        )
    return deficit


def coeffs_from_eigenstate(m: int, n: int, geom: TrapGeometry,
                           n_max: int = N_MAX_DEFAULT) -> SpectralState:
    """State that starts as the static-trap eigenstate u_mn at t = 0.

    Projecting u_mn onto the dressed modes gives
    c_n' = 2 I_{m n n'}(0, alpha) / (|J_{m+1}(x_mn)| |J_{m+1}(x_mn')|).
    """
    if n < 1 or n > n_max:
        raise DomainError(f"need 1 <= n <= n_max, got n={n}, n_max={n_max}")
    alpha = geom.alpha
    absj = _zeros_cached(m, n_max)[1]
    row = _i_matrix(m, 1.0, alpha, n_max, np.eye(1, n_max, n - 1)[0])
    coeffs = 2.0 * row / (absj[n - 1] * absj)
    deficit = _deficit_guard(coeffs, f"eigenstate (m={m}, n={n})")
    return SpectralState(m=m, alpha=alpha, coeffs=coeffs, norm_deficit=deficit)


def coeffs_from_initial(psi0, m: int, geom: TrapGeometry,
                        n_max: int = N_MAX_DEFAULT) -> SpectralState:
    """Project an arbitrary normalized radial profile onto the dressed modes.

    `psi0(rho)` is the radial factor of the initial wave function for angular
    index m, normalized as int_0^a |psi0|^2 rho drho = 1; it must vanish at
    the wall.  Norm deficits above 1e-4 raise TruncationError.  Both the norm
    and the projection are `integrate` sums, which climb their ladder until
    its estimate meets the target, or raise BudgetExceededError: a kinked
    profile costs rungs, never a wrong number.
    """
    a = geom.a

    def norm_f(s):
        return s * np.abs(np.asarray(psi0(a * s), dtype=complex)) ** 2

    norm = a * a * integrate(norm_f, 0.0, 1.0).value
    if abs(norm - 1.0) > 1e-8:
        raise DomainError(f"initial state is not normalized: got {norm:.12g}")

    # c_n = int_0^1 conj(modes(s, 0))_n psi0(a s) a^2 s ds on the Gauss-Legendre
    # ladder: the real-space reference that the rule's `coeffs_from_eigenstate`
    # is held to.  The modes turn at most 2 |alpha| + x_max rad per unit s
    def f(s):
        wave = np.asarray(psi0(a * s), dtype=complex)
        return np.conj(modes(m, s, 0.0, geom, n_max)) * (wave * a * a * s)[:, None]

    x_hi = float(_zeros_cached(m, n_max)[0][-1])
    coeffs = np.asarray(integrate(f, 0.0, 1.0, radians=2.0 * abs(geom.alpha) + x_hi).value)
    deficit = _deficit_guard(coeffs, "the initial state")
    return SpectralState(m=m, alpha=geom.alpha, coeffs=coeffs, norm_deficit=deficit)


def _check_state_geom(state: SpectralState, geom: TrapGeometry):
    if abs(state.alpha - geom.alpha) > 1e-12 * max(1.0, abs(state.alpha)):
        raise DomainError(
            f"state was projected with alpha={state.alpha}, geometry has {geom.alpha}"
        )


def b_coeffs(state: SpectralState, t: float, geom: TrapGeometry) -> np.ndarray:
    """Populations amplitudes b_n'(t) over the instantaneous trap eigenstates.

    b_n' = (2/|J_{m+1}(x_n')|) sum_n'' c_n'' / |J_{m+1}(x_n'')|
           exp(-i x_n''^2 tau) conj(I_{n' n''}(t, alpha)).

    |b_n'|^2 is the occupation of instantaneous level n', so for a unitary
    evolution sum |b|^2 equals sum |c|^2 up to truncation.  The sum over n''
    is conj(I) v = conj(I conj(v)) for the vector v_n'' of the terms after
    conj(I): one product of I with conj(v) on the overlap rule, climbing its
    nested levels until their error estimate meets the target (see `_gram`).
    The matrix itself is never formed.
    """
    _check_state_geom(state, geom)
    zeros, absj = _zeros_cached(state.m, state.n_max)
    v = state.coeffs / absj * np.exp(-1j * zeros ** 2 * geom.tau(t))
    iv = _i_matrix(state.m, geom.xi(t), geom.alpha, state.n_max, np.conj(v))
    return 2.0 / absj * np.conj(iv)


def modes(m: int, sigma: np.ndarray, t, geom: TrapGeometry, n_max: int,
          drop_moving_phase: bool = False,
          bessel_block: np.ndarray | None = None) -> np.ndarray:
    """Radial factors of the dressed modes n = 1..n_max at sigma = rho/L(t).

    Returns the (points, n_max) matrix whose column n - 1 is

        exp[i (alpha xi sigma^2 - x_mn^2 tau)] sqrt(2) / (L |J_{m+1}(x_mn)|) J_m(x_mn sigma),

    normalized so that int_0^1 |column|^2 L^2 sigma dsigma = 1.  This is
    where the hard wall is decided: a row with sigma >= 1, +inf included, is
    exactly zero, so a wave built from `modes` vanishes on and past the wall.
    NaN and negative sigma raise DomainError.  `t` is one time or one time
    per point.  `drop_moving_phase` deliberately omits the quadratic wall
    phase; the result then no longer solves the equation of motion.  It
    exists as a negative control so consistency checks can prove they would
    notice.  `bessel_block`, if given, is J_m(x_mn sigma) with one row per
    sigma, so a caller that needs the block too evaluates it only once.
    """
    zeros, absj = _zeros_cached(m, n_max)
    sigma = np.asarray(sigma, dtype=float)
    # NaN is not >= 1: it stays in sigma for bessel_j to reject
    outside = sigma >= 1.0
    sigma = np.where(outside, 0.0, sigma)
    amp = np.exp(-1j * np.multiply.outer(geom.tau(t), zeros ** 2)) \
        * (math.sqrt(2.0) / np.multiply.outer(geom.L(t), absj))
    row = ~outside
    if not drop_moving_phase:
        row = row * np.exp(1j * geom.alpha * geom.xi(t) * sigma * sigma)
    amp = row[:, None] * amp
    j = bessel_block
    if j is None:
        j = bessel_j(m, sigma[:, None] * zeros[None, :])
    return j * amp


def _radial_wave(state: SpectralState, sigma: np.ndarray, t,
                 geom: TrapGeometry) -> np.ndarray:
    """Radial factor of the evolved state at scaled radius sigma = rho/L(t).

    Normalized so that int_0^1 |R|^2 L^2 sigma dsigma = sum |c|^2; sigma and
    t are as in `modes`.
    """
    return modes(state.m, sigma, t, geom, state.n_max) @ state.coeffs


def _mode_coeffs(radial, m: int, t: float, geom: TrapGeometry, n_max: int) -> np.ndarray:
    """Coefficients of the radial wave `radial(rho)` at time t over the
    dressed modes at t,

        c_n = int_0^1 conj(modes(sigma, t))_n R(L sigma) L^2 sigma dsigma.

    They are constants of the motion, so `modes` at a later time evolves the
    wave.  The integral is a `_gram` of the overlap rule under the weight of
    `_i_matrix` at xi(t), whose right factor is the wave sampled in one call
    on all the rule's radii, times the amplitude
    exp(i x_n^2 tau) sqrt(2) L / |J_{m+1}(x_n)|.
    """
    L, xi_t, alpha = geom.L(t), geom.xi(t), geom.alpha
    zeros, absj = _zeros_cached(m, n_max)
    proj = _gram(_overlap_blocks(m, n_max), lambda s: s * np.exp(-1j * alpha * xi_t * s ** 2),
                 lambda s, h: np.asarray(radial(L * s), dtype=complex)[:, None],
                 phase=abs(alpha) * xi_t)
    return np.exp(1j * zeros ** 2 * geom.tau(t)) * (math.sqrt(2.0) * L / absj) * proj[:, 0]


def b_coeffs_direct(state: SpectralState, t: float, geom: TrapGeometry,
                    drop_moving_phase: bool = False) -> np.ndarray:
    """b_n'(t) by real-space projection of the summed exact wave.

    Independent numerical route to the same coefficients as `b_coeffs`: the
    evolved wave is reconstructed from the exact modes on Gauss-Legendre
    nodes and projected against each instantaneous eigenstate there, one
    `_gram` on the rules of `quad._gauss_rules`, two orders sized from the
    total phase |alpha| xi + 2 x_max and judged by their difference.  It
    never reads the overlap rule that `b_coeffs` uses, nor its Fejer nodes,
    nor `integrate`.  The Bessel block at each node serves both the
    reconstruction and the projection (`modes(bessel_block=...)`).
    With `drop_moving_phase` the reconstruction is knowingly wrong and the
    agreement with `b_coeffs` must break down.
    """
    _check_state_geom(state, geom)
    _, absj = _zeros_cached(state.m, state.n_max)
    at, bessel, _ = _overlap_blocks(state.m, state.n_max)

    def wave(s, h):
        return (modes(state.m, s, t, geom, state.n_max, drop_moving_phase,
                      bessel_block=h[0]) @ state.coeffs)[:, None]

    q = _gram(_Blocks(at, bessel, lambda wall: quad._gauss_rules(wall, bessel)), lambda s: s,
              wave, phase=abs(geom.alpha) * geom.xi(t))
    return math.sqrt(2.0) * geom.L(t) * q[:, 0] / absj


# --------------------------------------------------------------------------
# Bessel moment tables

@dataclass(frozen=True)
class MomentTable:
    """Radial moment integrals over s in (0, 1) by quadrature: the reference
    closed forms are checked against; no operator reads them.  With g_n(s) = J_m(x_mn s):

        Ak[i, j] = int s^k g_{i+1} g_{j+1} ds      (k = 3, 1, -1)
        Bk[i, j] = int s^k g_{i+1} g'_{j+1} ds     (k = 0, 2)
        C1[i, j] = int s   g_{i+1} g''_{j+1} ds = -B0[i, j] - int s g'_{i+1} g'_{j+1} ds

    Because C1 is formed by parts, the radial kinetic form m^2 A^{-1} - B0 -
    C1 is the Dirichlet form m^2 A^{-1} + int s g' g', a quadrature of its
    own rather than a rescaled A1.  A tables are symmetric to rounding; B
    and C are not.
    At m = 0 the A^{-1} integral diverges and is stored as NaN; it only ever
    enters through m^2 A^{-1}, which vanishes there identically.
    """

    m: int
    n_max: int
    A3: np.ndarray = field(repr=False)
    A1: np.ndarray = field(repr=False)
    Aneg1: np.ndarray = field(repr=False)
    B0: np.ndarray = field(repr=False)
    B2: np.ndarray = field(repr=False)
    C1: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("A3", "A1", "Aneg1", "B0", "B2", "C1"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def moment_tables(m: int, n_max: int = N_MAX_DEFAULT) -> MomentTable:
    """Moment tables for angular index m with radial indices 1..n_max.

    Each quadrature is one `_gram` of the blocks g and g' under the weight
    s^k, on a rule of the overlaps' family tabulated by the tables (not
    `_bessel_grid`): 1023 nodes at m = 0, n_max = 60.  The rule is open, so
    g' = (m / s) J_m - x J_{m+1} and A^{-1}'s 1/s never meet s = 0.
    """
    return _moment_tables(m, n_max)


@cache
def _moment_tables(m: int, n_max: int) -> MomentTable:
    zeros, _ = _zeros_cached(m, n_max)

    def blocks(s):
        # g = J_m(x s) and g' = x J_m'(x s), the latter from the J_m block:
        # J_m' = (m / z) J_m - J_{m+1}, which holds at m = 0 as well
        sx = s[:, None] * zeros[None, :]
        j = bessel_j(m, sx)
        return j, (m / s)[:, None] * j - zeros[None, :] * bessel_j(m + 1, sx)

    tables = _fejer_blocks(blocks, 2.0 * float(zeros[-1]), cache(lambda nodes: _tabulate(blocks, nodes)))

    def product(k, left, right):  # blocks 0 = g, 1 = g'
        return _gram(tables, lambda s: s ** k, lambda s, h: h[right], left)

    A3 = product(3, 0, 0)
    A1 = product(1, 0, 0)
    Aneg1 = np.full((n_max, n_max), np.nan) if m == 0 else product(-1, 0, 0)
    B0 = product(0, 0, 1)
    B2 = product(2, 0, 1)
    # by parts, the boundary term s g_i g'_j vanishing at both ends (g_i(1) = 0)
    C1 = -B0 - product(1, 1, 1)

    return MomentTable(m=m, n_max=n_max, A3=A3, A1=A1, Aneg1=Aneg1, B0=B0, B2=B2, C1=C1)


# --------------------------------------------------------------------------
# Matrix elements and expectation values

def _a3_diag(m: int, xsq):
    """The diagonal A3_nn = (x^2 + 2 (m^2 - 1)) / (6 x^2) of `_zero_blocks`,
    from the squared zeros xsq (one or an array)."""
    return (xsq + 2.0 * (m * m - 1)) / (6.0 * xsq)


def _zero_blocks(m: int, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(A1, A3, B2, K) / (|J_{m+1}(x_i)| |J_{m+1}(x_j)|) from the zeros x_i alone.

    K = m^2 A^{-1} - B0 - C1 is the radial Dirichlet form.  By the Lommel
    integrals (Watson, Theory of Bessel Functions, 5.11), with s_i = (-1)^(i+1)
    the sign of J_{m+1}(x_i): A1 = I/2, K = A1 diag(x^2), B2 = -A1 +
    ((x_j^2 - x_i^2)/4) A3, and A3 = 4 x_i x_j s_i s_j / (x_i^2 - x_j^2)^2 off
    the diagonal, (x^2 + 2 (m^2 - 1)) / (6 x^2) on it (`_a3_diag`).
    """
    x = _zeros_cached(m, n_max)[0]
    xsq = x * x
    sx = (-1.0) ** np.arange(n_max) * x
    gap = np.subtract.outer(xsq, xsq)
    np.fill_diagonal(gap, 1.0)
    a3 = 4.0 * np.outer(sx, sx) / gap ** 2
    np.fill_diagonal(a3, _a3_diag(m, xsq))
    np.fill_diagonal(gap, 0.0)
    a1 = 0.5 * np.eye(n_max)
    return a1, a3, -a1 - 0.25 * gap * a3, np.diag(0.5 * xsq)


def _op_matrix(op_kind: str, m: int, t: float, geom: TrapGeometry,
               n_max: int) -> np.ndarray:
    """Full operator matrix over the moving basis, indices [n'-1, n-1]."""
    if op_kind not in OP_KINDS:
        raise DomainError(f"unknown operator {op_kind!r}; expected one of {OP_KINDS}")
    if op_kind in ("q0", "p0"):
        # odd azimuthal integrand: vanishes identically between equal-m states
        return np.zeros((n_max, n_max), dtype=complex)

    zeros, _ = _zeros_cached(m, n_max)
    xi_t, alpha = geom.xi(t), geom.alpha
    phase = np.exp(1j * np.subtract.outer(zeros ** 2, zeros ** 2) * geom.tau(t))
    a1, a3, b2, kinetic = _zero_blocks(m, n_max)
    if op_kind == "q0sq":
        return phase * (geom.a * xi_t) ** 2 * 2.0 * math.pi * a3

    bracket = 4.0 * alpha ** 2 * a3 + kinetic / xi_t ** 2 - 1j * (4.0 * alpha / xi_t) * (a1 + b2)
    p0sq = phase * (geom.hbar / geom.a) ** 2 * 2.0 * math.pi * bracket
    if op_kind == "p0sq":
        return p0sq
    return p0sq / (2.0 * math.pi * geom.mu)  # H


def _diag_sq(m: int, n: int, t: float, geom: TrapGeometry) -> tuple[float, float]:
    """The diagonal elements (q0sq, p0sq) of mode (m, n) at time t, from the
    zero x = x_mn alone: `_op_matrix(kind, ...)[n - 1, n - 1].real` bit for
    bit, without its n x n matrices.  On `_zero_blocks`' diagonal the phase
    is 1, A3_nn is `_a3_diag`, K_nn = x^2 / 2 and (A1 + B2)_nn = 0."""
    x = _zero(m, n)
    xsq = x * x
    a3 = _a3_diag(m, xsq)
    xi_t, alpha = geom.xi(t), geom.alpha
    q0sq = (geom.a * xi_t) ** 2 * 2.0 * math.pi * a3
    p0sq = (geom.hbar / geom.a) ** 2 * 2.0 * math.pi * (4.0 * alpha ** 2 * a3 + 0.5 * xsq / xi_t ** 2)
    return q0sq, p0sq


def matrix_element(op_kind: str, m: int, n_row: int, n_col: int, t: float,
                   geom: TrapGeometry) -> complex:
    """Single matrix element <n_row| op |n_col> in the moving basis at time t."""
    if n_row < 1 or n_col < 1:
        raise DomainError("mode indices are 1-based and must be >= 1")
    op = _op_matrix(op_kind, m, t, geom, max(n_row, n_col))
    return complex(op[n_row - 1, n_col - 1])


_IMAG_RESIDUAL = 1e-10


def expectation(op_kind: str, state: SpectralState, t: float, geom: TrapGeometry) -> float:
    """<op>(t) in the evolved state; Hermitian operators only, result real.

    The mode coefficients c are constants of the motion, so the sandwich is
    c^dagger O(t) c with all time dependence inside the matrix elements.
    """
    _check_state_geom(state, geom)
    c = state.coeffs
    op = _op_matrix(op_kind, state.m, t, geom, state.n_max)
    val = complex(np.conj(c) @ op @ c)
    if abs(val.imag) > _IMAG_RESIDUAL * max(1.0, abs(val.real)):
        raise NumericError(
            f"expectation of {op_kind} has imaginary residual {val.imag:.3e}"
        )
    return val.real


def uncertainties(m: int, n: int, t: float, geom: TrapGeometry,
                  tables: MomentTable | None = None) -> tuple[float, float, float]:
    """(dq, dp, dq*dp) for the exact mode (m, n) at time t.

    First moments of position and momentum vanish by symmetry, so the
    spreads are the square roots of the diagonal q^2 and p^2 elements:

        dq = a xi sqrt(2 pi A3_nn / J^2)
        dp = (hbar/a) sqrt((2 pi / J^2)(4 alpha^2 A3_nn + K_nn / xi^2))

    with J = J_{m+1}(x_mn) and K_nn the radial Dirichlet form.  dq grows
    exactly like xi while the momentum spread mixes the drift term
    4 alpha^2 A3 with the shrinking internal term K/xi^2.  Both elements
    come from x_mn alone (`_diag_sq`), equal to the diagonal of the full
    operator matrices bit for bit.  `tables`, if given, must be for angular
    index m and hold n; nothing is read from it.
    """
    if tables is not None and (tables.m != m or tables.n_max < n):
        raise DomainError(f"tables hold m={tables.m}, n <= {tables.n_max}; asked m={m}, n={n}")
    dq, dp = (math.sqrt(v) for v in _diag_sq(m, n, t, geom))
    return dq, dp, dq * dp


# --------------------------------------------------------------------------
# Energy ratio for an eigenstate start

_ENERGY_PATH_LIMIT = 1e-4


def energy_ratio_paths(m: int, n: int, t: float, geom: TrapGeometry,
                       n_max: int = N_MAX_DEFAULT) -> tuple[float, float]:
    """<H>(t)/<H>(0) for the mode (m, n), by two independent routes.

    Route 1 sums the populations of the instantaneous levels through row n
    of the overlap matrix, I e_n:

        ratio = (1/xi^2) sum_n' (x_n'/J_n')^2 |I_{n n'}(t)|^2
                / sum_n' (x_n'/J_n')^2 |I_{n n'}(0)|^2.

    Its populations at t, 4 |I_{n n'}(t)|^2 / (J_n^2 J_n'^2), must hold the
    state's norm: a row the n_max modes truncate raises TruncationError
    (`_deficit_guard`) instead of a ratio.

    Route 2 is the closed diagonal form H_nn(t) / H_nn(0) = p0sq_nn(t) /
    p0sq_nn(0),

        ratio = (4 alpha^2 A3_nn + K_nn / xi^2) / (4 alpha^2 A3_nn + K_nn),

    on the zero x_mn alone (`_diag_sq`), so the routes share no numerics.
    """
    if n < 1 or n > n_max:
        raise DomainError(f"need 1 <= n <= n_max, got n={n}, n_max={n_max}")
    alpha = geom.alpha
    xi_t = geom.xi(t)
    zeros, absj = _zeros_cached(m, n_max)
    w = (zeros / absj) ** 2
    e_n = np.eye(1, n_max, n - 1)[0]
    row_t, row_0 = (_i_matrix(m, xi, alpha, n_max, e_n) for xi in (xi_t, 1.0))
    _deficit_guard(2.0 * row_t / (absj[n - 1] * absj), f"mode (m={m}, n={n}) at xi = {xi_t:.6g}")
    isum = float(np.sum(w * np.abs(row_t) ** 2) / np.sum(w * np.abs(row_0) ** 2) / xi_t ** 2)

    p_t, p_0 = (_diag_sq(m, n, s, geom)[1] for s in (t, 0.0))
    return isum, p_t / p_0


def energy_ratio(m: int, n: int, t: float, geom: TrapGeometry,
                 n_max: int = N_MAX_DEFAULT) -> float:
    """<H>(t)/<H>(0) for the mode (m, n); both routes must agree."""
    isum, closed = energy_ratio_paths(m, n, t, geom, n_max)
    if abs(isum - closed) > _ENERGY_PATH_LIMIT * max(1.0, abs(closed)):
        raise NumericError(
            f"energy ratio routes disagree: series {isum:.10g} vs closed {closed:.10g}"
        )
    return closed
