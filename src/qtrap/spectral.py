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
`evolve` is built from it; `_projection` takes a wave back onto them, so the
kernel is the projection at t' followed by `modes` at t.  A general state is
carried as coefficients c_n' over the dressed modes at t = 0; its projection
b_n'(t) onto the moving instantaneous basis is a single matrix-vector product
against the overlap matrix

    I_{m n' n''}(t, alpha) = int_0^1 s exp(-i alpha xi s^2)
                             J_m(x_mn' s) J_m(x_mn'' s) ds.

The Bessel block J_m(x_mn s_j) is tabulated once per (m, N_max) on the nodes
s_j of a fixed composite GK15 rule over [0, 1]; only the phase depends on
(t, alpha), so each overlap matrix is one weighted product of that block with
itself.  The grid carries its own per-panel K15 - G7 error estimate, and the
overlap falls back to adaptive quadrature when the estimate misses its target
or the phase outruns the grid.  The real-space route `b_coeffs_direct`, which
the two-path check holds against `b_coeffs`, never reads the grid: it
integrates adaptively on its own panel layout.

Operator matrix elements in that moving basis reduce to six one-dimensional
Bessel moment integrals, which are tabulated once per (m, N_max) and cached.
Each is a weighted product of the Bessel block and its derivative on a
fixed GK15 rule of its own, under the same error estimate and fallback; see
`moment_tables`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quad import ABS_TOL, REL_TOL, gk15_panels, integrate
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


class TruncationError(RuntimeError):
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
        if self.a <= 0.0 or self.hbar <= 0.0 or self.mu <= 0.0:
            raise DomainError("a, hbar and mu must all be positive")

    @classmethod
    def from_alpha(cls, alpha: float, a: float = 1.0, hbar: float = 1.0,
                   mu: float = 1.0) -> "TrapGeometry":
        """Geometry with the dimensionless wall-speed parameter set directly."""
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
        if np.any(t < 0.0):
            raise DomainError(f"time must be nonnegative, got {t.min()}")
        val = 1.0 + self.u * t / self.a
        if not np.all(np.isfinite(val)):
            raise DomainError("time must be finite and give a finite expansion factor")
        if np.any(val < XI_MIN):
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
        x = _zeros_cached(m, n)[0][n - 1]
        return self.hbar ** 2 * x * x / (2.0 * self.mu * self.L(t) ** 2)


# --------------------------------------------------------------------------
# Cached zero tables

_ZERO_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _zeros_cached(m: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(zeros x_mn, |J_{m+1}(x_mn)|) for n = 1..count, grown monotonically."""
    have = _ZERO_CACHE.get(m)
    if have is None or have[0].size < count:
        grow = max(count, N_MAX_DEFAULT)
        table = bessel_zeros(m, grow)
        absj = np.abs(bessel_j(m + 1, table.zeros))
        _ZERO_CACHE[m] = (table.zeros, absj)
        have = _ZERO_CACHE[m]
    return have[0][:count], have[1][:count]


def _osc_panels(radians: float) -> int:
    """Initial panel count so each panel sees at most ~pi of total phase.

    Capped so a huge phase cannot demand gigabytes up front; past the cap the
    adaptive refinement takes over and runs into the panel budget instead.
    """
    return min(max(8, int(math.ceil(abs(radians) / math.pi)) + 1), 2048)


# --------------------------------------------------------------------------
# Overlap matrix

def overlap_I(m: int, n_row: int, n_col: int, t: float, alpha: float,
              geom: TrapGeometry) -> complex:
    """Single overlap I_{m n_row n_col}(t, alpha).

    The wall position comes from `geom` at time `t`; `alpha` sets the phase
    factor independently, which makes the conjugation relation
    I(t, -alpha) = conj(I(t, alpha)) directly checkable.
    """
    if n_row < 1 or n_col < 1:
        raise DomainError("mode indices are 1-based and must be >= 1")
    xi_t = geom.xi(t)
    n_hi = max(n_row, n_col)
    zeros, _ = _zeros_cached(m, n_hi)
    x1, x2 = zeros[n_row - 1], zeros[n_col - 1]

    def f(s):
        return s * np.exp(-1j * alpha * xi_t * s * s) * bessel_j(m, x1 * s) * bessel_j(m, x2 * s)

    res = integrate(f, 0.0, 1.0,
                    initial_panels=_osc_panels(abs(alpha) * xi_t + x1 + x2))
    return complex(res.value)


@dataclass(frozen=True)
class _BesselGrid:
    """J_m(x_mn s) on the nodes of a fixed composite GK15 rule over [0, 1].

    `j` holds the block with one row per node (panel-major) and one column
    per zero.  `max_phase` is the largest wall phase |alpha| xi at which every
    panel still sees at most pi of total phase.
    """

    s: np.ndarray          # (panels, 15) nodes
    w_kron: np.ndarray     # (panels, 15) K15 weights
    w_err: np.ndarray      # (panels, 15) K15 - G7 weights
    j: np.ndarray          # (panels * 15, n_max)
    max_phase: float


_GRID_CACHE: dict[tuple[int, int], _BesselGrid] = {}

# Per-panel error matrices are formed this many elements at a time.
_ERR_CHUNK_ELEMS = 250_000


def _bessel_grid(m: int, n_max: int) -> _BesselGrid:
    """Bessel table for angular index m and zeros 1..n_max, built once.

    The panel count resolves a wall phase as large as the Bessel phase
    2 x_max itself: 376 rad at m = 0, n_max = 60, several times the largest
    wall phase in the acceptance battery.
    """
    key = (m, n_max)
    grid = _GRID_CACHE.get(key)
    if grid is None:
        zeros, _ = _zeros_cached(m, n_max)
        bessel_phase = 2.0 * float(zeros[-1])
        panels = _osc_panels(2.0 * bessel_phase)
        s, w_kron, w_err = gk15_panels(0.0, 1.0, panels)
        j = bessel_j(m, s.reshape(-1, 1) * zeros[None, :])
        grid = _BesselGrid(s=s, w_kron=w_kron, w_err=w_err, j=j,
                           max_phase=math.pi * panels - bessel_phase)
        _GRID_CACHE[key] = grid
    return grid


def _fixed_rule_product(weight: np.ndarray, w_kron: np.ndarray, w_err: np.ndarray,
                        left: np.ndarray, right: np.ndarray) -> np.ndarray | None:
    """int left^T weight right on a fixed composite GK15 rule, or None.

    `weight`, `w_kron` and `w_err` have one row per panel and one column per
    node (as `gk15_panels` returns them); `left` and `right` hold one row per
    node, panel-major.  The per-panel K15 - G7 matrices are formed
    `_ERR_CHUNK_ELEMS` elements at a time; their worst components are summed
    as `integrate` does, and None is returned when that sum misses
    `integrate`'s default target, so the caller can fall back to it.
    """
    def sandwich(d, lb, rb):
        # lb^T diag(d) rb over real blocks with leading batch axes; a complex
        # weight is split so the products stay real
        lt = lb.swapaxes(-1, -2)
        if np.iscomplexobj(d):
            return (np.matmul(lt * d.real[..., None, :], rb)
                    + 1j * np.matmul(lt * d.imag[..., None, :], rb))
        return np.matmul(lt * d[..., None, :], rb)

    panels, nodes = w_kron.shape
    mat = sandwich((weight * w_kron).ravel(), left, right)
    diff = weight * w_err
    lp = left.reshape(panels, nodes, -1)
    rp = right.reshape(panels, nodes, -1)
    step = max(1, _ERR_CHUNK_ELEMS // (lp.shape[2] * rp.shape[2]))
    err = 0.0
    for lo in range(0, panels, step):
        e = np.abs(sandwich(diff[lo:lo + step], lp[lo:lo + step], rp[lo:lo + step]))
        err += float(e.reshape(e.shape[0], -1).max(axis=1).sum())
    if err > max(ABS_TOL, REL_TOL * float(np.max(np.abs(mat)))):
        return None
    return mat


def _i_matrix_on_grid(grid: _BesselGrid, xi_t: float, alpha: float) -> np.ndarray | None:
    """J^T diag(w s e^{-i alpha xi s^2}) J on the grid, or None if the grid's
    error estimate misses `integrate`'s default target."""
    weight = grid.s * np.exp(-1j * alpha * xi_t * grid.s ** 2)
    return _fixed_rule_product(weight, grid.w_kron, grid.w_err, grid.j, grid.j)


def _i_matrix(m: int, xi_t: float, alpha: float, n_max: int) -> np.ndarray:
    """Full (n_max, n_max) overlap matrix at expansion factor xi_t.

    Taken from the tabulated Bessel grid when the wall phase |alpha| xi_t is
    within what the grid resolves and the grid's own error estimate meets
    `integrate`'s default target; otherwise by adaptive `integrate`.
    """
    grid = _bessel_grid(m, n_max)
    mat = None
    if abs(alpha) * xi_t <= grid.max_phase:
        mat = _i_matrix_on_grid(grid, xi_t, alpha)
    if mat is None:
        zeros, _ = _zeros_cached(m, n_max)
        x_hi = float(zeros[-1])

        def f(s):
            j = bessel_j(m, s[:, None] * zeros[None, :])
            w = s * np.exp(-1j * alpha * xi_t * s * s)
            return w[:, None, None] * j[:, :, None] * j[:, None, :]

        res = integrate(f, 0.0, 1.0,
                        initial_panels=_osc_panels(abs(alpha) * xi_t + 2.0 * x_hi))
        mat = np.asarray(res.value)
    return 0.5 * (mat + mat.swapaxes(0, 1))  # integrand is exactly symmetric


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
    zeros, absj = _zeros_cached(m, n_max)
    row = _i_matrix(m, 1.0, alpha, n_max)[n - 1]
    coeffs = 2.0 * row / (absj[n - 1] * absj)
    deficit = _deficit_guard(coeffs, f"eigenstate (m={m}, n={n})")
    return SpectralState(m=m, alpha=alpha, coeffs=coeffs, norm_deficit=deficit)


def coeffs_from_initial(psi0, m: int, geom: TrapGeometry,
                        n_max: int = N_MAX_DEFAULT) -> SpectralState:
    """Project an arbitrary normalized radial profile onto the dressed modes.

    `psi0(rho)` is the radial factor of the initial wave function for angular
    index m, normalized as int_0^a |psi0|^2 rho drho = 1; it must vanish at
    the wall.  Norm deficits above 1e-4 raise TruncationError.
    """
    a = geom.a

    def norm_f(s):
        return s * np.abs(np.asarray(psi0(a * s), dtype=complex)) ** 2

    norm = a * a * integrate(norm_f, 0.0, 1.0).value
    if abs(norm - 1.0) > 1e-8:
        raise DomainError(f"initial state is not normalized: got {norm:.12g}")

    f, panels = _projection(psi0, m, 0.0, geom, n_max)
    coeffs = np.asarray(integrate(f, 0.0, 1.0, initial_panels=panels).value)
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
    evolution sum |b|^2 equals sum |c|^2 up to truncation.  The overlap
    matrix comes from the tabulated Bessel grid under its K15 - G7 error
    estimate, or from adaptive quadrature where the grid does not suffice
    (see `_i_matrix`).
    """
    _check_state_geom(state, geom)
    zeros, absj = _zeros_cached(state.m, state.n_max)
    imat = _i_matrix(state.m, geom.xi(t), geom.alpha, state.n_max)
    v = state.coeffs / absj * np.exp(-1j * zeros ** 2 * geom.tau(t))
    return 2.0 / absj * (np.conj(imat) @ v)


def modes(m: int, sigma: np.ndarray, t, geom: TrapGeometry, n_max: int,
          drop_moving_phase: bool = False,
          bessel_block: np.ndarray | None = None) -> np.ndarray:
    """Radial factors of the dressed modes n = 1..n_max at sigma = rho/L(t).

    Returns the (points, n_max) matrix whose column n - 1 is

        exp[i (alpha xi sigma^2 - x_mn^2 tau)] sqrt(2) / (L |J_{m+1}(x_mn)|) J_m(x_mn sigma),

    normalized so that int_0^1 |column|^2 L^2 sigma dsigma = 1.  `t` is one
    time or one time per point.  `drop_moving_phase` deliberately omits the
    quadratic wall phase; the result then no longer solves the equation of
    motion.  It exists as a negative control so consistency checks can prove
    they would notice.  `bessel_block`, if given, is J_m(x_mn sigma) with one
    row per sigma, so a caller that needs the block too evaluates it only once.
    """
    zeros, absj = _zeros_cached(m, n_max)
    sigma = np.asarray(sigma, dtype=float)
    amp = np.exp(-1j * np.multiply.outer(geom.tau(t), zeros ** 2)) \
        * (math.sqrt(2.0) / np.multiply.outer(geom.L(t), absj))
    if not drop_moving_phase:
        amp = np.exp(1j * geom.alpha * geom.xi(t) * sigma * sigma)[:, None] * amp
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


def _projection(radial, m: int, t: float, geom: TrapGeometry, n_max: int):
    """Integrand and initial panel count of the coefficients of the radial
    wave `radial(rho)` at time t over the dressed modes at t,

        c_n = int_0^1 conj(modes(sigma, t))_n R(L sigma) L^2 sigma dsigma.

    They are constants of the motion, so `modes` at a later time evolves the
    wave.  The caller integrates, so the quadrature counts in its own layer.
    """
    L = geom.L(t)
    x_hi = float(_zeros_cached(m, n_max)[0][-1])

    def f(s):
        wave = np.asarray(radial(L * s), dtype=complex)
        return np.conj(modes(m, s, t, geom, n_max)) * (wave * L * L * s)[:, None]

    return f, _osc_panels(abs(geom.alpha) * geom.xi(t) + x_hi)


def b_coeffs_direct(state: SpectralState, t: float, geom: TrapGeometry,
                    drop_moving_phase: bool = False) -> np.ndarray:
    """b_n'(t) by real-space projection of the summed exact wave.

    Independent numerical route to the same coefficients as `b_coeffs`: the
    evolved wave is reconstructed on quadrature abscissae from the exact
    modes and projected against each instantaneous eigenstate by adaptive
    integration on its own panel layout; it never reads the tabulated Bessel
    grid that `b_coeffs` uses.  The Bessel block at each node serves both the
    reconstruction and the projection.
    With `drop_moving_phase` the reconstruction is knowingly wrong and the
    agreement with `b_coeffs` must break down.
    """
    _check_state_geom(state, geom)
    L = geom.L(t)
    zeros, absj = _zeros_cached(state.m, state.n_max)

    def f(sigma):
        j = bessel_j(state.m, sigma[:, None] * zeros[None, :])
        wave = modes(state.m, sigma, t, geom, state.n_max, drop_moving_phase, j) @ state.coeffs
        return (sigma * wave)[:, None] * j

    res = integrate(f, 0.0, 1.0,
                    initial_panels=_osc_panels(abs(geom.alpha) * geom.xi(t) + 2.0 * float(zeros[-1])))
    return math.sqrt(2.0) * L * np.asarray(res.value) / absj


# --------------------------------------------------------------------------
# Bessel moment tables

@dataclass(frozen=True)
class MomentTable:
    """Radial moment integrals over scaled radius s in (0, 1).

    With g_n(s) = J_m(x_mn s):

        Ak[i, j] = int s^k g_{i+1} g_{j+1} ds      (k = 3, 1, -1)
        Bk[i, j] = int s^k g_{i+1} g'_{j+1} ds     (k = 0, 2)
        C1[i, j] = int s   g_{i+1} g''_{j+1} ds

    A tables are symmetric; B and C are not.  At m = 0 the A^{-1} integral
    diverges and is stored as NaN; it only ever enters through m^2 A^{-1},
    which vanishes there identically.
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

    def kinetic_diag(self, n: int) -> float:
        """m^2 A^{-1} - B0 - C1 at (n, n): the radial Dirichlet form, > 0."""
        i = n - 1
        msq = 0.0 if self.m == 0 else self.m ** 2 * self.Aneg1[i, i]
        return msq - self.B0[i, i] - self.C1[i, i]


_TABLE_CACHE: dict[tuple[int, int], MomentTable] = {}


def moment_tables(m: int, n_max: int = N_MAX_DEFAULT) -> MomentTable:
    """Moment tables for angular index m with radial indices 1..n_max.

    g_n and g'_n are evaluated once per node of a fixed composite GK15 rule
    on the layout adaptive quadrature would start from (`_osc_panels(2 x_max)`
    panels), g' from J_{m-1} and the g block itself, and each table is one
    product g^T diag(w s^k) g or g^T diag(w s^k) g'.  A table whose summed per-panel K15 - G7 estimate
    misses `integrate`'s default target is rebuilt by adaptive `integrate`.
    The rule is the tables' own, not the overlap grid `_bessel_grid`, so the
    two routes of `energy_ratio_paths` do not share their numerics.
    """
    key = (m, n_max)
    hit = _TABLE_CACHE.get(key)
    if hit is not None:
        return hit
    zeros, _ = _zeros_cached(m, n_max)
    x_hi = float(zeros[-1])
    panels = _osc_panels(2.0 * x_hi)

    def pair(s):
        return bessel_j(m, s[:, None] * zeros[None, :])

    def gprime(s, j):
        # x J_m'(x s) from the J_m block j on the same nodes:
        # J_m' = J_{m-1} - (m / z) J_m, and J_0' = -J_1
        sx = s[:, None] * zeros[None, :]
        if m == 0:
            return -zeros[None, :] * bessel_j(1, sx)
        return zeros[None, :] * bessel_j(m - 1, sx) - (m / s)[:, None] * j

    def adaptive(k, with_gprime):
        def f(s):
            jl = pair(s)
            jr = gprime(s, jl) if with_gprime else jl
            return (s ** k)[:, None, None] * jl[:, :, None] * jr[:, None, :]
        return np.asarray(integrate(f, 0.0, 1.0, initial_panels=panels).value)

    s, w_kron, w_err = gk15_panels(0.0, 1.0, panels)
    j = pair(s.ravel())
    gp = gprime(s.ravel(), j)

    def a_m(k):
        val = _fixed_rule_product(s ** k, w_kron, w_err, j, j)
        if val is None:
            val = adaptive(k, False)
        return 0.5 * (val + val.T)

    def b_m(k):
        val = _fixed_rule_product(s ** k, w_kron, w_err, j, gp)
        return adaptive(k, True) if val is None else val

    A3 = a_m(3)
    A1 = a_m(1)
    if m == 0:
        Aneg1 = np.full((n_max, n_max), np.nan)
    else:
        Aneg1 = a_m(-1)
    B0 = b_m(0)
    B2 = b_m(2)
    # Bessel equation: s g'' = -g' - (x^2 s - m^2/s) g, so the C1 table is an
    # exact combination of the ones above; no further quadrature needed.
    msq_aneg1 = 0.0 if m == 0 else m * m * Aneg1
    C1 = -B0 - A1 * (zeros ** 2)[None, :] + msq_aneg1

    table = MomentTable(m=m, n_max=n_max, A3=A3, A1=A1, Aneg1=Aneg1, B0=B0, B2=B2, C1=C1)
    _TABLE_CACHE[key] = table
    return table


# --------------------------------------------------------------------------
# Matrix elements and expectation values

def _require_tables(m: int, n_hi: int, tables: MomentTable | None) -> MomentTable:
    if tables is None:
        return moment_tables(m, max(n_hi, N_MAX_DEFAULT))
    if tables.m != m:
        raise DomainError(f"tables are for m={tables.m}, requested m={m}")
    if tables.n_max < n_hi:
        raise DomainError(f"tables hold n <= {tables.n_max}, requested {n_hi}")
    return tables


def _op_matrix(op_kind: str, m: int, t: float, geom: TrapGeometry,
               tables: MomentTable) -> np.ndarray:
    """Full operator matrix over the moving basis, indices [n'-1, n-1]."""
    if op_kind not in OP_KINDS:
        raise DomainError(f"unknown operator {op_kind!r}; expected one of {OP_KINDS}")
    n_max = tables.n_max
    zeros, absj = _zeros_cached(m, n_max)
    if op_kind in ("q0", "p0"):
        # odd azimuthal integrand: vanishes identically between equal-m states
        return np.zeros((n_max, n_max), dtype=complex)

    xi_t = geom.xi(t)
    alpha = geom.alpha
    tau = geom.tau(t)
    phase = np.exp(1j * np.subtract.outer(zeros ** 2, zeros ** 2) * tau)
    jj = np.outer(absj, absj)

    if op_kind == "q0sq":
        return phase * (geom.a * xi_t) ** 2 * 2.0 * math.pi * tables.A3 / jj

    msq_aneg1 = 0.0 if m == 0 else m * m * tables.Aneg1
    radial = (msq_aneg1 - tables.B0 - tables.C1) / xi_t ** 2
    bracket = (
        4.0 * alpha ** 2 * tables.A3
        + radial
        - 1j * (4.0 * alpha / xi_t) * (tables.A1 + tables.B2)
    )
    p0sq = phase * (geom.hbar / geom.a) ** 2 * 2.0 * math.pi / jj * bracket
    if op_kind == "p0sq":
        return p0sq
    return p0sq / (2.0 * math.pi * geom.mu)  # H


def matrix_element(op_kind: str, m: int, n_row: int, n_col: int, t: float,
                   geom: TrapGeometry, tables: MomentTable | None = None) -> complex:
    """Single matrix element <n_row| op |n_col> in the moving basis at time t."""
    if n_row < 1 or n_col < 1:
        raise DomainError("mode indices are 1-based and must be >= 1")
    tables = _require_tables(m, max(n_row, n_col), tables)
    return complex(_op_matrix(op_kind, m, t, geom, tables)[n_row - 1, n_col - 1])


_IMAG_RESIDUAL = 1e-10


def expectation(op_kind: str, state: SpectralState, t: float, geom: TrapGeometry,
                tables: MomentTable | None = None) -> float:
    """<op>(t) in the evolved state; Hermitian operators only, result real.

    The mode coefficients c are constants of the motion, so the sandwich is
    c^dagger O(t) c with all time dependence inside the matrix elements.
    """
    _check_state_geom(state, geom)
    tables = _require_tables(state.m, state.n_max, tables)
    if tables.n_max != state.n_max:
        tables = moment_tables(state.m, state.n_max)
    c = state.coeffs
    op = _op_matrix(op_kind, state.m, t, geom, tables)
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
    spreads come straight from the diagonal second moments:

        dq = a xi sqrt(2 pi A3_nn) / |J_{m+1}(x_mn)|
        dp = (hbar/a) sqrt((2 pi / J^2)(4 alpha^2 A3_nn + K_nn / xi^2))

    with K_nn the radial Dirichlet form.  dq grows exactly like xi while the
    momentum spread mixes the drift term 4 alpha^2 A3 with the shrinking
    internal term K/xi^2.
    """
    tables = _require_tables(m, n, tables)
    i = n - 1
    zeros, absj = _zeros_cached(m, n)
    xi_t = geom.xi(t)
    a3 = tables.A3[i, i]
    k = tables.kinetic_diag(n)
    j2 = absj[i] ** 2
    dq = geom.a * xi_t * math.sqrt(2.0 * math.pi * a3) / absj[i]
    dp = (geom.hbar / geom.a) * math.sqrt(
        (2.0 * math.pi / j2) * (4.0 * geom.alpha ** 2 * a3 + k / xi_t ** 2)
    )
    return dq, dp, dq * dp


# --------------------------------------------------------------------------
# Energy ratio for an eigenstate start

_ENERGY_PATH_LIMIT = 1e-4


def energy_ratio_paths(m: int, n: int, t: float, geom: TrapGeometry,
                       n_max: int = N_MAX_DEFAULT) -> tuple[float, float]:
    """<H>(t)/<H>(0) for the mode (m, n), by two independent routes.

    Route 1 sums the populations of the instantaneous levels through the
    overlap matrix:

        ratio = (1/xi^2) sum_n' (x_n'/J_n')^2 |I_{n n'}(t)|^2
                / sum_n' (x_n'/J_n')^2 |I_{n n'}(0)|^2.

    Route 2 is the closed diagonal form

        ratio = (4 alpha^2 A3_nn + K_nn / xi^2) / (4 alpha^2 A3_nn + K_nn).
    """
    if n < 1 or n > n_max:
        raise DomainError(f"need 1 <= n <= n_max, got n={n}, n_max={n_max}")
    alpha = geom.alpha
    xi_t = geom.xi(t)
    zeros, absj = _zeros_cached(m, n_max)
    w = (zeros / absj) ** 2
    row_t = _i_matrix(m, xi_t, alpha, n_max)[n - 1]
    row_0 = _i_matrix(m, 1.0, alpha, n_max)[n - 1]
    isum = float(np.sum(w * np.abs(row_t) ** 2) / np.sum(w * np.abs(row_0) ** 2) / xi_t ** 2)

    tables = moment_tables(m, n_max)
    a3 = tables.A3[n - 1, n - 1]
    k = tables.kinetic_diag(n)
    drift = 4.0 * alpha ** 2 * a3
    closed = float((drift + k / xi_t ** 2) / (drift + k))
    return isum, closed


def energy_ratio(m: int, n: int, t: float, geom: TrapGeometry,
                 n_max: int = N_MAX_DEFAULT) -> float:
    """<H>(t)/<H>(0) for the mode (m, n); both routes must agree."""
    isum, closed = energy_ratio_paths(m, n, t, geom, n_max)
    if abs(isum - closed) > _ENERGY_PATH_LIMIT * max(1.0, abs(closed)):
        raise NumericError(
            f"energy ratio routes disagree: series {isum:.10g} vs closed {closed:.10g}"
        )
    return closed
