"""Time-domain views of the spectral solution: wave functions on the moving
domain, radial density snapshots and time series in the natural dimensionless
variables, the two-time propagator, a finite-difference residual check of the
governing equation, and the late-time radial envelope.

Dimensionless conventions for a mode (m, n) with zero x = x_mn:

    lambda = 2 pi a / x          characteristic wavelength
    nu     = hbar x^2 / (4 pi mu a^2)   initial frequency (cycles per time)
    eta    = rho / lambda        scaled radius
    T      = nu t                scaled time
    varrho = lambda^2 eta |R|^2  scaled radial density, int varrho d eta = 1

with R the radial factor of Psi = R(rho, t) e^{i m phi} / sqrt(2 pi).  The
wall sits at eta = xi x / (2 pi).

Every radial factor here comes from `spectral.modes`, the one place the
dressed-mode factor is formed: an exact mode is a general state with a unit
coefficient vector; the kernel is a projection at t' followed by `modes` at t.
`modes` is also where the hard wall is decided: its rows are exactly zero
on and past the wall.  Points are checked where they enter, by `_check_point`:
`psi_general` and each point of both kernels reject a negative or NaN rho and
a non-finite phi before any work, while rho = +inf passes and lies past the
wall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quad
# nothing here integrates; `qtrap.evolve.integrate` stays bound because the
# benchmark's layer tracing (benchmarks/tracing.py) pins that name
from .quad import integrate  # noqa: F401
from .special import DomainError, NumericError, bessel_j
from .spectral import (
    N_MAX_DEFAULT,
    SpectralState,
    TrapGeometry,
    _check_state_geom,
    _i_matrix,
    _mode_coeffs,
    _radial_wave,
    _zero,
    _zeros_cached,
    coeffs_from_eigenstate,
    modes,
)

__all__ = [
    "RadialDensitySample",
    "FlightTimes",
    "psi_exact",
    "psi_general",
    "density_profile",
    "density_timeseries",
    "visibility",
    "propagator",
    "propagate_through_kernel",
    "pde_residual",
    "long_time_radial",
]


@dataclass(frozen=True)
class RadialDensitySample:
    eta: float
    T: float
    rho_density: float


@dataclass(frozen=True)
class FlightTimes:
    """Scaled times at which the wall (T1, at alpha-ratio 1: at ratio r it
    is T1 / r) and the direct wave front (T2) reach the observation radius."""
    T1: float
    T2: float


# --------------------------------------------------------------------------
# Wave functions

def psi_exact(m: int, n: int, rho, phi, t: float, geom: TrapGeometry):
    """Exact mode solution Psi_mn(rho, phi, t); zero on and outside the wall.

    rho and phi broadcast together; scalars in give a scalar out.
    """
    if n < 1:
        raise DomainError("radial index must be >= 1")
    unit = SpectralState(m=m, alpha=geom.alpha, coeffs=np.eye(1, n, n - 1)[0])
    return psi_general(unit, rho, phi, t, geom)


def _check_point(rho, phi) -> tuple[np.ndarray, np.ndarray]:
    """rho and phi as float arrays, once rho >= 0 (NaN fails it; +inf lies
    past the wall) and phi is finite; DomainError otherwise."""
    rho = np.asarray(rho, float)
    phi = np.asarray(phi, float)
    if not np.all(rho >= 0.0):
        raise DomainError("rho must be nonnegative and not NaN")
    if not np.all(np.isfinite(phi)):
        raise DomainError("phi must be finite")
    return rho, phi


def psi_general(state: SpectralState, rho, phi, t: float, geom: TrapGeometry):
    """Evolved wave for an arbitrary coefficient state; zero on and outside
    the wall, where `modes` gives zero rows."""
    _check_state_geom(state, geom)
    rho, phi = _check_point(rho, phi)
    # the radial factor is taken on rho's own shape and e^{i m phi} on phi's,
    # and the two broadcast only in the product: a grid rho[:, None] x
    # phi[None, :] evaluates each radius once
    sigma = rho / geom.L(t)
    rad = _radial_wave(state, sigma.ravel(), t, geom).reshape(sigma.shape)
    out = rad * np.exp(1j * state.m * phi) / math.sqrt(2.0 * math.pi)
    return complex(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------
# Density diagnostics

def density_profile(m: int, n: int, alpha_ratio: float, xi_target: float,
                    grid_size: int = 400) -> list[RadialDensitySample]:
    """Scaled radial density of the evolved mode (m, n) when the wall reaches
    xi_target, for wall speed alpha = alpha_ratio * (x_mn / 2).

    The state starts as the static eigenstate u_mn.  The returned grid spans
    eta in [0, xi_target * x_mn / (2 pi)], wall point included (density
    exactly zero there).
    """
    if grid_size < 2:
        raise DomainError("grid_size must be >= 2")
    x = _zero(m, n)
    if not 0.0 < xi_target < math.inf:
        raise DomainError(f"xi_target must be finite and positive, got {xi_target}")
    geom = TrapGeometry.from_alpha(alpha_ratio * 0.5 * x)
    if geom.u == 0.0:
        if xi_target != 1.0:
            raise DomainError("a static wall (alpha_ratio = 0) cannot reach xi != 1")
        t = 0.0
    else:
        t = (xi_target - 1.0) / geom.u
        if t < 0.0:
            raise DomainError(
                f"xi_target {xi_target} is not reachable with alpha_ratio {alpha_ratio}"
            )

    lam = 2.0 * math.pi / x          # a = 1
    nu = x * x / (4.0 * math.pi)
    T = nu * t
    state = coeffs_from_eigenstate(m, n, geom)
    L = geom.L(t)
    eta_wall = xi_target * x / (2.0 * math.pi)
    eta = np.linspace(0.0, eta_wall, grid_size)
    rad = _radial_wave(state, eta * lam / L, t, geom)
    dens = lam ** 2 * eta * np.abs(rad) ** 2
    return [RadialDensitySample(eta=float(e), T=float(T), rho_density=float(d))
            for e, d in zip(eta, dens)]


def density_timeseries(m: int, n: int, alpha_ratio: float, eta_obs: float,
                       T_max: float, steps: int = 800
                       ) -> tuple[list[RadialDensitySample], FlightTimes]:
    """Scaled density at fixed radius eta_obs while the wall expands past it.

    Only expansion makes sense here (alpha_ratio > 0): the observation point
    starts outside the trap (rho_0 > a required) and the density is exactly
    zero until the wall crosses it at T1 / alpha_ratio; the returned T1 =
    (x/4 pi)(rho_0/a - 1) is that time at alpha-ratio 1.  The direct flight
    of the initially confined wave arrives around T2 = (x/4 pi)(rho_0/a + 1).
    """
    if steps < 2:
        raise DomainError("steps must be >= 2")
    if alpha_ratio <= 0.0:
        raise DomainError("time series needs an expanding wall: alpha_ratio > 0")
    if not 0.0 < T_max < math.inf:
        raise DomainError(f"T_max must be finite and positive, got {T_max}")
    if not math.isfinite(eta_obs):
        raise DomainError(f"eta_obs must be finite, got {eta_obs}")
    x = _zero(m, n)
    lam = 2.0 * math.pi / x
    rho0 = eta_obs * lam
    if rho0 <= 1.0:
        raise DomainError(
            f"observation radius must lie outside the initial wall: eta_obs > {x / (2.0 * math.pi):.6g}"
        )
    geom = TrapGeometry.from_alpha(alpha_ratio * 0.5 * x)
    state = coeffs_from_eigenstate(m, n, geom)

    nu = x * x / (4.0 * math.pi)
    flight = FlightTimes(T1=x / (4.0 * math.pi) * (rho0 - 1.0),
                         T2=x / (4.0 * math.pi) * (rho0 + 1.0))
    Ts = np.linspace(0.0, T_max, steps)
    ts = Ts / nu
    rad = _radial_wave(state, rho0 / geom.L(ts), ts, geom)
    dens = lam ** 2 * eta_obs * np.abs(rad) ** 2
    samples = [RadialDensitySample(eta=float(eta_obs), T=float(T), rho_density=float(d))
               for T, d in zip(Ts, dens)]
    return samples, flight


def visibility(samples: list[RadialDensitySample], flight: FlightTimes) -> float:
    """Mean height difference between adjacent extrema of the smoothed
    density between the wall arrival T1 and the direct flight arrival T2.

    Quantifies the diffraction-in-time fringes: a sharper wave front (slower
    wall) interferes more strongly with itself and scores higher.
    """
    T = np.array([s.T for s in samples])
    d = np.array([s.rho_density for s in samples])
    v = d.copy()
    v[1:-1] = (d[:-2] + d[1:-1] + d[2:]) / 3.0
    heights = []
    for i in range(1, len(v) - 1):
        if not (flight.T1 < T[i] < flight.T2):
            continue
        if (v[i] - v[i - 1]) * (v[i + 1] - v[i]) < 0.0:
            heights.append(v[i])
    if len(heights) < 2:
        return 0.0
    return float(np.mean(np.abs(np.diff(heights))))


# --------------------------------------------------------------------------
# Propagator

def _check_m_list(m_list) -> list:
    """The kernels sum over m_list: it needs distinct indices >= 0, at least one."""
    m_list = list(m_list)
    if not m_list or min(m_list) < 0 or len(set(m_list)) < len(m_list):
        raise DomainError(f"m_list needs distinct angular indices >= 0, got {m_list}")
    return m_list


def propagator(m_list, r, t: float, r_prime, t_prime: float, geom: TrapGeometry,
               n_max: int = N_MAX_DEFAULT) -> complex:
    """Two-time kernel K(r, t; r', t') summed over the given angular indices.

    r and r_prime are (rho, phi) pairs.  Each m > 0 carries both angular
    branches e^{+-i m phi}, so its term enters with 2 cos(m (phi - phi'));
    m = 0 enters once.  The radial sum runs over n = 1..n_max.
    """
    m_list = _check_m_list(m_list)
    rho, phi = _check_point(*r)
    rho_p, phi_p = _check_point(*r_prime)
    sig, sig_p = rho / geom.L(t), rho_p / geom.L(t_prime)
    total = 0.0 + 0.0j
    for m in m_list:
        # radial kernel modes(sigma, t) modes(sigma', t')^H
        rad = modes(m, [sig], t, geom, n_max)[0] \
            @ np.conj(modes(m, [sig_p], t_prime, geom, n_max)[0])
        ang = 1.0 if m == 0 else 2.0 * math.cos(m * (phi - phi_p))
        total += rad * ang / (2.0 * math.pi)
    return complex(total)


# The kernel's angular rule turns its second set of angles by the golden
# section of the spacing: an irrational turn, so no frequency aliased onto m
# lands in phase on both sets.
_ANGLE_TURN = (math.sqrt(5.0) - 1.0) / 2.0


def _angular_part(psi_func, rho_p: np.ndarray, m: int, phi: float,
                  n: int, n_cap: int) -> np.ndarray:
    """(1/2 pi) int psi_func(rho_p, phi') c_m cos(m (phi - phi')) dphi', with
    c_0 = 1 and c_m = 2 past it, at each radius of rho_p.

    Each level samples n angles and the same n turned by `_ANGLE_TURN` of
    the spacing in one `psi_func` call and sums the periodic trapezoid rule
    on both; once their difference meets quad's target (`quad._target`) it
    returns their mean, else it doubles n.  A frequency that n angles alias
    onto m enters the two sums with different phases, so the difference
    sees it.  NumericError past `n_cap` angles or on a non-finite source.
    """
    while n <= n_cap:
        grid = 2.0 * math.pi * np.arange(n) / n
        phis = np.concatenate([grid, grid + 2.0 * math.pi * _ANGLE_TURN / n])
        w = (1.0 if m == 0 else 2.0) * np.cos(m * (phi - phis)) / n
        vals = psi_func(rho_p[:, None], phis[None, :])
        plain, turned = vals[:, :n] @ w[:n], vals[:, n:] @ w[n:]
        err = float(np.max(np.abs(plain - turned)))
        mean = 0.5 * (plain + turned)
        if err <= quad._target(err, mean):
            return mean
        n *= 2
    raise NumericError(f"the kernel's angular rule missed its target at {n_cap} angles "
                       f"(estimate {err:.3e}, m = {m})")


def propagate_through_kernel(m_list, r, t: float, psi_func, t_prime: float,
                             geom: TrapGeometry, n_max: int = N_MAX_DEFAULT) -> complex:
    """Apply the kernel to a wave at t': int K psi(rho', phi', t') rho' drho' dphi'.

    `psi_func(rho', phi')` evaluates the source wave (arrays in, array out).
    A self-judged periodic trapezoid rule (`_angular_part`) splits off the
    part of each m (both angular branches for m > 0, as in `propagator`):
    from max(8, 2 max(m_list) + 2) angles, which are exact for the
    frequencies 0 and 2m of an exact mode, it doubles the angles until two
    rules turned against each other agree to quad's target, and raises
    NumericError past 4 max(64, 2 max(m_list) + 1).  That part is projected
    onto the modes at t' on the overlap rule the wall phase at t' needs,
    sampled in one call on its radii (in slices of 2048 past the tabulated
    levels) and climbing its nested levels until their estimate meets the
    target (`spectral._mode_coeffs`), and evaluated with `modes` at t.  A
    point on or past the wall gets `modes`' zero row, so the result there
    is zero.
    """
    m_list = _check_m_list(m_list)
    rho, phi = _check_point(*r)
    sig = rho / geom.L(t)
    m_hi = max(m_list)
    n0, n_cap = max(8, 2 * m_hi + 2), 4 * max(64, 2 * m_hi + 1)
    total = 0.0 + 0.0j
    for m in m_list:
        c = _mode_coeffs(lambda rho_p: _angular_part(psi_func, rho_p, m, phi, n0, n_cap),
                         m, t_prime, geom, n_max)
        total += modes(m, [sig], t, geom, n_max)[0] @ c
    return complex(total)


# --------------------------------------------------------------------------
# Equation residual

def pde_residual(m: int, n: int, geom: TrapGeometry, grid: int) -> float:
    """Max-abs residual of the exact mode in the governing equation,

        i hbar dPsi/dt + (hbar^2/2 mu)(Psi_rr + Psi_r/rho - m^2 Psi/rho^2),

    discretized with centered differences on `grid` radial points (half-cell
    offset from the axis) and a matching time step, at xi = 1.25 for an
    expanding wall, xi = 0.8 for a contracting one and t = 0.1 mu a^2 / hbar
    for a static one.  The exact solution makes this pure truncation error,
    falling like the square of the step.
    """
    if grid < 4:
        raise DomainError("grid must be >= 4")
    if geom.u > 0.0:
        t = 0.25 * geom.a / geom.u          # xi = 1.25
    elif geom.u < 0.0:
        t = 0.2 * geom.a / abs(geom.u)      # xi = 0.8
    else:
        t = 0.1 * geom.mu * geom.a ** 2 / geom.hbar
    L = geom.L(t)
    h = 0.9 * L / grid
    rho = (np.arange(1, grid) + 0.5) * h  # 1.5h first: rho - h stays off the axis
    rho = rho[rho < 0.88 * L]  # keep the full stencil inside the wall at t +- ht
    ht = 0.1 * h * geom.mu * geom.a / geom.hbar

    def mode(rr, tt):
        return modes(m, rr / geom.L(tt), tt, geom, n)[:, n - 1]

    f0, f_out, f_in = (mode(r, t) for r in (rho, rho + h, rho - h))
    dt = (mode(rho, t + ht) - mode(rho, t - ht)) / (2.0 * ht)
    d1 = (f_out - f_in) / (2.0 * h)
    d2 = (f_out - 2.0 * f0 + f_in) / (h * h)
    lap = d2 + d1 / rho - (m * m / rho ** 2) * f0
    resid = 1j * geom.hbar * dt + geom.hbar ** 2 / (2.0 * geom.mu) * lap
    return float(np.max(np.abs(resid)))


# --------------------------------------------------------------------------
# Late-time envelope

def long_time_radial(m: int, n: int, alpha: float, rho_obs: float, t: float,
                     n_max: int = N_MAX_DEFAULT) -> float:
    """Late-time envelope of |R| at a fixed radius during free-like expansion:

        |R| ~ (2 sqrt(2) / (|J_{m+1}(x_mn)| u t))
              sum_n' |I_{m n n'}(0, alpha)| J_m(x_n' rho/(u t)) / J_{m+1}(x_n')^2.

    Valid once the wall is far past the observation point (rho_obs << u t).
    """
    for name, value in (("alpha", alpha), ("t", t)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if alpha <= 0.0:
        raise DomainError("the late-time envelope needs an expanding wall")
    u = 2.0 * alpha
    if rho_obs >= u * t:
        raise DomainError("too early: rho_obs must be well inside u*t")
    if n < 1 or n > n_max:
        raise DomainError(f"need 1 <= n <= n_max, got n={n}, n_max={n_max}")
    zeros, absj = _zeros_cached(m, n_max)
    row = np.abs(_i_matrix(m, 1.0, alpha, n_max, np.eye(1, n_max, n - 1)[0]))
    j = bessel_j(m, zeros * (rho_obs / (u * t)))
    total = np.sum(row * j / absj ** 2)
    return float(2.0 * math.sqrt(2.0) / (absj[n - 1] * u * t) * total)
