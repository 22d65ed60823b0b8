"""Command line front end.

Subcommands, and the settings each one reads:

    zeros      Bessel zero table for an angular index
               --m --nmax
    energy     mode energy ratio versus expansion factor, both routes
               --m --n --alpha-ratio --xi --grid --nmax
    moments    diagonal moment integrals against their closed forms
               --m --nmax
    density-r  scaled radial density snapshot at a target expansion factor
               --m --n --alpha-ratio --xi --grid
    density-t  scaled density time series at a fixed observation radius
               --m --n --alpha-ratio --t-max --grid --eta-obs
    verify     self-check battery, JSON report
               --drop-moving-phase (flag only, no config key)

Every subcommand also takes --out and --config.  `_COMMANDS` declares these
settings, their types and defaults once; the parser, the config check and the
resolve step all read it.  A flag or config key that a subcommand does not
read is a usage error, and flags are never abbreviated.

Tabular commands emit CSV with '#' metadata lines; floats are printed with
repr so values round-trip exactly and output is deterministic.  `verify`
judges each check's one measured figure against its one threshold in one
loop, prints {pass, measured, threshold} per check name as JSON, with the
`error` of a check that raised and so failed, and exits 4 if any fails.

A config file (--config, key=value lines, '#' comments) may set any of the
subcommand's settings and `out`, keyed by the flag's name (dashes and
underscores alike); `energy` also reads the units a, hbar, mu and the wall
speed u, which excludes an alpha ratio.  Each setting is taken from its flag,
else the config, else its default.
Exit codes: 0 ok, 2 usage or domain error, 3 numeric failure, 4 failed
verification.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from functools import partial

import numpy as np

from . import evolve, oracle, spectral
from .quad import integrate
from .special import (
    DomainError,
    NumericError,
    bessel_j_prime,
    bessel_zeros,
)
from .spectral import TrapGeometry, TruncationError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_CHECK_FAILED = 4

_SPEED_OF_LIGHT = 299792458.0


# --------------------------------------------------------------------------
# Formatting

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if not math.isfinite(f):
        raise NumericError(f"refusing to print the non-finite value {f}")
    return repr(f)


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(meta: list[tuple[str, object]], header: list[str],
         rows: list[tuple], out_path: str | None):
    lines = [f"# {k}: {_fmt(v) if isinstance(v, (int, float, np.floating, np.integer)) else v}"
             for k, v in meta]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _emit("\n".join(lines) + "\n", out_path)


# --------------------------------------------------------------------------
# Config handling

def _settings(command: str) -> dict:
    """Name -> (type, default) of every setting `command` reads, `out` included."""
    return {**_COMMANDS[command][2], "out": (str, None)}


def _load_config(path: str | None, command: str) -> dict:
    if not path:
        return {}
    known = {*_settings(command), *(_UNITS if command == "energy" else ())}
    cfg = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DomainError(f"{path}:{lineno}: expected key=value")
                key, val = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in known:
                    raise DomainError(f"{path}:{lineno}: unknown key {key!r} for `{command}`, "
                                      f"which reads {sorted(known)}")
                cfg[key] = val
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    return cfg


def _resolve(args) -> dict:
    """Set each setting of `args.command` on `args`: the flag, else the config
    value, else the default.  Returns the config, whose unit keys `energy` reads."""
    cfg = _load_config(args.config, args.command)
    for key, (cast, default) in _settings(args.command).items():
        if getattr(args, key) is None:
            try:
                setattr(args, key, cast(cfg[key]) if key in cfg else default)
            except ValueError as exc:
                raise DomainError(f"config key {key}: {exc}") from exc
    return cfg


def _geometry_from(cfg: dict, alpha: float) -> TrapGeometry:
    """Geometry in the config's units a, hbar, mu (natural units where unset),
    with the wall speed u from the config if it sets one, else from alpha."""
    try:
        a, hbar, mu = (float(cfg.get(key, 1.0)) for key in ("a", "hbar", "mu"))
        u = float(cfg["u"]) if "u" in cfg else None
    except ValueError as exc:
        raise DomainError(f"config unit key: {exc}") from exc
    if u is None:
        return TrapGeometry.from_alpha(alpha, a=a, hbar=hbar, mu=mu)
    geom = TrapGeometry(a=a, u=u, hbar=hbar, mu=mu)  # rejects a non-finite u first
    if abs(u) > 0.01 * _SPEED_OF_LIGHT:
        print(f"warning: wall speed u = {u:.4g} is a sizable fraction of the "
              "speed of light; this treatment is nonrelativistic (u << c)",
              file=sys.stderr)
    return geom


# --------------------------------------------------------------------------
# Tabular commands

def cmd_zeros(args, cfg) -> int:
    table = bessel_zeros(args.m, args.nmax)
    rows = [(args.m, k + 1, z) for k, z in enumerate(table.zeros)]
    _csv([("command", "zeros"), ("m", args.m), ("nmax", args.nmax)],
         ["m", "n", "x_mn"], rows, args.out)
    return EXIT_OK


def cmd_energy(args, cfg) -> int:
    if args.grid < 2:
        raise DomainError("grid must be >= 2")
    if "u" in cfg and args.alpha_ratio is not None:
        raise DomainError(f"config key u = {cfg['u']} and alpha ratio {args.alpha_ratio} "
                          "(--alpha-ratio or alpha_ratio) both set the wall speed; give one")
    ratio = 1.0 if args.alpha_ratio is None else args.alpha_ratio
    geom = _geometry_from(cfg, ratio * 0.5 * spectral._zero(args.m, args.n))
    if geom.u == 0.0:
        raise DomainError("energy sweep needs a moving wall (alpha_ratio != 0)")
    if not math.isfinite(args.xi):
        raise DomainError(f"xi must be finite, got {args.xi}")
    if (args.xi - 1.0) * geom.u < 0.0:
        raise DomainError(
            f"xi = {args.xi} is not reachable with wall speed u = {geom.u}")

    rows = []
    for xi_t in np.linspace(1.0, args.xi, args.grid):
        t = (xi_t - 1.0) * geom.a / geom.u
        isum, closed = spectral.energy_ratio_paths(args.m, args.n, t, geom, args.nmax)
        rows.append((float(xi_t), isum, closed))
    _csv([("command", "energy"), ("m", args.m), ("n", args.n), ("alpha", geom.alpha),
          ("u", geom.u), ("nmax", args.nmax)],
         ["xi", "ratio_isum", "ratio_closed"], rows, args.out)
    return EXIT_OK


def _oracle_pairs(m: int, n: int, tab) -> list:
    """(oracle closed form, quadrature-table diagonal) at mode n for A3, the
    gradient form B0 + C1 = -int s g'^2 and, when m >= 1, A^{-1}."""
    i = n - 1
    pairs = [(oracle.a3_closed(m, n), tab.A3[i, i]),
             (oracle.c1_closed(m, n), tab.B0[i, i] + tab.C1[i, i])]
    if m >= 1:
        pairs.append((oracle.a_neg1_closed(m, n), tab.Aneg1[i, i]))
    return pairs


def cmd_moments(args, cfg) -> int:
    tab = spectral.moment_tables(args.m, args.nmax)
    absj = spectral._zeros_cached(args.m, args.nmax)[1]
    rows = []
    for n in range(1, args.nmax + 1):
        j2 = absj[n - 1] ** 2
        pairs = _oracle_pairs(args.m, n, tab)
        gap = [abs(quad - res.value) / abs(res.value) for res, quad in pairs]
        aneg1, d_an = (pairs[2][1] / j2, gap[2]) if args.m else (None, None)
        rows.append((args.m, n, aneg1, pairs[0][1] / j2, abs(pairs[1][1]) / j2,
                     d_an, gap[0], gap[1]))
    _csv([("command", "moments"), ("m", args.m), ("nmax", args.nmax)],
         ["m", "n", "aneg1_over_j2", "a3_over_j2", "abs_c1_over_j2",
          "delta_aneg1", "delta_a3", "delta_c1"], rows, args.out)
    return EXIT_OK


def cmd_density_r(args, cfg) -> int:
    samples = evolve.density_profile(args.m, args.n, args.alpha_ratio, args.xi, args.grid)
    rows = [(s.eta, s.T, s.rho_density) for s in samples]
    _csv([("command", "density-r"), ("m", args.m), ("n", args.n),
          ("alpha_ratio", args.alpha_ratio), ("xi", args.xi), ("T", samples[0].T)],
         ["eta", "T", "rho_density"], rows, args.out)
    return EXIT_OK


def cmd_density_t(args, cfg) -> int:
    if args.eta_obs is None:
        args.eta_obs = spectral._zero(args.m, args.n) / math.pi
    samples, flight = evolve.density_timeseries(args.m, args.n, args.alpha_ratio,
                                                args.eta_obs, args.t_max, args.grid)
    vis = evolve.visibility(samples, flight)
    rows = [(s.T, s.eta, s.rho_density, flight.T1, flight.T2) for s in samples]
    _csv([("command", "density-t"), ("m", args.m), ("n", args.n),
          ("alpha_ratio", args.alpha_ratio), ("eta_obs", args.eta_obs), ("t_max", args.t_max),
          ("T1", flight.T1), ("T2", flight.T2), ("visibility", vis)],
         ["T", "eta", "rho_density", "T1", "T2"], rows, args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# Verification battery

def _closed_form_gaps(m: int) -> list[float]:
    """Largest |zero-only block - quadrature table| at n_max 20 for A1, A3, B2
    and the kinetic form m^2 A^{-1} - B0 - C1, in that order.

    `moment_tables` forms C1 by parts, so the table side of the kinetic entry
    is the Dirichlet form m^2 A^{-1} + int s g' g', a quadrature of its own.
    """
    tab = spectral.moment_tables(m, 20)
    absj = spectral._zeros_cached(m, 20)[1]
    refs = (tab.A1, tab.A3, tab.B2, (0.0 if m == 0 else m * m * tab.Aneg1) - tab.B0 - tab.C1)
    return [float(np.max(np.abs(block * np.outer(absj, absj) - ref)))
            for block, ref in zip(spectral._zero_blocks(m, 20), refs)]


def _orthonormality() -> float:
    return max(_closed_form_gaps(m)[0] for m in (0, 3))  # A1 = diag(J^2 / 2)


def _operator_closed_forms() -> float:
    # the blocks behind the q^2, p^2 and H matrices against quadrature
    return max(max(_closed_form_gaps(m)) for m in (0, 3))


def _two_path_setup():
    geom = TrapGeometry.from_alpha(5.0 * 0.5 * spectral._zero(0, 1))
    state = spectral.coeffs_from_eigenstate(0, 1, geom)
    t = 2.0 / geom.u  # xi = 3
    return state, t, geom


def _unitarity() -> float:
    state, t, geom = _two_path_setup()
    b = spectral.b_coeffs(state, t, geom)
    return float(abs(np.sum(np.abs(b) ** 2) - 1.0))


def _two_path_gap(drop_phase: bool) -> float:
    state, t, geom = _two_path_setup()
    b = spectral.b_coeffs(state, t, geom)
    bd = spectral.b_coeffs_direct(state, t, geom, drop_moving_phase=drop_phase)
    return float(np.max(np.abs(b - bd)))


def _pde_convergence() -> float:
    geom = TrapGeometry.from_alpha(1.3)
    ratio = evolve.pde_residual(0, 1, geom, 64) / evolve.pde_residual(0, 1, geom, 128)
    return abs(ratio / 4.0 - 1.0)


def _heisenberg() -> float:
    geom = TrapGeometry.from_alpha(0.7)
    return min(spectral.uncertainties(m, n, (xi_t - 1.0) / geom.u, geom)[2] / (0.5 * geom.hbar)
               for (m, n) in ((0, 1), (1, 2), (2, 1)) for xi_t in (1.0, 1.8))


def _stationary_factor() -> float:
    geom = TrapGeometry()
    return min(spectral.uncertainties(m, n, 0.0, geom)[2] / (0.5 * geom.hbar)
               for (m, n) in ((0, 1), (1, 1), (5, 2)))


def _oracle_m0_c1() -> float:
    worst = 0.0
    for n in range(1, 5):
        x = spectral._zero(0, n)

        def f(s, x=x):
            return s * (x * bessel_j_prime(0, x * s)) ** 2

        quad_val = -float(integrate(f, 0.0, 1.0, radians=2.0 * x).value)
        worst = max(worst, abs(oracle.c1_closed(0, n).value - quad_val))
    return worst


def _oracle_hypergeometric() -> float:
    pairs = ((0, 1), (1, 1), (2, 1), (3, 1), (0, 2), (1, 2))
    return max(abs(res.value - ref) / abs(ref)
               for m, n in pairs
               for res, ref in _oracle_pairs(m, n, spectral.moment_tables(m, max(n, 4))))


def _propagator() -> float:
    geom = TrapGeometry.from_alpha(1.2)
    state = spectral.coeffs_from_eigenstate(0, 1, geom)
    t_src, t_dst = 0.2, 0.55
    r_eval = (0.7, 0.3)
    direct = evolve.psi_general(state, r_eval[0], r_eval[1], t_dst, geom)

    def psi_src(rho_p, phi_p):
        return evolve.psi_general(state, rho_p, phi_p, t_src, geom)

    viak = evolve.propagate_through_kernel([0], r_eval, t_dst, psi_src, t_src, geom)
    return abs(direct - viak)


def _energy_paths() -> float:
    geom = TrapGeometry.from_alpha(0.5 * spectral._zero(0, 1))
    t = 1.0 / geom.u  # xi = 2
    isum, closed = spectral.energy_ratio_paths(0, 1, t, geom)
    return abs(isum - closed)


def _h_convention() -> float:
    geom = TrapGeometry()
    return max(abs(spectral.matrix_element("H", m, n, n, 0.0, geom).real / geom.energy(m, n) - 1.0)
               for (m, n) in ((0, 1), (0, 3), (2, 2)))


def _truncation_deficit() -> float:
    """Norm deficit the guard refuses for a basis of 4 modes far too small."""
    geom = TrapGeometry.from_alpha(10.0 * 0.5 * spectral._zero(0, 2))
    try:
        state = spectral.coeffs_from_eigenstate(0, 2, geom, n_max=4)
    except TruncationError as exc:
        return exc.deficit
    raise NumericError(f"truncation guard let norm deficit {state.norm_deficit:.3e} through")


# name, measurement, verdict on (measured, threshold), threshold
_CHECKS = [
    ("orthonormality", _orthonormality, operator.le, 1e-9),
    ("operator_closed_forms", _operator_closed_forms, operator.le, 1e-9),
    ("unitarity", _unitarity, operator.le, 1e-6),
    ("two_path_b", partial(_two_path_gap, False), operator.le, 1e-8),
    ("pde_convergence", _pde_convergence, operator.le, 0.2),
    ("heisenberg", _heisenberg, operator.ge, 1.0 - 1e-12),
    ("stationary_factor", _stationary_factor, operator.gt, 1.0),
    ("oracle_m0_c1", _oracle_m0_c1, operator.le, 1e-9),
    ("oracle_hypergeometric", _oracle_hypergeometric, operator.le, 1e-6),
    ("propagator", _propagator, operator.le, 1e-6),
    ("energy_paths", _energy_paths, operator.le, 1e-6),
    ("h_convention", _h_convention, operator.le, 1e-10),
    ("truncation_guard", _truncation_deficit, operator.gt, 1e-4),
    # negative control: the deliberately wrong reconstruction must be caught,
    # otherwise the agreement check proves nothing
    ("negative_control_phase_drop", partial(_two_path_gap, True), operator.gt, 1e-3),
]


def cmd_verify(args, cfg) -> int:
    report = {}
    for name, measure, verdict, threshold in _CHECKS:
        if args.drop_moving_phase and name == "two_path_b":
            measure = partial(_two_path_gap, True)  # the failure mode, end to end
        try:
            measured = float(measure())
        except Exception as exc:  # a crashed check is a failed check
            report[name] = {"pass": False, "measured": math.nan, "threshold": math.nan,
                            "error": f"{type(exc).__name__}: {exc}"}
        else:
            report[name] = {"pass": verdict(measured, threshold), "measured": measured,
                            "threshold": threshold}
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK if all(entry["pass"] for entry in report.values()) else EXIT_CHECK_FAILED


# --------------------------------------------------------------------------
# Entry point

# Each subcommand's handler, help line and settings, name -> (type, default).
# A setting is both a flag (alpha_ratio is --alpha-ratio) and a config key; a
# default of None is computed by the handler.  `_settings` adds `out`.
_COMMANDS = {
    "zeros": (cmd_zeros, "Bessel zero table", {"m": (int, 0), "nmax": (int, 10)}),
    "energy": (cmd_energy, "energy ratio vs expansion factor, two routes",
               {"m": (int, 0), "n": (int, 1), "alpha_ratio": (float, None), "xi": (float, 2.0),
                "grid": (int, 9), "nmax": (int, spectral.N_MAX_DEFAULT)}),
    "moments": (cmd_moments, "diagonal moment integrals vs closed forms",
                {"m": (int, 0), "nmax": (int, 8)}),
    "density-r": (cmd_density_r, "radial density snapshot at a target xi",
                  {"m": (int, 0), "n": (int, 1), "alpha_ratio": (float, 1.0), "xi": (float, 2.0),
                   "grid": (int, 400)}),
    "density-t": (cmd_density_t, "density time series at a fixed radius",
                  {"m": (int, 0), "n": (int, 1), "alpha_ratio": (float, 1.0), "t_max": (float, 6.0),
                   "grid": (int, 800), "eta_obs": (float, None)}),
    "verify": (cmd_verify, "self-check battery", {}),
}
_UNITS = ("a", "u", "hbar", "mu")  # physical-unit config keys, read by `energy` only
_HELP = {
    "m": "angular index", "n": "radial index (1-based)", "nmax": "basis size",
    "grid": "grid points / steps", "alpha_ratio": "wall speed in units of the mode scale x_mn/2",
    "xi": "target expansion factor", "t_max": "end of the scaled time window",
    "eta_obs": "observation radius in wavelengths (default: x_mn/pi)",
    "out": "output file (default stdout)",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtrap",
        description="Exact dynamics of a particle in a circular trap with a "
                    "uniformly moving wall.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, _) in _COMMANDS.items():
        # no abbreviations: `zeros --n 5` must not be read as --nmax 5
        p = sub.add_parser(command, help=text, allow_abbrev=False)
        for key, (cast, _) in _settings(command).items():
            p.add_argument("--" + key.replace("_", "-"), type=cast, help=_HELP[key])
        p.add_argument("--config", help="key=value defaults file")
        if command == "verify":
            p.add_argument("--drop-moving-phase", action="store_true",
                           help="negative control: run the agreement check with the "
                                "moving phase dropped; verification must then fail")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, _resolve(args))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
