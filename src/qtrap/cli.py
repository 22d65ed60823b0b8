"""Command line front end.

Subcommands:

    zeros      Bessel zero table for an angular index
    energy     mode energy ratio versus expansion factor, both routes
    moments    diagonal moment integrals against their closed forms
    density-r  scaled radial density snapshot at a target expansion factor
    density-t  scaled density time series at a fixed observation radius
    verify     self-check battery, JSON report

Tabular commands emit CSV with '#' metadata lines; floats are printed with
repr so values round-trip exactly and output is deterministic.  `verify`
prints a JSON object mapping check name to {pass, measured, threshold} and
exits 4 if any check fails.

A config file (--config, key=value lines, '#' comments) supplies defaults;
explicit flags win.  Exit codes: 0 ok, 2 usage or domain error, 3 numeric
failure, 4 failed verification.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import evolve, oracle, spectral
from .quad import BudgetExceededError, integrate
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
    if math.isnan(f):
        return ""
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

_UNIT_KEYS = {"a", "u", "hbar", "mu"}
_CONFIG_KEYS = {"m", "n", "alpha_ratio", "xi", "t_max", "eta_obs", "nmax",
                "grid", "out"} | _UNIT_KEYS


def _load_config(path: str | None, command: str) -> dict:
    if not path:
        return {}
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
                if key not in _CONFIG_KEYS:
                    raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
                if key in _UNIT_KEYS and command != "energy":
                    raise DomainError(f"{path}:{lineno}: only `energy` reads key {key!r}")
                cfg[key] = val
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    return cfg


def _resolve(args, cfg: dict, key: str, default, cast):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in cfg:
        try:
            return cast(cfg[key])
        except ValueError as exc:
            raise DomainError(f"config key {key}: {exc}") from exc
    return default


def _geometry_from(cfg: dict, alpha: float) -> TrapGeometry:
    """Physical-unit geometry if the config supplies one, else natural units."""
    if "u" in cfg:
        a = float(cfg.get("a", 1.0))
        u = float(cfg["u"])
        hbar = float(cfg.get("hbar", 1.0))
        mu = float(cfg.get("mu", 1.0))
        if abs(u) > 0.01 * _SPEED_OF_LIGHT:
            print(f"warning: wall speed u = {u:.4g} is a sizable fraction of the "
                  "speed of light; this treatment is nonrelativistic (u << c)",
                  file=sys.stderr)
        return TrapGeometry(a=a, u=u, hbar=hbar, mu=mu)
    return TrapGeometry.from_alpha(alpha)


def _x(m: int, n: int) -> float:
    zeros, _ = spectral._zeros_cached(m, n)
    return float(zeros[n - 1])


# --------------------------------------------------------------------------
# Tabular commands

def cmd_zeros(args, cfg) -> int:
    m = _resolve(args, cfg, "m", 0, int)
    nmax = _resolve(args, cfg, "nmax", 10, int)
    out = _resolve(args, cfg, "out", None, str)
    table = bessel_zeros(m, nmax)
    rows = [(m, k + 1, z) for k, z in enumerate(table.zeros)]
    _csv([("command", "zeros"), ("m", m), ("nmax", nmax)],
         ["m", "n", "x_mn"], rows, out)
    return EXIT_OK


def cmd_energy(args, cfg) -> int:
    m = _resolve(args, cfg, "m", 0, int)
    n = _resolve(args, cfg, "n", 1, int)
    ratio = _resolve(args, cfg, "alpha_ratio", 1.0, float)
    xi_end = _resolve(args, cfg, "xi", 2.0, float)
    grid = _resolve(args, cfg, "grid", 9, int)
    nmax = _resolve(args, cfg, "nmax", spectral.N_MAX_DEFAULT, int)
    out = _resolve(args, cfg, "out", None, str)

    geom = _geometry_from(cfg, ratio * 0.5 * _x(m, n))
    if geom.u == 0.0:
        raise DomainError("energy sweep needs a moving wall (alpha_ratio != 0)")
    if (xi_end - 1.0) * geom.u < 0.0:
        raise DomainError(
            f"xi = {xi_end} is not reachable with wall speed u = {geom.u}")

    rows = []
    for xi_t in np.linspace(1.0, xi_end, max(grid, 2)):
        t = (xi_t - 1.0) * geom.a / geom.u
        isum, closed = spectral.energy_ratio_paths(m, n, t, geom, nmax)
        rows.append((float(xi_t), isum, closed))
    _csv([("command", "energy"), ("m", m), ("n", n), ("alpha", geom.alpha),
          ("u", geom.u), ("nmax", nmax)],
         ["xi", "ratio_isum", "ratio_closed"], rows, out)
    return EXIT_OK


def cmd_moments(args, cfg) -> int:
    m = _resolve(args, cfg, "m", 0, int)
    nmax = _resolve(args, cfg, "nmax", 8, int)
    out = _resolve(args, cfg, "out", None, str)
    tab = spectral.moment_tables(m, nmax)
    zeros, absj = spectral._zeros_cached(m, nmax)
    rows = []
    for n in range(1, nmax + 1):
        i = n - 1
        j2 = absj[i] ** 2
        a3 = tab.A3[i, i]
        c1_grad = tab.B0[i, i] + tab.C1[i, i]  # -int s g'^2, the gradient form
        r_a3 = oracle.a3_closed(m, n)
        r_c1 = oracle.c1_closed(m, n)
        d_a3 = abs(a3 - r_a3.value) / abs(r_a3.value)
        d_c1 = abs(c1_grad - r_c1.value) / abs(r_c1.value)
        if m == 0:
            aneg1 = d_an = None
        else:
            aneg1 = tab.Aneg1[i, i] / j2
            r_an = oracle.a_neg1_closed(m, n)
            d_an = abs(tab.Aneg1[i, i] - r_an.value) / abs(r_an.value)
        rows.append((m, n, aneg1, a3 / j2, abs(c1_grad) / j2, d_an, d_a3, d_c1))
    _csv([("command", "moments"), ("m", m), ("nmax", nmax)],
         ["m", "n", "aneg1_over_j2", "a3_over_j2", "abs_c1_over_j2",
          "delta_aneg1", "delta_a3", "delta_c1"], rows, out)
    return EXIT_OK


def cmd_density_r(args, cfg) -> int:
    m = _resolve(args, cfg, "m", 0, int)
    n = _resolve(args, cfg, "n", 1, int)
    ratio = _resolve(args, cfg, "alpha_ratio", 1.0, float)
    xi_t = _resolve(args, cfg, "xi", 2.0, float)
    grid = _resolve(args, cfg, "grid", 400, int)
    out = _resolve(args, cfg, "out", None, str)
    samples = evolve.density_profile(m, n, ratio, xi_t, grid)
    rows = [(s.eta, s.T, s.rho_density) for s in samples]
    _csv([("command", "density-r"), ("m", m), ("n", n),
          ("alpha_ratio", ratio), ("xi", xi_t), ("T", samples[0].T)],
         ["eta", "T", "rho_density"], rows, out)
    return EXIT_OK


def cmd_density_t(args, cfg) -> int:
    m = _resolve(args, cfg, "m", 0, int)
    n = _resolve(args, cfg, "n", 1, int)
    ratio = _resolve(args, cfg, "alpha_ratio", 1.0, float)
    t_max = _resolve(args, cfg, "t_max", 6.0, float)
    grid = _resolve(args, cfg, "grid", 800, int)
    out = _resolve(args, cfg, "out", None, str)
    eta_obs = _resolve(args, cfg, "eta_obs", _x(m, n) / math.pi, float)

    samples, flight = evolve.density_timeseries(m, n, ratio, eta_obs, t_max, grid)
    vis = evolve.visibility(samples, flight)
    rows = [(s.T, s.eta, s.rho_density, flight.T1, flight.T2) for s in samples]
    _csv([("command", "density-t"), ("m", m), ("n", n),
          ("alpha_ratio", ratio), ("eta_obs", eta_obs), ("t_max", t_max),
          ("T1", flight.T1), ("T2", flight.T2), ("visibility", vis)],
         ["T", "eta", "rho_density", "T1", "T2"], rows, out)
    return EXIT_OK


# --------------------------------------------------------------------------
# Verification battery

def _check_orthonormality():
    worst = 0.0
    for m in (0, 3):
        tab = spectral.moment_tables(m, 20)
        _, absj = spectral._zeros_cached(m, 20)
        worst = max(worst, float(np.max(np.abs(tab.A1 - np.diag(absj ** 2 / 2.0)))))
    return worst <= 1e-9, worst, 1e-9


def _two_path_setup():
    geom = TrapGeometry.from_alpha(5.0 * 0.5 * _x(0, 1))
    state = spectral.coeffs_from_eigenstate(0, 1, geom)
    t = 2.0 / geom.u  # xi = 3
    return state, t, geom


def _check_unitarity():
    state, t, geom = _two_path_setup()
    b = spectral.b_coeffs(state, t, geom)
    measured = float(abs(np.sum(np.abs(b) ** 2) - 1.0))
    return measured <= 1e-6, measured, 1e-6


def _make_two_path(drop_phase: bool, expect_agreement: bool = True):
    def _check():
        state, t, geom = _two_path_setup()
        b = spectral.b_coeffs(state, t, geom)
        bd = spectral.b_coeffs_direct(state, t, geom, drop_moving_phase=drop_phase)
        measured = float(np.max(np.abs(b - bd)))
        if expect_agreement:
            return measured <= 1e-8, measured, 1e-8
        # negative control: the deliberately wrong reconstruction must be
        # caught, otherwise the agreement check proves nothing
        return measured > 1e-3, measured, 1e-3
    return _check


def _check_pde():
    geom = TrapGeometry.from_alpha(1.3)
    ratio = evolve.pde_residual(0, 1, geom, 64) / evolve.pde_residual(0, 1, geom, 128)
    measured = abs(ratio / 4.0 - 1.0)
    return measured <= 0.2, measured, 0.2


def _check_heisenberg():
    geom = TrapGeometry.from_alpha(0.7)
    worst = math.inf
    for (m, n) in ((0, 1), (1, 2), (2, 1)):
        for xi_t in (1.0, 1.8):
            t = (xi_t - 1.0) / geom.u
            _, _, prod = spectral.uncertainties(m, n, t, geom)
            worst = min(worst, prod / (0.5 * geom.hbar))
    limit = 1.0 - 1e-12
    return worst >= limit, worst, limit


def _check_stationary_factor():
    geom = TrapGeometry()
    worst = math.inf
    for (m, n) in ((0, 1), (1, 1), (5, 2)):
        _, _, prod = spectral.uncertainties(m, n, 0.0, geom)
        worst = min(worst, prod / (0.5 * geom.hbar))
    return worst > 1.0, worst, 1.0


def _check_oracle_m0():
    worst = 0.0
    for n in range(1, 5):
        x = _x(0, n)

        def f(s, x=x):
            return s * (x * bessel_j_prime(0, x * s)) ** 2

        quad_val = -float(integrate(f, 0.0, 1.0, initial_panels=max(8, int(x))).value)
        worst = max(worst, abs(oracle.c1_closed(0, n).value - quad_val))
    return worst <= 1e-9, worst, 1e-9


def _check_oracle_hyper():
    pairs = ((0, 1), (1, 1), (2, 1), (3, 1), (0, 2), (1, 2))
    worst = 0.0
    hyper_seen = 0
    for m, n in pairs:
        tab = spectral.moment_tables(m, max(n, 4))
        i = n - 1
        probes = [(oracle.a3_closed(m, n), tab.A3[i, i]),
                  (oracle.c1_closed(m, n), tab.B0[i, i] + tab.C1[i, i])]
        if m >= 1:
            probes.append((oracle.a_neg1_closed(m, n), tab.Aneg1[i, i]))
        for res, ref in probes:
            if res.path != oracle.PATH_HYPER:
                continue
            hyper_seen += 1
            worst = max(worst, abs(res.value - ref) / abs(ref))
    ok = hyper_seen >= 6 and worst <= 1e-6
    return ok, worst, 1e-6


def _check_propagator():
    geom = TrapGeometry.from_alpha(1.2)
    state = spectral.coeffs_from_eigenstate(0, 1, geom)
    t_src, t_dst = 0.2, 0.55
    r_eval = (0.7, 0.3)
    direct = evolve.psi_general(state, r_eval[0], r_eval[1], t_dst, geom)

    def psi_src(rho_p, phi_p):
        return evolve.psi_general(state, rho_p, phi_p, t_src, geom)

    viak = evolve.propagate_through_kernel([0], r_eval, t_dst, psi_src, t_src, geom)
    measured = abs(direct - viak)
    return measured <= 1e-6, measured, 1e-6


def _check_energy_paths():
    geom = TrapGeometry.from_alpha(0.5 * _x(0, 1))
    t = 1.0 / geom.u  # xi = 2
    isum, closed = spectral.energy_ratio_paths(0, 1, t, geom)
    measured = abs(isum - closed)
    return measured <= 1e-6, measured, 1e-6


def _check_h_convention():
    geom = TrapGeometry()
    worst = 0.0
    for (m, n) in ((0, 1), (0, 3), (2, 2)):
        h = spectral.matrix_element("H", m, n, n, 0.0, geom)
        e = geom.energy(m, n)
        worst = max(worst, abs(h.real / e - 1.0))
    return worst <= 1e-10, worst, 1e-10


def _check_truncation_guard():
    geom = TrapGeometry.from_alpha(10.0 * 0.5 * _x(0, 2))
    try:
        state = spectral.coeffs_from_eigenstate(0, 2, geom, n_max=4)
    except TruncationError as exc:
        return True, float(exc.deficit), 1e-4
    return False, float(state.norm_deficit), 1e-4


_CHECKS = [
    ("orthonormality", _check_orthonormality),
    ("unitarity", _check_unitarity),
    ("two_path_b", _make_two_path(False)),
    ("pde_convergence", _check_pde),
    ("heisenberg", _check_heisenberg),
    ("stationary_factor", _check_stationary_factor),
    ("oracle_m0_c1", _check_oracle_m0),
    ("oracle_hypergeometric", _check_oracle_hyper),
    ("propagator", _check_propagator),
    ("energy_paths", _check_energy_paths),
    ("h_convention", _check_h_convention),
    ("truncation_guard", _check_truncation_guard),
    ("negative_control_phase_drop", _make_two_path(True, expect_agreement=False)),
]


def cmd_verify(args, cfg) -> int:
    out = _resolve(args, cfg, "out", None, str)
    checks = list(_CHECKS)
    if getattr(args, "drop_moving_phase", False):
        # run the main agreement check with the broken reconstruction so the
        # failure mode is demonstrable end to end
        checks = [(name, _make_two_path(True, expect_agreement=True)
                   if name == "two_path_b" else fn)
                  for name, fn in checks]

    def run(fn):
        try:
            ok, measured, threshold = fn()
        except Exception as exc:  # a crashed check is a failed check
            return False, float("nan"), float("nan"), f"{type(exc).__name__}: {exc}"
        return bool(ok), float(measured), float(threshold), None

    outcomes = [run(fn) for _, fn in checks]

    report = {}
    all_ok = True
    for (name, _), (ok, measured, threshold, err) in zip(checks, outcomes):
        entry = {"pass": ok, "measured": measured, "threshold": threshold}
        if err:
            entry["error"] = err
        report[name] = entry
        all_ok = all_ok and ok
    _emit(json.dumps(report, indent=2) + "\n", out)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# --------------------------------------------------------------------------
# Entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtrap",
        description="Exact dynamics of a particle in a circular trap with a "
                    "uniformly moving wall.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--m", type=int, default=None, help="angular index")
    common.add_argument("--n", type=int, default=None, help="radial index (1-based)")
    common.add_argument("--nmax", type=int, default=None, help="basis size")
    common.add_argument("--grid", type=int, default=None, help="grid points / steps")
    common.add_argument("--out", default=None, help="output file (default stdout)")
    common.add_argument("--config", default=None, help="key=value defaults file")

    p = sub.add_parser("zeros", parents=[common], help="Bessel zero table")
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("energy", parents=[common],
                       help="energy ratio vs expansion factor, two routes")
    p.add_argument("--alpha-ratio", type=float, default=None,
                   help="wall speed in units of the mode scale x_mn/2")
    p.add_argument("--xi", type=float, default=None, help="final expansion factor")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("moments", parents=[common],
                       help="diagonal moment integrals vs closed forms")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("density-r", parents=[common],
                       help="radial density snapshot at a target xi")
    p.add_argument("--alpha-ratio", type=float, default=None)
    p.add_argument("--xi", type=float, default=None)
    p.set_defaults(func=cmd_density_r)

    p = sub.add_parser("density-t", parents=[common],
                       help="density time series at a fixed radius")
    p.add_argument("--alpha-ratio", type=float, default=None)
    p.add_argument("--eta-obs", type=float, default=None,
                   help="observation radius in wavelengths (default: x_mn/pi)")
    p.add_argument("--t-max", type=float, default=None, help="end of the scaled time window")
    p.set_defaults(func=cmd_density_t)

    p = sub.add_parser("verify", parents=[common], help="self-check battery")
    p.add_argument("--drop-moving-phase", action="store_true",
                   help="negative control: run the agreement check with the "
                        "moving phase dropped; verification must then fail")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command)
        return args.func(args, cfg)
    except (DomainError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, TruncationError, BudgetExceededError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
