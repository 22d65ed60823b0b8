"""The three benchmark workloads: seeded op lists, set-up, and one op with its
correctness gate.

Every op list is a plain JSON-able list built from the seed alone, before any
qtrap code runs, so the parent commit and a change see identical inputs.  An
op returns ``None`` when it passed and a one-line reason when it failed; a
typed error raised by qtrap is a failure like any other.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

# parameter ranges of the acceptance battery (tests/test_acceptance.py)
SWEEP_MODES = ((0, 1), (0, 2), (1, 1))
SWEEP_RATIOS = (-1.0, -0.01, 0.01, 1.0, 5.0)
XI_EXPAND = (1.2, 3.0)
XI_CONTRACT = (0.5, 0.9)
XI_CONTRACT_DEEP = (0.1, 0.9)   # criterion 9 contracts to xi = 0.1
XI_SPREAD = (1.2, 5.0)          # criterion 5 reads the spreads up to xi = 5

# (m, n, alpha_ratio) states projected during set-up.  The ratios span the
# wall speeds of criteria 9 and 10: sudden contraction (-20), adiabatic
# contraction (-0.01), frozen expansion (+10) and the slowest fringe state
# (0, 6, +0.9).  m = 5 puts one expanding and one contracting state on the
# Miller Bessel path.  Two angular indices keep set-up to two zero tables.
OBS_POOL = ((0, 1, -20.0), (0, 1, -0.01), (0, 2, 10.0), (0, 6, 0.9),
            (5, 1, -1.0), (5, 2, 2.0))
# Reads per op, in the proportions of the acceptance battery: 73 spread reads
# (criterion 5), 65 oracle closed forms (criterion 7), 20 kernel points
# (criterion 8), 3 density profiles (criterion 9) and 4 density time series
# (criterion 10), scaled by 0.3 and rounded.
OBS_MIX = {"kernel": 6, "density_profile": 1, "density_timeseries": 1,
           "uncertainties": 22, "oracle": 20}
# Largest radial index of the moment tables: criterion 5 reads spreads up to
# n = 20, criterion 7 closed forms up to n = 15.
OBS_N_MAX = 20

N_OPS = 5000   # longer than any run can use; an exhausted list ends the phase
OBS_OPS = 1000  # each op is a pass of 50 reads


def _uniform(rng: random.Random, lo_hi) -> float:
    lo, hi = lo_hi
    return lo + (hi - lo) * rng.random()


def _fail(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _seeded_cycle(rng: random.Random, items):
    """Endless stream of `items`, each pass in a fresh seeded order."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


class InProcess:
    """A workload whose ops call qtrap in this process.

    ``setup`` imports qtrap afresh, so every call starts from empty caches
    and set-up can be timed more than once in a run.  Everything a set-up
    builds, the modules included, lives in ``self.q``.
    """

    chunks = 3   # set-ups per run, each followed by its share of the timed phase

    def __init__(self):
        self.kind_s = defaultdict(float)   # seconds spent in each kind of op or read

    def setup(self, tracer=None) -> float:
        """Import qtrap anew and warm it; returns the seconds taken.  With a
        tracer, its wrappers are installed right after the import, so the
        warm-up is traced."""
        self.q = None   # the old modules and their caches go with it
        for name in [n for n in sys.modules if n == "qtrap" or n.startswith("qtrap.")]:
            del sys.modules[name]
        gc.collect()
        t0 = time.perf_counter()
        q = SimpleNamespace(**{name: importlib.import_module("qtrap." + name)
                               for name in ("spectral", "evolve", "oracle")})
        if tracer is not None:
            tracer.install()
        self.warm(q)
        self.q = q
        return time.perf_counter() - t0

    def warm(self, q: SimpleNamespace):
        raise NotImplementedError

    def set_tracing(self, tracer, on: bool):
        if on:
            tracer.install()
        else:
            tracer.uninstall()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# sweep

class Sweep(InProcess):
    """Criterion-2 population and energy cells at fresh (xi, alpha).

    A run's pool pairs each of the five criterion-2 alpha-ratios with a mode
    drawn from the seed, every mode at least once, so that each run spans
    the whole ratio range and all three modes; over seeds every pair of
    criterion 2 comes up.  Every fourth op is an energy cell, the rest
    population cells, so the op-time median always falls on a population
    cell.  Energy cells take the pool's m = 0 pairs, the mode the acceptance
    battery checks the energy ratio on (criterion 6).  Each pass over the
    pool is in a seeded order and xi is drawn fresh for every op.  The small
    pool and the single moment table keep set-up short enough to be timed
    three times within a run.  The 3:1 split of population to energy cells
    is the nearest whole ratio to the acceptance battery's 75 population
    cells (criterion 2) against 27 energy ratios (criterion 6).
    """

    def make_ops(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        modes = list(SWEEP_MODES) + rng.choices(SWEEP_MODES, k=len(SWEEP_RATIOS) - len(SWEEP_MODES))
        rng.shuffle(modes)
        self.pool = [(m, n, r) for (m, n), r in zip(modes, SWEEP_RATIOS)]
        streams = {"population": _seeded_cycle(rng, self.pool),
                   "energy": _seeded_cycle(rng, [c for c in self.pool if c[0] == 0])}
        ops: list[dict] = []
        for i in range(N_OPS):
            kind = "energy" if i % 4 == 3 else "population"
            m, n, r = next(streams[kind])
            xi = _uniform(rng, XI_EXPAND if r > 0 else XI_CONTRACT)
            ops.append({"kind": kind, "m": m, "n": n, "ratio": r, "xi": xi})
        return ops

    def warm(self, q):
        """Zero tables, the m = 0 moment table and the pool's projected states;
        needs the pool drawn by ``make_ops``."""
        q.spectral.moment_tables(0)
        q.states = {}
        for m, n, r in self.pool:
            x = float(q.spectral._zeros_cached(m, n)[0][n - 1])
            geom = q.spectral.TrapGeometry.from_alpha(r * 0.5 * x)
            q.states[(m, n, r)] = (geom, q.spectral.coeffs_from_eigenstate(m, n, geom))

    def run(self, op: dict) -> str | None:
        t0 = time.perf_counter()
        err = self._cell(op)
        self.kind_s[op["kind"]] += time.perf_counter() - t0
        return err

    def _cell(self, op: dict) -> str | None:
        import numpy as np
        sp = self.q.spectral
        geom, state = self.q.states[(op["m"], op["n"], op["ratio"])]
        t = (op["xi"] - 1.0) / geom.u
        try:
            if op["kind"] == "population":
                b = sp.b_coeffs(state, t, geom)
                bd = sp.b_coeffs_direct(state, t, geom)
                norm = abs(float(np.sum(np.abs(b) ** 2)) - 1.0)
                agree = float(np.max(np.abs(b - bd)))
                if not (norm <= 1e-6 and agree <= 1e-8):
                    return f"|sum|b|^2 - 1| = {norm:.3g} (<=1e-6), max|b - b_direct| = {agree:.3g} (<=1e-8)"
            else:
                isum, closed = sp.energy_ratio_paths(op["m"], op["n"], t, geom)
                if not abs(isum - closed) <= 1e-4:
                    return f"energy routes {isum!r} vs {closed!r} differ by more than 1e-4"
        except Exception as exc:
            return _fail(exc)
        return None


# --------------------------------------------------------------------------
# observables

class Observables(InProcess):
    """Reads on a warm basis: only the evaluation points change from op to op.

    One op is ``OBS_MIX`` reads on the pool.  Each kind of read visits the
    pool states (only the expanding ones for ``density_timeseries``) in its
    own seeded cycle, so the six kernel points of an op fall one on each
    state.  Spread and oracle reads take n from 1 to OBS_N_MAX at the state's
    m.  Every op thus does the same work, so the op-time median does not
    depend on which evaluation points a run happened to draw.
    """

    chunks = 2   # an op takes about 4 s and a set-up 8 s: two of each fit a run

    def make_ops(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        turns = {kind: _seeded_cycle(rng, [i for i, (_, _, r) in enumerate(OBS_POOL)
                                           if kind != "density_timeseries" or r > 0.0])
                 for kind in OBS_MIX}
        return [{"reads": [self._read(rng, kind, next(turns[kind]))
                           for kind, count in OBS_MIX.items() for _ in range(count)]}
                for _ in range(OBS_OPS)]

    @staticmethod
    def _read(rng: random.Random, kind: str, state: int) -> dict:
        m, n, r = OBS_POOL[state]
        read = {"kind": kind, "m": m, "n": n, "ratio": r}
        xi_range = XI_EXPAND if r > 0 else XI_CONTRACT_DEEP
        if kind == "density_profile":
            read["xi"] = _uniform(rng, xi_range)
        elif kind == "uncertainties":
            read["xi"] = _uniform(rng, XI_SPREAD if r > 0 else XI_CONTRACT_DEEP)
            read["n_read"] = 1 + rng.randrange(OBS_N_MAX)
        elif kind == "density_timeseries":
            read["eta_factor"] = _uniform(rng, (1.2, 3.0))  # radius in initial walls
            read["t_max"] = _uniform(rng, (3.0, 8.0))
        elif kind == "kernel":
            read["xi"] = _uniform(rng, xi_range)
            read["rho_frac"] = 0.05 + 0.9 * rng.random()
            read["phi"] = 2.0 * math.pi * rng.random()
        else:
            forms = ["a3_closed", "c1_closed"] + (["a_neg1_closed"] if m >= 1 else [])
            read["form"] = forms[rng.randrange(len(forms))]
            read["n_read"] = 1 + rng.randrange(OBS_N_MAX)
        return read

    def warm(self, q):
        """Zero tables, moment tables up to OBS_N_MAX and the projected pool
        states.  The n_max = 60 tables for m up to 5 are verify's cold cost."""
        q.geoms = {}
        q.tables = {}
        for m, n, r in OBS_POOL:
            x = float(q.spectral._zeros_cached(m, n)[0][n - 1])
            geom = q.spectral.TrapGeometry.from_alpha(r * 0.5 * x)
            q.spectral.coeffs_from_eigenstate(m, n, geom)
            q.geoms[(m, n, r)] = geom
            if m not in q.tables:
                q.tables[m] = q.spectral.moment_tables(m, OBS_N_MAX)
                q.oracle.a3_closed(m, 1)   # fills the oracle's own zero table

    def run(self, op: dict) -> str | None:
        for read in op["reads"]:
            t0 = time.perf_counter()
            try:
                err = getattr(self, "_" + read["kind"])(read)
            except Exception as exc:
                err = _fail(exc)
            self.kind_s[read["kind"]] += time.perf_counter() - t0
            if err is not None:
                return f"{json.dumps(read)}: {err}"
        return None

    def _density_profile(self, read):
        import numpy as np
        samples = self.q.evolve.density_profile(read["m"], read["n"], read["ratio"], read["xi"])
        eta = np.array([s.eta for s in samples])
        dens = np.array([s.rho_density for s in samples])
        total = float(np.sum(0.5 * (dens[1:] + dens[:-1]) * np.diff(eta)))
        if not abs(total - 1.0) <= 1e-3:
            return f"trapezoid integral of the density {total!r} not within 1e-3 of 1"
        return None

    def _density_timeseries(self, read):
        m, n, r = read["m"], read["n"], read["ratio"]
        x = float(self.q.spectral._zeros_cached(m, n)[0][n - 1])
        eta_obs = read["eta_factor"] * x / (2.0 * math.pi)
        samples, flight = self.q.evolve.density_timeseries(m, n, r, eta_obs, read["t_max"])
        t_wall = flight.T1 / r   # scaled instant the wall passes the observer
        early = [s.T for s in samples if s.T < t_wall and s.rho_density != 0.0]
        if early:
            return f"nonzero density at T = {early[0]!r} before the wall arrives at {t_wall!r}"
        return None

    def _kernel(self, read):
        m, n = read["m"], read["n"]
        geom = self.q.geoms[(m, n, read["ratio"])]
        evolve = self.q.evolve
        t = (read["xi"] - 1.0) / geom.u
        rho = read["rho_frac"] * geom.L(t)

        def src(rho_p, phi_p):
            return evolve.psi_exact(m, n, rho_p, phi_p, 0.0, geom)

        via = evolve.propagate_through_kernel([m], (rho, read["phi"]), t, src, 0.0, geom)
        exact = evolve.psi_exact(m, n, rho, read["phi"], t, geom)
        err = abs(via - exact)
        if not err <= 1e-6:
            return f"|kernel - psi_exact| = {err:.3g} (<=1e-6)"
        return None

    def _uncertainties(self, read):
        m = read["m"]
        geom = self.q.geoms[(m, read["n"], read["ratio"])]
        t = (read["xi"] - 1.0) / geom.u
        _, _, prod = self.q.spectral.uncertainties(m, read["n_read"], t, geom, self.q.tables[m])
        if not prod >= 0.5 * geom.hbar:
            return f"dq*dp = {prod!r} below hbar/2"
        return None

    def _oracle(self, read):
        m, i = read["m"], read["n_read"] - 1
        tab = self.q.tables[m]
        ref = {"a3_closed": tab.A3[i, i],
               "c1_closed": tab.B0[i, i] + tab.C1[i, i],
               "a_neg1_closed": tab.Aneg1[i, i]}[read["form"]]
        res = getattr(self.q.oracle, read["form"])(m, read["n_read"])
        rel = abs(res.value - ref) / abs(ref)
        if not rel <= 1e-6:
            return f"{read['form']} via {res.path}: relative gap to the moment table {rel:.3g} (<=1e-6)"
        return None


# --------------------------------------------------------------------------
# verify

def child_env(root: Path) -> dict:
    """Environment for a qtrap child process: this checkout's sources first,
    QTRAP_THREADS unset."""
    env = dict(os.environ)
    env.pop("QTRAP_THREADS", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _children_usage() -> tuple[float, float]:
    """(CPU seconds, peak RSS in MB) over the waited-for child processes."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


class Verify:
    """One cold ``qtrap verify`` process per op, every check.

    The op has no inputs, so the seed changes nothing.  With tracing on, the
    child is ``verify_child.py``, which installs the wrappers before calling
    ``qtrap.cli.main``.
    """

    timeout_s = 170.0
    chunks = 1          # an op outlasts any run length
    setup_repeats = 5

    def __init__(self, root: Path, tmp: Path):
        self.root = root
        self.tmp = tmp
        self.env = child_env(root)
        self.traced = False   # run verify_child.py instead of the bare command
        self.child_traces: list[dict] = []

    def make_ops(self, seed: int) -> list[dict]:
        return [{"kind": "verify"}] * N_OPS

    def setup(self, tracer=None) -> float:
        """Interpreter start plus import, the part of a verify run not in the
        op; timed in fresh processes, median of several.  The tracer, if any,
        acts in the op's child process instead."""
        times = []
        for _ in range(self.setup_repeats):
            t0 = time.perf_counter()
            code = subprocess.run([sys.executable, "-c", "import qtrap.cli"], env=self.env,
                                  cwd=self.root, stdout=subprocess.DEVNULL).returncode
            times.append(time.perf_counter() - t0)
            if code != 0:
                raise RuntimeError(f"importing qtrap.cli in a fresh process exited {code}")
        return statistics.median(times)

    def set_tracing(self, tracer, on: bool):
        self.traced = on

    def run(self, op: dict) -> str | None:
        report = self.tmp / "verify.json"
        report.unlink(missing_ok=True)
        if self.traced:
            meta = self.tmp / "child.json"
            cmd = [sys.executable, str(Path(__file__).with_name("verify_child.py")),
                   str(report), str(meta)]
        else:
            cmd = [sys.executable, "-m", "qtrap.cli", "verify", "--out", str(report)]
        cpu0, _ = _children_usage()
        with open(self.tmp / "verify.log", "w") as log:
            try:
                code = subprocess.run(cmd, env=self.env, cwd=self.root, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=self.timeout_s).returncode
            except subprocess.TimeoutExpired:
                code = None
        cpu1, _ = _children_usage()
        if self.traced and meta.is_file():
            child = json.loads(meta.read_text())
            child["cpu_s"] = cpu1 - cpu0
            self.child_traces.append(child)
        if code is None:
            return f"qtrap verify timed out after {self.timeout_s} s"
        if code != 0:
            tail = (self.tmp / "verify.log").read_text()[-300:].strip()
            return f"qtrap verify exited {code}: {tail}"
        try:
            checks = json.loads(report.read_text())
        except (OSError, ValueError) as exc:
            return f"unreadable verify report: {_fail(exc)}"
        bad = [name for name, entry in checks.items() if entry.get("pass") is not True]
        if not checks or bad:
            return f"{len(checks)} checks, failing: {bad}"
        return None

    def peak_rss_mb(self) -> float:
        """The largest child's peak: an op child, never the smaller import ones."""
        return _children_usage()[1]
