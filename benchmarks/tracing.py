"""Outside-in layer tracing for the qtrap benchmark.

Nothing in the package is instrumented.  Instead, the names through which one
qtrap layer calls into another (``qtrap.spectral.bessel_j``,
``qtrap.evolve.integrate``, ``qtrap.oracle.pfq`` ...) are swapped for thin
wrappers that record a span around each call.  A call that stays inside a
module (``special.bessel_zeros`` calling ``special.bessel_j``) is not seen,
which is the point: every span marks a layer boundary.

Spans are kept in memory as ``[name, start, end, parent, info]`` and written
out when the run ends.  Self time of a span is its duration minus that of its
direct children; calls never overlap, because the benchmark and qtrap's
default configuration are single threaded.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

# (module, attribute, span name).  The same span name may be reached through
# several bindings; it is absent from the report only if all of them are.
# Entry points without a metric of their own are wrapped too, so that their
# time counts toward their layer and not toward the caller's self time.
BINDINGS = [
    # special, as seen from the layers above it
    ("qtrap.spectral", "bessel_j", "special.bessel_j"),
    ("qtrap.evolve", "bessel_j", "special.bessel_j"),
    ("qtrap.oracle", "bessel_j", "special.bessel_j"),
    ("qtrap.oracle", "bessel_j_prime", "special.bessel_j_prime"),
    ("qtrap.cli", "bessel_j_prime", "special.bessel_j_prime"),
    ("qtrap.spectral", "bessel_zeros", "special.bessel_zeros"),
    ("qtrap.oracle", "bessel_zeros", "special.bessel_zeros"),
    ("qtrap.cli", "bessel_zeros", "special.bessel_zeros"),
    ("qtrap.oracle", "pfq", "special.pfq"),
    # quad
    ("qtrap.spectral", "integrate", "quad.integrate"),
    ("qtrap.evolve", "integrate", "quad.integrate"),
    ("qtrap.oracle", "integrate", "quad.integrate"),
    ("qtrap.cli", "integrate", "quad.integrate"),
    # spectral: module attributes serve cli (``spectral.moment_tables``), the
    # benchmark and spectral's own cross-function calls; evolve holds its own
    # binding of coeffs_from_eigenstate
    *[("qtrap.spectral", name, f"spectral.{name}") for name in (
        "b_coeffs", "b_coeffs_direct", "coeffs_from_eigenstate",
        "coeffs_from_initial", "energy_ratio_paths", "energy_ratio",
        "moment_tables", "matrix_element", "expectation", "uncertainties",
        "overlap_I")],
    ("qtrap.evolve", "coeffs_from_eigenstate", "spectral.coeffs_from_eigenstate"),
    # spectral internals that evolve imports under their own names: the
    # amplitude sums and the overlap matrix
    ("qtrap.evolve", "_radial_wave", "spectral._radial_wave"),
    ("qtrap.evolve", "_i_matrix", "spectral._i_matrix"),
    # evolve
    *[("qtrap.evolve", name, f"evolve.{name}") for name in (
        "psi_exact", "psi_general", "density_profile", "density_timeseries",
        "visibility", "propagator", "propagate_through_kernel", "pde_residual",
        "long_time_radial")],
    # oracle
    *[("qtrap.oracle", name, f"oracle.{name}") for name in (
        "a3_closed", "c1_closed", "a_neg1_closed")],
    # cli
    ("qtrap.cli", "main", "cli.main"),
]

NAME, START, END, PARENT, INFO = range(5)


def _os_threads() -> int:
    """Threads of this process, native ones (BLAS pool) included."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


class Tracer:
    """Installs span-recording wrappers on the bindings in ``BINDINGS``."""

    def __init__(self, bindings=BINDINGS):
        self.bindings = bindings
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.threads_max = _os_threads()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every binding that resolves; record the ones that do not."""
        self.missing = []
        for mod_name, attr, span_name in self.bindings:
            try:
                module = importlib.import_module(mod_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, mod_name.split(".")[-1]))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def absent_spans(self) -> set[str]:
        """Span names none of whose bindings resolved."""
        missing = set(self.missing)
        by_span: dict[str, list[str]] = {}
        for mod_name, attr, span_name in self.bindings:
            by_span.setdefault(span_name, []).append(f"{mod_name}.{attr}")
        return {s for s, names in by_span.items() if all(n in missing for n in names)}

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, info) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, info]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, span_name: str, fn, via: str):
        if span_name == "quad.integrate":
            return self._wrap_integrate(fn, via)
        tracer = self
        kind = span_name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = None
            if span_name == "special.bessel_j":   # bessel_j(m, x)
                info = {"order": int(args[0]), "points": getattr(args[1], "size", 1)}
            rec = tracer._open(span_name, info)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if kind == "oracle":
                rec[INFO] = {"path": getattr(out, "path", None)}
            return out

        return traced

    def _wrap_integrate(self, fn, via: str):
        tracer = self

        def traced_integrand(f):
            @functools.wraps(f)
            def integrand(s):
                rec = tracer._open("quad.integrand", None)
                rec[START] = time.perf_counter()
                try:
                    return f(s)
                finally:
                    tracer._close(rec)
            return integrand

        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            rec = tracer._open("quad.integrate", None)
            rec[START] = time.perf_counter()
            try:
                res = fn(traced_integrand(f), *args, **kwargs)
            except Exception as exc:
                best = getattr(exc, "result", None)  # BudgetExceededError
                rec[INFO] = {"via": via, "budget_exceeded": best is not None,
                             "panels": getattr(best, "panels_used", 0),
                             "err": getattr(best, "err_estimate", 0.0)}
                raise
            finally:
                tracer._close(rec)
                tracer.threads_max = max(tracer.threads_max, _os_threads())
            rec[INFO] = {"via": via, "budget_exceeded": False,
                         "panels": getattr(res, "panels_used", 0),
                         "err": getattr(res, "err_estimate", 0.0)}
            return res

        return traced

    # -- output ------------------------------------------------------------

    @staticmethod
    def dump(spans: list, path):
        """Write spans as JSON lines ``[name, start, end, parent, info]``, times
        relative to the first span."""
        t0 = spans[0][START] if spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, info in spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, info]) + "\n")


# --------------------------------------------------------------------------
# Aggregation

_SPECTRAL_FNS = ("b_coeffs", "b_coeffs_direct", "coeffs_from_eigenstate",
                 "energy_ratio_paths", "moment_tables", "uncertainties")
_EVOLVE_FNS = ("density_profile", "density_timeseries", "propagate_through_kernel")


def layer_metrics(spans: list, ops: int, absent: set[str] = frozenset()) -> dict:
    """Per-layer metrics of one traced phase, normalized per op.

    Returns ``{name: (value, unit)}``.  A metric whose span has no resolving
    binding is left out.
    """
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    selfs = [d - c for d, c in zip(dur, child)]

    def pick(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    def total(idx):
        return sum(dur[i] for i in idx)

    def self_total(idx):
        return sum(selfs[i] for i in idx)

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit, needs):
        if not any(n in absent for n in needs):
            out[name] = (float(value), unit)

    bj = pick("special.bessel_j")
    pts = sum(spans[i][INFO]["points"] for i in bj)
    t_bj = total(bj)
    put("special.bessel_j.calls", len(bj) / ops, "count/op", ["special.bessel_j"])
    put("special.bessel_j.points", pts / ops, "count/op", ["special.bessel_j"])
    put("special.bessel_j.s", t_bj / ops, "s/op", ["special.bessel_j"])
    put("special.bessel_j.mpts_per_s", pts / t_bj / 1e6 if t_bj else 0.0, "Mpts/s",
        ["special.bessel_j"])
    for band, test in (("lo", lambda m: m <= 1), ("hi", lambda m: m >= 2)):
        idx = [i for i in bj if test(spans[i][INFO]["order"])]
        put(f"special.bessel_j.{band}.points",
            sum(spans[i][INFO]["points"] for i in idx) / ops, "count/op", ["special.bessel_j"])
        put(f"special.bessel_j.{band}.s", total(idx) / ops, "s/op", ["special.bessel_j"])

    for fn in ("bessel_zeros", "pfq"):
        idx = pick(f"special.{fn}")
        put(f"special.{fn}.calls", len(idx) / ops, "count/op", [f"special.{fn}"])
        put(f"special.{fn}.s", total(idx) / ops, "s/op", [f"special.{fn}"])

    qi = pick("quad.integrate")
    panels = sum(spans[i][INFO]["panels"] for i in qi)
    t_qi = total(qi)
    need = ["quad.integrate"]
    put("quad.integrate.calls", len(qi) / ops, "count/op", need)
    put("quad.integrate.panels", panels / ops, "count/op", need)
    put("quad.integrate.self_s", self_total(qi) / ops, "s/op", need)
    put("quad.integrate.integrand_self_s", self_total(pick("quad.integrand")) / ops, "s/op", need)
    put("quad.integrate.panels_per_s", panels / t_qi if t_qi else 0.0, "1/s", need)
    put("quad.integrate.err_max",
        max((spans[i][INFO]["err"] for i in qi), default=0.0), "abs", need)
    put("quad.integrate.budget_exceeded",
        sum(1 for i in qi if spans[i][INFO]["budget_exceeded"]), "count", need)

    # calls through each module's own ``integrate`` binding; a cache hit makes
    # none, so this counts overlap and table builds
    via = [spans[i][INFO]["via"] for i in qi]
    for layer in ("spectral", "evolve"):
        put(f"{layer}.integrate_calls", via.count(layer) / ops, "count/op", need)

    for layer, fns in (("spectral", _SPECTRAL_FNS), ("evolve", _EVOLVE_FNS)):
        for fn in fns:
            put(f"{layer}.{fn}.s", total(pick(f"{layer}.{fn}")) / ops, "s/op", [f"{layer}.{fn}"])
        idx = [i for i, s in enumerate(spans) if s[NAME].startswith(layer + ".")]
        put(f"{layer}.self_s", self_total(idx) / ops, "s/op", [])

    oc = [i for i, s in enumerate(spans) if s[NAME].startswith("oracle.")]
    hyper = sum(1 for i in oc if spans[i][INFO] and spans[i][INFO]["path"] == "hypergeometric")
    fallback = sum(dur[i] for i in qi if spans[i][INFO]["via"] == "oracle")
    need = ["oracle.a3_closed", "oracle.c1_closed", "oracle.a_neg1_closed"]
    put("oracle.calls", len(oc) / ops, "count/op", need)
    put("oracle.s", total(oc) / ops, "s/op", need)
    put("oracle.fallback_s", fallback / ops, "s/op", need)
    put("oracle.hyper_frac", hyper / len(oc) if oc else 0.0, "frac", need)

    cm = pick("cli.main")
    put("cli.main.s", total(cm) / ops, "s/op", ["cli.main"])
    put("cli.self_s", self_total(cm) / ops, "s/op", ["cli.main"])
    return out


def setup_metrics(spans: list, absent: set[str] = frozenset()) -> dict:
    """Layer time spent while setting up, before the first op."""
    per_op = layer_metrics(spans, 1, absent)
    out = {}
    for name in ("special.bessel_zeros.s", "special.bessel_j.s", "quad.integrate.self_s",
                 "spectral.moment_tables.s", "spectral.coeffs_from_eigenstate.s"):
        if name in per_op:
            out["setup." + name] = (per_op[name][0], "s")
    return out
