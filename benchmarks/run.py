"""qtrap benchmark runner.

Usage:
    python3 benchmarks/run.py --workload {sweep,observables,verify} --seed N
                              --seconds S --trace {0,1}

Run from the root of a source checkout; qtrap is imported from ``src/``.  One
client runs the workload's ops back to back (closed loop) for S seconds in
all.  The in-process workloads split those seconds into chunks (three for
sweep, two for observables), each after its own set-up from empty caches;
``setup_s`` is the median of those set-ups.  The last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` the run is traced from outside (see tracing.py): after one
set-up, untraced and traced chunks alternate, S seconds of each, on
successive ops of the same list, and the metrics are the per-layer ones.
Lines before the last record the environment, the op-list hash, any failing
op and, for the in-process workloads, the share of op time each kind of op or
read took.

Nothing is pinned, no cache is dropped and no machine setting is touched.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracing import Tracer, layer_metrics, setup_metrics  # noqa: E402
from workloads import Observables, Sweep, Verify  # noqa: E402

WORKLOADS = ("sweep", "observables", "verify")
HELD_OUT_SEED = 20261017   # reserved for validating claims; never tune on it


def op_list_hash(ops: list[dict]) -> str:
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "QTRAP_THREADS": os.environ.get("QTRAP_THREADS", "unset"),
        "src_lines": src_lines,
        "pinned": False, "caches_dropped": False, "machine_settings_touched": False,
    }


def timed_phase(workload, ops: list[dict], start: int, seconds: float):
    """Run ops from `start` back to back until `seconds` have passed (at least
    one op).  Returns (next index, elapsed s, op times, failures)."""
    times, failures = [], []
    t0 = time.perf_counter()
    i = start
    while i < len(ops):
        a = time.perf_counter()
        err = workload.run(ops[i])
        b = time.perf_counter()
        times.append(b - a)
        if err is not None:
            failures.append((i, err))
        i += 1
        if b - t0 >= seconds:
            break
    return i, time.perf_counter() - t0, times, failures


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run(args) -> dict:
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, tmp: Path) -> dict:
    os.environ.pop("QTRAP_THREADS", None)
    workload = {"sweep": Sweep, "observables": Observables,
                "verify": lambda: Verify(ROOT, tmp)}[args.workload]()
    ops = workload.make_ops(args.seed)
    print("# inputs " + json.dumps({"workload": args.workload, "seed": args.seed,
                                    "held_out_seed": HELD_OUT_SEED, "ops": len(ops),
                                    "op_list_sha256": op_list_hash(ops)}))
    # The timed phase is split into chunks spread over the whole run, so that
    # the machine's drift in speed, which swings by tens of percent over tens
    # of seconds, weighs on the whole run alike.  Chunk k ends once the chunks
    # so far have taken (k + 1) / chunks of the run length, so an op that
    # overruns one chunk shortens the next.
    if args.trace:
        times, failures, metrics = _traced(args, workload, ops)
    else:
        times, failures, setups, elapsed, nxt = [], [], [], 0.0, 0
        for k in range(workload.chunks):
            setups.append(workload.setup())
            nxt, c_elapsed, c_times, c_failures = timed_phase(
                workload, ops, nxt, args.seconds * (k + 1) / workload.chunks - elapsed)
            elapsed += c_elapsed
            times += c_times
            failures += c_failures
        metrics = {
            "throughput_ops_s": metric((len(times) - len(failures)) / elapsed, "1/s"),
            "op_p50_s": metric(statistics.median(times), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(workload.peak_rss_mb(), "MB"),
        }

    for i, err in failures:
        print("# failed op " + json.dumps({"index": i, "op": ops[i], "error": err}))
    if hasattr(workload, "kind_s"):
        print("# op mix " + json.dumps({kind: round(s / sum(times), 4)
                                        for kind, s in sorted(workload.kind_s.items())}))
    print("# environment " + json.dumps(environment()))
    return {"correct": not failures, "attempted": len(times), "failed": len(failures),
            "metrics": metrics}


def _traced(args, workload, ops: list[dict]):
    """Set up once under the tracer, then alternate untraced and traced chunks.
    Returns (op times, failures, per-layer metrics)."""
    tracer = Tracer()
    workload.setup(tracer)
    tracer.uninstall()
    setup_spans, tracer.spans = tracer.spans, []
    times, failures, t_times = [], [], []
    elapsed = {False: 0.0, True: 0.0}
    count = {False: 0, True: 0}
    cpu_s, nxt = 0.0, 0
    for k in range(workload.chunks):
        for traced in (False, True):
            workload.set_tracing(tracer, traced)
            cpu0 = os.times()
            nxt, c_elapsed, c_times, c_failures = timed_phase(
                workload, ops, nxt, args.seconds * (k + 1) / workload.chunks - elapsed[traced])
            cpu1 = os.times()
            workload.set_tracing(tracer, False)
            if traced:
                cpu_s += cpu1.user + cpu1.system - cpu0.user - cpu0.system
                t_times += c_times
            elapsed[traced] += c_elapsed
            count[traced] += len(c_times)
            times += c_times
            failures += c_failures
    if isinstance(workload, Verify):
        spans, absent, counters = _child_counters(workload)
    else:
        spans, absent = tracer.spans, tracer.absent_spans()
        counters = {"cpu_s": cpu_s, "threads_max": tracer.threads_max}
    Tracer.dump(spans, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = _per_layer(spans, absent, setup_spans, t_times, counters)
    metrics["trace.overhead_frac"] = metric(
        1.0 - (count[True] / elapsed[True]) / (count[False] / elapsed[False]), "frac")
    metrics["failed_frac"] = metric(len(failures) / len(times), "frac")
    return times, failures, metrics


def _per_layer(spans, absent, setup_spans, op_times, counters) -> dict:
    n = len(op_times)
    metrics = {name: metric(value, unit)
               for name, (value, unit) in layer_metrics(spans, n, absent).items()}
    for name, (value, unit) in setup_metrics(setup_spans, absent).items():
        metrics[name] = metric(value, unit)
    if "special.bessel_j.s" in metrics:
        # bessel_j is a leaf as seen from outside, so its time is its self time
        metrics["special.bessel_j.op_share"] = metric(
            metrics["special.bessel_j.s"]["value"] * n / sum(op_times), "frac")
    # only verify starts a cli process; elsewhere the cli layer is idle
    metrics["cli.import_s"] = metric(counters.get("import_s", 0.0), "s")
    metrics["process.cpu_s"] = metric(counters["cpu_s"] / n, "s/op")
    metrics["process.threads_max"] = metric(counters["threads_max"], "count")
    return metrics


def _child_counters(workload: Verify):
    """Spans, absent span names and counters of the traced verify children."""
    spans, absent = [], set()
    counters = {"cpu_s": 0.0, "threads_max": 0, "import_s": 0.0}
    for child in workload.child_traces:
        base = len(spans)
        spans += [[n, a, b, p + base if p >= 0 else -1, info]
                  for n, a, b, p, info in child["spans"]]
        absent |= set(child["absent"])
        counters["cpu_s"] += child["cpu_s"]
        counters["threads_max"] = max(counters["threads_max"], child["threads_max"])
        counters["import_s"] += child["import_s"] / len(workload.child_traces)
    return spans, absent, counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qtrap" / "__init__.py").is_file():
        print(f"error: no qtrap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
