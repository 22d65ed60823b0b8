"""Tests of the benchmark itself (not of qtrap).

Run from the repository root:  python -m pytest -q benchmarks
The smoke runs execute every workload once untraced and once traced at the
shortest length, one op per chunk; the verify ones take a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import op_list_hash  # noqa: E402
from tracing import BINDINGS, Tracer, layer_metrics  # noqa: E402
from workloads import Observables, Sweep, Verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _make(name, tmp_path):
    return {"sweep": Sweep, "observables": Observables,
            "verify": lambda: Verify(ROOT, tmp_path)}[name]()


@pytest.mark.parametrize("name", ["sweep", "observables", "verify"])
def test_same_seed_same_op_list(name, tmp_path):
    wl = _make(name, tmp_path)
    a, b = wl.make_ops(7), wl.make_ops(7)
    assert a == b and op_list_hash(a) == op_list_hash(b)
    if name != "verify":  # verify ops carry no inputs
        assert op_list_hash(wl.make_ops(8)) != op_list_hash(a)


def test_every_binding_resolves_and_uninstalls():
    import importlib
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in BINDINGS}
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert all(getattr(importlib.import_module(m), a) is not originals[(m, a)]
                   for m, a, _ in BINDINGS)
    finally:
        tracer.uninstall()
    assert all(getattr(importlib.import_module(m), a) is originals[(m, a)]
               for m, a, _ in BINDINGS)


def test_missing_binding_is_reported_absent():
    tracer = Tracer([("qtrap.oracle", "no_such_function", "special.pfq")])
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["qtrap.oracle.no_such_function"]
    metrics = layer_metrics([], 1, tracer.absent_spans())
    assert "special.pfq.calls" not in metrics and "special.bessel_j.calls" in metrics


def test_self_time_subtracts_child_spans():
    spans = [
        ["quad.integrate", 0.0, 10.0, -1, {"via": "spectral", "budget_exceeded": False,
                                          "panels": 8, "err": 1e-14}],
        ["quad.integrand", 1.0, 4.0, 0, None],
        ["special.bessel_j", 2.0, 3.0, 1, {"order": 3, "points": 100}],
    ]
    m = layer_metrics(spans, 2)
    assert m["quad.integrate.self_s"][0] == pytest.approx(3.5)   # (10 - 3) / 2 ops
    assert m["quad.integrate.integrand_self_s"][0] == pytest.approx(1.0)
    assert m["special.bessel_j.hi.points"][0] == 50.0
    assert m["spectral.integrate_calls"][0] == 0.5


def _bench(cwd, *args, timeout=900):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("name", ["sweep", "observables", "verify"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(name, trace):
    res = _bench(ROOT, "--workload", name, "--seed", "1", "--seconds", "0.01",
                 "--trace", str(trace))
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = _bench(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1",
                 timeout=180)
    assert res.returncode != 0 and '"metrics"' not in res.stdout
