"""Every cross-module binding the benchmark's layer tracing wraps resolves.

`benchmarks/tracing.py` swaps names such as ``qtrap.evolve.integrate`` for
span-recording wrappers and silently drops a metric whose name no longer
resolves.  This reads its binding table, without installing anything, so a
rename or removal in the package shows up in the package's own tests.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_tracing_bindings_resolve():
    spec = importlib.util.spec_from_file_location("_qtrap_bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.BINDINGS
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.BINDINGS
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []
