"""Traced ``qtrap verify`` child process.

Usage: python benchmarks/verify_child.py REPORT_JSON META_JSON

Times the import of ``qtrap.cli``, installs the layer wrappers, runs
``qtrap.cli.main(["verify", "--out", REPORT_JSON])`` and writes the spans and
counters to META_JSON.  Exits with the code ``main`` returned.  The source
directory comes from PYTHONPATH, as for an untraced verify run.
"""

import json
import sys
import time


def main(report: str, meta: str) -> int:
    t0 = time.perf_counter()
    import qtrap.cli
    import_s = time.perf_counter() - t0

    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    t1 = time.perf_counter()
    try:
        code = qtrap.cli.main(["verify", "--out", report])
    finally:
        tracer.uninstall()
    op_s = time.perf_counter() - t1
    with open(meta, "w") as fh:
        json.dump({"import_s": import_s, "op_s": op_s, "code": code,
                   "threads_max": tracer.threads_max, "missing": tracer.missing,
                   "absent": sorted(tracer.absent_spans()), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
