"""One repetition of a workload, in a fresh interpreter.

Started by run.py, never by hand: a fresh process pays the imports and the
module-level caches (``solve._candidate_cache``) cold, as every ``graphbo``
command does. Prints one JSON object on its last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"  # created by run.py


def _import_graphbo():
    sys.path.insert(0, str(ROOT / "src"))
    import graphbo
    where = Path(graphbo.__file__).resolve().parent
    if where != ROOT / "src" / "graphbo":
        raise SystemExit(f"graphbo imported from {where}, not from this checkout")
    return graphbo


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default="",
                    help="record spans and write them to this file")
    args = ap.parse_args(argv)

    graphbo = _import_graphbo()
    import numpy
    import scipy

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, workloads.SIZES[args.size][args.workload])
    report = {"setup_s": time.monotonic() - args.spawned}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = spans.Tracer() if args.spans else None
    patches = spans.Patches()
    if tracer is not None:
        spans.install(tracer, patches)
    traced = tracer.wrap if tracer is not None else (lambda name, fn: fn)
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        start = time.perf_counter()
        if tracer is None:
            outputs = workload.run(inputs, traced, patches, workdir)
        else:
            with tracer.span("bench.run"):
                outputs = workload.run(inputs, traced, patches, workdir)
        run_s = time.perf_counter() - start
    finally:
        patches.undo()
        shutil.rmtree(workdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failures = workload.check(inputs, outputs)
    report.update({
        "run_s": run_s,
        "op_times": outputs["op_times"],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "graphbo": graphbo.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    })
    if tracer is not None:
        tracer.write(args.spans)
        report["layers"] = spans.layer_metrics(tracer.spans,
                                               outputs.get("bytes", 0))
        report["spans"] = len(tracer.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
