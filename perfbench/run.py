"""graphbo benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload bo_enum_n5 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. Every repetition runs in a fresh interpreter
(worker.py) with one BLAS thread; repetitions repeat until ``--seconds`` is
used up, at least one. ``--trace 0`` reports the end-to-end metrics with
tracing off. ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones, the tracing overhead and a
span file. Human-readable lines start with ``#``; the last line is the JSON
result. Everything written goes under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from spans import LAYER_METRICS  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

# Bounded in BENCHMARK.json. The per-operation medians (iter_s_p50,
# solve_s_p50, variant_s_p50) are printed and recorded but not bounded: each
# applies to one workload, and the B&P solves and export variants differ in
# cost by up to 5x, so the median of eight or twelve of them falls between
# clusters and swings with single samples.
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}
RAW = ("setup_s", "run_s", "op_times", "peak_rss_mb", "attempted", "failed")
MIN_SETUPS = 5     # setup_s is the median of at least this many fresh starts
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
CHILD_ENV = {
    # one worker: BO is sequential, and BLAS threads would add a second
    # source of run-to-run spread
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, size: str):
        self.workload, self.seed, self.size = workload, seed, size
        self.started = time.monotonic()
        self.env = {**os.environ, **CHILD_ENV}

    def worker(self, *extra: str) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the next repetition")
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--size", self.size, *extra,
               "--spawned", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"repetition exceeded the {DEADLINE_S:.0f} s "
                             "deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def compile(self) -> None:
        """Write bytecode once, so no repetition's setup pays for it."""
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(ROOT / "src" / "graphbo"), str(HERE)],
                       cwd=ROOT, env=self.env, check=True, capture_output=True,
                       timeout=DEADLINE_S)


def collect(runner: Runner, seconds: float, trace: bool):
    """Untraced (and, with ``trace``, traced) repetitions until time is up."""
    plain, traced = [], []
    spans_dir = OUT / "spans"
    if trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    while True:
        cycle_start = time.monotonic()
        plain.append(runner.worker())
        if trace:
            path = spans_dir / (f"{runner.workload}-seed{runner.seed}"
                                f"-rep{len(traced)}.jsonl")
            rep = runner.worker("--spans", str(path))
            rep["spans_file"] = str(path.relative_to(ROOT))
            traced.append(rep)
        now = time.monotonic()
        # start another cycle only if it is likely to end within the budget
        if (now - runner.started) + (now - cycle_start) > seconds:
            break
    setups = [r["setup_s"] for r in plain]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(runner.worker("--setup-only")["setup_s"])
    return plain, traced, setups


def end_to_end(plain: list[dict], setups: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    m = {name: statistics.median(r["layers"][name] for r in traced)
         for name in traced[0]["layers"]}
    m["trace.run_s"] = statistics.median(r["run_s"] for r in traced)
    m["trace.overhead_s"] = (m["trace.run_s"]
                             - statistics.median(r["run_s"] for r in plain))
    m["trace.spans"] = statistics.median(r["spans"] for r in traced)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    # SIGTERM becomes SystemExit, on which subprocess.run kills the running
    # repetition and waits for it, so no worker outlives the benchmark
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "graphbo" / "__init__.py").is_file():
        print(f"no graphbo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    runner = Runner(args.workload, args.seed, size)
    try:
        OUT.mkdir(parents=True, exist_ok=True)
        runner.compile()
        plain, traced, setups = collect(runner, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    e2e = end_to_end(plain, setups)
    ops = [t for r in plain for t in r["op_times"]]
    if args.trace:
        metrics, units = per_layer(plain, traced), LAYER_METRICS
    else:
        metrics, units = e2e, END_TO_END
    wl = WORKLOADS[args.workload]
    info = {
        "workload": args.workload, "seed": args.seed, "size": size,
        "inputs": SIZES[size][args.workload], "trace": args.trace,
        "seconds": args.seconds, "op": wl.op,
        "loop": "closed, 1 client, 1 process, 1 worker",
        "env": plain[0]["env"], "reps": len(plain), "traced_reps": len(traced),
        "setup_samples": len(setups),
        "op_samples": len(ops),
        "attempted": attempted, "failed": failed,
        "failures": [r["failures"] for r in reps if r["failures"]],
        "end_to_end": e2e, wl.alias: statistics.median(ops), "metrics": metrics,
        "spans_files": [r["spans_file"] for r in traced],
        "setups": setups,
        "repetitions": [{**{k: r[k] for k in RAW}, "traced": "spans" in r}
                        for r in reps],
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(info, indent=1))

    print(f"# {args.workload} seed={args.seed} size={size} trace={args.trace} "
          f"| {info['loop']} | reps={len(plain)} traced={len(traced)}")
    print("# inputs " + json.dumps(info["inputs"]))
    print("# env " + " ".join(f"{k}={v}" for k, v in info["env"].items()))
    print(f"# {'setup_s':<30} {e2e['setup_s']:.6f} s  (median of {len(setups)} fresh starts)")
    print(f"# {'run_s':<30} {e2e['run_s']:.6f} s  (median of {len(plain)} repetitions)")
    print(f"# {wl.alias:<30} {info[wl.alias]:.6f} s  "
          f"(median of {len(ops)}; one op = {wl.op})")
    print(f"# {'peak_rss_mb':<30} {e2e['peak_rss_mb']:.3f} MiB")
    print(f"# {'failed_frac':<30} {failed / attempted:.6f} ratio  "
          f"({failed} failed / {attempted} attempted)")
    if args.trace:
        for name, value in metrics.items():
            print(f"# {name:<30} {value:.6g} {units[name]}")
        print("# spans " + " ".join(info["spans_files"]))
    for failure in info["failures"][:3]:
        print("# FAILED " + json.dumps(failure)[:500])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
