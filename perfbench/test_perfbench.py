"""The benchmark's own tests: checker self-test, smoke runs, contract checks.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import LAYER_METRICS, LAYERS, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import graphbo  # noqa: E402
from graphbo.bo import BoConfig, path_profile_target, run, synthetic_oracle  # noqa: E402

# ---------------------------------------------------------------------------
# checker self-test: a wrong answer handed to a checker is counted


@pytest.fixture(scope="module")
def small_bo():
    domain = graphbo.DomainSpec(n=3, num_labels=2)
    oracle = synthetic_oracle("path_profile", {"target": path_profile_target(3)})
    config = BoConfig(initial_samples=3, iterations=2, warm_start_count=2,
                      seed=4, strategy="enumerate", fit_restarts=2)
    history = run(oracle, domain, config)
    results = [SimpleNamespace(status="Optimal", gap=0.0)] * config.iterations
    return domain, oracle, config, history, results


def _bo_failures(small_bo, records=None, results=None):
    domain, oracle, config, history, good = small_bo
    return checks.check_bo_history(
        history.records if records is None else records,
        good if results is None else results,
        initial_samples=config.initial_samples, iterations=config.iterations,
        domain=domain, oracle=oracle, domain_feasible=graphbo.domain_feasible)


def test_bo_checker_accepts_the_real_history(small_bo):
    assert _bo_failures(small_bo) == {}


def test_bo_checker_counts_wrong_answers(small_bo):
    records = list(small_bo[3].records)
    wrong_y = dataclasses.replace(records[1], y=records[1].y + 1.0)
    assert 1 in _bo_failures(small_bo, records[:1] + [wrong_y] + records[2:])
    wrong_best = dataclasses.replace(records[4], best_y=records[4].best_y - 1.0)
    assert 4 in _bo_failures(small_bo, records[:4] + [wrong_best])
    assert set(_bo_failures(small_bo, records[:3])) == {3, 4}
    limited = [SimpleNamespace(status="FeasibleTimeLimit", gap=0.5)] * 2
    assert set(_bo_failures(small_bo, results=limited)) == {3, 4}
    gap = [SimpleNamespace(status="Optimal", gap=1e-3)] * 2
    assert set(_bo_failures(small_bo, results=gap)) == {3, 4}


def test_bnp_checker_counts_wrong_answers():
    exact = SimpleNamespace(status="Optimal", objective=-0.25)
    assert checks.check_bnp(SimpleNamespace(status="Optimal", objective=-0.25), exact) == []
    assert checks.check_bnp(SimpleNamespace(status="Optimal", objective=-0.2499), exact)
    assert checks.check_bnp(SimpleNamespace(status="FeasibleTimeLimit",
                                            objective=-0.25), exact)
    assert checks.check_bnp(SimpleNamespace(status="Optimal", objective=math.nan), exact)


@pytest.fixture(scope="module")
def small_mip(tmp_path_factory):
    rng = np.random.default_rng(3)
    domain = graphbo.DomainSpec(n=3, num_labels=2)
    points = [graphbo.sample_feasible(domain, rng) for _ in range(4)]
    model = graphbo.fit(points, rng.normal(size=4), graphbo.KernelVariant.SSP,
                        seed=0, restarts=2)
    mip = graphbo.encode_acquisition(model, domain, 1.0)
    path = tmp_path_factory.mktemp("mip") / "model.mps"
    flat = graphbo.export_model(mip, path, fmt="mps", breakpoints=8)
    return domain, model, mip, flat, graphbo.read_mps(path)


def test_export_checker_counts_wrong_answers(small_mip):
    _, _, _, flat, parsed = small_mip
    assert checks.check_export(flat, parsed, "mps") == []
    fewer = dataclasses.replace(parsed, constraints=parsed.constraints[:-1])
    assert checks.check_export(flat, fewer, "mps")
    name = next(iter(parsed.objective))
    shifted = dataclasses.replace(
        parsed, objective={**parsed.objective, name: parsed.objective[name] + 1.0})
    assert checks.check_export(flat, shifted, "mps")


def test_posterior_checker_counts_wrong_answers(small_mip):
    domain, model, mip, _, _ = small_mip
    probe = [graphbo.sample_feasible(domain, 11)]
    assert checks.check_posterior(mip, model, probe, graphbo.posterior) == []

    def off_by_1e6(gp_model, graph):
        mu, var = graphbo.posterior(gp_model, graph)
        return mu + 1e-6, var

    assert checks.check_posterior(mip, model, probe, off_by_1e6)


# ---------------------------------------------------------------------------
# span bookkeeping


def test_self_times_subtract_direct_children():
    spans = [["bench.run", 0.0, 10.0, -1, None],
             ["gp.fit", 1.0, 4.0, 0, None],
             ["gp.factorize", 2.0, 3.0, 1, None],
             ["solve.solve", 5.0, 9.0, 0, None]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_generator_span_lasts_until_exhausted():
    tracer = Tracer()
    gen = tracer.wrap_generator("graphs.enumerate", lambda: iter(range(3)))
    with tracer.span("bench.run"):
        assert list(gen()) == [0, 1, 2]
    name, start, end, parent, attrs = tracer.spans[1]
    assert (name, parent, attrs) == ("graphs.enumerate", 0, {"items": 3})
    assert layer_metrics(tracer.spans)["graphs.enumerate.graphs"] == 3


def test_a_raising_call_keeps_its_span_and_metrics():
    tracer = Tracer()

    def fails(*args, **kwargs):
        raise ValueError("no incumbent")

    solve = tracer.wrap("solve.solve", fails)
    with tracer.span("bench.run"):
        with pytest.raises(ValueError):
            solve(None, None, 1.0)
    m = layer_metrics(tracer.spans)
    assert (m["solve.calls"], m["solve.nodes"], m["solve.optimal_frac"]) == (1, 0, 0.0)


# ---------------------------------------------------------------------------
# smoke runs: every metric printed with its unit, nothing failed


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = LAYER_METRICS if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    summary = "\n".join(lines[:-1])
    printed = {**END_TO_END, WORKLOADS[workload].alias: "s", "failed_frac": "ratio",
               **(LAYER_METRICS if trace else {})}
    for name, unit in printed.items():
        assert any(line.split()[1] == name and f" {unit}" in line
                   for line in lines[:-1]), f"{name} [{unit}] not printed"
    assert "failed_frac                    0.000000 ratio" in summary
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        # the root span sits just inside the clock that gives trace.run_s
        assert layers == pytest.approx(m["trace.run_s"], abs=1e-3)
        assert "# spans perfbench/out/spans/" in summary


def _fresh_copy(dest: Path, with_sources: bool) -> None:
    """BENCHMARK.json and perfbench/ as a clean checkout has them."""
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)


def test_runs_in_a_clean_checkout(tmp_path):
    _fresh_copy(tmp_path, with_sources=True)
    proc = _bench("--workload", "mip_export_n6", "--seed", "1", "--seconds", "1",
                  "--trace", "0", "--smoke", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]


def test_refuses_a_directory_without_sources(tmp_path):
    _fresh_copy(tmp_path, with_sources=False)
    proc = _bench("--workload", "bo_enum_n5", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _workers(seed: str) -> list[str]:
    """Running worker.py processes of this seed, read from /proc."""
    found = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            args = cmdline.read_bytes().split(b"\0")
        except OSError:
            continue
        if any(a.endswith(b"worker.py") for a in args) and seed.encode() in args:
            found.append(cmdline.parent.name)
    return found


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
def test_sigterm_stops_the_running_repetition():
    seed = "918273"
    proc = subprocess.Popen([sys.executable, "perfbench/run.py", "--workload",
                             "bnp_exact_small", "--seed", seed, "--seconds", "60",
                             "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    try:
        deadline = time.monotonic() + 60
        while not _workers(seed):
            assert time.monotonic() < deadline, "no repetition started"
            time.sleep(0.2)
        proc.terminate()
        out, _ = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode != 0
    assert out.strip() == ""
    assert _workers(seed) == []
