"""The three closed-loop workloads: inputs from a seed, the timed region, checks.

Each workload has one client that waits for every operation before starting
the next, in one process with one worker, because BO is sequential.

- ``setup(seed, size)`` builds every input: domain, oracle, sampled data and,
  where the workload needs them, fitted models. It runs before the clock.
- ``run(inputs, traced, patches, workdir)`` is the timed region.
  ``traced(name, fn)`` returns ``fn`` or a span-recording wrapper; ``patches``
  collects attribute replacements that the caller undoes after the region;
  ``workdir`` takes any files the workload writes.
- ``check(inputs, outputs)`` returns ``(attempted, failures)`` and runs after
  the clock stops. ``failures`` maps each failed operation to its messages.
"""

from __future__ import annotations

import importlib
import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

BETA_SQRT = 1.0
# Today's slowest bnp_exact_small solve takes about 6.5 s; a solve that hits
# this budget ends FeasibleTimeLimit and is counted as a failure.
BNP_BUDGET_S = 20.0
CHECK_GRAPHS = 3  # sampled graphs per variant for the posterior check

SIZES = {
    "full": {
        # the test_08 configuration
        "bo_enum_n5": dict(n=5, labels=2, variant="ssp", initial=10,
                           iterations=15, warm=20, budget=600.0),
        "bnp_exact_small": dict(domains=((4, 2), (5, 1)), points=8),
        "mip_export_n6": dict(n=6, labels=2, points=100, breakpoints=64),
    },
    "smoke": {
        "bo_enum_n5": dict(n=4, labels=2, variant="ssp", initial=4,
                           iterations=2, warm=5, budget=600.0),
        "bnp_exact_small": dict(domains=((3, 2), (4, 1)), points=5),
        "mip_export_n6": dict(n=4, labels=2, points=12, breakpoints=16),
    },
}


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    check: Callable
    op: str      # what one operation is
    alias: str   # the name its median time goes by in the summary


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _oracle(graphbo_bo, n: int):
    return graphbo_bo.synthetic_oracle(
        "path_profile", {"target": graphbo_bo.path_profile_target(n)})


# ---------------------------------------------------------------------------
# bo_enum_n5: one full bo.run, cold candidate build included


def setup_bo(seed: int, size: dict) -> dict:
    import graphbo
    bo = importlib.import_module("graphbo.bo")
    domain = graphbo.DomainSpec(n=size["n"], num_labels=size["labels"])
    config = graphbo.BoConfig(
        variant=size["variant"], beta_sqrt=BETA_SQRT,
        initial_samples=size["initial"], iterations=size["iterations"],
        warm_start_count=size["warm"], seed=seed, strategy="enumerate",
        solver_budget=size["budget"])
    return {"domain": domain, "config": config, "oracle": _oracle(bo, size["n"])}


def run_bo(inp: dict, traced, patches, workdir) -> dict:
    bo = importlib.import_module("graphbo.bo")
    # iteration clock: one timestamp per fit call, which opens an iteration
    marks: list[float] = []
    results = []
    fit, solve = bo.fit, bo.solve

    def marked_fit(*args, **kwargs):
        marks.append(time.perf_counter())
        return fit(*args, **kwargs)

    def recorded_solve(*args, **kwargs):
        result = solve(*args, **kwargs)
        results.append(result)
        return result

    patches.set(bo, "fit", marked_fit)
    patches.set(bo, "solve", recorded_solve)
    oracle = inp["oracle"]
    oracle = bo.ObjectiveOracle(oracle.name, oracle.params,
                                traced("bo.oracle", oracle.fn))
    errors = []
    try:
        history = traced("bo.run", bo.run)(oracle, inp["domain"], inp["config"])
    except Exception as exc:  # counted, never fatal: the run must report
        history = getattr(exc, "history", bo.BoHistory())
        errors.append(_failure(exc))
    end = time.perf_counter()
    op_times = [b - a for a, b in zip(marks, marks[1:] + [end])]
    return {"history": history, "results": results, "op_times": op_times,
            "errors": errors}


def check_bo(inp: dict, out: dict) -> tuple[int, dict]:
    import graphbo
    config = inp["config"]
    bad = checks.check_bo_history(
        out["history"].records, out["results"],
        initial_samples=config.initial_samples, iterations=config.iterations,
        domain=inp["domain"], oracle=inp["oracle"],
        domain_feasible=graphbo.domain_feasible)
    failures = {f"record {i}": [msg] for i, msg in sorted(bad.items())}
    if out["errors"]:
        # an aborted run shows up as missing records; attach the reason
        key = next(iter(failures), "run")
        failures.setdefault(key, []).extend(out["errors"])
    return config.initial_samples + config.iterations, failures


# ---------------------------------------------------------------------------
# bnp_exact_small: branch-and-propagate solves to a certified optimum


def setup_bnp(seed: int, size: dict) -> dict:
    import graphbo
    bo = importlib.import_module("graphbo.bo")
    rng = np.random.default_rng(seed)
    cases = []
    for n, labels in size["domains"]:
        domain = graphbo.DomainSpec(n=n, num_labels=labels)
        oracle = _oracle(bo, n)
        for variant in graphbo.KernelVariant:
            # the BO loop's kind of data: repeated profiles are allowed
            points = [graphbo.sample_feasible(domain, rng)
                      for _ in range(size["points"])]
            y = [oracle(g) for g in points]
            model = graphbo.fit(points, y, variant,
                                seed=int(rng.integers(2 ** 31)))
            cases.append((domain, model))
    return {"cases": cases}


def run_bnp(inp: dict, traced, patches, workdir) -> dict:
    solve = traced("solve.solve", importlib.import_module("graphbo.solve").solve)
    results, op_times = [], []
    for domain, model in inp["cases"]:
        start = time.perf_counter()
        try:
            result = solve(model, domain, BETA_SQRT, BNP_BUDGET_S,
                           "branch_and_propagate")
        except Exception as exc:  # counted, never fatal
            result = exc
        op_times.append(time.perf_counter() - start)
        results.append(result)
    return {"results": results, "op_times": op_times}


def check_bnp(inp: dict, out: dict) -> tuple[int, dict]:
    solve = importlib.import_module("graphbo.solve").solve
    failures = {}
    for i, ((domain, model), result) in enumerate(zip(inp["cases"], out["results"])):
        if isinstance(result, Exception):
            msgs = [_failure(result)]
        else:
            enumerated = solve(model, domain, BETA_SQRT, strategy="enumerate")
            msgs = checks.check_bnp(result, enumerated)
        if msgs:
            failures[f"solve {i}"] = msgs
    return len(inp["cases"]), failures


# ---------------------------------------------------------------------------
# mip_export_n6: fit -> encode -> MPS/LP export -> read back


def kernel_profile(graph, variant) -> tuple:
    """Everything the variant's combined kernel can see of a graph."""
    s = graph.summary
    part = s.labeled_counts.ravel() if variant.labeled else s.length_counts
    return (graph.n, tuple(part.tolist()), tuple(s.feature_sums.tolist()))


def setup_mip(seed: int, size: dict) -> dict:
    import graphbo
    bo = importlib.import_module("graphbo.bo")
    rng = np.random.default_rng(seed)
    domain = graphbo.DomainSpec(n=size["n"], num_labels=size["labels"])
    oracle = _oracle(bo, size["n"])
    cases = []
    for variant in graphbo.KernelVariant:
        points = [graphbo.sample_feasible(domain, rng) for _ in range(size["points"])]
        y = [oracle(g) for g in points]
        # check graphs off the training profiles: there sigma ~ 0 and the
        # square root would amplify roundoff beyond the tolerance
        seen = {kernel_profile(g, variant) for g in points}
        probes = []
        while len(probes) < CHECK_GRAPHS:
            g = graphbo.sample_feasible(domain, rng)
            if kernel_profile(g, variant) not in seen:
                probes.append(g)
        cases.append({"variant": variant, "points": points, "y": y,
                      "fit_seed": int(rng.integers(2 ** 31)), "probes": probes})
    return {"domain": domain, "cases": cases, "breakpoints": size["breakpoints"]}


def run_mip(inp: dict, traced, patches, workdir) -> dict:
    import graphbo
    fit = traced("gp.fit", graphbo.fit)
    encode = traced("encode.encode_acquisition", graphbo.encode_acquisition)
    export = traced("modelio.export", graphbo.export_model)
    readers = {"mps": traced("modelio.read", graphbo.read_mps),
               "lp": traced("modelio.read", graphbo.read_lp)}
    outputs, op_times, written = [], [], 0
    for i, case in enumerate(inp["cases"]):
        start = time.perf_counter()
        try:
            model = fit(case["points"], case["y"], case["variant"],
                        seed=case["fit_seed"])
            mip = encode(model, inp["domain"], BETA_SQRT)
            files = {}
            for fmt, read in readers.items():
                path = os.path.join(workdir, f"model{i}.{fmt}")
                flat = export(mip, path, fmt=fmt, breakpoints=inp["breakpoints"])
                files[fmt] = (flat, read(path))
                written += os.path.getsize(path)
            outputs.append((model, mip, files))
        except Exception as exc:  # counted, never fatal
            outputs.append(exc)
        op_times.append(time.perf_counter() - start)
    return {"outputs": outputs, "op_times": op_times, "bytes": written}


def check_mip(inp: dict, out: dict) -> tuple[int, dict]:
    posterior = importlib.import_module("graphbo.gp").posterior
    failures = {}
    for case, result in zip(inp["cases"], out["outputs"]):
        if isinstance(result, Exception):
            msgs = [_failure(result)]
        else:
            model, mip, files = result
            msgs = [m for fmt, (flat, parsed) in files.items()
                    for m in checks.check_export(flat, parsed, fmt)]
            msgs += checks.check_posterior(mip, model, case["probes"], posterior)
        if msgs:
            failures[case["variant"].value] = msgs
    return len(inp["cases"]), failures


WORKLOADS = {
    "bo_enum_n5": Workload(setup_bo, run_bo, check_bo, "BO iteration", "iter_s_p50"),
    "bnp_exact_small": Workload(setup_bnp, run_bnp, check_bnp,
                                "branch-and-propagate solve", "solve_s_p50"),
    "mip_export_n6": Workload(setup_mip, run_mip, check_mip,
                              "variant fit->encode->export->read", "variant_s_p50"),
}
