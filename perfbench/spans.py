"""In-memory span tracing around graphbo's layer boundaries.

Spans are recorded from the benchmark's own files: each traced function is
replaced, for the length of the timed region, by a wrapper in the module that
*calls* it (``from .x import f`` binds ``f`` in the caller, so patching the
defining module alone would miss those calls). The program is
single-threaded, so an explicit stack gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
from contextlib import contextmanager

# Layers whose self time is reported; "bench" is the benchmark's own loop.
LAYERS = ("graphs", "kernels", "gp", "encode", "modelio", "solve", "bo", "bench")

# (calling module, attribute, span name). The span name's prefix is the layer
# that does the work.
CALL_SITES = (
    ("graphbo.bo", "fit", "gp.fit"),
    ("graphbo.bo", "encode_acquisition", "encode.encode_acquisition"),
    ("graphbo.bo", "warm_start", "bo.warm_start"),
    ("graphbo.bo", "solve", "solve.solve"),
    ("graphbo.bo", "posterior", "gp.posterior"),
    ("graphbo.bo", "sample_feasible", "graphs.sample_feasible"),
    ("graphbo.bo", "gp_lcb", "gp.lcb"),
    ("graphbo.solve", "enumerate_domain", "graphs.enumerate"),
    ("graphbo.solve", "cross_gram", "kernels.cross_gram"),
    ("graphbo.solve", "gp_lcb", "gp.lcb"),
    ("graphbo.solve", "build_graph", "graphs.build_graph"),
    ("graphbo.graphs", "build_graph", "graphs.build_graph"),
    ("graphbo.graphs", "summarize", "graphs.summarize"),
    ("graphbo.gp", "factorize", "gp.factorize"),
)

GENERATORS = {"graphs.enumerate"}


def _solve_attrs(result, args, kwargs) -> dict:
    strategy = kwargs.get("strategy", args[4] if len(args) > 4
                          else "branch_and_propagate")
    return {"strategy": getattr(strategy, "value", strategy),
            "status": result.status, "nodes": result.nodes_explored,
            "gap": result.gap}


def _encode_attrs(mip, args, kwargs) -> dict:
    return {"vars": len(mip.variables), "rows": len(mip.constraints)}


ATTRS = {"solve.solve": _solve_attrs, "encode.encode_acquisition": _encode_attrs}


class Tracer:
    """Spans as ``[name, start, end, parent, attrs]`` rows, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if attrs is not None:
                self.spans[idx][4] = attrs(result, args, kwargs)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Span from the first ``next`` until the generator is exhausted."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            items = 0
            try:
                for item in fn(*args, **kwargs):
                    items += 1
                    yield item
            finally:
                self.spans[idx][4] = {"items": items}
                self._close(idx)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent}
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every call site in CALL_SITES and ``StackedSummaries.build``."""
    for module_name, attr, name in CALL_SITES:
        # importlib, because the package attribute ``graphbo.solve`` is the
        # solve function, not the module
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        wrapper = tracer.wrap_generator if name in GENERATORS else tracer.wrap
        patches.set(module, attr, wrapper(name, fn))
    stacked = importlib.import_module("graphbo.kernels").StackedSummaries
    patches.set(stacked, "build",
                staticmethod(tracer.wrap("kernels.stack", stacked.build)))


# ---------------------------------------------------------------------------
# per-layer metrics from one traced repetition

# name -> unit; every traced run reports all of them on every workload
LAYER_METRICS = {
    "graphs.enumerate.s": "s",
    "graphs.enumerate.graphs": "count",
    "graphs.build_graph.calls": "count",
    "graphs.build_graph.s": "s",
    "graphs.summarize.calls": "count",
    "graphs.summarize.s": "s",
    "graphs.sample_feasible.calls": "count",
    "graphs.sample_feasible.s": "s",
    "kernels.cross_gram.calls": "count",
    "kernels.cross_gram.s": "s",
    "kernels.stack.s": "s",
    "gp.fit.calls": "count",
    "gp.fit.s": "s",
    "gp.lml_evals": "count",
    "gp.lcb.calls": "count",
    "gp.lcb.s": "s",
    "gp.posterior.s": "s",
    "encode.calls": "count",
    "encode.s": "s",
    "encode.vars": "count",
    "encode.rows": "count",
    "modelio.export.s": "s",
    "modelio.read.s": "s",
    "modelio.bytes": "bytes",
    "solve.calls": "count",
    "solve.s": "s",
    "solve.cold_s": "s",
    "solve.warm_s_p50": "s",
    "solve.nodes": "count",
    "solve.nodes_per_s": "1/s",
    "solve.leaf_evals": "count",
    "solve.leaf_ratio": "ratio",
    "solve.optimal_frac": "ratio",
    "solve.gap_max": "objective",
    "bo.iterations": "count",
    "bo.warm_start.s": "s",
    "bo.oracle.calls": "count",
    "bo.oracle.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the part covered by direct children, per span."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], extra_bytes: int = 0) -> dict[str, float]:
    """Every LAYER_METRICS entry except the run-level ``trace.*`` figures."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    layer_s = {layer: 0.0 for layer in LAYERS}
    for (name, *_), t in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        layer_s[name.split(".", 1)[0]] += t

    # spans of calls that raised carry no attrs
    solves = [s for s in spans if s[0] == "solve.solve" and s[4]]
    solve_total = sum(s[2] - s[1] for s in solves)
    enum_durations = [s[2] - s[1] for s in solves
                      if s[4]["strategy"] == "enumerate"]
    nodes = sum(s[4]["nodes"] for s in solves)
    leaf_evals = sum(1 for s in spans
                     if s[0] == "gp.lcb" and s[3] >= 0
                     and spans[s[3]][0] == "solve.solve")
    bo_runs = {i for i, s in enumerate(spans) if s[0] == "bo.run"}

    def finished(name):
        return [s for s in spans if s[0] == name and s[4]]

    m = {
        "graphs.enumerate.s": self_s.get("graphs.enumerate", 0.0),
        "graphs.enumerate.graphs": sum(s[4]["items"] for s in finished("graphs.enumerate")),
        "graphs.build_graph.calls": calls.get("graphs.build_graph", 0),
        "graphs.build_graph.s": self_s.get("graphs.build_graph", 0.0),
        "graphs.summarize.calls": calls.get("graphs.summarize", 0),
        "graphs.summarize.s": self_s.get("graphs.summarize", 0.0),
        "graphs.sample_feasible.calls": calls.get("graphs.sample_feasible", 0),
        "graphs.sample_feasible.s": self_s.get("graphs.sample_feasible", 0.0),
        "kernels.cross_gram.calls": calls.get("kernels.cross_gram", 0),
        "kernels.cross_gram.s": self_s.get("kernels.cross_gram", 0.0),
        "kernels.stack.s": self_s.get("kernels.stack", 0.0),
        "gp.fit.calls": calls.get("gp.fit", 0),
        "gp.fit.s": self_s.get("gp.fit", 0.0),
        "gp.lml_evals": calls.get("gp.factorize", 0),
        "gp.lcb.calls": calls.get("gp.lcb", 0),
        "gp.lcb.s": self_s.get("gp.lcb", 0.0),
        "gp.posterior.s": self_s.get("gp.posterior", 0.0),
        "encode.calls": calls.get("encode.encode_acquisition", 0),
        "encode.s": self_s.get("encode.encode_acquisition", 0.0),
        "encode.vars": sum(s[4]["vars"] for s in finished("encode.encode_acquisition")),
        "encode.rows": sum(s[4]["rows"] for s in finished("encode.encode_acquisition")),
        "modelio.export.s": self_s.get("modelio.export", 0.0),
        "modelio.read.s": self_s.get("modelio.read", 0.0),
        "modelio.bytes": extra_bytes,
        "solve.calls": calls.get("solve.solve", 0),
        "solve.s": self_s.get("solve.solve", 0.0),
        "solve.cold_s": enum_durations[0] if enum_durations else 0.0,
        "solve.warm_s_p50": (statistics.median(enum_durations[1:])
                             if len(enum_durations) > 1 else 0.0),
        "solve.nodes": nodes,
        "solve.nodes_per_s": nodes / solve_total if solve_total > 0 else 0.0,
        "solve.leaf_evals": leaf_evals,
        "solve.leaf_ratio": leaf_evals / nodes if nodes else 0.0,
        "solve.optimal_frac": (sum(s[4]["status"] == "Optimal" for s in solves)
                               / calls["solve.solve"] if solves else 0.0),
        # an unbounded gap (no incumbent or no bound) already counts as failed
        "solve.gap_max": max((s[4]["gap"] for s in solves
                              if math.isfinite(s[4]["gap"])), default=0.0),
        "bo.iterations": sum(1 for s in spans
                             if s[0] == "gp.fit" and s[3] in bo_runs),
        "bo.warm_start.s": self_s.get("bo.warm_start", 0.0),
        "bo.oracle.calls": calls.get("bo.oracle", 0),
        "bo.oracle.s": self_s.get("bo.oracle", 0.0),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_s[layer]
    return m
