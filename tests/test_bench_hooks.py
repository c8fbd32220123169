"""The benchmark's span hooks name attributes of the package: a traced run
wraps each (module, attribute) pair of ``perfbench/spans.py``'s
``CALL_SITES`` through ``getattr``, so every pair must resolve. Some names
exist only for those hooks (``solve.enumerate_domain``,
``solve.cross_gram``)."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    """``perfbench/spans.py`` as a module, loaded by path without writing
    its bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_call_site_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.CALL_SITES
    missing = [(module_name, attr) for module_name, attr, _ in spans.CALL_SITES
               if not callable(getattr(importlib.import_module(module_name), attr, None))]
    assert not missing
    assert callable(importlib.import_module("graphbo.kernels").StackedSummaries.build)
