"""The benchmark tracer's hooks name attributes the library still has.

The tracer (perfbench/tracing.py) replaces module attributes with timing
wrappers; one that no longer resolves would fail only in a traced
benchmark run, so every hook is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attribute}"
        for module, attribute, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert missing == []
