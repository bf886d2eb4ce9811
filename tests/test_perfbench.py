"""The benchmark's tracer wraps slidecam attributes by name.

perfbench/spans.py installs a wrapper on each (module, attribute) pair in
BOUNDARIES. A module that stops importing one of those names breaks the
traced run, so check here that every pair still resolves.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_tracer_boundaries_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BOUNDARIES
    missing = [
        (module, attr)
        for module, attr, _name in spans.BOUNDARIES
        if not hasattr(importlib.import_module(f"slidecam.{module}"), attr)
    ]
    assert missing == []
