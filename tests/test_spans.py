"""The benchmark's tracer wraps fcakit functions by name; each must exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).parent.parent / "bench" / "spans.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [t for table in (spans.SPANS, spans.TALLIES) for ts in table.values() for t in ts]
    assert len(targets) > 20
    missing = [
        (module, attr)
        for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
