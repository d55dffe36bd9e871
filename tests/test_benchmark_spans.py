"""Every function the benchmark's tracer wraps exists under its traced name."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    traced = load_spans().TRACED
    assert traced
    missing = []
    for qualname in traced:
        home, attr = qualname.split(".")
        fn = getattr(importlib.import_module(f"ytensor.{home}"), attr, None)
        if not callable(fn):
            missing.append(qualname)
    assert not missing, missing
