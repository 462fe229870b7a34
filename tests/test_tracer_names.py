"""The benchmark tracer (perfbench/spans.py) wraps padlab functions that it
names as strings.  A padlab function renamed or deleted without updating
that list would only surface when a traced benchmark run fails, so check
here that every traced name still resolves on its module."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = _load_spans().TRACED
    assert traced
    for mod, names in traced.items():
        module = importlib.import_module(f"padlab.{mod}")
        for dotted in names:  # "function" or "Class.method"
            obj = module
            for part in dotted.split("."):
                assert hasattr(obj, part), f"padlab.{mod}.{dotted} no longer exists"
                obj = getattr(obj, part)
            assert callable(obj), f"padlab.{mod}.{dotted} is not callable"
