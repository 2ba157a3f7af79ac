"""The benchmark's traced run rebinds ``sparsett`` functions by name.

``perfbench/spans.py`` lists them as ``(module, function)`` pairs; a
rename or move in the package would silently drop a span, so every pair
must still resolve.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_traced(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up while building the class
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_name_resolves(monkeypatch):
    traced = load_traced(monkeypatch)
    assert traced
    missing = [
        f"{module}.{name}"
        for module, name in traced
        if not callable(getattr(importlib.import_module(f"sparsett.{module}"), name, None))
    ]
    assert not missing, f"traced names missing from the package: {missing}"
