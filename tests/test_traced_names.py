"""The benchmark's traced run rebinds ``sparsett`` functions by name.

``perfbench/spans.py`` lists them as ``(module, function)`` pairs; a
rename or move in the package would silently drop a span, so every pair
must still resolve, and the benchmark's own self-test must pass.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def test_benchmark_selftest_passes():
    # Fails when a refactor stops a traced span from firing where the
    # workloads expect it, or breaks a workload's output check.
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
