"""Smoke tests of the benchmark harness against the library.

The harness patches library functions by name (replift.validate_rep,
classify.is_listed_family, AffineSystem.checks_refutation and others), so a
rename in the library has to fail here rather than only in a benchmark run.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


def test_harness_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "MISSED" not in proc.stdout


def test_traced_run_records_each_layer(harness):
    tracing, workloads = harness
    originals = (tracing.replift_mod.linearize, tracing.classify_mod.find_subgroup_witness)
    tracer = tracing.Tracer(recording=True)
    with tracing.patched(tracer):
        for name, wl in workloads.WORKLOADS.items():
            wl.run(wl.make(1)[0], tracer)
    names = {s.name for s in tracer.spans}
    assert {"replift.linearize", "rings.solve", "groups.find_witness"} <= names
    assert (tracing.replift_mod.linearize, tracing.classify_mod.find_subgroup_witness) == originals
