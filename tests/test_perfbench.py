"""Smoke tests of the benchmark harness against the library.

The harness patches library functions by name (replift.validate_rep,
classify.is_listed_family, AffineSystem.checks_refutation and others), so a
rename in the library has to fail here rather than only in a benchmark run.
"""

import hashlib
import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modlift.replift import check_lift

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


# A change that alters a check_lift verdict, certificate or refutation on
# the benchmark's own inputs updates this digest and says why.
CHECK_LIFT_DIGEST = "f1c118003c444015aee794ccba09c40df274acb4684e2e95a9a2108a7f8865a6"


def test_check_lift_outputs_pinned(harness):
    """sha256 over the verdict, certificate matrices and refutation vector of
    every long-relator item and of the 100 search-small items, at seed 1."""
    _, workloads = harness
    d = hashlib.sha256()
    for item in workloads.long_relator(1) + workloads.search_small(1, 100):
        v = check_lift(item.rep)
        assert v.liftable == item.expect_liftable, item.label
        d.update(repr((item.label, v.liftable)).encode())
        if v.refutation is not None:
            d.update(np.asarray(v.refutation, dtype=np.int64).tobytes())
        for m in v.certificate.mats if v.certificate is not None else ():
            d.update(np.asarray(m.a, dtype=np.int64).tobytes())
    assert d.hexdigest() == CHECK_LIFT_DIGEST
