"""Spans around the public calls into each layer, and the per-layer table.

The traced run wraps the library functions that check_lift and classify
call through their module globals, so the spans come from the benchmark's
own code and the library itself is unchanged.  Spans are kept in memory
(name, start, end, parent, pass, attributes) and written out when the run
ends; every per-layer metric is derived from them, as self time (a span's
duration minus the time its child spans cover) summed over a pass.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

from modlift.rings import AffineSystem, Consistent

# the package re-exports a function named `classify`, which hides the module
classify_mod = importlib.import_module("modlift.classify")
replift_mod = importlib.import_module("modlift.replift")


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_no", "attrs")

    def __init__(self, name, start, parent, pass_no):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.pass_no = pass_no
        self.attrs = {}


class Tracer:
    """Records spans while `recording`; otherwise every span is a no-op."""

    def __init__(self, recording: bool = False):
        self.recording = recording
        self.pass_no = -1
        self.spans = []
        self._open = []              # indices of the spans not yet closed
        self._null = Span("", 0, -1, -1)

    @property
    def current(self):
        return self.spans[self._open[-1]].name if self._open else None

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield self._null
            return
        parent = self._open[-1] if self._open else -1
        s = Span(name, time.perf_counter_ns(), parent, self.pass_no)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter_ns()
            self._open.pop()

    def dump(self, path) -> None:
        rows = [
            [s.name, s.start, s.end, s.parent, s.pass_no, s.attrs or None]
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "pass", "attrs"], "spans": rows}, f)


@contextmanager
def patched(tracer: Tracer):
    """Route the calls check_lift and classify make into each layer through spans."""

    def wrap(fn, name, after=None):
        def traced(*args, **kwargs):
            with tracer.span(name) as s:
                out = fn(*args, **kwargs)
                if after is not None and tracer.recording:
                    after(s, args, out)
                return out

        return traced

    def letters(s, args, out):
        s.attrs["letters"] = sum(len(w) for w in args[0].presentation.relators)

    def shape(s, args, out):
        system = args[0]
        s.attrs["rows"] = system.rows
        s.attrs["cols"] = system.cols
        s.attrs["refuted"] = not isinstance(out, Consistent)

    checks_refutation = AffineSystem.checks_refutation

    def traced_checks_refutation(self, c):
        # the solver re-checks its own functional; that stays solve time
        if tracer.current == "rings.solve":
            return checks_refutation(self, c)
        with tracer.span("rings.refutation_check"):
            return checks_refutation(self, c)

    targets = [
        (replift_mod, "validate_rep", wrap(replift_mod.validate_rep, "replift.validate")),
        (replift_mod, "linearize", wrap(replift_mod.linearize, "replift.linearize", letters)),
        (replift_mod, "solve_affine", wrap(replift_mod.solve_affine, "rings.solve", shape)),
        (replift_mod, "verify_certificate", wrap(replift_mod.verify_certificate, "replift.verify")),
        (classify_mod, "check_lift", wrap(classify_mod.check_lift, "replift.check_lift")),
        (classify_mod, "find_subgroup_witness", wrap(classify_mod.find_subgroup_witness, "groups.find_witness")),
        (classify_mod, "is_listed_family", wrap(classify_mod.is_listed_family, "groups.listed_family")),
        (AffineSystem, "checks_refutation", traced_checks_refutation),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, fn in targets:
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


# metric name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "formats.parse_ms": ("ms", "lower"),
    "replift.validate_ms": ("ms", "lower"),
    "replift.linearize_ms": ("ms", "lower"),
    "replift.relator_letters": ("count", "lower"),
    "replift.verify_ms": ("ms", "lower"),
    "replift.check_other_ms": ("ms", "lower"),
    "rings.solve_consistent_ms": ("ms", "lower"),
    "rings.solve_refuted_ms": ("ms", "lower"),
    "rings.refutation_check_ms": ("ms", "lower"),
    "rings.system_rows": ("count", "lower"),
    "rings.system_cols": ("count", "lower"),
    "rings.system_mb": ("MB", "lower"),
    "rings.refuted_share": ("ratio", "lower"),
    "groups.build_ms": ("ms", "lower"),
    "groups.audit_ms": ("ms", "lower"),
    "groups.find_witness_ms": ("ms", "lower"),
    "groups.listed_family_ms": ("ms", "lower"),
    "groups.order": ("count", "lower"),
    "classify.witness_build_ms": ("ms", "lower"),
    "classify.witness_dim": ("count", "lower"),
    "classify.uncertified_witness_frac": ("ratio", "lower"),
    "harness.traced_verdicts_per_s": ("1/s", "higher"),
}

# span name -> metric receiving its self time
_SELF_TIME = {
    "formats.parse": "formats.parse_ms",
    "replift.validate": "replift.validate_ms",
    "replift.linearize": "replift.linearize_ms",
    "replift.verify": "replift.verify_ms",
    "replift.check_lift": "replift.check_other_ms",
    "rings.refutation_check": "rings.refutation_check_ms",
    "groups.build": "groups.build_ms",
    "groups.audit": "groups.audit_ms",
    "groups.find_witness": "groups.find_witness_ms",
    "groups.listed_family": "groups.listed_family_ms",
    "classify.classify": "classify.witness_build_ms",
}


_PER_PASS = set(_SELF_TIME.values()) | {
    "rings.solve_consistent_ms",
    "rings.solve_refuted_ms",
    "replift.relator_letters",
    "groups.order",
    "classify.witness_dim",
}


def per_layer(spans, passes: int) -> dict:
    """Per-layer metrics of the timed passes.

    Times and counts are summed over the run and divided by the number of
    passes; the system shape is the largest one solved; the two metrics not
    derived from spans (uncertified share, traced throughput) are left at 0
    for the caller.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end - s.start
    out = dict.fromkeys(PER_LAYER, 0.0)
    solves = refuted = 0
    for s, inner in zip(spans, child_ns):
        if s.pass_no < 0:
            continue
        self_ms = (s.end - s.start - inner) / 1e6
        a = s.attrs
        if s.name == "rings.solve":
            solves += 1
            refuted += a["refuted"]
            out["rings.solve_refuted_ms" if a["refuted"] else "rings.solve_consistent_ms"] += self_ms
            out["rings.system_rows"] = max(out["rings.system_rows"], a["rows"])
            out["rings.system_cols"] = max(out["rings.system_cols"], a["cols"])
            out["rings.system_mb"] = max(out["rings.system_mb"], a["rows"] * a["cols"] * 8 / 1e6)
        elif s.name in _SELF_TIME:
            out[_SELF_TIME[s.name]] += self_ms
        if s.name == "replift.linearize":
            out["replift.relator_letters"] += a["letters"]
        elif s.name == "groups.build":
            out["groups.order"] += a["order"]
        elif s.name == "classify.classify":
            out["classify.witness_dim"] += a["witness_dim"]
    for name in _PER_PASS:
        out[name] /= passes
    out["rings.refuted_share"] = refuted / solves if solves else 0.0
    return out
