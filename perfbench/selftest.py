#!/usr/bin/env python3
"""Self-test of the harness: its re-checks must catch wrong outputs.

Real verdicts are taken from the library, then tampered with before they
reach the judge: a corrupted certificate entry, a corrupted refutation entry
and a wrong expected verdict, for check_lift items and for the witnesses of
classify items.  Each must raise failed_frac above 0, both on the first
sight of an item and after the honest verdict of the same item has been
verified once (the shortcut that later passes take).  The honest verdicts
must give failed_frac = 0.

    python3 perfbench/selftest.py

Exits 0 when every tampering is caught.
"""

from __future__ import annotations

import dataclasses
import sys

from run import cap_threads, import_library


def _bump_certificate(summary, p2):
    liftable, mats, c = summary
    mats = tuple(m.copy() for m in mats)
    mats[0][0, 0] = (mats[0][0, 0] + 1) % p2
    return (liftable, mats, c)


def _bump_refutation(summary, rep):
    """Change one entry of c where the matching row of A is not zero."""
    from modlift.replift import linearize

    liftable, mats, c = summary
    system = linearize(rep).system
    row = int(next(i for i in range(system.rows) if system.matrix[i].any()))
    c = c.copy()
    c[row] = (c[row] + 1) % system.p
    return (liftable, mats, c)


def _with_witness(summary, witness_summary):
    liftable, detail, (rep, _) = summary
    return (liftable, detail, (rep, witness_summary))


def main() -> int:
    cap_threads()
    import_library()
    from checks import Judge, classify_summary, lift_summary
    from tracing import Tracer
    from workloads import (
        CLASSIFY_INDUCED, LiftItem, classify_specs, run_classify, run_lift, search_small,
    )

    idle = Tracer()
    small = search_small(3, 60)
    lifts = next(i for i in small if i.expect_liftable and i.rep.n <= 8)
    refuted = next(i for i in small if not i.expect_liftable and i.rep.n <= 8)
    by_spec = {i.label: i for i in classify_specs(CLASSIFY_INDUCED, 0)}
    q16, c18 = by_spec["Q 16"], by_spec["C 18"]

    honest = {
        "lifts": (lifts, lift_summary(run_lift(lifts, idle))),
        "refuted": (refuted, lift_summary(run_lift(refuted, idle))),
        "Q 16": (q16, classify_summary(*run_classify(q16, idle))),
        "C 18": (c18, classify_summary(*run_classify(c18, idle))),
    }

    def judge(j, item, summary):
        (j.lift if isinstance(item, LiftItem) else j.classify)(0, item, summary)

    # (what is wrong, honest item, item as judged, honest summary, summary as judged)
    cases = []
    item, s = honest["lifts"]
    cases.append(("corrupted certificate entry", item, item, s,
                  _bump_certificate(s, item.rep.ctx.p2)))
    cases.append(("wrong expected verdict", item,
                  dataclasses.replace(item, expect_liftable=False), s, s))
    item, s = honest["refuted"]
    cases.append(("corrupted refutation entry", item, item, s, _bump_refutation(s, item.rep)))
    cases.append(("wrong expected verdict", item,
                  dataclasses.replace(item, expect_liftable=True), s, s))
    item, s = honest["Q 16"]
    rep, w = s[2]
    cases.append(("corrupted witness certificate entry", item, item, s,
                  _with_witness(s, _bump_certificate(w, rep.ctx.p2))))
    item, s = honest["C 18"]
    rep, w = s[2]
    cases.append(("corrupted witness refutation entry", item, item, s,
                  _with_witness(s, _bump_refutation(w, rep))))
    cases.append(("wrong expected obstruction", item,
                  dataclasses.replace(item, expect_detail="C2xC2"), s, s))

    clean = Judge()
    for item, s in honest.values():
        judge(clean, item, s)
    print(f"honest verdicts: failed_frac {clean.tally.failed_frac}")
    ok = clean.tally.failed == 0
    for name, item, judged, good, bad in cases:
        first = Judge()
        judge(first, judged, bad)
        later = Judge()
        judge(later, item, good)
        judge(later, judged, bad)
        caught = first.tally.failed_frac > 0 and later.tally.failed > 0
        print(f"{name:36s} {item.label:24s} failed_frac on first sight "
              f"{first.tally.failed_frac:.3g}, after a verified pass "
              f"{later.tally.failed_frac:.3g}: {'caught' if caught else 'MISSED'}")
        ok &= caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
