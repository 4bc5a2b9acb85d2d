"""Independent re-check of every verdict, run outside the timed region.

A lift certificate is re-checked with verify_certificate; a refutation c is
re-checked with plain numpy, c.A = 0 and c.b != 0 over F_p, against a system
freshly built by linearize, never with the solver's own checks_refutation.
A verdict bit-identical to one already re-checked for the same item is
accepted without repeating the work, so later passes stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from modlift.replift import LiftCertificate, linearize, verify_certificate
from modlift.rings import Mat


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    not_liftable: int = 0
    uncertified: int = 0             # NOT_LIFTABLE verdicts whose witness lifts
    reasons: list = field(default_factory=list)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def uncertified_witness_frac(self) -> float:
        return self.uncertified / self.not_liftable if self.not_liftable else 0.0


def lift_summary(verdict) -> tuple:
    """What the harness keeps of a LiftVerdict: (liftable, cert mats, c)."""
    if verdict.liftable:
        return (True, tuple(m.a.copy() for m in verdict.certificate.mats), None)
    return (False, None, np.array(verdict.refutation, dtype=np.int64))


def classify_summary(g, verdict) -> tuple:
    """What the harness keeps of a ClassificationVerdict."""
    if verdict.liftable:
        return (True, verdict.tag, None)
    bad = verdict.bad
    witness_ok = verdict.witness_level == "subgroup" or verdict.witness.presentation == g.presentation
    return (
        False,
        (bad.kind, bad.prime, verdict.certified, witness_ok),
        (verdict.witness, lift_summary(verdict.witness_verdict)),
    )


def refutes(rep, c) -> bool:
    """c.A = 0 and c.b != 0 against a freshly linearized system."""
    system = linearize(rep).system
    a, b, p = system.matrix, system.rhs, system.p
    if c is None or c.shape != (a.shape[0],) or not c.size or c.min() < 0 or c.max() >= p:
        return False
    return not ((c @ a) % p).any() and bool(int(c @ b) % p)


def certificate_holds(rep, mats) -> bool:
    return verify_certificate(rep, LiftCertificate(tuple(Mat(rep.ctx.p2, m) for m in mats)))


def lift_verdict_holds(rep, summary) -> bool:
    liftable, mats, c = summary
    return certificate_holds(rep, mats) if liftable else refutes(rep, c)


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and bool(np.array_equal(a, b))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a is b or a == b


class Judge:
    """Counts attempts, failures and uncertified witnesses over a run."""

    def __init__(self):
        self.tally = Tally()
        self._verified = {}          # item key -> summary already re-checked

    def record_error(self, label: str, exc: BaseException) -> None:
        self.tally.attempted += 1
        self.tally.failed += 1
        self.tally.reasons.append(f"{label}: raised {type(exc).__name__}: {exc}")

    def lift(self, key, item, summary) -> bool:
        t = self.tally
        t.attempted += 1
        liftable = summary[0]
        ok = liftable == item.expect_liftable
        why = f"expected {'LIFTABLE' if item.expect_liftable else 'NOT_LIFTABLE'}"
        if ok and not self._seen(key, summary):
            ok = lift_verdict_holds(item.rep, summary)
            why = "certificate or refutation failed the re-check"
            if ok:
                self._verified[key] = summary
        return self._count(ok, item.label, why)

    def classify(self, key, item, summary) -> bool:
        t = self.tally
        t.attempted += 1
        liftable, detail, witness = summary
        if liftable != item.expect_liftable:
            return self._count(False, item.label, "wrong classification")
        if liftable:
            return self._count(detail == item.expect_detail, item.label, f"tag {detail}")
        kind, prime, certified, witness_ok = detail
        t.not_liftable += 1
        if (kind, prime) != (item.expect_detail, item.expect_prime):
            return self._count(False, item.label, f"obstruction {kind} {prime}")
        rep, lift = witness
        # the solver's certified flag must agree with its own witness verdict
        if not witness_ok or certified == lift[0]:
            return self._count(False, item.label, "witness inconsistent with verdict")
        if not certified:
            t.uncertified += 1
            # only the bundled quaternion witness is known not to refute
            if kind != "Q8":
                return self._count(False, item.label, f"{kind} witness not refuted")
        if not self._seen(key, summary):
            if not lift_verdict_holds(rep, lift):
                return self._count(False, item.label, "witness verdict failed the re-check")
            self._verified[key] = summary
        return self._count(True, item.label, "")

    def _seen(self, key, summary) -> bool:
        prev = self._verified.get(key)
        return prev is not None and _same(prev, summary)

    def _count(self, ok: bool, label: str, why: str) -> bool:
        if not ok:
            self.tally.failed += 1
            self.tally.reasons.append(f"{label}: {why}")
        return ok
