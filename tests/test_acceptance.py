"""Acceptance criteria, one test per criterion, at the stated tolerances.

Criteria 1-7 and 9 are results that `modlift reproduce` reports too, so
their tests run the entries of `modlift.reproduce.REGISTRY` that they name
and time them; the checks themselves live only in that registry.  Criteria
8, 10 and 11 have no reproduce counterpart and are checked here.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line.  Criterion 2 and the
witness-certification clause of criterion 7 are expected to fail on this
build: the bundled 6-dimensional quaternion-group representation provably
lifts (the certificate re-verifies exactly), so those criteria are asserted
faithfully and left red rather than weakened.  The full analysis lives in
the project notes outside the package.
"""

import time

from conftest import random_invertible, random_valid_instance
from modlift.obstruction import GroupAlgebraElement, cyclic_witness, theta
from modlift.replift import Representation, brute_force_lift, check_lift, randomized_lifts
from modlift.reproduce import run_item
from modlift.rings import PrimeCtx


def _report(num: int, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} ({elapsed:.2f}s) {detail}".rstrip())


def _criterion(num: int, items, bound=None):
    """Run the named registry entries, report them, and assert them and the time bound."""
    t0 = time.perf_counter()
    rows = [(name, *run_item(name)) for name in items]
    elapsed = time.perf_counter() - t0
    ok = all(row_ok for _, row_ok, _ in rows)
    in_time = bound is None or elapsed < bound
    detail = "; ".join(f"[{'PASS' if row_ok else 'FAIL'}] {name}: {d}" for name, row_ok, d in rows)
    _report(num, ok and in_time, elapsed, detail)
    assert in_time, f"{elapsed:.2f}s exceeds the {bound}s bound"
    assert ok, detail


def test_criterion_1_klein():
    _criterion(1, ["klein-not-2-liftable"], bound=1.0)


def test_criterion_2_q8():
    # known red: the bundled 6-dim quaternion representation lifts (see project notes)
    _criterion(2, ["q8-not-2-liftable"], bound=1.0)


def test_criterion_3_c3c3():
    _criterion(3, ["c3c3-not-3-liftable"], bound=1.0)


def test_criterion_4_theta_witnesses():
    _criterion(4, ["theta-c9", "theta-c5", "theta-c7"])


def test_criterion_5_divisor_lifts():
    _criterion(5, ["divisor-lifts-p2", "divisor-lifts-p3"], bound=10.0)


def test_criterion_6_gap_sets():
    _criterion(6, ["jordan-gap-sets"])


def test_criterion_7_catalog():
    # the certification clause is known red: the Q-group witnesses lift
    _criterion(7, ["catalog-verdicts", "catalog-certification"], bound=30.0)


def test_criterion_8_oracle_equivalence(rng):
    t0 = time.perf_counter()
    agreements = 0
    total = 1000
    for _ in range(total):
        rep = random_valid_instance(
            rng, primes=[2, 2, 3], dims=[1, 2, 2, 3], gen_counts=[1, 1, 2],
            budget=1 << 20, max_relators=3,
        )
        v = check_lift(rep)
        bv = brute_force_lift(rep, budget=1 << 20)
        if v.liftable == bv.liftable:
            agreements += 1
    elapsed = time.perf_counter() - t0
    ok = agreements == total and elapsed < 60.0
    _report(8, ok, elapsed, f"({agreements}/{total} agree)")
    assert agreements == total
    assert elapsed < 60.0


def test_criterion_9_direct_sum_law():
    _criterion(9, ["direct-sum-law"])


def test_criterion_10_theta_well_defined(rng):
    t0 = time.perf_counter()
    ctx = PrimeCtx(3)
    f, h, _ = cyclic_witness(ctx, 2)
    g = f.group
    base = theta(g, f, h)
    ok = not base.is_zero
    for _ in range(100):
        lf = GroupAlgebraElement(g, 9, f.coeffs + 3 * rng.integers(0, 3, g.order))
        lh = GroupAlgebraElement(g, 9, h.coeffs + 3 * rng.integers(0, 3, g.order))
        cls = theta(g, f, h, lift_f=lf, lift_h=lh)
        ok &= cls.representative == base.representative
    elapsed = time.perf_counter() - t0
    _report(10, ok, elapsed)
    assert ok


def test_criterion_11_section_and_basis_invariance(rng, witness_suite):
    t0 = time.perf_counter()
    ok = True
    per_rep_sections = 100 // len(witness_suite) + 1
    per_rep_conj = per_rep_sections
    sections = conjugations = 0
    for name, rep, expected in witness_suite:
        for _ in range(per_rep_sections):
            v = check_lift(rep, naive_lifts=randomized_lifts(rep, rng))
            ok &= v.liftable == expected
            sections += 1
        for _ in range(per_rep_conj):
            c = random_invertible(rng, rep.ctx.p, rep.n)
            cinv = c.inv()
            conj = Representation(
                rep.ctx,
                rep.presentation,
                tuple(c @ m @ cinv for m in rep.gen_mats),
                rep.n,
            )
            ok &= check_lift(conj).liftable == expected
            conjugations += 1
    elapsed = time.perf_counter() - t0
    ok = ok and sections >= 100 and conjugations >= 100
    _report(11, ok, elapsed, f"({sections} sections, {conjugations} conjugations)")
    assert ok
