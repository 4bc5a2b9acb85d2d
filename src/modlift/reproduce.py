"""The registry of results behind ``modlift reproduce`` and the acceptance suite.

REGISTRY is an ordered table of named checks.  Each re-derives one
published-style result with independent checks (solver + certificate
verification, exact polynomial arithmetic, obstruction classes) and returns
``(ok, detail)``.  ``modlift reproduce`` runs the whole table in order;
tests/test_acceptance.py runs the entries that each acceptance criterion
names, so every result is checked in this one place.  Entries are
deterministic.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Tuple

import numpy as np

from .classify import (
    c3c3_witness_rep,
    catalog_classifications,
    induced_witness,
    klein_witness_rep,
    quaternion_witness_rep,
)
from .cyclic_lift import (
    companion_lift,
    cyclotomic_factors,
    find_divisor_lift,
    jordan_companion_rep,
    liftable_jordan_sizes,
)
from .formats import format_representation, parse_representation
from .groups import (
    FiniteGroup,
    cyclic_group,
    direct_product_cyclic,
    find_subgroup_witness,
    generalized_quaternion,
    is_listed_family,
    sylow,
    transversal,
)
from .obstruction import (
    GroupAlgebraElement,
    cyclic_witness,
    module_of_quotient,
    one_minus_generator,
    q_polynomial,
    theta,
)
from .replift import (
    Representation,
    check_lift,
    direct_sum,
    linearize,
    merge_kernel_element,
    verify_certificate,
)
from .rings import (
    Consistent,
    Mat,
    Poly,
    PrimeCtx,
    binom_div_p,
    nullspace,
    solve_affine,
    split_kernel_element,
)

Result = Tuple[bool, str]


def _kernel_structure() -> Result:
    rng = np.random.default_rng(0)
    for p in (2, 3, 5):
        p2 = p * p
        for n in (1, 2, 4):
            x = Mat(p, rng.integers(0, p, (n, n)))
            m = merge_kernel_element(x, p)
            if split_kernel_element(m, p) != x:
                return False, f"round trip failed at p={p} n={n}"
            if not (m ** p).is_identity():
                return False, f"kernel element not of exponent {p}"
    return True, "1 + pX round trips and has exponent p"


def _matrix_facts() -> Result:
    x = Mat(2, [[0, 1], [1, 1]])
    one = Mat.identity(2, 2)
    if (x @ x) + x + one != Mat.zeros(2, 2):
        return False, "x^2 + x + 1 != 0"
    if x.inv() != x @ x:
        return False, "x^-1 != x^2"
    comp = Mat(4, [[0, 0, 3], [1, 0, 3], [0, 1, 3]])
    if not (comp ** 4).is_identity():
        return False, "companion of t^3+t^2+t+1 does not have order dividing 4 over Z/4"
    return True, "x^2+x+1 = 0 in M_2(F_2); companion order checks"


def _klein() -> Result:
    # exercise the text format on the way: emit, re-parse, then decide
    rep = parse_representation(format_representation(klein_witness_rep()))
    v = check_lift(rep)
    if v.liftable:
        return False, "4-dim Klein representation lifted"
    # the one-generator core of the hand derivation: A + sAs^-1 = defect
    pres_c2 = cyclic_group(2)[0]
    s = Mat(2, [[1, 1], [0, 1]])
    small = Representation(PrimeCtx(2), pres_c2, (s,), 2)
    # expect solutions with a21 = 0 and a11 + a22 = 1
    system = linearize(small).system
    res = solve_affine(system)
    if not isinstance(res, Consistent) or not system.is_solution(res.particular):
        return False, "C2 unipotent system has no verified solution"
    for vec in [res.particular] + [
        (res.particular + t) % 2 for t in nullspace(system.matrix, 2)
    ]:
        a11, _, a21, a22 = int(vec[0]), int(vec[1]), int(vec[2]), int(vec[3])
        if a21 != 0 or (a11 + a22) % 2 != 1:
            return False, "solution violates the hand constraint pattern"
    return True, "not 2-liftable; refutation verified; hand constraints reproduced"


def _q8() -> Result:
    rep = quaternion_witness_rep()
    v = check_lift(rep)
    if v.liftable:
        ok = verify_certificate(rep, v.certificate)
        return False, (
            "6-dim representation lifts (certificate "
            + ("verifies" if ok else "INVALID")
            + "); expected not 2-liftable"
        )
    return True, "not 2-liftable; refutation verified"


def _c3c3() -> Result:
    v = check_lift(c3c3_witness_rep())
    if v.liftable:
        return False, "3-dim representation lifted"
    return True, "not 3-liftable; refutation verified"


def _theta_cyclic(p: int, n: int) -> Result:
    ctx = PrimeCtx(p)
    f, h, m = cyclic_witness(ctx, n)
    cls = theta(f.group, f, h)
    if cls.is_zero:
        return False, f"theta vanished at (p,n)=({p},{n})"
    b = binom_div_p(p ** n, p ** (n - 1), ctx)
    if (p, n) == (3, 2) and b % 3 != 1:
        return False, f"binom(9, 3)/3 = {b} mod 3, expected 1"
    coeff = q_polynomial(ctx, n).coeff(m - 1)
    if coeff == 0 or coeff not in (b % p, (-b) % p):
        return False, f"s^{m-1} coefficient {coeff} inconsistent with binomial {b}"
    rep = module_of_quotient(f.group, h)
    if rep.n != p ** n - m:
        return False, f"module dimension {rep.n} != p^n - m = {p ** n - m}"
    v = check_lift(rep)
    if v.liftable:
        return False, f"{rep.n}-dim quotient module lifted"
    return True, f"theta != 0, coefficient = +-{b}, {rep.n}-dim module refuted"


def _theta_vanishing() -> Result:
    rng = np.random.default_rng(1)
    cases = [(2, 2), (2, 4), (2, 8), (3, 3)]
    tested = 0
    for p, order in cases:
        _, g = cyclic_group(order)
        s = one_minus_generator(g, p)
        for d in range(1, order):
            f = s ** d
            h = s ** (order - d)
            if f.is_zero() or h.is_zero() or not (f * h).is_zero():
                continue
            if not theta(g, f, h).is_zero:
                return False, f"theta != 0 on C{order} at p={p}, d={d}"
            tested += 1
        for _ in range(20):
            f = GroupAlgebraElement(g, p, rng.integers(0, p, order))
            # solve f * h = 0 for h by nullspace of left-multiplication by f
            lm = np.zeros((order, order), dtype=np.int64)
            for x in range(order):
                col = (f * GroupAlgebraElement.basis(g, p, x)).coeffs
                lm[:, x] = col
            for vec in nullspace(lm, p)[:4]:
                h = GroupAlgebraElement(g, p, vec)
                if h.is_zero():
                    continue
                if not theta(g, f, h).is_zero:
                    return False, f"theta != 0 on liftable C{order} (p={p})"
                tested += 1
    return True, f"theta = 0 on {tested} zero-product pairs over liftable cyclic groups"


def _divisor_lifts_p2() -> Result:
    ctx = PrimeCtx(2)
    # the binary-digit product: i = 5 = 2^0 + 2^2 lifts to (t+1)(t^4+1)
    P5 = find_divisor_lift(ctx, 3, 5)
    if P5 != Poly([1, 1]) * Poly([1, 0, 0, 0, 1]):
        return False, f"P_5 = {P5}, expected (t+1)(t^4+1)"
    count = 0
    for n in range(1, 5):
        product = math.prod(cyclotomic_factors(ctx, n), start=Poly([1]))
        if product != Poly.x_pow_minus_one(2 ** n):
            return False, f"factorization broken at n={n}"
        for i in range(1, 2 ** n + 1):
            P = find_divisor_lift(ctx, n, i)
            if P is None:
                return False, f"no divisor lift at (2,{n},{i})"
            rep, cert = companion_lift(ctx, n, i, P)
            if not verify_certificate(rep, cert):
                return False, f"certificate failed at (2,{n},{i})"
            if not check_lift(rep).liftable:
                return False, f"checker disagrees at (2,{n},{i})"
            count += 1
    return True, f"{count} companion lifts found, verified, and solver-confirmed"


def _divisor_lifts_p3() -> Result:
    ctx = PrimeCtx(3)
    want_p2 = Poly([1, 1, 1])
    got = find_divisor_lift(ctx, 1, 2)
    if got != want_p2:
        return False, f"P_2 = {got}, expected t^2+t+1"
    for i in (1, 2, 3):
        P = find_divisor_lift(ctx, 1, i)
        if P is None:
            return False, f"no divisor lift at (3,1,{i})"
        rep, cert = companion_lift(ctx, 1, i, P)
        if not (verify_certificate(rep, cert) and check_lift(rep).liftable):
            return False, f"verification failed at (3,1,{i})"
    return True, "order-3 lifts verified; P_2 = t^2+t+1"


def _gap_sets() -> Result:
    s32 = liftable_jordan_sizes(PrimeCtx(3), 2)
    s51 = liftable_jordan_sizes(PrimeCtx(5), 1)
    if s32 != {1, 2, 3, 6, 7, 8, 9}:
        return False, f"(3,2) sizes = {sorted(s32)}"
    if s51 != {1, 4, 5}:
        return False, f"(5,1) sizes = {sorted(s51)}"
    # independent oracle: the sums of subsets of the factor degrees
    for (p, n), got in (((3, 2), s32), ((5, 1), s51)):
        degrees = [f.degree for f in cyclotomic_factors(PrimeCtx(p), n)]
        sums = {
            sum(combo)
            for r in range(len(degrees) + 1)
            for combo in itertools.combinations(degrees, r)
        }
        if {s for s in sums if 1 <= s <= p ** n} != got:
            return False, f"({p},{n}) sizes differ from the factor-degree subset sums"
    # side-by-side: what the solver says about the divisor-less sizes
    notes = []
    for (p, n), missing in (((3, 2), (4, 5)), ((5, 1), (2, 3))):
        ctx = PrimeCtx(p)
        for i in missing:
            v = check_lift(jordan_companion_rep(ctx, n, i))
            notes.append(f"J_{i}@p={p}:{'lift' if v.liftable else 'no-lift'}")
    return True, (
        "gap sets exact and equal to the factor-degree subset sums; "
        "divisor-less sizes per solver: " + ", ".join(notes)
    )


def _direct_sum_law() -> Result:
    pairs = 0
    for p, n, sizes in ((3, 2, range(1, 10)), (2, 3, range(1, 9))):
        ctx = PrimeCtx(p)
        pool = [jordan_companion_rep(ctx, n, i) for i in sizes]
        verdicts = [check_lift(r).liftable for r in pool]
        for (i, x, vx), (j, y, vy) in itertools.product(zip(sizes, pool, verdicts), repeat=2):
            if check_lift(direct_sum(x, y)).liftable != (vx and vy):
                return False, f"law fails at J_{i} (+) J_{j} over C{p ** n}"
            pairs += 1
    if pairs < 100:
        return False, f"only {pairs} pairs"
    return True, f"X (+) Y liftable iff both, on {pairs} pairs over C9 and C8"


def _witness_induction(g: FiniteGroup, kind: str, label: str, dim: int, gens=None) -> Result:
    """The canonical witness of g's first bad subgroup, induced to g, stays refuted."""
    bad = find_subgroup_witness(g)
    if bad is None or bad.kind != kind:
        return False, f"no {label} subgroup found in {g.name}"
    if gens is not None and bad.gens != gens:
        return False, f"expected the subgroup generated by {gens}, got {bad.gens}"
    ind = induced_witness(g, bad)
    if ind.n != dim:
        return False, f"induced dimension {ind.n} != {dim}"
    if check_lift(ind).liftable:
        return False, f"induced {dim}-dim representation of {g.name} lifts; expected refuted"
    return True, f"{label} witness induced to {g.name} stays refuted ({dim}-dim)"


def _sylow_machinery() -> Result:
    _, c12 = cyclic_group(12)
    if sylow(c12, 2).order != 4 or sylow(c12, 3).order != 3:
        return False, "Sylow orders wrong on C12"
    _, q8 = generalized_quaternion(8)
    if sylow(q8, 2).order != 8:
        return False, "Sylow order wrong on Q8"
    h = sylow(c12, 2)
    reps = transversal(c12, h)
    cover = set()
    for t in reps:
        for s in h.elements:
            cover.add(c12.mul(t, s))
    if len(reps) != 3 or cover != set(range(12)):
        return False, "transversal does not partition C12"
    return True, "Sylow subgroups and transversals behave on samples"


def _catalog_verdicts() -> Result:
    pairs = catalog_classifications()
    if len(pairs) < 25:
        return False, f"only {len(pairs)} catalog entries"
    too_big = [e.name for e, _ in pairs if e.group.order > 32]
    if too_big:
        return False, "catalog entries above order 32: " + ", ".join(too_big)
    missing = {"C24", "A4", "C27", "Q8", "C2xC2", "C3xC3", "S3"} - {e.name for e, _ in pairs}
    if missing:
        return False, "catalog lacks " + ", ".join(sorted(missing))
    bad = []
    for e, v in pairs:
        ok = v.liftable == e.expect_liftable and (
            (v.tag == e.expect_detail) if e.expect_liftable else (v.bad.kind == e.expect_detail)
        )
        if not ok:
            bad.append(e.name)
    if bad:
        return False, "verdict mismatches: " + ", ".join(bad)
    # the listed family is the verdict's tag; C1 is tagged Trivial but listed as C2n
    family = [
        e.name for e, v in pairs if is_listed_family(e.group) != (v.tag if e.group.order > 1 else "C2n")
    ]
    if family:
        return False, "listed-family test disagrees with the verdict for: " + ", ".join(family)
    return True, f"all {len(pairs)} catalog verdicts match the classification"


def _catalog_certification() -> Result:
    uncertified = []
    for e, v in catalog_classifications():
        if not v.liftable and not v.certified:
            uncertified.append(e.name)
    if uncertified:
        return False, "witness not solver-certified for: " + ", ".join(uncertified)
    return True, "every negative verdict ships a solver-certified witness"


REGISTRY: Dict[str, Callable[[], Result]] = {
    "kernel-structure": _kernel_structure,
    "matrix-facts": _matrix_facts,
    "klein-not-2-liftable": _klein,
    "q8-not-2-liftable": _q8,
    "c3c3-not-3-liftable": _c3c3,
    "theta-c9": lambda: _theta_cyclic(3, 2),
    "theta-c5": lambda: _theta_cyclic(5, 1),
    "theta-c7": lambda: _theta_cyclic(7, 1),
    "theta-vanishing": _theta_vanishing,
    "divisor-lifts-p2": _divisor_lifts_p2,
    "divisor-lifts-p3": _divisor_lifts_p3,
    "jordan-gap-sets": _gap_sets,
    "direct-sum-law": _direct_sum_law,
    "induction-klein": lambda: _witness_induction(
        direct_product_cyclic(2, 4)[1], "C2xC2", "Klein", 8
    ),
    # Q16's first Q8 is the one generated by s^2 and t
    "induction-q8": lambda: _witness_induction(
        generalized_quaternion(16)[1], "Q8", "Q8", 12, gens=(2, 8)
    ),
    "sylow-machinery": _sylow_machinery,
    "catalog-verdicts": _catalog_verdicts,
    "catalog-certification": _catalog_certification,
}


def run_item(name: str) -> Result:
    """Run one registry entry; an entry that raises has failed."""
    try:
        return REGISTRY[name]()
    except Exception as e:
        return False, f"exception: {e}"


def run() -> Tuple[List[Tuple[str, bool, str]], bool]:
    """(name, ok, detail) for every registry entry in order, and whether all passed."""
    rows = [(name, *run_item(name)) for name in REGISTRY]
    return rows, all(ok for _, ok, _ in rows)
