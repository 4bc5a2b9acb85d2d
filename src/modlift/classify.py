"""The liftability classification as an executable decision procedure.

A finite group is liftable iff its order is 2^a * 3^b with b <= 1 and it
contains none of the five obstruction subgroups (C_p for p >= 5, C9,
C3xC3, C2xC2, Q8); the liftable groups are exactly C_{2^n}, C3 x C_{2^n}
and C3 : C_{2^n}.  Negative verdicts ship a concrete representation of the
input group (or, past the dimension cap, of the bad subgroup) together with
the solver's independent verdict on it; `certified` records whether the
witness really refutes (the bundled quaternion witness does not -- it lifts,
see the project notes -- so Q-group verdicts rest on the subgroup criterion).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import Error
from .groups import (
    BadSubgroup,
    FiniteGroup,
    Subgroup,
    cyclic_group,
    dihedral,
    direct_product,
    direct_product_cyclic,
    elementary_abelian,
    extend_hom,
    find_subgroup_witness,
    generalized_quaternion,
    is_listed_family,
    perm_group,
    semidirect_c3_c2n,
    wpow,
)
from .obstruction import module_of_quotient, one_minus_generator
from .replift import (
    MAX_DIMENSION,
    LiftVerdict,
    Representation,
    check_lift,
    induce,
    validate_rep,
)
from .rings import Mat, PrimeCtx


class CertificationFailed(Error):
    """The solver disagreed with the classification theory; must never happen."""


@dataclass(frozen=True)
class ClassificationVerdict:
    liftable: bool
    tag: Optional[str] = None                    # C2n | C3xC2n | C3semiC2n | Trivial
    bad: Optional[BadSubgroup] = None
    witness: Optional[Representation] = None
    witness_level: Optional[str] = None          # "group" | "subgroup"
    witness_verdict: Optional[LiftVerdict] = None
    certified: bool = False                      # solver confirmed the witness refutes


# ---------------------------------------------------------------------------
# canonical witness representations

# the 2x2 blocks over F_2 the witnesses are assembled from; x is a
# non-central unit of M_2(F_2) with x^2 + x + 1 = 0
_BLOCKS = {
    "0": np.array([[0, 0], [0, 0]]),
    "1": np.array([[1, 0], [0, 1]]),
    "x": np.array([[0, 1], [1, 1]]),
    "x2": np.array([[1, 1], [1, 0]]),
}


def _blocks(grid) -> Mat:
    """Assemble a square grid of named 2x2 blocks over F_2."""
    return Mat(2, np.block([[_BLOCKS[name] for name in row] for row in grid]))


def klein_witness_rep() -> Representation:
    """The 4-dimensional representation of C2 x C2 that does not lift mod 4."""
    sigma = _blocks([["1", "1"], ["0", "1"]])
    tau = _blocks([["1", "x"], ["0", "1"]])
    pres, _ = elementary_abelian(2, 2)
    rep = Representation(PrimeCtx(2), pres, (sigma, tau), 4)
    validate_rep(rep)
    return rep


def quaternion_witness_rep() -> Representation:
    """The bundled 6-dimensional representation of Q8 over F_2.

    Shipped as the canonical quaternion witness data; the solver certifies
    it as liftable (the certificate re-verifies exactly), so verdicts built
    on it carry `certified=False`.
    """
    j = _blocks([["0", "0", "1"], ["1", "0", "1"], ["0", "1", "1"]])
    k = _blocks([["0", "x", "1"], ["x", "x2", "x"], ["x2", "0", "x"]])
    pres, _ = generalized_quaternion(8)
    rep = Representation(PrimeCtx(2), pres, (j, k), 6)
    validate_rep(rep)
    return rep


def c3c3_witness_rep() -> Representation:
    """C3 x C3 acting by 1 + e_12 and 1 + e_13 over F_3."""
    s12 = Mat(3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    s13 = Mat(3, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    pres, _ = elementary_abelian(3, 2)
    rep = Representation(PrimeCtx(3), pres, (s12, s13), 3)
    validate_rep(rep)
    return rep


@lru_cache(maxsize=None)
def _bad_group_and_witness(kind: str, prime: int) -> tuple:
    """(abstract group, witness rep) for a bad kind."""
    if kind == "C2xC2":
        _, group = elementary_abelian(2, 2)
        rep = klein_witness_rep()
    elif kind == "Q8":
        _, group = generalized_quaternion(8)
        rep = quaternion_witness_rep()
    elif kind == "C3xC3":
        _, group = elementary_abelian(3, 2)
        rep = c3c3_witness_rep()
    elif kind == "C9":
        _, group = cyclic_group(9)
        h = one_minus_generator(group, 3) ** 5
        rep = module_of_quotient(group, h)
    elif kind == "Cp":
        if prime < 5:
            raise ValueError("Cp witnesses require p >= 5")
        _, group = cyclic_group(prime)
        # J_k does not lift for 2 <= k <= p - 2 (the liftable Jordan sizes
        # of C_p are 1, p - 1 and p), so the dimension cap can bound k
        h = one_minus_generator(group, prime) ** min(prime - 2, MAX_DIMENSION)
        rep = module_of_quotient(group, h)
    else:
        raise ValueError(f"unknown bad-subgroup kind {kind!r}")
    return group, rep


def canonical_witness(kind: str, prime: int = 0) -> Representation:
    """The hard-coded or obstruction-generated witness for a bad subgroup."""
    return _bad_group_and_witness(kind, prime)[1]


def induced_witness(g: FiniteGroup, bad: BadSubgroup) -> Representation:
    """The canonical witness of the bad subgroup, induced up to G.

    When G is the bad subgroup on its own generators and presentation, the
    induced witness is the canonical one, which is returned as it is.
    """
    abstract, rep_h = _bad_group_and_witness(bad.kind, bad.prime)
    if g.presentation == abstract.presentation and bad.gens == tuple(g.gen_indices):
        return rep_h
    hom = extend_hom(abstract, bad.gens, 0, g.mul)
    if hom is None:
        raise CertificationFailed("bad-subgroup generators do not satisfy the relations")
    if None in hom or len(set(hom)) != abstract.order:
        raise CertificationFailed("bad-subgroup embedding is not injective")
    sub = Subgroup(g, tuple(sorted(hom)))
    return induce(rep_h, abstract, g, sub, hom)


def witness_for_group(g: FiniteGroup, bad: BadSubgroup) -> Representation:
    """Induce the canonical witness of the bad subgroup up to G and certify it."""
    induced = induced_witness(g, bad)
    if check_lift(induced).liftable:
        raise CertificationFailed(
            f"induced {bad.kind} witness lifts; solver disagrees with the classification theory"
        )
    return induced


def classify(g: FiniteGroup) -> ClassificationVerdict:
    """Liftable with a family tag, or not liftable with a witness the solver
    independently refuted.

    The decision is the subgroup-obstruction predicate; with no obstruction,
    `is_listed_family` reads the tag off the element orders, and if it names
    no family, CertificationFailed.  `certified` reports the witness check
    rather than trusting it (False marks the rare case where the attached
    witness does not refute, i.e. the solver contradicts the theory).

    The witness is the bad subgroup's canonical witness induced up to G
    while that stays within replift.MAX_DIMENSION and G realizes a
    presentation, and the subgroup witness itself otherwise.  The C_p
    witness is F_p[C_p]/(1-s)^k with k = min(p - 2, MAX_DIMENSION), so every
    prime order admitted gets a witness the checker accepts.
    """
    bad = find_subgroup_witness(g)
    if bad is None:
        tag = "Trivial" if g.order == 1 else is_listed_family(g)
        if tag is None:
            raise CertificationFailed("no obstruction found but group is not a listed family")
        return ClassificationVerdict(liftable=True, tag=tag, certified=True)

    _, rep_h = _bad_group_and_witness(bad.kind, bad.prime)
    induced_dim = (g.order // len(bad.elements)) * rep_h.n
    if g.presentation is not None and induced_dim <= MAX_DIMENSION:
        witness = induced_witness(g, bad)
        level = "group"
    else:
        # past the cap (or without a realized presentation for G) the
        # certified refutation lives on the subgroup; the subgroup reduction
        # transfers it to G
        witness = rep_h
        level = "subgroup"
    verdict = check_lift(witness)
    return ClassificationVerdict(
        liftable=False,
        bad=bad,
        witness=witness,
        witness_level=level,
        witness_verdict=verdict,
        certified=not verdict.liftable,
    )


# ---------------------------------------------------------------------------
# catalog


def _alternating_4() -> FiniteGroup:
    s = (1, 2, 0, 3)      # 3-cycle (0 1 2)
    t = (1, 0, 3, 2)      # double transposition (0 1)(2 3)
    relators = (
        wpow(0, 3),
        wpow(1, 2),
        ((0, 1), (1, 1), (0, 1), (1, 1), (0, 1), (1, 1)),  # (s t)^3
    )
    _, g = perm_group((s, t), ("s", "t"), relators, name="A4")
    if g.order != 12:
        raise AssertionError("A4 construction has the wrong order")
    return g


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    group: FiniteGroup
    expect_liftable: bool
    expect_detail: str  # family tag when liftable, bad-subgroup kind otherwise


@lru_cache(maxsize=1)
def catalog() -> tuple:
    """Groups of order <= 32 with their expected classification outcomes."""
    entries = []

    def add(name, group, liftable, detail):
        entries.append(CatalogEntry(name, group, liftable, detail))

    for k in (1, 2, 4, 8, 16, 32):
        add(f"C{k}", cyclic_group(k)[1], True, "Trivial" if k == 1 else "C2n")
    for k in (3, 6, 12, 24):
        add(f"C{k}", cyclic_group(k)[1], True, "C3xC2n")
    add("S3", semidirect_c3_c2n(1)[1], True, "C3semiC2n")
    add("Dic3", semidirect_c3_c2n(2)[1], True, "C3semiC2n")
    add("C3:C8", semidirect_c3_c2n(3)[1], True, "C3semiC2n")
    add("C3xC4", direct_product_cyclic(3, 4)[1], True, "C3xC2n")

    add("Q8", generalized_quaternion(8)[1], False, "Q8")
    add("Q16", generalized_quaternion(16)[1], False, "Q8")
    add("Q32", generalized_quaternion(32)[1], False, "Q8")
    add("D4", dihedral(4)[1], False, "C2xC2")
    add("D8", dihedral(8)[1], False, "C2xC2")
    add("D16", dihedral(16)[1], False, "C2xC2")
    add("C2xC2", elementary_abelian(2, 2)[1], False, "C2xC2")
    add("C2xC4", direct_product_cyclic(2, 4)[1], False, "C2xC2")
    add(
        "C2xC2xC2",
        direct_product(elementary_abelian(2, 2)[1], cyclic_group(2)[1], name="C2xC2xC2"),
        False,
        "C2xC2",
    )
    add("C6xC2", direct_product_cyclic(6, 2)[1], False, "C2xC2")
    add("C3xC3", elementary_abelian(3, 2)[1], False, "C3xC3")
    add("C9", cyclic_group(9)[1], False, "C9")
    add("C27", cyclic_group(27)[1], False, "C9")
    add("C5", cyclic_group(5)[1], False, "Cp")
    add("C7", cyclic_group(7)[1], False, "Cp")
    add("C10", cyclic_group(10)[1], False, "Cp")
    add("C15", cyclic_group(15)[1], False, "Cp")
    add("A4", _alternating_4(), False, "C2xC2")
    return tuple(entries)


@lru_cache(maxsize=1)
def catalog_classifications() -> tuple:
    """(entry, verdict) pairs; cached because several consumers replay them."""
    return tuple((e, classify(e.group)) for e in catalog())
