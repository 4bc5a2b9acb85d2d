import hashlib

import numpy as np
import pytest

from conftest import refutes
from modlift.classify import (
    CertificationFailed,
    _bad_group_and_witness,
    c3c3_witness_rep,
    canonical_witness,
    catalog,
    catalog_classifications,
    classify,
    klein_witness_rep,
    quaternion_witness_rep,
    witness_for_group,
)
from modlift.formats import format_representation
from modlift.groups import (
    Subgroup,
    cyclic_group,
    dihedral,
    direct_product_cyclic,
    elementary_abelian,
    extend_hom,
    find_subgroup_witness,
    generalized_quaternion,
    is_listed_family,
    semidirect_c3_c2n,
    sylow,
)
from modlift.obstruction import GroupAlgebraElement, module_of_quotient, one_minus_generator, theta
from modlift.replift import MAX_DIMENSION, Representation, check_lift, induce, validate_rep
from modlift.rings import Mat, PrimeCtx


def test_classify_c12():
    v = classify(cyclic_group(12)[1])
    assert v.liftable and v.tag == "C3xC2n"


def test_classify_s3():
    v = classify(semidirect_c3_c2n(1)[1])
    assert v.liftable and v.tag == "C3semiC2n"


def test_classify_trivial():
    v = classify(cyclic_group(1)[1])
    assert v.liftable and v.tag == "Trivial"


def test_classify_c5():
    v = classify(cyclic_group(5)[1])
    assert not v.liftable
    assert v.bad.kind == "Cp" and v.bad.prime == 5
    assert v.witness.n == 3
    assert v.certified
    assert refutes(v.witness, v.witness_verdict)


def test_classify_c9():
    v = classify(cyclic_group(9)[1])
    assert not v.liftable and v.bad.kind == "C9"
    assert v.witness.n == 5 and v.certified


@pytest.mark.parametrize(
    "group, level",
    [(cyclic_group(67)[1], "group"), (direct_product_cyclic(67, 2)[1], "subgroup")],
    ids=["C67", "C67xC2"],
)
def test_classify_prime_past_dimension_cap(group, level):
    # the C_67 witness (1-s)^{p-2} would be 65-dimensional; it is capped at
    # MAX_DIMENSION, where J_64 still does not lift
    v = classify(group)
    assert not v.liftable
    assert (v.bad.kind, v.bad.prime) == ("Cp", 67)
    assert v.witness.n == MAX_DIMENSION == 64
    assert v.witness_level == level
    assert v.certified
    assert refutes(v.witness, v.witness_verdict)


def test_classify_q8_honest():
    # per the classification the verdict is NotLiftable via the Q8 subgroup;
    # the attached 6-dim witness is NOT solver-certified (it lifts), and the
    # verdict says so instead of pretending otherwise
    v = classify(generalized_quaternion(8)[1])
    assert not v.liftable
    assert v.bad.kind == "Q8"
    assert v.witness.n == 6
    assert not v.certified
    assert v.witness_verdict.liftable


def test_canonical_witnesses():
    kl = canonical_witness("C2xC2")
    assert kl.n == 4 and kl.ctx.p == 2
    assert kl == klein_witness_rep()
    assert canonical_witness("C3xC3").n == 3
    assert canonical_witness("C9").n == 5
    assert canonical_witness("Cp", 5).n == 3
    assert canonical_witness("Cp", 7).n == 5
    assert canonical_witness("Q8").n == 6
    with pytest.raises(ValueError):
        canonical_witness("Cp", 3)
    with pytest.raises(ValueError):
        canonical_witness("C4")


def test_canonical_witnesses_refute_except_q8():
    for kind, prime in [("C2xC2", 0), ("C3xC3", 0), ("C9", 0), ("Cp", 5), ("Cp", 7)]:
        assert not check_lift(canonical_witness(kind, prime)).liftable
    assert check_lift(canonical_witness("Q8")).liftable  # see project notes


def test_witness_for_group_c10():
    _, g = cyclic_group(10)
    bad = find_subgroup_witness(g)
    w = witness_for_group(g, bad)
    assert w.n == 6
    assert not check_lift(w).liftable


def test_witness_for_group_single_coset():
    _, g = elementary_abelian(2, 2)
    bad = find_subgroup_witness(g)
    w = witness_for_group(g, bad)
    assert w.n == 4
    assert not check_lift(w).liftable


@pytest.mark.parametrize(
    "family, canonical",
    [
        pytest.param(cyclic_group(5), True, id="C5"),
        pytest.param(cyclic_group(9), True, id="C9"),
        pytest.param(cyclic_group(67), True, id="C67"),
        pytest.param(cyclic_group(257), True, id="C257"),
        pytest.param(generalized_quaternion(8), True, id="Q8"),
        # the bad subgroup's generators are G's in the other order
        pytest.param(direct_product_cyclic(2, 2), False, id="C2xC2"),
        pytest.param(direct_product_cyclic(3, 3), False, id="C3xC3"),
    ],
)
def test_witness_of_a_bad_group(family, canonical):
    # a group that is its own bad subgroup, on the same generators and
    # presentation, gets the canonical witness itself; the induction it
    # skips gives an equal representation
    _, g = family
    bad = find_subgroup_witness(g)
    abstract, rep_h = _bad_group_and_witness(bad.kind, bad.prime)
    hom = extend_hom(abstract, bad.gens, 0, g.mul)
    induced = induce(rep_h, abstract, g, Subgroup(g, tuple(sorted(hom))), hom)
    verdict = classify(g)
    assert (verdict.witness is rep_h) == canonical
    assert (induced == rep_h) == canonical
    assert verdict.witness == induced and verdict.witness_level == "group"


def test_witness_for_group_q16_raises():
    _, g = generalized_quaternion(16)
    bad = find_subgroup_witness(g)
    with pytest.raises(CertificationFailed):
        witness_for_group(g, bad)


def test_catalog_shape():
    entries = catalog()
    assert len(entries) >= 25
    assert all(e.group.order <= 32 for e in entries)
    names = [e.name for e in entries]
    for required in ("C24", "A4", "C27", "Q8", "C2xC2", "C3xC3", "S3"):
        assert required in names


def test_catalog_verdicts_and_family_agreement():
    for entry, verdict in catalog_classifications():
        assert verdict.liftable == entry.expect_liftable, entry.name
        if entry.expect_liftable:
            assert verdict.tag == entry.expect_detail, entry.name
        else:
            assert verdict.bad.kind == entry.expect_detail, entry.name
        listed = is_listed_family(entry.group)
        assert (listed is not None) == verdict.liftable, entry.name
        if verdict.liftable and entry.group.order > 1:
            assert listed == verdict.tag


def test_catalog_certification_explicit():
    # all negative verdicts are solver-certified except the Q-series, whose
    # canonical witness provably lifts (see project notes)
    for entry, verdict in catalog_classifications():
        if verdict.liftable:
            continue
        if entry.name in ("Q8", "Q16", "Q32"):
            assert not verdict.certified, entry.name
        else:
            assert verdict.certified, entry.name
            assert refutes(verdict.witness, verdict.witness_verdict), entry.name


def test_subgroup_monotonicity_samples():
    # H <= G with H not liftable forces G not liftable
    pairs = [
        ("C2xC2", "C2xC4"),
        ("C9", "C27"),
        ("C5", "C10"),
        ("C5", "C15"),
        ("C2xC2", "A4"),
        ("C2xC2", "C2xC2xC2"),
    ]
    verdicts = {e.name: v for e, v in catalog_classifications()}
    for h_name, g_name in pairs:
        assert not verdicts[h_name].liftable
        assert not verdicts[g_name].liftable


def test_liftable_spot_certification_regular_reps():
    # for liftable catalog groups of order <= 12, the regular representation
    # restricted to a Sylow p-subgroup lifts, for p in {2, 3}
    for entry, verdict in catalog_classifications():
        if not verdict.liftable or entry.group.order > 12:
            continue
        g = entry.group
        for p in (2, 3):
            syl = sylow(g, p)
            if syl.order == 1:
                continue
            # liftable groups have cyclic Sylows: realize the restriction of
            # the regular representation to a generator of the Sylow subgroup
            gen = next(x for x in syl.elements if g.order_of(x) == syl.order)
            pres, _ = cyclic_group(syl.order)
            ctx = PrimeCtx(p)
            import numpy as np

            m = np.zeros((g.order, g.order), dtype=np.int64)
            for j in range(g.order):
                m[g.mul(gen, j), j] = 1
            rep = Representation(ctx, pres, (Mat(p, m),), g.order)
            validate_rep(rep)
            assert check_lift(rep).liftable, (entry.name, p)


def test_classify_table_without_presentation():
    from modlift.formats import format_group_table, parse_group_table

    _, g = cyclic_group(10)
    bare = parse_group_table(format_group_table(g))
    v = classify(bare)
    assert not v.liftable
    assert v.bad.kind == "Cp"
    assert v.witness_level == "subgroup"
    assert v.certified


def test_klein_witness_matrices_pinned():
    rep = klein_witness_rep()
    sigma, tau = rep.gen_mats
    assert sigma.rows() == (
        (1, 0, 1, 0),
        (0, 1, 0, 1),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )
    assert tau.rows() == (
        (1, 0, 0, 1),
        (0, 1, 1, 1),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )


def test_quaternion_witness_matrices_pinned():
    rep = quaternion_witness_rep()
    j, k = rep.gen_mats
    # j is the scalar-block companion pattern [[0,0,1],[1,0,1],[0,1,1]]
    assert j.rows() == (
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 1),
        (1, 0, 0, 0, 1, 0),
        (0, 1, 0, 0, 0, 1),
        (0, 0, 1, 0, 1, 0),
        (0, 0, 0, 1, 0, 1),
    )
    # k carries the x / x^2 block pattern [[0,x,1],[x,x^2,x],[x^2,0,x]]
    assert k.rows() == (
        (0, 0, 0, 1, 1, 0),
        (0, 0, 1, 1, 0, 1),
        (0, 1, 1, 1, 0, 1),
        (1, 1, 1, 0, 1, 1),
        (1, 1, 0, 0, 0, 1),
        (1, 0, 0, 0, 1, 1),
    )


def test_c3c3_witness_matrices_pinned():
    rep = c3c3_witness_rep()
    s12, s13 = rep.gen_mats
    assert s12.rows() == ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    assert s13.rows() == ((1, 0, 1), (0, 1, 0), (0, 0, 1))


# --- output digest ------------------------------------------------------------------


def _hash_quotient(d, g, f, h):
    t = theta(g, f, h)
    d.update(t.representative.coeffs.tobytes() + t.quotient_basis.tobytes())
    d.update(format_representation(module_of_quotient(g, h)).encode())


# A change that alters a verdict, witness, certificate, refutation, theta
# class or quotient module on purpose updates this digest and says why.
# Last update: refutations are read off the primal elimination, scaled to
# c.b = 1, instead of solved from the dual system. The catalog refutations
# changed; with the refutation bytes left out, the digest is as before.
OUTPUTS_DIGEST = "da5ec26ded3780d0594b904e82b25857d7413f7bf40bdb33fc0cb2a60f9bd368"


def test_outputs_digest_pinned():
    """sha256 over every catalog classification (verdict, tag, bad subgroup,
    witness text, refutation or certificate bytes) and over theta and
    module_of_quotient on the zero-product pairs of 30 seeded elements of
    F_2[D8] and on (1-s)^4, e_s (1-s)^5 over C9."""
    d = hashlib.sha256()
    for entry, v in catalog_classifications():
        d.update(repr((entry.name, v.liftable, v.tag, v.bad, v.witness_level, v.certified)).encode())
        if v.witness is not None:
            d.update(format_representation(v.witness).encode())
            w = v.witness_verdict
            if w.refutation is not None:
                d.update(np.asarray(w.refutation).tobytes())
            for m in w.certificate.mats if w.certificate is not None else ():
                d.update(m.a.tobytes())
    _, d8 = dihedral(8)
    rng = np.random.default_rng(12)
    elements = [GroupAlgebraElement(d8, 2, rng.integers(0, 2, 8)) for _ in range(30)]
    pairs = [(f, h) for f in elements for h in elements if not h.is_zero() and (f * h).is_zero()]
    assert len(pairs) == 61
    for f, h in pairs:
        _hash_quotient(d, d8, f, h)
    _, c9 = cyclic_group(9)
    s = one_minus_generator(c9, 3)
    _hash_quotient(d, c9, s ** 4, GroupAlgebraElement.basis(c9, 3, c9.gen_indices[0]) * s ** 5)
    assert d.hexdigest() == OUTPUTS_DIGEST
