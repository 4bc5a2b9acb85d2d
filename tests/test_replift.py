import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_invertible
from modlift.groups import (
    Presentation,
    Subgroup,
    cyclic_group,
    direct_product_cyclic,
    elementary_abelian,
    generalized_quaternion,
    winv,
    wpow,
)
from modlift.replift import (
    _CHUNK,
    BudgetExceeded,
    InvalidRepresentation,
    LiftCertificate,
    NotASubgroupError,
    Representation,
    UnrealizedPresentation,
    brute_force_lift,
    canonical_lifts,
    check_lift,
    direct_sum,
    eval_word,
    induce,
    linearize,
    randomized_lifts,
    regular_representation,
    relator_defect,
    restrict,
    validate_rep,
    verify_certificate,
)
from modlift.rings import Consistent, Mat, PrimeCtx, solve_affine
from modlift.cyclic_lift import companion_lift, find_divisor_lift, jordan_companion_rep


CTX2 = PrimeCtx(2)
CTX3 = PrimeCtx(3)


def c2_unipotent():
    pres, _ = cyclic_group(2)
    return Representation(CTX2, pres, (Mat(2, [[1, 1], [0, 1]]),), 2)


# --- validation ------------------------------------------------------------


def test_validate_trivial_rep():
    pres, _ = generalized_quaternion(8)
    rep = Representation(CTX2, pres, (Mat.identity(2, 3), Mat.identity(2, 3)), 3)
    validate_rep(rep)


def test_validate_klein(klein_rep):
    validate_rep(klein_rep)


def test_validate_detects_broken_relator():
    pres = Presentation(("s",), (wpow(0, 3),))
    rep = Representation(CTX2, pres, (Mat(2, [[1, 1], [0, 1]]),), 2)
    with pytest.raises(InvalidRepresentation):
        validate_rep(rep)


def test_validate_detects_singular_generator():
    pres, _ = cyclic_group(2)
    rep = Representation(CTX2, pres, (Mat(2, [[1, 1], [1, 1]]),), 2)
    with pytest.raises(InvalidRepresentation):
        validate_rep(rep)


# --- defects and linearization ----------------------------------------------


def test_defect_trivial_rep():
    pres, _ = cyclic_group(3)
    rep = Representation(CTX3, pres, (Mat.identity(3, 2),), 2)
    d = relator_defect(rep, canonical_lifts(rep), pres.relators[0])
    assert d.is_zero()


def test_defect_c2_unipotent():
    rep = c2_unipotent()
    d = relator_defect(rep, canonical_lifts(rep), rep.presentation.relators[0])
    assert d == Mat(2, [[0, 1], [0, 0]])


def test_defect_c3c3_cube():
    pres, _ = elementary_abelian(3, 2)
    s12 = Mat(3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    s13 = Mat(3, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    rep = Representation(CTX3, pres, (s12, s13), 3)
    d = relator_defect(rep, canonical_lifts(rep), wpow(0, 3))
    e12 = Mat(3, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert d == e12


def test_linearize_trivial_rep_homogeneous():
    pres, _ = cyclic_group(4)
    rep = Representation(CTX2, pres, (Mat.identity(2, 2),), 2)
    lin = linearize(rep)
    assert not lin.system.rhs.any()
    assert isinstance(solve_affine(lin.system), Consistent)


def test_linearize_c2_reproduces_hand_constraints():
    lin = linearize(c2_unipotent())
    res = solve_affine(lin.system)
    assert isinstance(res, Consistent)
    # every solution has a21 = 0 and a11 + a22 = 1
    vecs = [res.particular] + [(res.particular + t) % 2 for t in res.nullspace]
    for v in vecs:
        assert v[2] == 0
        assert (v[0] + v[3]) % 2 == 1


def test_linearize_free_cancellation():
    pres = Presentation(("s",), (((0, 1), (0, -1)),))
    rep = Representation(CTX2, pres, (Mat(2, [[1, 1], [0, 1]]),), 2)
    lin = linearize(rep)
    assert not lin.system.matrix.any()
    assert not lin.system.rhs.any()


def kron_linearize(rep, naive_lifts):
    """Reference assembly: one Kronecker block per letter, added mod p."""
    p, n, k = rep.ctx.p, rep.n, rep.num_gens
    n2 = n * n
    gen_inv = [m.inv() for m in rep.gen_mats]
    blocks, rhs, defects = [], [], []
    for word in rep.presentation.relators:
        block = np.zeros((n2, k * n2), dtype=np.int64)
        v = Mat.identity(p, n)
        vinv = Mat.identity(p, n)
        for g, e in word:
            if e == 1:
                vt, vtinv = v, vinv
                v = v @ rep.gen_mats[g]
                vinv = gen_inv[g] @ vinv
            else:
                v = v @ gen_inv[g]
                vinv = rep.gen_mats[g] @ vinv
                vt, vtinv = v, vinv
            sl = slice(g * n2, (g + 1) * n2)
            block[:, sl] = (block[:, sl] + e * np.kron(vt.a, vtinv.a.T)) % p
        defect = relator_defect(rep, naive_lifts, word)
        blocks.append(block)
        rhs.append((-defect.a.reshape(-1)) % p)
        defects.append(defect)
    if not blocks:
        return np.zeros((0, k * n2), dtype=np.int64), np.zeros(0, dtype=np.int64), ()
    return np.concatenate(blocks), np.concatenate(rhs), tuple(defects)


def random_relator_rep(rng, p, n, k, length):
    """k generators over F_p with two relators of about `length` letters.

    The first k-1 generators are random; the last is u(x)^-1 * T for a
    random word u in them and a matrix T of small order d, so (u z)^d is a
    relator.  Rotation, inversion and conjugation by a random word keep it
    one while mixing inverse letters into it.  With k = 1 the word is
    lengthened by a power prime to p instead, so its block stays nonzero.
    """
    ctx = PrimeCtx(p)
    conj = random_invertible(rng, p, n)
    perm = Mat(p, np.eye(n, dtype=np.int64)[rng.permutation(n)])
    t = (conj @ perm @ conj.inv()).scale(int(rng.choice([1, -1])))
    d = 1
    while not (t ** d).is_identity():
        d += 1
    mats = [random_invertible(rng, p, n) for _ in range(k - 1)]
    ulen = max(0, length // d - 1) if k > 1 else 0
    u = tuple((int(rng.integers(0, k - 1)), int(rng.choice([1, -1]))) for _ in range(ulen))
    mats.append(eval_word(mats, u, p, n).inv() @ t)
    base = (u + ((k - 1, 1),)) * d
    m = max(1, length // len(base))
    if m % p == 0:
        m -= 1
    relators = []
    for _ in range(2):
        w = base * m
        r = int(rng.integers(0, len(w)))
        w = w[r:] + w[:r]
        if rng.integers(0, 2):
            w = winv(w)
        x = tuple((int(rng.integers(0, k)), int(rng.choice([1, -1]))) for _ in range(int(rng.integers(0, 3))))
        relators.append(x + w + winv(x))
    pres = Presentation(tuple(f"g{i}" for i in range(k)), tuple(relators))
    return Representation(ctx, pres, tuple(mats), n)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 32749]),
    n=st.integers(1, 5),
    k=st.integers(1, 3),
    length=st.one_of(
        st.integers(1, 40),
        st.integers(_CHUNK - 3, _CHUNK + 3),
        st.integers(_CHUNK + 4, 2 * _CHUNK + 5),
    ),
    randomize=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# Z/p^2 products past int64 (Python integers) over two chunks
@example(p=32749, n=5, k=2, length=_CHUNK + 7, randomize=True, seed=1)
def test_linearize_matches_kron_oracle(p, n, k, length, randomize, seed):
    rng = np.random.default_rng(seed)
    rep = random_relator_rep(rng, p, n, k, length)
    lifts = randomized_lifts(rep, rng) if randomize else canonical_lifts(rep)
    matrix, rhs, defects = kron_linearize(rep, lifts)
    lin = linearize(rep, lifts)
    for got, want in ((lin.system.matrix, matrix), (lin.system.rhs, rhs)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert [(d.mod, d.a.tobytes()) for d in lin.defects] == [(d.mod, d.a.tobytes()) for d in defects]


def test_linearize_rejects_foreign_lifts():
    rep = c2_unipotent()
    with pytest.raises(InvalidRepresentation):
        linearize(rep, (Mat(4, [[1, 0], [0, 1]]),))


# --- decision procedure -------------------------------------------------------


def test_klein_not_liftable(klein_rep):
    v = check_lift(klein_rep)
    assert not v.liftable
    assert v.refutation_checks_out()


def test_c3c3_not_liftable(c3c3_rep):
    v = check_lift(c3c3_rep)
    assert not v.liftable
    assert v.refutation_checks_out()


def test_check_lift_long_relator_speed():
    # <s | s^1024>: a single 1024-letter relator with a 900-column system
    rep = jordan_companion_rep(PrimeCtx(2), 10, 30)
    t0 = time.perf_counter()
    v = check_lift(rep)
    assert time.perf_counter() - t0 < 2.0
    assert v.liftable


def test_permutation_rep_lifts():
    from modlift.replift import permutation_matrix_rep

    pres, _ = cyclic_group(4)
    rep = permutation_matrix_rep(CTX2, pres, [(1, 2, 3, 0)])  # a 4-cycle
    v = check_lift(rep)
    assert v.liftable
    assert verify_certificate(rep, v.certificate)


def test_verify_certificate_examples():
    pres, _ = cyclic_group(2)
    rep = Representation(CTX2, pres, (Mat.identity(2, 1),), 1)
    assert verify_certificate(rep, LiftCertificate((Mat.identity(4, 1),)))

    ctx = CTX2
    P = find_divisor_lift(ctx, 2, 3)
    jrep, cert = companion_lift(ctx, 2, 3, P)
    assert verify_certificate(jrep, cert)
    perturbed = cert.mats[0].a.copy()
    perturbed[0, 0] = (perturbed[0, 0] + 2) % 4  # one entry shifted by p
    assert not verify_certificate(jrep, LiftCertificate((Mat(4, perturbed),)))


def test_section_independence(witness_suite, rng):
    for name, rep, expected in witness_suite:
        for _ in range(5):
            v = check_lift(rep, naive_lifts=randomized_lifts(rep, rng))
            assert v.liftable == expected, name


def test_basis_invariance(witness_suite, rng):
    for name, rep, expected in witness_suite:
        for _ in range(3):
            c = random_invertible(rng, rep.ctx.p, rep.n)
            cinv = c.inv()
            mats = tuple(c @ m @ cinv for m in rep.gen_mats)
            conj = Representation(rep.ctx, rep.presentation, mats, rep.n)
            assert check_lift(conj).liftable == expected, name


# --- direct sums ----------------------------------------------------------------


def test_direct_sum_with_zero_dim():
    rep = c2_unipotent()
    zero = Representation(CTX2, rep.presentation, (Mat(2, []),), 0)
    assert direct_sum(rep, zero) == rep
    assert direct_sum(zero, rep) == rep


def test_direct_sum_verdict_conjunction():
    pres, _ = cyclic_group(4)
    j2 = jordan_companion_rep(CTX2, 2, 2)
    summed = direct_sum(j2, j2)
    assert summed.n == 4
    assert check_lift(summed).liftable == check_lift(j2).liftable


def test_direct_sum_keeps_refutation(klein_rep):
    triv = Representation(CTX2, klein_rep.presentation, (Mat.identity(2, 1), Mat.identity(2, 1)), 1)
    v = check_lift(direct_sum(klein_rep, triv))
    assert not v.liftable


def test_direct_sum_mismatch():
    with pytest.raises(InvalidRepresentation):
        direct_sum(c2_unipotent(), jordan_companion_rep(CTX2, 2, 2))


# --- induction / restriction ------------------------------------------------------


def test_induce_trivial_gives_permutation_rep():
    _, c4 = cyclic_group(4)
    _, c2 = cyclic_group(2)
    sub = Subgroup(c4, (0, 2))
    hom = [0, 2]
    triv = Representation(CTX2, c2.presentation, (Mat.identity(2, 1),), 1)
    ind = induce(triv, c2, c4, sub, hom)
    assert ind.n == 2
    # generator acts by swapping the two cosets
    assert ind.gen_mats[0] == Mat(2, [[0, 1], [1, 0]])
    validate_rep(ind)


def test_induce_single_coset_is_identity_functor(klein_rep):
    _, v4 = elementary_abelian(2, 2)
    sub = Subgroup(v4, tuple(range(4)))
    ind = induce(klein_rep, v4, v4, sub, list(range(4)))
    assert ind == klein_rep


def test_induce_klein_to_c2xc4_not_liftable(klein_rep):
    _, g = direct_product_cyclic(2, 4)
    _, v4 = elementary_abelian(2, 2)
    # v4 = <s, t>; embed s -> sigma (index 4), t -> tau^2 (index 2)
    hom = [0, 2, 4, 6]
    sub = Subgroup(g, (0, 2, 4, 6))
    ind = induce(klein_rep, v4, g, sub, hom)
    assert ind.n == 8
    v = check_lift(ind)
    assert not v.liftable


def test_induce_rejects_bad_hom():
    _, g = direct_product_cyclic(2, 4)
    _, c4 = cyclic_group(4)
    sub = Subgroup(g, (0, 1, 2, 3))  # <tau> inside C2 x C4
    triv = Representation(CTX2, c4.presentation, (Mat.identity(2, 1),), 1)
    induce(triv, c4, g, sub, [0, 1, 2, 3])  # the genuine embedding works
    with pytest.raises(NotASubgroupError):
        induce(triv, c4, g, sub, [0, 1, 3, 2])  # bijection but not a homomorphism
    with pytest.raises(NotASubgroupError):
        induce(triv, c4, g, sub, [0, 1, 2, 5])  # image is not the subgroup


def test_induce_requires_realized_presentation(klein_rep):
    from modlift.formats import parse_group_table, format_group_table

    _, g = direct_product_cyclic(2, 4)
    bare = parse_group_table(format_group_table(g))
    _, v4 = elementary_abelian(2, 2)
    sub = Subgroup(bare, (0, 2, 4, 6))
    with pytest.raises(UnrealizedPresentation):
        induce(klein_rep, v4, bare, sub, [0, 2, 4, 6])


def test_restrict_identity_words():
    rep = c2_unipotent()
    out = restrict(rep, rep.presentation, [((0, 1),)])
    assert out.gen_mats == rep.gen_mats


def test_restrict_q16_regular_to_q8():
    _, q16 = generalized_quaternion(16)
    pres8, _ = generalized_quaternion(8)
    reg = regular_representation(q16, CTX2)
    words = [((0, 1), (0, 1)), ((1, 1),)]  # s^2 and t generate a Q8
    out = restrict(reg, pres8, words)
    validate_rep(out)
    assert out.n == 16


def test_restrict_to_trivial_subgroup():
    rep = c2_unipotent()
    out = restrict(rep, Presentation((), ()), [])
    assert out.num_gens == 0
    assert check_lift(out).liftable


def test_restrict_detects_relator_failure():
    rep = c2_unipotent()
    pres3 = Presentation(("u",), (wpow(0, 3),))
    with pytest.raises(InvalidRepresentation):
        restrict(rep, pres3, [((0, 1),)])


# --- brute force oracle ------------------------------------------------------------


def test_brute_force_small_agrees():
    rep = c2_unipotent()
    v = brute_force_lift(rep)
    assert v.liftable == check_lift(rep).liftable
    assert verify_certificate(rep, v.certificate)


def test_brute_force_trivial():
    pres, _ = cyclic_group(3)
    rep = Representation(CTX3, pres, (Mat.identity(3, 1),), 1)
    assert brute_force_lift(rep).liftable


def test_brute_force_budget_guard():
    pres, _ = elementary_abelian(3, 2)
    rep = Representation(
        CTX3, pres, (Mat.identity(3, 3), Mat.identity(3, 3)), 3
    )
    with pytest.raises(BudgetExceeded):
        brute_force_lift(rep)


def test_brute_force_finds_negative():
    # a genuine negative small enough to enumerate completely: the size-2
    # unipotent block over F_5 has no divisor lift and the solver refutes it
    rep = jordan_companion_rep(PrimeCtx(5), 1, 2)
    v = check_lift(rep)
    assert not v.liftable
    bv = brute_force_lift(rep, budget=5 ** 4 + 1)
    assert not bv.liftable


def test_oracle_agreement_random(rng):
    checked = 0
    while checked < 60:
        p = int(rng.choice([2, 3]))
        ctx = PrimeCtx(p)
        n = int(rng.choice([1, 2]))
        k = int(rng.choice([1, 2]))
        if p ** (k * n * n) > 2 ** 12:
            continue
        mats = tuple(random_invertible(rng, p, n) for _ in range(k))
        rels = []
        ok = True
        for _ in range(int(rng.integers(1, 3))):
            L = int(rng.integers(1, 3))
            w = tuple((int(rng.integers(0, k)), int(rng.choice([1, -1]))) for _ in range(L))
            acc = Mat.identity(p, n)
            for g, e in w:
                acc = acc @ (mats[g] if e == 1 else mats[g].inv())
            d = None
            power = acc
            for cand in range(1, 9):
                if power.is_identity():
                    d = cand
                    break
                power = power @ acc
            if d is None or d * L > 8:
                ok = False
                break
            rels.append(w * d)
        if not ok:
            continue
        pres = Presentation(tuple(f"g{i}" for i in range(k)), tuple(rels))
        rep = Representation(ctx, pres, mats, n)
        try:
            validate_rep(rep)
        except InvalidRepresentation:
            continue
        assert check_lift(rep).liftable == brute_force_lift(rep, budget=2 ** 12).liftable
        checked += 1


def test_linearize_dimension_guard():
    pres, _ = cyclic_group(2)
    big = Representation(CTX2, pres, (Mat.identity(2, 65),), 65)
    with pytest.raises(InvalidRepresentation):
        linearize(big)
