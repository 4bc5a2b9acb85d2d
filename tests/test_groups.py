import pytest

from modlift.groups import (
    FiniteGroup,
    GroupAuditError,
    OrderTooLarge,
    Presentation,
    Subgroup,
    NotASubgroup,
    UnsupportedFamily,
    closure,
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
    sylow,
    transversal,
    wpow,
)


# --- families ------------------------------------------------------------


def test_cyclic_family():
    pres, g = cyclic_group(4)
    assert g.order == 4
    assert pres.num_gens == 1
    assert pres.relators == (((0, 1),) * 4,)
    assert g.order_of(g.gen_indices[0]) == 4


def test_quaternion_family_relators():
    pres, g = generalized_quaternion(8)
    assert g.order == 8
    s, t = 0, 1
    expected = (
        ((s, 1), (s, 1), (t, -1), (t, -1)),      # s^2 t^-2
        ((s, 1),) * 4,                            # s^4
        ((t, 1), (s, 1), (t, -1), (s, 1)),        # t s t^-1 s
    )
    assert pres.relators == expected
    # one element of order 2, six of order 4
    orders = sorted(g.order_of(x) for x in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_semidirect_family():
    _, g = semidirect_c3_c2n(1)
    assert g.order == 6
    assert not g.is_abelian()


def test_dihedral_family():
    _, g = dihedral(8)
    assert g.order == 8
    assert not g.is_abelian()
    _, klein = dihedral(4)
    assert klein.is_abelian()


def test_family_errors():
    with pytest.raises(UnsupportedFamily):
        generalized_quaternion(12)
    with pytest.raises(OrderTooLarge):
        cyclic_group(5000)
    with pytest.raises(UnsupportedFamily):
        elementary_abelian(3, 3)


def test_audit_rejects_non_group():
    # constant row breaks the identity axiom
    with pytest.raises(GroupAuditError):
        FiniteGroup([[0, 1], [0, 0]])
    # latin square with identity and inverses that is not associative
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupAuditError):
        FiniteGroup(table)


def test_relators_must_hold():
    pres = Presentation(("s",), (wpow(0, 3),))
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    with pytest.raises(GroupAuditError):
        FiniteGroup(table, pres, (1,))


def test_direct_product_table():
    g = direct_product(elementary_abelian(2, 2)[1], cyclic_group(2)[1], name="E8")
    assert g.order == 8
    assert g.is_abelian()
    assert all(g.order_of(x) in (1, 2) for x in range(8))
    # merged presentation realizes its relators (constructor checks), spot one
    assert g.presentation.num_gens == 3


def test_perm_group_a4():
    s = (1, 2, 0, 3)
    t = (1, 0, 3, 2)
    relators = (wpow(0, 3), wpow(1, 2), ((0, 1), (1, 1)) * 3)
    _, g = perm_group((s, t), ("s", "t"), relators)
    assert g.order == 12
    assert sorted(set(int(o) for o in g.orders)) == [1, 2, 3]


# --- subgroup machinery ----------------------------------------------------


def test_sylow_examples():
    _, s3 = semidirect_c3_c2n(1)
    assert sylow(s3, 3).order == 3
    _, q8 = generalized_quaternion(8)
    assert sylow(q8, 2).order == 8
    _, c12 = cyclic_group(12)
    syl = sylow(c12, 2)
    assert syl.order == 4
    assert any(c12.order_of(x) == 4 for x in syl.elements)
    assert sylow(c12, 7).order == 1


def test_sylow_order_is_p_part():
    for _, g in [cyclic_group(24), semidirect_c3_c2n(2), generalized_quaternion(16)]:
        for p in (2, 3, 5):
            n, p_part = g.order, 1
            while n % p == 0:
                n //= p
                p_part *= p
            assert sylow(g, p).order == p_part


def test_transversal_examples():
    _, c4 = cyclic_group(4)
    whole = Subgroup(c4, tuple(range(4)))
    assert transversal(c4, whole) == [0]
    half = Subgroup(c4, (0, 2))
    assert transversal(c4, half) == [0, 1]
    _, q8 = generalized_quaternion(8)
    sigma = Subgroup(q8, closure(q8, (1,)))
    assert len(transversal(q8, sigma)) == 2


def test_transversal_partitions(rng):
    _, g = semidirect_c3_c2n(2)
    h = sylow(g, 2)
    reps = transversal(g, h)
    cover = [g.mul(t, s) for t in reps for s in h.elements]
    assert sorted(cover) == list(range(g.order))
    assert len(set(reps)) == len(reps)
    assert reps[0] == 0


def test_subgroup_validation():
    _, c6 = cyclic_group(6)
    with pytest.raises(NotASubgroup):
        Subgroup(c6, (0, 1))  # not closed
    with pytest.raises(NotASubgroup):
        Subgroup(c6, (1, 5))  # no identity


# --- witness search ---------------------------------------------------------


def test_witness_q16():
    _, g = generalized_quaternion(16)
    bad = find_subgroup_witness(g)
    assert bad is not None and bad.kind == "Q8"
    # generated by s^2 and t: s has index 1, s^2 index 2, t index 8
    assert bad.gens == (2, 8)
    assert len(bad.elements) == 8


def test_witness_c10():
    _, g = cyclic_group(10)
    bad = find_subgroup_witness(g)
    assert bad.kind == "Cp" and bad.prime == 5
    assert len(bad.elements) == 5


def test_witness_c2xc4():
    _, g = direct_product_cyclic(2, 4)
    bad = find_subgroup_witness(g)
    assert bad.kind == "C2xC2"
    assert sorted(bad.elements) == [0, 2, 4, 6]  # {1, tau^2, sigma, sigma tau^2}


def test_witness_c27_and_c3xc3():
    _, c27 = cyclic_group(27)
    bad = find_subgroup_witness(c27)
    assert bad.kind == "C9"
    _, e9 = elementary_abelian(3, 2)
    bad = find_subgroup_witness(e9)
    assert bad.kind == "C3xC3"
    assert len(bad.elements) == 9


def test_witness_none_on_listed_families():
    for _, g in [cyclic_group(8), cyclic_group(12), semidirect_c3_c2n(2)]:
        assert find_subgroup_witness(g) is None


# --- family recognition ------------------------------------------------------


def test_is_listed_family_examples():
    assert is_listed_family(cyclic_group(12)[1]) == "C3xC2n"
    assert is_listed_family(semidirect_c3_c2n(2)[1]) == "C3semiC2n"
    assert is_listed_family(generalized_quaternion(8)[1]) is None
    assert is_listed_family(cyclic_group(16)[1]) == "C2n"
    assert is_listed_family(cyclic_group(1)[1]) == "C2n"
    assert is_listed_family(elementary_abelian(2, 2)[1]) is None
    assert is_listed_family(cyclic_group(9)[1]) is None
    assert is_listed_family(direct_product_cyclic(3, 4)[1]) == "C3xC2n"


def test_witness_iff_not_listed():
    groups = [
        cyclic_group(k)[1] for k in (1, 2, 3, 4, 6, 8, 9, 12, 5, 7, 10, 15, 27)
    ] + [
        semidirect_c3_c2n(1)[1],
        semidirect_c3_c2n(2)[1],
        generalized_quaternion(8)[1],
        elementary_abelian(2, 2)[1],
        elementary_abelian(3, 2)[1],
        dihedral(8)[1],
    ]
    for g in groups:
        assert (find_subgroup_witness(g) is None) == (is_listed_family(g) is not None)


def test_large_group_sampled_audit():
    # above the exhaustive-audit threshold the axioms are checked on samples
    _, g = cyclic_group(1024)
    assert g.order == 1024
    assert g.order_of(1) == 1024
    assert is_listed_family(g) == "C2n"


def test_group_power():
    _, g = generalized_quaternion(16)
    for x in range(g.order):
        acc = 0
        for k in range(9):
            assert g.power(x, k) == acc
            assert g.power(x, -k) == g.inv_of(acc)
            acc = g.mul(acc, x)


def test_extend_hom():
    _, c4 = cyclic_group(4)
    _, c8 = cyclic_group(8)
    assert extend_hom(c4, (2,), 0, c8.mul) == [0, 2, 4, 6]
    # 1 has order 8 in C8, so s -> 1 breaks the relator s^4
    assert extend_hom(c4, (1,), 0, c8.mul) is None


def test_word_utilities():
    from modlift.groups import winv, wmul

    w = wmul(wpow(0, 2), ((1, -1),))
    assert w == ((0, 1), (0, 1), (1, -1))
    assert winv(w) == ((1, 1), (0, -1), (0, -1))
    assert winv(winv(w)) == w
    # a word times its inverse evaluates to the identity in any group
    _, g = semidirect_c3_c2n(1)
    assert g.eval_word(wmul(w, winv(w)), g.gen_indices) == 0
