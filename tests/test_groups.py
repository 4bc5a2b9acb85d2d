import functools
import hashlib
import operator
import tracemalloc
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_invertible, swapped_c1024_table, time_limit
from modlift.classify import classify
from modlift.formats import family_from_tokens
from modlift.groups import (
    MAX_ORDER,
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
    winv,
    word_value,
    wpow,
)
from modlift.rings import Mat


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
    # the product of the factors is 6, but each factor must be positive
    with pytest.raises(UnsupportedFamily, match="order must be positive"):
        direct_product_cyclic(-2, -3)


# sha256 of table.tobytes(), gen_indices, sha256 of repr(relators) (first 16
# hex digits), name, and the first 16 hex digits of the sha256 of
# orders.tobytes() and of inverse.tobytes(), per family spec.  CxC 4 1 has
# C4's table, t being the identity.
PINNED_TABLES = [
    ("C 1", "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc", (0,), "3e599ccf3e9f4436", "C1",
     "7c9fa136d4413fa6", "af5570f5a1810b7a"),
    ("C 2", "db7f8e2aa97f8d230fc0a6c6d68184ecfee02f4bd2e94dcb331c0d3d54ca5fe8", (1,), "23f8ce2aab396ef7", "C2",
     "0c730b69905c5ef7", "9d34149fbd1fe777"),
    ("C 9", "043e711f8858a640cf58fef5a260eb5747e6d107bc9f290497ad421f5d18960e", (1,), "55352d90ae493058", "C9",
     "ba1acfca5febbd22", "a7c3817318ddb29a"),
    ("C 63", "326b52aa880dc6ca913164fad48d64c4217c1a4dbd9ffd8b600f2cbe19acb8ea", (1,), "1211e4076106e783", "C63",
     "f7617695fbedff1d", "35f8fc9658ad8a65"),
    ("C 64", "6d8988074a34eebaeed944798d4fa44b21266b91c05575e8c036efb936a699f9", (1,), "ac45b9c3cf31114e", "C64",
     "d79f14cd399c28d6", "d4671c54fcf69856"),
    ("C 1024", "3f88b74c5a5bc4d204ea05d331cd49dbef608fe30eaaab37e0bcb0e36a1180d2", (1,), "756d061e409746e7", "C1024",
     "443c4e1b2ee5b242", "a6d2b0a5bf7261f1"),
    ("CxC 1 4", "6fc74d0f65895396cdb611ac0cfc55c286c78513554e8e9d99112d8f209a21b3", (0, 1), "28abb00b3684a501", "C1xC4",
     "3b3182ed252ec651", "c037c842b1b6d83b"),
    ("CxC 2 8", "0051e2313e404097630f86cceeb3c3a4e80bce79b71fe47f4f79c9ab24fda92b", (8, 1), "3af707ec262b4a26", "C2xC8",
     "8a4d54288ae7cd63", "c39dcf1e2dbcd31d"),
    ("CxC 3 6", "296f59fb90d9e8d8054a1778a1d7c1f02d8b36c5b3172f29c13016ed595dd31d", (6, 1), "204b746295508bcb", "C3xC6",
     "3b822076af83bbfd", "16664ae0ff105df3"),
    ("CxC 5 7", "1d7e900bb9ec64aee0a3af8f802a30a7e175a5638b8d2fbe3c0887020bfbc436", (7, 1), "cef9070c7b10115e", "C5xC7",
     "915f5563462a56f3", "3029f55974db733e"),
    ("CxC 64 16", "bf8581089ba804752064ed53a7df6852c19b606569a67bcc00cdebe8d89d8681", (16, 1), "74fb02aec5931d43", "C64xC16",
     "4992b1e9e69ace48", "be334303d41f41dc"),
    ("D 4", "cd18db5001222f5aa2e67a2e1ec7bedb6c97259bc407ac0536383a96da99ee0d", (1, 2), "e29618e1d93e4622", "D4",
     "cce7d25d83a98535", "a1e03200f1f82ad2"),
    ("D 8", "b4fddc32be007c809e52f6d64b92c1beb18cd7b8a2b30d3cd5cfc0e7973f7470", (1, 4), "cef843c6b6acd96a", "D8",
     "b6c3d57e91c63f2e", "ccb57ba209b81a7c"),
    ("D 64", "2550877b5a11a1dda1cbc8a86b9c2de9062cad16b16b9322367f34870a3e0056", (1, 32), "e9e86439b99ff383", "D64",
     "f567d44ccd222c7b", "c2a99598d461da94"),
    ("D 1024", "62847966764c1f54eb7821bffa404803883563ceca0abf796fc6910286a7f64b", (1, 512), "4cf722c15f72f4a4", "D1024",
     "b1fb8b1a582dbaa8", "80b900b3b156402b"),
    ("Q 8", "8e22e58cdfd461b9dc9b0cb46006582407639e90c31c9bad0c84ef9dd13d74c8", (1, 4), "34a859a02eca8a97", "Q8",
     "abad15aa55310070", "67160723ead2d46d"),
    ("Q 16", "5cbc93d715d018c5af213a9c80ea5f97c16cfb7c2500fe5e1401e0c6a5de1fb8", (1, 8), "177fe358636eb1ce", "Q16",
     "5ead89757923c1ce", "67348da4eceb6e97"),
    ("Q 64", "ff2d3e1903a1c85aa099e48b912419df21456399ad0823571ea8f36b97294ca8", (1, 32), "6631ebb38247534d", "Q64",
     "cb4a8221d83f56f0", "df377a7adc998bbc"),
    ("Q 1024", "858113a7b6be75b4de723bae387ee5fbef67b3eeef86be7597116d5c251a0f35", (1, 512), "36b6559281a43f04", "Q1024",
     "9c6f00c1c734210a", "904e9c51a307cf9c"),
    ("C3semi 2", "41602e9e721e6f7f73013176885f12bb455e0248b9ce1fc261e920a4728f196b", (1, 3), "0eeccbc14d4358c2", "C3:C2",
     "51a1de5bddb9891c", "9ce675ac27d3af29"),
    ("C3semi 8", "228f7bcca7f2f256715b68e8a553b695da195ee2f08b0b7b5b6c92ecebe90af5", (1, 3), "8a6f5c6414c3e897", "C3:C8",
     "57e338c8832b6765", "121d9be4717207e8"),
    ("C3semi 256", "c8d079f28c980f36780766bea32145009d7d4e437f6795aee4472a92e2d820b9", (1, 3), "93658c4ddb596421", "C3:C256",
     "9bace1a98a22eff3", "0473700f4259cb3a"),
    ("CxC 4 1", "6fc74d0f65895396cdb611ac0cfc55c286c78513554e8e9d99112d8f209a21b3", (1, 0), "1ecd59a26a4c0e86", "C4xC1",
     "3b3182ed252ec651", "c037c842b1b6d83b"),
]


def _sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize(
    "spec, table_sha, gens, relators_sha, name, orders_sha, inverse_sha",
    PINNED_TABLES,
    ids=[p[0] for p in PINNED_TABLES],
)
def test_family_tables_pinned(spec, table_sha, gens, relators_sha, name, orders_sha, inverse_sha):
    _, g = family_from_tokens(spec.split())
    assert hashlib.sha256(g.table.tobytes()).hexdigest() == table_sha
    assert g.gen_indices == gens
    assert _sha16(repr(g.presentation.relators).encode()) == relators_sha
    assert g.name == name
    assert g.orders.dtype == g.inverse.dtype == np.int64
    assert _sha16(g.orders.tobytes()) == orders_sha
    assert _sha16(g.inverse.tobytes()) == inverse_sha


def test_family_build_speed():
    with time_limit(3):
        assert dihedral(4096)[1].order == 4096
    # the family table is handed over read-only, so it is never copied
    tracemalloc.start()
    try:
        dihedral(4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 4096 * 4096 * 8
    with time_limit(3):
        assert classify(semidirect_c3_c2n(10)[1]).tag == "C3semiC2n"


def test_audit_rejects_non_group():
    cases = [
        # constant row breaks the identity axiom
        ([[0, 1], [0, 0]], "element 0 is not a two-sided identity"),
        # two zeros in row 1
        ([[0, 1, 2], [1, 0, 0], [2, 0, 1]], "element 1 lacks a two-sided inverse"),
        # 1 * 2 = 0 but 2 * 1 = 1
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "element 1 lacks a two-sided inverse"),
        # latin square with identity and inverses that is not associative
        (
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ],
            "associativity fails",
        ),
    ]
    for table, message in cases:
        with pytest.raises(GroupAuditError, match=message):
            FiniteGroup(table)


# the second swap breaks only triples (x s) y with x >= 299, past the
# audit's first slab of rows
@pytest.mark.parametrize("a, c", [(4, 2), (300, 5)])
def test_audit_rejects_swapped_intercalate_at_order_1024(a, c):
    t = swapped_c1024_table(a, c)
    assert t[t[a, c], 1] != t[a, t[c, 1]]
    with pytest.raises(GroupAuditError, match="associativity fails"):
        FiniteGroup(t)


def test_audit_memory_at_order_256():
    table = cyclic_group(256)[1].table
    tracemalloc.start()
    try:
        FiniteGroup(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_audit_memory_at_order_4096():
    # the inverse check finds each row's zero one slab of rows at a time;
    # the n x n bool array t == 0 alone would be 16 MiB here
    table = family_from_tokens(["C", "4096"])[1].table
    assert not table.flags.writeable
    tracemalloc.start()
    try:
        FiniteGroup(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


@pytest.mark.parametrize("row, col", [(5, 7), (4000, 97)])
def test_audit_finds_missing_inverse_in_any_slab(row, col):
    # a second zero in row: its inverse is not unique, in the first slab of
    # 64 rows and in the last one
    t = family_from_tokens(["C", "4096"])[1].table.copy()
    assert t[row, col] != 0
    t[row, col] = 0
    with pytest.raises(GroupAuditError, match=f"element {row} lacks a two-sided inverse"):
        FiniteGroup(t)


AUDIT_TABLES = [family_from_tokens(spec.split())[1].table for spec in (
    "C 8", "C 12", "C 16", "CxC 2 4", "CxC 2 8", "CxC 4 4", "D 8", "D 16", "Q 8", "Q 16", "C3semi 4",
)]


@settings(max_examples=60, deadline=None)
@given(
    which=st.sampled_from(range(len(AUDIT_TABLES))),
    swaps=st.lists(st.tuples(st.integers(1, 15), st.integers(1, 15), st.integers(0, 15)), min_size=1, max_size=3),
)
@example(which=0, swaps=[(1, 2, 0)])             # rejected
@example(which=0, swaps=[(1, 2, 0), (1, 2, 1)])  # the second swap undoes the first
def test_audit_matches_n3_reference_on_swapped_tables(which, swaps):
    """Swapping an intercalate (rows a, b and columns c, d with t[a, c] =
    t[b, d] and t[a, d] = t[b, c]) away from row 0, column 0 and the zeros
    keeps the identity, the inverses and the Latin property; the audit must
    accept the result exactly when the n^3 comparison does."""
    t = AUDIT_TABLES[which].copy()
    n = len(t)
    for a, c, k in swaps:
        a, c = a % n, c % n
        u = t[a, c]
        d = (t == u).argmax(axis=1)    # column of u in each row
        rows = [b for b in range(1, n) if b != a and d[b] and t[b, c] and t[a, d[b]] == t[b, c]]
        if 0 in (a, c, u) or not rows:
            continue
        b = rows[k % len(rows)]
        v = t[b, c]
        t[a, c] = t[b, d[b]] = v
        t[a, d[b]] = t[b, c] = u
    if np.array_equal(t[t], t[:, t]):
        FiniteGroup(t)
    else:
        with pytest.raises(GroupAuditError, match="associativity fails"):
            FiniteGroup(t)


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


def reference_perm_group(perms, names, relators, name=None):
    """The former perm_group: BFS closure, then all n^2 products of
    permutation tuples looked up one by one."""
    if not perms:
        raise UnsupportedFamily("need at least one permutation")
    deg = len(perms[0])
    ident = tuple(range(deg))
    elems = [ident]
    index = {ident: 0}
    queue = [ident]
    while queue:
        cur = queue.pop(0)
        for s in perms:
            nxt = tuple(cur[s[i]] for i in range(deg))  # cur after s: (cur . s)
            if nxt not in index:
                index[nxt] = len(elems)
                elems.append(nxt)
                queue.append(nxt)
        if len(elems) > MAX_ORDER:
            raise OrderTooLarge("permutation closure exceeds order cap")
    n = len(elems)
    table = [[0] * n for _ in range(n)]
    for i, f in enumerate(elems):
        for j, g in enumerate(elems):
            table[i][j] = index[tuple(f[g[k]] for k in range(deg))]
    pres = Presentation(tuple(names), tuple(relators))
    gens = tuple(index[p] for p in perms)
    g = FiniteGroup(table, pres, gens, name=name)
    return pres, g


def _cycle(deg, points):
    """The permutation of 0..deg-1 that cycles the points."""
    perm = list(range(deg))
    for a, b in zip(points, points[1:] + points[:1]):
        perm[a] = b
    return tuple(perm)


PERM_GROUPS = {
    "S4": ((1, 0, 2, 3), (1, 2, 3, 0)),
    "A4": ((1, 2, 0, 3), (1, 0, 3, 2)),
    "A5": (_cycle(5, [0, 1, 2]), _cycle(5, [0, 1, 2, 3, 4])),
    "S5": (_cycle(5, [0, 1]), _cycle(5, [0, 1, 2, 3, 4])),
    "S6": (_cycle(6, [0, 1]), _cycle(6, [0, 1, 2, 3, 4, 5])),
}


@pytest.mark.parametrize("name", PERM_GROUPS)
def test_perm_group_matches_reference(name):
    perms = PERM_GROUPS[name]
    relators = (wpow(0, 2),) if name.startswith("S") else ()
    pres, g = perm_group(perms, ("a", "b"), relators, name=name)
    ref_pres, ref = reference_perm_group(perms, ("a", "b"), relators, name=name)
    assert g.order == ref.order == {"S4": 24, "A4": 12, "A5": 60, "S5": 120, "S6": 720}[name]
    assert g.table.tobytes() == ref.table.tobytes()
    assert g.gen_indices == ref.gen_indices
    assert pres == ref_pres == g.presentation


def test_perm_group_a7_speed():
    with time_limit(2):
        _, g = perm_group((_cycle(7, [0, 1, 2]), _cycle(7, list(range(7)))), ("a", "b"), ())
    assert g.order == 2520


@pytest.mark.parametrize(
    "perms",
    [
        [(1, 0, 2), (1, 0)],         # second generator of lower degree
        [(1, 0), (1, 0, 2)],         # second generator of higher degree
        [(1, 0, 2), (0, 0, 2)],      # not a bijection
        [(1, 0, 2), (0, 1, 3)],      # entry out of range
    ],
)
def test_perm_group_rejects_non_permutations(perms):
    with pytest.raises(UnsupportedFamily, match="generators must be permutations"):
        perm_group(perms, ("a", "b"), ())


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


@pytest.mark.parametrize("p", [0, 1, 4])
def test_sylow_rejects_non_prime(p):
    # without the prime check p = 1 never leaves the p-part loop: hence the limit
    _, c12 = cyclic_group(12)
    with time_limit(3), pytest.raises(ValueError):
        sylow(c12, p)


def test_sylow_of_p_group_is_whole(monkeypatch):
    # |D2048| = 2^11: the whole group, with no normalizer scan
    _, g = dihedral(2048)
    calls = []
    conjugate = type(g).conjugate

    def counted(self, x, a):
        calls.append((x, a))
        return conjugate(self, x, a)

    monkeypatch.setattr(type(g), "conjugate", counted)
    assert sylow(g, 2).elements == tuple(range(g.order))
    assert calls == []


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
    with pytest.raises(NotASubgroup, match="not inverse-closed at 1"):
        Subgroup(c6, (0, 1))
    with pytest.raises(NotASubgroup, match=r"not closed at 1\*1"):
        Subgroup(c6, (0, 1, 5))
    with pytest.raises(NotASubgroup, match=r"not closed at 2\*3"):
        Subgroup(c6, (0, 2, 4, 3))
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


def reference_listed_family(g):
    """The structural recognizer the element-order rule replaced: the family
    tag from a pair scan over order-3 and order-2^a elements."""
    n = g.order
    two_part = n & -n
    rest = n // two_part
    if rest == 1:
        return "C2n" if g.is_cyclic() else None
    if rest != 3:
        return None
    if g.is_cyclic():
        return "C3xC2n"
    order3 = [x for x in range(1, n) if g.order_of(x) == 3]
    gens2 = [y for y in range(1, n) if g.order_of(y) == two_part]
    for x in order3:
        xinv = g.inv_of(x)
        for y in gens2:
            if g.conjugate(y, x) == xinv and len(closure(g, (x, y))) == n:
                return "C3semiC2n"
    return None


def _matrix_perm_group(mats):
    """The group generated by 2x2 matrices over F_3, acting on the 8 nonzero
    vectors of F_3^2."""
    vecs = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    perms = [
        tuple(vecs.index(((a * x + b * y) % 3, (c * x + d * y) % 3)) for x, y in vecs)
        for (a, b), (c, d) in mats
    ]
    return perm_group(perms, [f"m{i}" for i in range(len(perms))], ())[1]


@functools.lru_cache(maxsize=1)
def family_test_groups():
    """Cyclic groups, abelian products, 2-groups, the C3 : C_{2^k} family,
    small products of liftable and non-liftable groups, and four
    permutation groups: a set on which both family rules must agree."""
    groups = [cyclic_group(n)[1] for n in range(1, 200)]
    # C_a x C_b for 2 <= a <= b and ab <= 400
    groups += [direct_product_cyclic(a, b)[1] for a in range(2, 21) for b in range(a, 401 // a)]
    groups += [dihedral(2 ** k)[1] for k in range(2, 9)]
    groups += [generalized_quaternion(2 ** k)[1] for k in range(3, 9)]
    groups += [semidirect_c3_c2n(k)[1] for k in range(1, 9)]
    factors = [
        semidirect_c3_c2n(2)[1],
        semidirect_c3_c2n(3)[1],
        generalized_quaternion(8)[1],
        dihedral(8)[1],
        cyclic_group(8)[1],
    ]
    groups += [direct_product(f, cyclic_group(m)[1]) for f in factors for m in (2, 3, 4)]
    groups += [
        perm_group([(1, 0, 2, 3), (1, 2, 3, 0)], ["s", "t"], ())[1],     # S4
        perm_group([(1, 2, 0, 3), (1, 0, 3, 2)], ["s", "t"], ())[1],     # A4
        _matrix_perm_group([((1, 1), (0, 1)), ((1, 0), (1, 1))]),        # SL(2,3)
        _matrix_perm_group([((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (0, 1))]),  # GL(2,3)
    ]
    return tuple(groups)


def test_is_listed_family_matches_reference():
    groups = family_test_groups()
    assert [g.order for g in groups[-4:]] == [24, 12, 24, 48]
    tags = [reference_listed_family(g) for g in groups]
    assert set(tags) == {"C2n", "C3xC2n", "C3semiC2n", None}
    for g, tag in zip(groups, tags):
        assert is_listed_family(g) == tag, g.name


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
    ] + list(family_test_groups())
    for g in groups:
        assert (find_subgroup_witness(g) is None) == (is_listed_family(g) is not None)


def test_large_group_sampled_audit():
    # the audit is exact at this order too: nothing is sampled
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
    assert word_value(wmul(w, winv(w)), g.gen_indices, 0, g.mul, g.inv_of) == 0


def fold_word(word, images, one, mul, inv):
    """Reference evaluator: one product per letter, left to right."""
    acc = one
    for g, e in word:
        acc = mul(acc, images[g] if e == 1 else inv(images[g]))
    return acc


# runs g^(+-m) of length 1 to 2^12; adjacent runs of one letter merge
RUNS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.sampled_from([1, -1]),
        st.one_of(st.just(1), st.integers(1, 70), st.integers(1, 1 << 12)),
    ),
    max_size=6,
)


def runs_word(runs):
    return tuple(letter for g, e, m in runs for letter in wpow(g, e * m))


def counted(mul):
    calls = []

    def wrapped(a, b):
        calls.append(None)
        return mul(a, b)

    return wrapped, calls


def assert_run_cost(word, calls):
    # a run of m letters costs at most 2 bit_length(m) - 2 products in
    # rings.power, plus one into the value
    bound = sum(2 * sum(1 for _ in run).bit_length() for _, run in groupby(word))
    assert len(calls) <= bound


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from([2, 3, 7, 251]),
    square=st.booleans(),
    n=st.integers(1, 4),
    runs=RUNS,
    seed=st.integers(0, 2**32 - 1),
)
@example(p=251, square=True, n=3, runs=[(0, 1, 1 << 12), (1, -1, 1), (0, -1, 3001), (2, 1, 2)], seed=0)
def test_word_value_matches_letter_fold_on_matrices(p, square, n, runs, seed):
    rng = np.random.default_rng(seed)
    mod = p * p if square else p
    images = [Mat(mod, random_invertible(rng, p, n).a + p * rng.integers(0, p, (n, n))) for _ in range(3)]
    word = runs_word(runs)
    one = Mat.identity(mod, n)
    mul, calls = counted(operator.matmul)
    got = word_value(word, images, one, mul, Mat.inv)
    assert got == fold_word(word, images, one, operator.matmul, Mat.inv)
    assert got.mod == mod
    assert_run_cost(word, calls)
    assert word_value(word + winv(word), images, one, operator.matmul, Mat.inv).is_identity()


TABLE_GROUPS = [dihedral(16)[1], generalized_quaternion(16)[1], semidirect_c3_c2n(2)[1], cyclic_group(97)[1]]


@settings(max_examples=30, deadline=None)
@given(
    group=st.sampled_from(range(len(TABLE_GROUPS))),
    runs=RUNS,
    elements=st.lists(st.integers(0, MAX_ORDER), min_size=3, max_size=3),
)
@example(group=3, runs=[(0, -1, 1 << 12), (1, 1, 5), (0, 1, 4000)], elements=[1, 2, 3])
def test_word_value_matches_letter_fold_on_tables(group, runs, elements):
    g = TABLE_GROUPS[group]
    images = [x % g.order for x in elements]
    word = runs_word(runs)
    mul, calls = counted(g.mul)
    got = word_value(word, images, 0, mul, g.inv_of)
    assert got == fold_word(word, images, 0, g.mul, g.inv_of)
    assert_run_cost(word, calls)
