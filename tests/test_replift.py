import functools
import math
import operator
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import over_budget_rep, random_invertible, random_valid_instance, refutes
from test_rings import reference_inverse
from modlift import replift
from modlift.classify import _bad_group_and_witness, induced_witness
from modlift.cli import main
from modlift.formats import family_from_tokens, parse_representation
from modlift.groups import (
    NotASubgroup,
    Presentation,
    Subgroup,
    commutator,
    cyclic_group,
    dihedral,
    direct_product_cyclic,
    elementary_abelian,
    extend_hom,
    find_subgroup_witness,
    generalized_quaternion,
    transversal,
    winv,
    wmul,
    wpow,
)
from modlift.replift import (
    _CHUNK,
    MAX_DIMENSION,
    MAX_SYSTEM_BYTES,
    BudgetExceeded,
    InvalidRepresentation,
    LiftCertificate,
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
    _binomial_gram,
    _float_dtype,
    _reduce_mod,
    _stack_powers,
)
from modlift import rings
from modlift.rings import Consistent, Mat, PrimeCtx, matmul_mod, merge_kernel_element, nullspace, solve_affine
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
    # s^2 holds for the unipotent block over F_2, s^3 does not; check_lift
    # finds it in its own relator walk
    pres = Presentation(("s",), (wpow(0, 2), wpow(0, 3)))
    rep = Representation(CTX2, pres, (Mat(2, [[1, 1], [0, 1]]),), 2)
    for check in (validate_rep, check_lift):
        with pytest.raises(InvalidRepresentation, match="relator #1 does not evaluate to the identity"):
            check(rep)


def test_validate_detects_singular_generator():
    pres, _ = cyclic_group(2)
    rep = Representation(CTX2, pres, (Mat(2, [[1, 1], [1, 1]]),), 2)
    for check in (validate_rep, check_lift):
        with pytest.raises(InvalidRepresentation, match="generator 's' is not invertible over F_2"):
            check(rep)


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
    vecs = [res.particular] + [(res.particular + t) % 2 for t in nullspace(lin.system.matrix, 2)]
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
    gen_inv = [Mat(p, reference_inverse(m.a, p)) for m in rep.gen_mats]
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


def random_relator_rep(rng, p, n, k, length, runs=False):
    """k generators over F_p with two relators of about `length` letters.

    The first k-1 generators are random; the last is u(x)^-1 * T for a
    random word u in them and a matrix T of small order d, so (u z)^d is a
    relator.  Rotation, inversion and conjugation by a random word keep it
    one while mixing inverse letters into it.  With k = 1 the word is
    lengthened by a power prime to p instead, so its block stays nonzero.
    With runs, u is g0^(+-a) g1^(+-b) ... with each run up to `length`
    letters long, so the relator is (g0^a g1^-b z)^d and its runs of both
    signs cross the buffer boundaries.
    """
    ctx = PrimeCtx(p)
    conj = random_invertible(rng, p, n)
    perm = Mat(p, np.eye(n, dtype=np.int64)[rng.permutation(n)])
    t = Mat(p, (conj @ perm @ conj.inv()).a * int(rng.choice([1, -1])))
    d = 1
    while not (t ** d).is_identity():
        d += 1
    mats = [random_invertible(rng, p, n) for _ in range(k - 1)]
    if runs:
        u = wmul(*(wpow(g, int(rng.choice([1, -1])) * int(rng.integers(1, length + 1))) for g in range(k - 1)))
    else:
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


@settings(max_examples=60, deadline=None)
@given(
    # 181 is the last prime linearize takes in float32, 191 the first above
    p=st.sampled_from([2, 3, 5, 7, 181, 191, 32749]),
    n=st.integers(1, 5),
    k=st.integers(1, 3),
    length=st.one_of(
        st.integers(1, 40),
        st.integers(_CHUNK - 3, _CHUNK + 3),
        st.integers(_CHUNK + 4, 2 * _CHUNK + 5),
    ),
    randomize=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    runs=st.booleans(),
)
# Z/p^2 products past int64 (Python integers) over two buffers
@example(p=32749, n=5, k=2, length=_CHUNK + 7, randomize=True, seed=1, runs=False)
# (g0^a g1^-b z)^d with runs of both signs across buffer boundaries
@example(p=3, n=4, k=3, length=_CHUNK + 40, randomize=True, seed=3, runs=True)
# float32 at its last prime, with a run of 641 letters across buffer boundaries
@example(p=181, n=4, k=2, length=2 * _CHUNK + 5, randomize=True, seed=7, runs=True)
# (g0^300 g1)^2: with two generators a buffer holds _CHUNK // 2 = 256
# pairs, so each g0 run fills it and goes on from its last pair
@example(p=3, n=4, k=2, length=300, randomize=True, seed=0, runs=True)
def test_linearize_matches_kron_oracle(p, n, k, length, randomize, seed, runs):
    rng = np.random.default_rng(seed)
    rep = random_relator_rep(rng, p, n, k, length, runs)
    lifts = randomized_lifts(rep, rng) if randomize else canonical_lifts(rep)
    matrix, rhs, defects = kron_linearize(rep, lifts)
    lin = linearize(rep, lifts)
    got = lin.system.matrix
    assert got.dtype == np.min_scalar_type(p - 1) and got.shape == matrix.shape
    assert got.astype(np.int64).tobytes() == matrix.tobytes()
    got = lin.system.rhs
    assert got.dtype == rhs.dtype and got.shape == rhs.shape
    assert got.tobytes() == rhs.tobytes()
    assert [(d.mod, d.a.tobytes()) for d in lin.defects] == [(d.mod, d.a.tobytes()) for d in defects]


def commuting_unipotent_rep(rng, p, n, a, m1, m2):
    """<s, t | s^(p^a), t^(p^a), s^m1 t^m2 s^-m1 t^-m2> over F_p in dimension n.

    s is the companion matrix of (x-1)^n conjugated by a random P, and t =
    1 + q(s)(s - 1) for a random polynomial q, so s and t commute, and both
    have order dividing p^a once p^a >= n.
    """
    assert p ** a >= n
    one = Mat.identity(p, n)
    s = jordan_companion_rep(PrimeCtx(p), a, n).gen_mats[0]
    conj = random_invertible(rng, p, n)
    s = conj @ s @ conj.inv()
    q = Mat(p, np.zeros((n, n), dtype=np.int64))
    for c in rng.integers(0, p, n):
        q = q @ s + Mat(p, one.a * int(c))
    t = one + q @ (s - one)
    relators = (wpow(0, p ** a), wpow(1, p ** a), wmul(wpow(0, m1), wpow(1, m2), wpow(0, -m1), wpow(1, -m2)))
    return Representation(PrimeCtx(p), Presentation(("s", "t"), relators), (s, t), n)


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    n=st.integers(1, 5),
    extra=st.integers(0, 1),
    # each commutator run is n + |k| letters long, with the sign of k
    k1=st.integers(-40, 40).filter(bool),
    k2=st.integers(-40, 40).filter(bool),
    # buffers of one pair and rings.power from the first Pascal row, or
    # the buffers and the written-out Pascal table linearize runs with
    chunk=st.sampled_from([1, 3, _CHUNK]),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=2, n=4, extra=0, k1=-9, k2=11, chunk=1, seed=0)
@example(p=3, n=5, extra=0, k1=-13, k2=-7, chunk=3, seed=1)
@example(p=7, n=5, extra=1, k1=30, k2=-40, chunk=_CHUNK, seed=2)
def test_linearize_compressed_runs_match_kron_oracle(p, n, extra, k1, k2, chunk, seed):
    # runs longer than n of p-power-order generators enter as n prefix
    # pairs mixed by _binomial_gram, and must give A, b and the defects
    # that one Kronecker block per letter gives
    rng = np.random.default_rng(seed)
    a = next(a for a in range(1, 4) if p ** a >= n) + extra
    m1, m2 = (k + n * int(np.sign(k)) for k in (k1, k2))
    rep = commuting_unipotent_rep(rng, p, n, a, m1, m2)
    validate_rep(rep)
    lifts = randomized_lifts(rep, rng)
    matrix, rhs, defects = kron_linearize(rep, lifts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(replift, "_CHUNK", chunk)
        lin = linearize(rep, lifts)
    assert lin.system.matrix.astype(np.int64).tobytes() == matrix.tobytes()
    assert lin.system.rhs.tobytes() == rhs.tobytes()
    assert [(d.mod, d.a.tobytes()) for d in lin.defects] == [(d.mod, d.a.tobytes()) for d in defects]


def binomial_gram_by_definition(m, d, p):
    """[sum_{t<m} C(t, i) C(t, j); C(m-1, j); C(m, j)] mod p, term by term."""
    rows = np.array([[math.comb(t, i) % p for i in range(d)] for t in range(m + 1)], dtype=np.int64)
    return np.concatenate(((rows[:-1].T @ rows[:-1]) % p, rows[-2:]))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_binomial_gram_matches_definition(p, monkeypatch):
    # both ways of forming it: the written-out table below _CHUNK rows and
    # rings.power from the first row past it (forced here by _CHUNK = 1)
    for m in range(1, 201):
        want = binomial_gram_by_definition(m, 8, p)
        for chunk in (_CHUNK, 1):
            monkeypatch.setattr(replift, "_CHUNK", chunk)
            for d in range(1, 9):
                got = _binomial_gram(m, d, p, _float_dtype(p)).astype(np.int64)
                assert got.tobytes() == np.concatenate((want[:d, :d], want[8:, :d])).tobytes(), (chunk, m, d)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_binomial_gram_at_two_to_the_sixteen(p):
    m, d = 1 << 16, 8
    want = binomial_gram_by_definition(m, d, p)
    assert _binomial_gram(m, d, p, _float_dtype(p)).astype(np.int64).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "rows, p, dtype",
    [pytest.param(rows, 32749, np.float64, id=str(rows)) for rows in (1, 2, 37, 64)]
    + [pytest.param(rows, 181, np.float32, id=f"{rows}-float32") for rows in (1, 2, 37, 64)],
)
def test_stack_powers_matches_letter_products(rows, p, dtype):
    # the largest dimension and the largest prime of each float width: the
    # doubling's sums reach 64 (p-1)^2, which must stay exact
    assert _float_dtype(p) == dtype
    n = MAX_DIMENSION
    rng = np.random.default_rng(rows)
    start = rng.integers(0, p, (n, n))
    step = rng.integers(0, p, (n, n))
    out = np.empty((rows, n, n), dtype=dtype)
    out[0] = start
    _stack_powers(out, step.astype(dtype), p)
    want = start
    for t in range(rows):
        assert out[t].astype(np.int64).tobytes() == want.tobytes(), t
        want = matmul_mod(want, step, p)


@pytest.mark.parametrize(
    "p, dtype",
    [pytest.param(p, np.float64, id=str(p)) for p in (2, 3, 5, 251, 257, 32749)]
    + [pytest.param(p, np.float32, id=f"{p}-float32") for p in (2, 3, 5, 7, 179, 181)],
)
def test_reduce_mod_matches_integer_remainder(p, dtype):
    # random x below 2^m (m = 53 for float64, 24 for float32), the multiples
    # of p nearest 2^m and their neighbours, and the small values.  At p = 5
    # in float64, and at p = 3, 7 and 181 in float32, x * (1/p) rounds up to
    # the next integer for each k p - 1 below, so the correction of a
    # negative remainder is exercised
    bits = np.finfo(dtype).nmant + 1
    rng = np.random.default_rng(p)
    top = ((1 << bits) - 1) // p
    edges = [k * p + d for k in range(top - 63, top + 1) for d in (-1, 0, 1)]
    x = np.concatenate([
        rng.integers(0, 1 << bits, 4000),
        rng.integers(0, 1 << (bits - 13), 4000),
        np.array([e for e in edges if e < 1 << bits] + [(1 << bits) - 1, (1 << bits) - 2]),
        np.arange(3 * p),
    ])
    got = x.astype(dtype).reshape(-1, 1)
    assert (got.astype(np.int64).ravel() == x).all()
    assert _reduce_mod(got, p) is got
    assert got.astype(np.int64).ravel().tobytes() == (x % p).tobytes()


@pytest.mark.parametrize("p", [3, 181, 32749])
@pytest.mark.parametrize("n", [3, 5])
def test_linearize_in_slabs_matches_kron_oracle(p, n, monkeypatch):
    # _SLAB = 64 floats cuts each block product into slabs of 64 // n^3
    # row blocks, at least one: two and one at n = 3, five of one at n = 5.
    # Runs of both signs over two buffers flush each generator's buffer
    # more than once, so later slabs are added to what earlier flushes wrote
    monkeypatch.setattr(replift, "_SLAB", 64)
    rng = np.random.default_rng(n * p)
    rep = random_relator_rep(rng, p, n, 3, _CHUNK + 40, runs=True)
    lifts = randomized_lifts(rep, rng)
    matrix, rhs, _ = kron_linearize(rep, lifts)
    lin = linearize(rep, lifts)
    assert lin.system.matrix.astype(np.int64).tobytes() == matrix.tobytes()
    assert lin.system.rhs.tobytes() == rhs.tobytes()


@pytest.mark.parametrize("p", [181, 191])
def test_chunk_product_exact_at_float_width(p):
    # the largest sums linearize forms: one full buffer's (n^2, _CHUNK) @
    # (_CHUNK, n^2) block product with every operand p - 1, in the float
    # width it picks for p, against the int64 product.  The sums reach
    # _CHUNK (p-1)^2: 16,588,800 at p = 181, below 2^24 = 16,777,216, and
    # 18,483,200 at p = 191
    dtype, n2, top = _float_dtype(p), 64, _CHUNK * (p - 1) ** 2
    xt = np.full((n2, _CHUNK), p - 1, dtype=dtype)
    y = np.full((_CHUNK, n2), p - 1, dtype=dtype)
    got = xt @ y
    assert got.dtype == dtype and (got.astype(np.int64) == top).all()
    assert (_reduce_mod(got, p).astype(np.int64) == top % p).all()
    # every integer up to that bound, p more for the sum into A, is exact
    # in the width, so any order of summation is exact
    near = np.arange(top - p, top + p)
    assert (near.astype(dtype).astype(np.int64) == near).all()


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (2, 0, 0), (3, 0, 4), (2, 3, 0, 0)])
def test_reduce_mod_empty(shape):
    x = np.empty(shape)
    assert _reduce_mod(x, 7) is x and x.shape == shape


def test_reduce_mod_in_place_on_views():
    # the strided views _stack_powers reduces: a run's rows inside a
    # generator's buffer of pairs, seen as (2, k n, n); and a transposed view
    p, n = 7, 5
    rng = np.random.default_rng(0)
    base = rng.integers(0, 1 << 40, (2, 6, n, n)).astype(np.float64)
    before = base.copy()
    rows = base[:, 1:4].reshape(2, 3 * n, n)
    assert np.shares_memory(rows, base) and not rows.flags.c_contiguous
    assert _reduce_mod(rows, p) is rows
    want = before.copy()
    want[:, 1:4] %= p
    assert np.array_equal(base, want)
    t = base[0, 0].T
    _reduce_mod(t, p)
    want[0, 0] %= p
    assert np.array_equal(base, want)


def test_linearize_zero_dimensional():
    # n = 0: every array linearize reduces or writes is empty
    pres, _ = cyclic_group(3)
    rep = Representation(CTX3, pres, (Mat.identity(3, 0),), 0)
    lin = linearize(rep)
    assert lin.system.matrix.shape == (0, 0) and lin.system.rhs.shape == (0,)
    assert check_lift(rep).liftable


def test_check_lift_walks_runs_in_log_products(monkeypatch):
    # <s | s^65536>: one run, so the Z/p^2 walk of linearize and the
    # certificate check take O(log 65536) matrix products, not one a letter
    calls = []

    def counted(a, b, mod):
        calls.append(mod)
        return matmul_mod(a, b, mod)

    rep = jordan_companion_rep(PrimeCtx(2), 16, 20)
    monkeypatch.setattr(replift, "matmul_mod", counted)
    monkeypatch.setattr(rings, "matmul_mod", counted)
    v = check_lift(rep)
    assert v.liftable
    assert len(calls) <= 8 * 17


def test_linearize_rejects_foreign_lifts():
    rep = c2_unipotent()
    with pytest.raises(InvalidRepresentation):
        linearize(rep, (Mat(4, [[1, 0], [0, 1]]),))


def test_naive_lifts_one_per_generator(klein_rep):
    lifts = canonical_lifts(klein_rep)
    word = klein_rep.presentation.relators[0]
    for wrong in (lifts[:1], lifts + lifts, ()):
        for check in (linearize, check_lift, lambda rep, ls: relator_defect(rep, ls, word)):
            with pytest.raises(InvalidRepresentation, match="one naive lift per generator required"):
                check(klein_rep, wrong)


# --- decision procedure -------------------------------------------------------


def test_klein_not_liftable(klein_rep):
    v = check_lift(klein_rep)
    assert not v.liftable
    assert refutes(klein_rep, v)


def test_c3c3_not_liftable(c3c3_rep):
    v = check_lift(c3c3_rep)
    assert not v.liftable
    assert refutes(c3c3_rep, v)


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


@pytest.mark.parametrize("power_relator", [False, True], ids=["commutator", "with-s^2"])
def test_verify_certificate_rejects_a_singular_lift(power_relator):
    # s is singular mod 2; with no power relator the commutator inverts it
    # by Mat.inv, whose Singular must fail the check rather than escape it
    rels = (commutator(0, 1),) + ((wpow(0, 2),) if power_relator else ())
    s, t = Mat(2, [[1, 1], [1, 1]]), Mat.identity(2, 2)
    rep = Representation(CTX2, Presentation(("s", "t"), rels), (s, t), 2)
    assert not verify_certificate(rep, LiftCertificate(canonical_lifts(rep)))


# --- generator inverses from power relators ------------------------------------

# perfbench's long-relator ladder: J_i of <s | s^(p^n)> as (p, n, i)
LONG_RELATOR_LADDER = (
    (2, 7, 12), (2, 8, 16), (2, 9, 24), (2, 10, 20), (3, 4, 20), (3, 4, 30),
    (3, 5, 16), (3, 5, 20), (5, 3, 20), (5, 3, 27), (7, 2, 20), (7, 2, 28),
)
# perfbench's search-small groups, with their primes
SEARCH_SMALL_GROUPS = (
    (2, lambda: elementary_abelian(2, 2)),
    (2, lambda: generalized_quaternion(8)),
    (3, lambda: elementary_abelian(3, 2)),
    (2, lambda: cyclic_group(8)),
    (3, lambda: cyclic_group(9)),
    (7, lambda: cyclic_group(7)),
)


def record_inversions(monkeypatch) -> list:
    """The matrix of every Mat.inv call from here on, in order."""
    calls = []
    inv = Mat.inv

    def counted(m):
        calls.append(m)
        return inv(m)

    monkeypatch.setattr(Mat, "inv", counted)
    return calls


def test_verify_certificate_inverts_once_per_certificate(q8_rep, monkeypatch):
    # Q8 = <s, t | s^2 t^-2, s^4, t s t^-1 s>: s^-1 = s^3, but t, inverted
    # in two relators, has no power relator, so linearize inverts it once
    # over F_2 and the certificate check once over Z/4
    calls = record_inversions(monkeypatch)
    cert = check_lift(q8_rep).certificate
    assert calls == [q8_rep.gen_mats[1], cert.mats[1]]
    calls.clear()
    assert verify_certificate(q8_rep, cert)
    assert calls == [cert.mats[1]]


def test_power_orders():
    pres = Presentation(
        ("s", "t", "u"),
        (wpow(0, 4), wpow(0, 2), wpow(1, -3), wmul(wpow(2, 2), wpow(1, 1)), (), wpow(2, 5)),
    )
    assert replift._power_orders(pres) == {0: 2, 2: 5}
    assert replift._power_orders(generalized_quaternion(8)[0]) == {0: 4}


def test_check_lift_inverts_no_generator_with_a_power_relator(monkeypatch, klein_rep, c3c3_rep):
    reps = [jordan_companion_rep(PrimeCtx(p), n, i) for p, n, i in LONG_RELATOR_LADDER]
    reps += [klein_rep, c3c3_rep]
    regular = [
        regular_representation(g, PrimeCtx(p))
        for p, (_, g) in [(2, elementary_abelian(2, 2)), (3, elementary_abelian(3, 2)), (7, cyclic_group(7)),
                          (2, cyclic_group(8)), (3, cyclic_group(9)), (2, dihedral(16))]
    ]
    calls = record_inversions(monkeypatch)
    for rep in reps:
        check_lift(rep)
    # regular representations lift, so their certificates are checked too
    assert all(check_lift(rep).liftable for rep in regular)
    assert calls == []


@pytest.mark.parametrize(
    "p, rels, s, t, message",
    [
        # s is singular and s^2 is the power relator: the walk of s t s^-1
        # t^-1, with s^1 in place of s^-1, comes first, but s is named
        (2, ["s t s^-1 t^-1", "s s", "t t"], "1 1 0\n1 1 0\n0 0 1", "1 0 0\n0 1 0\n0 0 1",
         "generator 's' is not invertible over F_2"),
        # both singular: Mat.inv fails on t, which has no power relator,
        # but s comes first and is named
        (2, ["s s", "t s t^-1 s^-1"], "1 1 0\n1 1 0\n0 0 1", "1 0 0\n0 0 0\n0 0 1",
         "generator 's' is not invertible over F_2"),
        # s has order 4 over F_3, so s^1 is not s^-1: its Newton step over
        # Z/9 is 2s - s^3 = 3s, and the walk fails on relator #0; the
        # relator that fails with exact inverses is still the one named
        (3, ["s t s^-1 t^-1", "s s", "t t"], "0 2\n1 0", "1 0\n0 1",
         "relator #1 does not evaluate to the identity"),
    ],
    ids=["singular-power-generator", "singular-pair", "power-relator-fails"],
)
def test_invalid_rep_errors_with_power_relators(tmp_path, capsys, p, rels, s, t, message):
    n = s.count("\n") + 1
    text = f"p {p}\nn {n}\ngens 2 s t\n" + "".join(f"rel {r}\n" for r in rels) + f"mat s\n{s}\nmat t\n{t}\n"
    with pytest.raises(InvalidRepresentation, match=message):
        check_lift(parse_representation(text))
    path = tmp_path / "invalid.rep"
    path.write_text(text)
    rc = main(["check", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {path}: {message}\n"
    assert "VERDICT" not in captured.out


def reference_verify_certificate(rep: Representation, cert: LiftCertificate) -> bool:
    """verify_certificate with every inverse from Mat.inv, as it was before
    inverses were read off power relators; kept as its oracle."""
    p, p2 = rep.ctx.p, rep.ctx.p2
    if len(cert.mats) != rep.num_gens:
        return False
    for m, lifted in zip(rep.gen_mats, cert.mats):
        if lifted.mod != p2 or lifted.n != rep.n or lifted.reduce(p) != m:
            return False
    return all(eval_word(cert.mats, w, p2, rep.n).is_identity() for w in rep.presentation.relators)


def corrected(cert: LiftCertificate, x: np.ndarray, p: int) -> LiftCertificate:
    """Generator g's matrix L_g replaced by (1 + p X_g) L_g, X_g the g-th n^2
    entries of x in row-major order."""
    n = cert.mats[0].n
    return LiftCertificate(tuple(
        merge_kernel_element(Mat(p, x[g * n * n : (g + 1) * n * n].reshape(n, n)), p) @ m
        for g, m in enumerate(cert.mats)
    ))


@functools.cache
def certified_search_small() -> tuple:
    """(rep, its certificate from check_lift, a nullspace basis of its lift
    system) for the regular and a trivial representation of each
    search-small group."""
    out = []
    for p, build in SEARCH_SMALL_GROUPS:
        pres, g = build()
        ctx = PrimeCtx(p)
        for rep in (regular_representation(g, ctx), Representation(ctx, pres, (Mat.identity(p, 2),) * pres.num_gens, 2)):
            out.append((rep, check_lift(rep).certificate, nullspace(linearize(rep).system.matrix, p)))
    return tuple(out)


@pytest.mark.parametrize("spec, p", [("C 7", 7), ("D 16", 2), ("Q 8", 2), ("CxC 3 3", 3)])
def test_verify_certificate_rejects_a_broken_power_relator(spec, p):
    # (1 + p E_00) L on a generator with relator L^N: over Z/p^2 its N-th
    # power is (1 + p S) L^N, S the sum of the N conjugates of E_00 by L,
    # which is not 0 for these permutation matrices; L^(N-1) is then not
    # its inverse, and the certificate must still be rejected
    _, g = family_from_tokens(spec.split())
    rep = regular_representation(g, PrimeCtx(p))
    cert = check_lift(rep).certificate
    gen, order = max(replift._power_orders(rep.presentation).items())
    x = np.zeros(rep.num_gens * rep.n**2, dtype=np.int64)
    x[gen * rep.n**2] = 1
    tampered = corrected(cert, x, p)
    assert not (tampered.mats[gen] ** order).is_identity()
    assert not verify_certificate(rep, tampered)
    assert not reference_verify_certificate(rep, tampered)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_verify_certificate_matches_all_inverse_oracle(data):
    rep, cert, kernel = data.draw(st.sampled_from(certified_search_small()))
    p, cols = rep.ctx.p, rep.num_gens * rep.n**2
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    valid = bool(kernel) and data.draw(st.booleans())
    if valid:
        # another solution of the lift system: another valid certificate
        x = rng.integers(0, p, len(kernel)) @ np.array(kernel) % p
    else:
        # a few entries tampered with, most often making it invalid
        x = np.zeros(cols, dtype=np.int64)
        x[rng.integers(0, cols, data.draw(st.integers(1, 3)))] = rng.integers(1, p, 1)
    tampered = corrected(cert, x, p)
    verdict = verify_certificate(rep, tampered)
    assert verdict == reference_verify_certificate(rep, tampered)
    assert verdict or not valid


def test_check_lift_walks_relators_once(monkeypatch, witness_suite):
    # linearize is the only relator walk before the verdict is checked
    def fail(rep):
        raise AssertionError("check_lift called validate_rep")

    monkeypatch.setattr(replift, "validate_rep", fail)
    for name, rep, expected in witness_suite:
        v = check_lift(rep)
        assert v.liftable == expected, name
        assert refutes(rep, v) or verify_certificate(rep, v.certificate)


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


def reference_induce(rep_h, h_group, g, hom) -> tuple:
    """(coset representatives, induced generator matrices) by the
    element-by-element loops: the cosets x*hom found by a scan in ascending
    index, and block (i, j) of g0's image rep_h(t_i^-1 g0 t_j) when that
    element is in the image of hom, else zero."""
    reps, seen = [], set()
    for x in range(g.order):
        if x not in seen:
            reps.append(x)
            seen.update(g.mul(x, s) for s in hom)
    inv_hom = {gx: ax for ax, gx in enumerate(hom)}
    n = rep_h.n
    mats_h = extend_hom(h_group, rep_h.gen_mats, Mat.identity(rep_h.ctx.p, n), operator.matmul)
    out = []
    for g0 in g.gen_indices:
        m = np.zeros((len(reps) * n, len(reps) * n), dtype=np.int64)
        for i, ti in enumerate(reps):
            for j, tj in enumerate(reps):
                z = g.mul(g.mul(g.inv_of(ti), g0), tj)
                if z in inv_hom:
                    m[i * n : (i + 1) * n, j * n : (j + 1) * n] = mats_h[inv_hom[z]].a
        out.append(Mat(rep_h.ctx.p, m))
    return reps, tuple(out)


# one spec per bad-subgroup kind of the classify-induced benchmark workload,
# and a second Klein and Q8 embedding
INDUCED_SPECS = ["D 16", "CxC 2 8", "Q 16", "Q 32", "CxC 3 6", "C 18", "C 27", "C 35", "C 63"]


@pytest.mark.parametrize("spec", INDUCED_SPECS)
def test_induce_matches_reference_loop(spec):
    _, g = family_from_tokens(spec.split())
    bad = find_subgroup_witness(g)
    abstract, rep_h = _bad_group_and_witness(bad.kind, bad.prime)
    hom = extend_hom(abstract, bad.gens, 0, g.mul)
    sub = Subgroup(g, tuple(hom))
    reps, mats = reference_induce(rep_h, abstract, g, hom)
    assert transversal(g, sub) == reps
    ind = induce(rep_h, abstract, g, sub, hom)
    assert ind.n == len(reps) * rep_h.n
    assert ind.gen_mats == mats


def test_induce_rejects_bad_hom():
    _, g = direct_product_cyclic(2, 4)
    _, c4 = cyclic_group(4)
    sub = Subgroup(g, (0, 1, 2, 3))  # <tau> inside C2 x C4
    triv = Representation(CTX2, c4.presentation, (Mat.identity(2, 1),), 1)
    induce(triv, c4, g, sub, [0, 1, 2, 3])  # the genuine embedding works
    with pytest.raises(NotASubgroup):
        induce(triv, c4, g, sub, [0, 1, 3, 2])  # bijection but not a homomorphism
    with pytest.raises(NotASubgroup):
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


def test_brute_force_zero_generators():
    # the trivial subgroup: no generators, no relators, no unknowns
    rep = restrict(c2_unipotent(), Presentation((), ()), [])
    assert rep.num_gens == 0
    v = brute_force_lift(rep)
    assert v.liftable == check_lift(rep).liftable
    assert v.certificate.mats == ()


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
    for _ in range(60):
        rep = random_valid_instance(
            rng, primes=[2, 3], dims=[1, 2], gen_counts=[1, 2], budget=2 ** 12, max_relators=2
        )
        assert check_lift(rep).liftable == brute_force_lift(rep, budget=2 ** 12).liftable


def test_linearize_byte_budget():
    # the largest system the benchmark builds, the D64 group witness, fits
    assert 12288 * 8192 * 8 <= MAX_SYSTEM_BYTES
    rep = over_budget_rep()
    tracemalloc.start()
    try:
        with pytest.raises(InvalidRepresentation, match="byte budget"):
            check_lift(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_linearize_peak_memory():
    # A is written once, a slab at a time, at its natural width (uint8 for
    # p < 256): linearize peaks well below the int64 size of A on the D32
    # (p = 2, 3072 x 2048) and C63 (p = 7, 2025 x 2025) induced witnesses
    for _, g in (dihedral(32), cyclic_group(63)):
        rep = induced_witness(g, find_subgroup_witness(g))
        tracemalloc.start()
        try:
            system = linearize(rep).system
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert system.matrix.dtype == np.uint8
        assert peak <= 0.5 * system.rows * system.cols * 8


def test_linearize_long_relator_peak_memory():
    # <s | s^65536> in dimension 20: the run enters as n prefix pairs, so its
    # buffer is n pairs (62.5 KiB in float32), not _CHUNK (1.6 MB).  The
    # peak is set by the block product instead: A's block (n^4 bytes), two
    # slabs of _SLAB floats (the product being reduced while the last one
    # is still referenced) and _reduce_mod's slab-sized temporary, 1.22 MB
    # on numpy 2; the bound leaves a 25 % margin over that
    n = 20
    rep = jordan_companion_rep(CTX2, 16, n)
    tracemalloc.start()
    try:
        linearize(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 1.22e6


def test_linearize_long_run_stacks_n_rows(monkeypatch):
    # <s | s^65536> in dimension 20: s has 2-power order, so its run of
    # 65,536 letters puts n = 20 rows, not one a letter, through
    # _stack_powers and the block product
    stacked = []

    def counted(out, step, p):
        stacked.append(out.shape[-3])
        return _stack_powers(out, step, p)

    monkeypatch.setattr(replift, "_stack_powers", counted)
    n = 20
    linearize(jordan_companion_rep(CTX2, 16, n))
    assert sum(stacked) <= n + 1


def test_linearize_dimension_guard():
    pres, _ = cyclic_group(2)
    big = Representation(CTX2, pres, (Mat.identity(2, 65),), 65)
    with pytest.raises(InvalidRepresentation):
        linearize(big)
