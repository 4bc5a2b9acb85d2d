import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import time_limit
from modlift.classify import induced_witness
from modlift.groups import dihedral, find_subgroup_witness
from modlift.replift import linearize
from modlift.rings import (
    AffineSystem,
    Consistent,
    Inconsistent,
    Mat,
    NonMonicDivisor,
    NotDivisible,
    NotInKernel,
    PolyFp,
    PolyInt,
    PrimeCtx,
    Singular,
    binom_div_p,
    is_prime,
    merge_kernel_element,
    nullspace,
    power,
    solve_affine,
    split_kernel_element,
)


def test_prime_ctx_validation():
    ctx = PrimeCtx(7)
    assert ctx.p2 == 49
    with pytest.raises(ValueError):
        PrimeCtx(6)
    with pytest.raises(ValueError):
        PrimeCtx(1)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


# --- matrix arithmetic ---------------------------------------------------


def test_mat_mul_identity(rng):
    m = Mat(4, rng.integers(0, 4, (3, 3)))
    assert Mat.identity(4, 3) @ m == m
    assert m @ Mat.identity(4, 3) == m


def test_mat_mul_x_squared():
    x = Mat(2, [[0, 1], [1, 1]])
    assert (x @ x).rows() == ((1, 1), (1, 0))  # x^2 = x + 1


def test_companion_power():
    c = Mat(4, [[0, 0, -1], [1, 0, -1], [0, 1, -1]])
    assert (c ** 4).is_identity()


def test_mat_mul_mismatch():
    with pytest.raises(ValueError):
        Mat(2, [[1]]) @ Mat(2, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        Mat(2, [[1]]) @ Mat(4, [[1]])


def test_mat_inv_examples():
    assert Mat.identity(9, 3).inv() == Mat.identity(9, 3)
    x = Mat(2, [[0, 1], [1, 1]])
    assert x.inv().rows() == ((1, 1), (1, 0))
    with pytest.raises(Singular):
        Mat(4, [[2, 0], [0, 2]]).inv()


def test_mat_inv_random(rng):
    for p in (2, 3, 5):
        p2 = p * p
        for _ in range(25):
            m = Mat(p2, rng.integers(0, p2, (4, 4)))
            try:
                inv = m.inv()
            except Singular:
                with pytest.raises(Singular):
                    m.reduce(p).inv()
                continue
            assert (inv @ m).is_identity()
            assert (m.reduce(p).inv() @ m.reduce(p)).is_identity()


def test_zero_dimensional_matrices():
    z = Mat(4, [])
    assert z.n == 0
    assert (z @ z).is_identity()
    assert z.inv() == z


def test_split_kernel_examples():
    assert split_kernel_element(Mat.identity(9, 2), 3) == Mat.zeros(3, 2)
    assert split_kernel_element(Mat(4, [[1, 2], [0, 1]]), 2) == Mat(2, [[0, 1], [0, 0]])
    assert split_kernel_element(Mat(9, [[4, 3], [6, 4]]), 3) == Mat(3, [[1, 1], [2, 1]])
    with pytest.raises(NotInKernel):
        split_kernel_element(Mat(4, [[0, 1], [1, 0]]), 2)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    data=st.data(),
)
def test_split_merge_round_trip(p, data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    entries = data.draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    x = Mat(p, entries)
    assert split_kernel_element(merge_kernel_element(x, p), p) == x


# --- affine solving ------------------------------------------------------


def test_solve_identity_system():
    sys = AffineSystem(2, [[1, 0], [0, 1]], [1, 0])
    res = solve_affine(sys)
    assert isinstance(res, Consistent)
    assert list(res.particular) == [1, 0]
    assert nullspace(sys.matrix, 2) == ()


def test_solve_underdetermined():
    sys = AffineSystem(2, [[1, 1]], [1])
    res = solve_affine(sys)
    assert isinstance(res, Consistent)
    assert list(res.particular) == [1, 0]
    basis = nullspace(sys.matrix, 2)
    assert len(basis) == 1
    assert list(basis[0]) == [1, 1]


def test_solve_inconsistent():
    sys = AffineSystem(2, [[1, 0], [1, 0]], [0, 1])
    res = solve_affine(sys)
    assert isinstance(res, Inconsistent)
    assert list(res.functional) == [1, 1]
    assert sys.checks_refutation(res.functional)


def test_solve_empty_rows():
    sys = AffineSystem(3, np.zeros((0, 2), dtype=int), [])
    res = solve_affine(sys)
    assert isinstance(res, Consistent)
    assert len(nullspace(sys.matrix, 3)) == 2


def _enumerate_solutions(sys):
    p, cols = sys.p, sys.cols
    count = 0
    for idx in range(p ** cols):
        x = [(idx // p ** j) % p for j in range(cols)]
        if sys.is_solution(x):
            count += 1
    return count


def test_solve_agrees_with_enumeration(rng):
    for _ in range(40):
        p = int(rng.choice([2, 3]))
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        sys = AffineSystem(p, rng.integers(0, p, (rows, cols)), rng.integers(0, p, rows))
        res = solve_affine(sys)
        n_solutions = _enumerate_solutions(sys)
        if isinstance(res, Consistent):
            assert sys.is_solution(res.particular)
            basis = nullspace(sys.matrix, p)
            for v in basis:
                assert not ((sys.matrix @ v) % p).any()
            assert n_solutions == p ** len(basis)
        else:
            assert n_solutions == 0
            assert sys.checks_refutation(res.functional)


def reference_solve_affine(sys):
    """The solver this package shipped before it had one elimination routine.

    Full RREF of [A | b] and a nullspace basis when consistent; otherwise a
    second elimination of the transposed system [A^T; b^T] y = e_last.  Kept
    self-contained, with its own elimination, so that a new kernel is
    compared against code it does not share.  Returns (particular,
    nullspace) or (None, functional).
    """
    p = sys.p

    def forward(work, pivot_cols):
        pivots, r = [], 0
        for j in range(pivot_cols):
            if r == work.shape[0]:
                break
            nz = np.flatnonzero(work[r:, j])
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                work[[r, i]] = work[[i, r]]
            piv = int(work[r, j])
            if piv != 1:
                work[r, j:] = (work[r, j:] * pow(piv, -1, p)) % p
            below = r + 1 + np.flatnonzero(work[r + 1 :, j])
            work[below, j:] = (work[below, j:] - np.outer(work[below, j], work[r, j:])) % p
            pivots.append(j)
            r += 1
        return pivots

    def particular(matrix, rhs):
        rows, cols = matrix.shape
        work = np.concatenate([matrix % p, (rhs % p).reshape(rows, 1)], axis=1)
        pivots = forward(work, cols)
        if work[len(pivots) :, cols].any():
            return None
        x = np.zeros(cols, dtype=np.int64)
        for r in range(len(pivots) - 1, -1, -1):
            j = pivots[r]
            x[j] = (int(work[r, cols]) - int(work[r, j + 1 : cols] @ x[j + 1 :])) % p
        return x

    rows, cols = sys.rows, sys.cols
    work = np.concatenate([sys.matrix, sys.rhs.reshape(rows, 1)], axis=1)
    pivots = forward(work, cols)
    rank = len(pivots)
    if work[rank:, cols].any():
        dual = np.concatenate([sys.matrix.T, sys.rhs.reshape(1, rows)], axis=0)
        target = np.zeros(cols + 1, dtype=np.int64)
        target[cols] = 1
        c = particular(dual, target)
        assert c is not None and sys.checks_refutation(c)
        return None, c
    for r in range(rank - 1, -1, -1):
        j = pivots[r]
        above = np.flatnonzero(work[:r, j])
        work[above, j:] = (work[above, j:] - np.outer(work[above, j], work[r, j:])) % p
    x = np.zeros(cols, dtype=np.int64)
    for r, j in enumerate(pivots):
        x[j] = work[r, cols]
    assert sys.is_solution(x)
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for r, j in enumerate(pivots):
            v[j] = (-work[r, f]) % p
        basis.append(v)
    return x, tuple(basis)


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def affine_systems(draw):
    """Systems of every shape: empty, wide, tall, low rank, forced inconsistent."""
    p = draw(st.sampled_from([2, 3, 5, 7, 32749]))
    rows = draw(st.integers(0, 9))
    cols = draw(st.integers(0, 9))
    rank = draw(st.integers(0, 4))
    entries = st.integers(0, p - 1)
    left = np.array(draw(st.lists(entries, min_size=rows * rank, max_size=rows * rank)), dtype=np.int64)
    right = np.array(draw(st.lists(entries, min_size=rank * cols, max_size=rank * cols)), dtype=np.int64)
    a = (left.reshape(rows, rank) @ right.reshape(rank, cols)) % p
    if draw(st.booleans()):
        b = (a @ np.array(draw(st.lists(entries, min_size=cols, max_size=cols)), dtype=np.int64)) % p
    else:
        b = np.array(draw(st.lists(entries, min_size=rows, max_size=rows)), dtype=np.int64)
    if rows and draw(st.booleans()):
        # a copy of row 0 with its right-hand side moved: no solution
        a = np.concatenate([a, a[:1]])
        b = np.concatenate([b, (b[:1] + 1) % p])
    return AffineSystem(p, a, b)


@settings(max_examples=300, deadline=None)
@given(sys=affine_systems())
@example(sys=AffineSystem(5, np.zeros((0, 3), dtype=np.int64), []))             # empty
@example(sys=AffineSystem(7, [[1, 2, 3, 4], [2, 4, 6, 1]], [5, 3]))            # wide
@example(sys=AffineSystem(32749, [[1, 2], [3, 4], [5, 6]], [1, 2, 4]))         # tall
@example(sys=AffineSystem(2, [[1, 0], [1, 0]], [0, 1]))                        # inconsistent
def test_solve_matches_reference_solver(sys):
    res = solve_affine(sys)
    particular, cert = reference_solve_affine(sys)
    if particular is None:
        assert isinstance(res, Inconsistent)
        assert _same_array(res.functional, cert)
        assert sys.checks_refutation(res.functional)
    else:
        assert isinstance(res, Consistent)
        assert _same_array(res.particular, particular)
        assert sys.is_solution(res.particular)
    # the nullspace of A is the old solver's on the homogeneous system
    _, old_basis = reference_solve_affine(AffineSystem(sys.p, sys.matrix, np.zeros(sys.rows, dtype=np.int64)))
    basis = nullspace(sys.matrix, sys.p)
    assert len(basis) == len(old_basis)
    assert all(_same_array(v, w) for v, w in zip(basis, old_basis))


def test_refuted_solve_memory():
    # the D16 induced Klein witness: 768 x 512, refuted
    _, g = dihedral(16)
    system = linearize(induced_witness(g, find_subgroup_witness(g))).system
    assert (system.rows, system.cols) == (768, 512)
    tracemalloc.start()
    try:
        res = solve_affine(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(res, Inconsistent)
    assert peak < 2 * system.matrix.nbytes


# --- binomials -----------------------------------------------------------


def test_binom_examples():
    assert binom_div_p(2, 1, PrimeCtx(2)) == 1
    assert binom_div_p(9, 3, PrimeCtx(3)) == 1
    assert binom_div_p(25, 5, PrimeCtx(5)) != 0
    with pytest.raises(NotDivisible):
        binom_div_p(4, 1, PrimeCtx(3))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_binom_nonzero_on_prime_powers(p, n):
    assert binom_div_p(p ** n, p ** (n - 1), PrimeCtx(p)) != 0


# --- polynomials ---------------------------------------------------------


def test_poly_product_t4_minus_1():
    prod = PolyInt([-1, 1]) * PolyInt([1, 1]) * PolyInt([1, 0, 1])
    assert prod == PolyInt.x_pow_minus_one(4)


def test_poly_divmod_detects_nondivisor():
    q, r = PolyInt.x_pow_minus_one(4).divmod_exact(PolyInt([1, 1, 1]))
    assert not r.is_zero()


def test_poly_reduction_mod_3():
    lhs = PolyInt([1, 1, 1]).reduce(3)
    rhs = PolyFp.t_minus_one(3) ** 2
    assert lhs == rhs


def test_poly_divmod_requires_monic():
    with pytest.raises(NonMonicDivisor):
        PolyInt([1, 0, 1]).divmod_exact(PolyInt([1, 2]))


def test_poly_eval_mat_horner():
    c = Mat(4, [[0, 3], [1, 3]])  # companion of t^2 + t + 1 over Z/4
    val = PolyInt([1, 1, 1]).eval_mat(c)
    assert val.is_zero()


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=6),
    b=st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=4),
)
def test_poly_divmod_exact_recovers_factor(a, b):
    divisor = PolyInt(b + [1])  # force monic
    prod = PolyInt(a) * divisor
    q, r = prod.divmod_exact(divisor)
    assert r.is_zero()
    assert q == PolyInt(a)


def test_layout_round_trip():
    from modlift.rings import UnknownLayout

    lay = UnknownLayout(3, 4)
    seen = set()
    for g in range(3):
        for r in range(4):
            for c in range(4):
                j = lay.col(g, r, c)
                assert lay.describe(j) == (g, r, c)
                seen.add(j)
    assert seen == set(range(lay.cols))


def test_matmul_object_fallback_near_prime_cap(rng):
    # p close to 2^15 puts single dot products past int64 range for n >= 8,
    # which must route through the exact object-dtype fallback
    p = 32749
    mod = p * p
    a = Mat(mod, rng.integers(0, mod, (8, 8)))
    b = Mat(mod, rng.integers(0, mod, (8, 8)))
    prod = a @ b
    i, j = 3, 5
    expected = sum(int(a.a[i, k]) * int(b.a[k, j]) for k in range(8)) % mod
    assert int(prod.a[i, j]) == expected


def test_solve_agreement_wider_systems(rng):
    # up to 8 unknowns, enumeration done vectorized
    for _ in range(6):
        p = int(rng.choice([2, 3]))
        cols = int(rng.integers(6, 9))
        rows = int(rng.integers(2, 5))
        sys = AffineSystem(p, rng.integers(0, p, (rows, cols)), rng.integers(0, p, rows))
        res = solve_affine(sys)
        idx = np.arange(p ** cols)
        digits = (idx[:, None] // p ** np.arange(cols)[None, :]) % p
        residual = (digits @ sys.matrix.T - sys.rhs) % p
        count = int((residual == 0).all(axis=1).sum())
        if isinstance(res, Consistent):
            assert count == p ** len(nullspace(sys.matrix, p))
        else:
            assert count == 0


def test_power_matches_repeated_products():
    m = Mat(5, [[1, 2], [3, 4]])
    acc = Mat.identity(5, 2)
    for k in range(10):
        assert m ** k == acc
        assert m ** -k == m.inv() ** k
        acc = acc @ m
    assert PolyInt([1, 1]) ** 5 == PolyInt([1, 5, 10, 10, 5, 1])
    assert power(3, 13, 1) == 3 ** 13
    with pytest.raises(ValueError):
        power(3, -1, 1)


@pytest.mark.parametrize("base", [PolyInt([1, 1]), PolyFp(3, [1, 1])])
@pytest.mark.parametrize("k", [-1, -2])
def test_polynomial_negative_power_raises(base, k):
    with time_limit(2), pytest.raises(ValueError):
        base ** k


def test_affine_system_copies_matrix_once():
    p = 7
    a = np.arange(600 * 500, dtype=np.int64).reshape(600, 500) % 11
    b = np.arange(600, dtype=np.int64) % 11
    a_before, b_before = a.copy(), b.copy()
    tracemalloc.start()
    try:
        system = AffineSystem(p, a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * a.nbytes
    assert a.flags.writeable and b.flags.writeable
    assert np.array_equal(a, a_before) and np.array_equal(b, b_before)
    assert np.array_equal(system.matrix, a_before % p)
    assert np.array_equal(system.rhs, b_before % p)
