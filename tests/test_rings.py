import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import time_limit
from modlift.classify import induced_witness
from modlift.groups import cyclic_group, dihedral, find_subgroup_witness
from modlift import rings
from modlift.replift import linearize
from modlift.rings import (
    AffineSystem,
    Consistent,
    Inconsistent,
    Mat,
    NonMonicDivisor,
    NotDivisible,
    NotInKernel,
    Poly,
    PrimeCtx,
    Singular,
    binom_div_p,
    is_prime,
    merge_kernel_element,
    nullspace,
    power,
    rref,
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
    # inverses exist over F_p and Z/p^2 only
    for mod in (6, 8, 16, 27):
        with pytest.raises(ValueError):
            Mat(mod, [[1, 1], [1, 2]]).inv()
    for mod in (4, 9):
        m = Mat(mod, [[1, 1], [1, 2]])
        assert m.inv() == Mat(mod, [[2, -1], [-1, 1]])


@pytest.mark.parametrize("mod", [7, 49])
def test_mat_inv_checks_its_result(monkeypatch, mod):
    """A wrong right half of rref([M | I]) is caught by M B = I, over F_p
    and after the Newton step over Z/p^2, and never returned."""
    m = Mat(mod, [[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    exact = rings.rref

    def flipped(matrix, p):
        reduced, pivots = exact(matrix, p)
        reduced = reduced.copy()
        reduced[0, -1] = (reduced[0, -1] + 1) % p
        return reduced, pivots

    monkeypatch.setattr(rings, "rref", flipped)
    with pytest.raises(AssertionError, match="internal error"):
        m.inv()


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


def reference_forward(work, p, pivot_cols):
    """The eager forward elimination: every row update reduced mod p."""
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


def reference_back(work, p, pivots):
    for r in range(len(pivots) - 1, -1, -1):
        j = pivots[r]
        above = np.flatnonzero(work[:r, j])
        work[above, j:] = (work[above, j:] - np.outer(work[above, j], work[r, j:])) % p


def reference_rref(matrix, p):
    """(rref, pivots) by the eager elimination, as rref returns them."""
    work = np.array(matrix, dtype=np.int64) % p
    pivots = reference_forward(work, p, work.shape[1])
    reference_back(work, p, pivots)
    return work[: len(pivots)], pivots


def reference_solve_affine(sys):
    """The solver this package shipped before it had one elimination routine.

    Full RREF of [A | b] and a nullspace basis when consistent; otherwise a
    second elimination of the transposed system [A^T; b^T] y = e_last.  Kept
    self-contained, with its own eager elimination, so that a new kernel is
    compared against code it does not share.  Returns (particular,
    nullspace) or (None, functional).
    """
    p = sys.p

    def particular(matrix, rhs):
        rows, cols = matrix.shape
        work = np.concatenate([matrix % p, (rhs % p).reshape(rows, 1)], axis=1)
        pivots = reference_forward(work, p, cols)
        if work[len(pivots) :, cols].any():
            return None
        x = np.zeros(cols, dtype=np.int64)
        for r in range(len(pivots) - 1, -1, -1):
            j = pivots[r]
            x[j] = (int(work[r, cols]) - int(work[r, j + 1 : cols] @ x[j + 1 :])) % p
        return x

    rows, cols = sys.rows, sys.cols
    work = np.concatenate([sys.matrix, sys.rhs.reshape(rows, 1)], axis=1)
    pivots = reference_forward(work, p, cols)
    rank = len(pivots)
    if work[rank:, cols].any():
        dual = np.concatenate([sys.matrix.T, sys.rhs.reshape(1, rows)], axis=0)
        target = np.zeros(cols + 1, dtype=np.int64)
        target[cols] = 1
        c = particular(dual, target)
        assert c is not None and dense_refutes(sys, c)
        return None, c
    reference_back(work, p, pivots)
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


def reference_inverse(a, mod):
    """The inverse Mat.inv computed before it was read off rref: Gauss-Jordan
    over Z/mod, each pivot the first entry of its column that is a unit.
    Kept self-contained, so that Mat.inv is compared against code it does
    not share.  Raises Singular."""
    n = a.shape[0]
    work = np.concatenate([np.array(a, dtype=np.int64) % mod, np.eye(n, dtype=np.int64)], axis=1)
    for j in range(n):
        piv = next((i for i in range(j, n) if math.gcd(int(work[i, j]), mod) == 1), None)
        if piv is None:
            raise Singular(f"matrix is singular over Z/{mod}")
        work[[j, piv]] = work[[piv, j]]
        work[j] = (work[j] * pow(int(work[j, j]), -1, mod)) % mod
        for i in range(n):
            if i != j and work[i, j]:
                work[i] = (work[i] - work[i, j] * work[j]) % mod
    return work[:, n:]


@st.composite
def square_matrices(draw):
    """n x n matrices, n <= 20, over F_p and Z/p^2; about half are singular
    mod p by construction, and more are by chance at small p."""
    p = draw(st.sampled_from([2, 3, 7, 181, 191, 32749]))
    mod = draw(st.sampled_from([p, p * p]))
    n = draw(st.integers(0, 20))
    rank = draw(st.sampled_from([n, draw(st.integers(0, n))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = (rng.integers(0, p, (n, rank)) @ rng.integers(0, p, (rank, n))) % p if rank < n else rng.integers(0, p, (n, n))
    return Mat(mod, a + p * rng.integers(0, p, (n, n)))


@settings(max_examples=200, deadline=None)
@given(m=square_matrices())
@example(m=Mat(7, []))                                                              # n = 0
@example(m=Mat(49, []))
@example(m=Mat(9, np.eye(3, dtype=np.int64) + 3 * np.array([[1, 2, 0], [0, 1, 2], [2, 0, 1]])))  # I + pX
@example(m=Mat(49, [[7, 0], [0, 1]]))                                               # singular mod p
# 8 (p^2 - 1)^2 >= 2^62: the Newton step's matmul_mod takes its object path
@example(m=Mat(32749**2, np.random.default_rng(3).integers(0, 32749**2, (8, 8))))
def test_mat_inv_matches_reference(m):
    try:
        expected = reference_inverse(m.a, m.mod)
    except Singular:
        with pytest.raises(Singular):
            m.inv()
        return
    assert _same_array(m.inv().a, expected)


def dense_refutes(sys, c):
    """c.A = 0 and c.b != 0, by dense int64 products."""
    c = np.asarray(c, dtype=np.int64)
    return not ((c @ sys.matrix) % sys.p).any() and bool((c @ sys.rhs) % sys.p)


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


def _seeded_system(rows, cols, rank, consistent, seed, p=2, summed=(0,)):
    """A seeded system of rank at most `rank`; when not consistent, its
    last row is the sum of the rows in `summed` with the right-hand side
    moved."""
    rng = np.random.default_rng(seed)
    a = (rng.integers(0, p, (rows, rank)) @ rng.integers(0, p, (rank, cols))) % p
    summed = list(summed)
    if not consistent:
        a[-1] = a[summed].sum(axis=0) % p
    b = (a @ rng.integers(0, p, cols)) % p
    if not consistent:
        b[-1] = (b[summed].sum() + 1) % p
    return AffineSystem(p, a, b)


def _identity_over_row(p, cols):
    """I on top of a row of p - 1s, every right-hand side p - 1: the last
    right-hand side reaches p - 1 - cols (p-1)^2 in the work copy."""
    a = np.vstack([np.eye(cols, dtype=np.int64), np.full((1, cols), p - 1)])
    return AffineSystem(p, a, np.full(cols + 1, p - 1))


@settings(max_examples=300, deadline=None)
@given(sys=affine_systems())
@example(sys=AffineSystem(5, np.zeros((0, 3), dtype=np.int64), []))             # empty
@example(sys=AffineSystem(7, [[1, 2, 3, 4], [2, 4, 6, 1]], [5, 3]))            # wide
@example(sys=AffineSystem(32749, [[1, 2], [3, 4], [5, 6]], [1, 2, 4]))         # tall
@example(sys=AffineSystem(2, [[1, 0], [1, 0]], [0, 1]))                        # inconsistent
# p = 2 across 64-bit words: the packed widths cols + 1 are 63, 64, 65,
# 128 and 129
@example(sys=_seeded_system(62, 128, 62, False, 1))
@example(sys=_seeded_system(63, 127, 63, False, 2))
@example(sys=_seeded_system(64, 64, 64, False, 3))
@example(sys=_seeded_system(127, 63, 63, False, 4))
@example(sys=_seeded_system(128, 62, 62, False, 5))
@example(sys=_seeded_system(128, 128, 40, False, 6))                               # rank-deficient
@example(sys=_seeded_system(127, 128, 70, True, 7))                                # rank-deficient
@example(sys=_seeded_system(64, 65, 64, True, 8))
@example(sys=_seeded_system(0, 128, 0, True, 9))                                   # 0 rows
@example(sys=AffineSystem(2, np.zeros((63, 0), dtype=np.int64), [0] * 62 + [1]))  # 0 columns
# odd p, where updates are not reduced: row 2 reaches its pivot as [0, -3, 1]
# (a multiple of p left of it); column 1 holds only -3 below row 0; the rhs
# left below the rank is -p; and a dense system of rank 310
@example(sys=AffineSystem(3, [[1, 2, 0], [0, 1, 0], [1, 0, 1]], [0, 1, 2]))
@example(sys=AffineSystem(3, [[1, 2, 0], [2, 1, 1]], [1, 1]))
@example(sys=AffineSystem(3, [[1], [2]], [2, 1]))
@example(sys=_seeded_system(330, 320, 310, False, 10, p=32749))
# the widest int32 work copy: one column at p = 32749, where the update
# leaves p-1 - (p-1)^2 in the right-hand sides below the pivot
@example(sys=AffineSystem(32749, [[1], [32748], [32748]], [32748, 32748, 1]))
# the int16 work copy at its bound, 13 + 227 * 12^2 = 32,701, where the last
# right-hand side reaches 12 - 226 * 144 = -32,532; one column more takes
# int32; and at p = 131 a system whose last right-hand side, -33,670, would
# wrap in int16
@example(sys=_identity_over_row(13, 226))
@example(sys=_identity_over_row(13, 227))
@example(sys=_identity_over_row(131, 2))
# refutations read off the elimination: at p = 5 a row swap, pivots of 2,
# pivot row 1 with a multiplier at pivot 0, and c.b = 2 before scaling; at
# p = 2 a sum of four rows whose substitution runs from word 1 into word 0
@example(sys=AffineSystem(5, [[2, 1, 0], [4, 2, 1], [1, 0, 3], [3, 1, 3]], [1, 0, 2, 0]))
@example(sys=_seeded_system(100, 130, 99, False, 11, summed=(0, 40, 70, 98)))
def test_solve_matches_reference_solver(sys):
    res = solve_affine(sys)
    particular, cert = reference_solve_affine(sys)
    if particular is None:
        assert isinstance(res, Inconsistent)
        c = res.functional
        assert c.dtype == np.int64 and c.shape == (sys.rows,) and ((0 <= c) & (c < sys.p)).all()
        assert dense_refutes(sys, c) and int(c @ sys.rhs) % sys.p == 1
        assert sys.checks_refutation(res.functional)
    else:
        assert isinstance(res, Consistent)
        assert _same_array(res.particular, particular)
        assert sys.is_solution(res.particular)
    # the refutation check agrees with dense c.A on random functionals and,
    # when refuted, on the refutation with one entry moved
    rng = np.random.default_rng(sys.rows * 1000 + sys.cols)
    trials = [rng.integers(0, sys.p, sys.rows) for _ in range(3)]
    if particular is None:
        moved = cert.copy()
        moved[0] = (moved[0] + 1) % sys.p
        trials.append(moved)
    for c in trials:
        assert sys.checks_refutation(c) == dense_refutes(sys, c)
    reduced, pivots = rref(sys.matrix, sys.p)
    ref_reduced, ref_pivots = reference_rref(sys.matrix, sys.p)
    assert pivots == ref_pivots and _same_array(reduced, ref_reduced)
    # the nullspace of A is the old solver's on the homogeneous system
    _, old_basis = reference_solve_affine(AffineSystem(sys.p, sys.matrix, np.zeros(sys.rows, dtype=np.int64)))
    basis = nullspace(sys.matrix, sys.p)
    assert len(basis) == len(old_basis)
    assert all(_same_array(v, w) for v, w in zip(basis, old_basis))


@pytest.mark.parametrize(
    "p, cols, width",
    [(13, 226, np.int16), (13, 227, np.int32), (131, 2, np.int32), (32749, 1, np.int32), (32749, 2, np.int64)],
)
def test_solve_work_width(p, cols, width, monkeypatch):
    # the narrowest width below which p + (min(rows, cols) + 1) (p-1)^2 stays
    seen = []
    forward = rings._forward_eliminate

    def spy(work, p, pivot_cols):
        seen.append(work.dtype)
        return forward(work, p, pivot_cols)

    monkeypatch.setattr(rings, "_forward_eliminate", spy)
    assert isinstance(solve_affine(_identity_over_row(p, cols)), Inconsistent)
    assert seen == [width]


@st.composite
def systems_with_zero_columns(draw):
    """Seeded systems of low rank with a random subset of their columns
    zeroed, consistent or with one row's right-hand side moved."""
    p = draw(st.sampled_from([2, 3, 7, 32749]))
    rows, cols = draw(st.integers(0, 24)), draw(st.integers(0, 140))
    rank = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = (rng.integers(0, p, (rows, rank)) @ rng.integers(0, p, (rank, cols))) % p
    a[:, rng.random(cols) < draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]))] = 0
    b = (a @ rng.integers(0, p, cols)) % p
    if rows and draw(st.booleans()):
        b[rng.integers(rows)] += 1
    return AffineSystem(p, a, b % p)


def _with_zero_columns(p, rows, cols, zero, seed, consistent):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, (rows, cols))
    a[:, zero] = 0
    b = (a @ rng.integers(0, p, cols)) % p
    b[-1] = (b[-1] + (not consistent)) % p
    return AffineSystem(p, a, b)


@settings(max_examples=200, deadline=None)
@given(sys=systems_with_zero_columns())
@example(sys=AffineSystem(7, np.zeros((5, 4), dtype=np.int64), [0] * 5))            # A = 0, b = 0
@example(sys=AffineSystem(3, np.zeros((5, 4), dtype=np.int64), [0, 0, 2, 1, 0]))    # A = 0, b != 0
@example(sys=AffineSystem(2, np.zeros((3, 70), dtype=np.int64), [0, 1, 1]))
# p = 2: zero columns on both sides of the boundaries of words 0, 1 and 2
@example(sys=_with_zero_columns(2, 90, 140, [*range(60, 68), *range(124, 132)], 1, True))
@example(sys=_with_zero_columns(2, 90, 140, [*range(60, 68), *range(124, 132)], 2, False))
@example(sys=_with_zero_columns(2, 40, 130, [62, 63, 64, 65, 127, 128, 129], 3, False))
def test_solve_skips_zero_columns(sys):
    # the kernels visit only columns with a nonzero entry; the outputs are
    # those of the eager reference, and a refutation is the one read off the
    # system with the zero columns deleted
    res = solve_affine(sys)
    particular, _ = reference_solve_affine(sys)
    live = np.flatnonzero(sys.matrix.any(axis=0))
    deleted = solve_affine(AffineSystem(sys.p, sys.matrix[:, live], sys.rhs))
    if particular is None:
        assert isinstance(res, Inconsistent) and isinstance(deleted, Inconsistent)
        assert dense_refutes(sys, res.functional) and int(res.functional @ sys.rhs) % sys.p == 1
        assert _same_array(res.functional, deleted.functional)
    else:
        assert isinstance(res, Consistent) and isinstance(deleted, Consistent)
        assert _same_array(res.particular, particular)
        assert _same_array(res.particular[live], deleted.particular)
        assert not res.particular[np.setdiff1d(np.arange(sys.cols), live)].any()
    reduced, pivots = rref(sys.matrix, sys.p)
    ref_reduced, ref_pivots = reference_rref(sys.matrix, sys.p)
    assert pivots == ref_pivots and _same_array(reduced, ref_reduced)
    assert all(type(j) is int for j in pivots)
    _, ref_basis = reference_solve_affine(AffineSystem(sys.p, sys.matrix, np.zeros(sys.rows, dtype=np.int64)))
    basis = nullspace(sys.matrix, sys.p)
    assert len(basis) == len(ref_basis)
    assert all(_same_array(v, w) for v, w in zip(basis, ref_basis))


def test_refuted_solve_memory(rng):
    # refuted induced witnesses: D16 (Klein, p = 2) on packed bits, and
    # C63 (C7, p = 7) on int32 rows, half of rows * cols * 8.  C63's system
    # has rank 27, too low to show a copy of the multipliers L (rank x
    # rank).  An upper-bidiagonal F_7 system of rank 1500, plus the row w.A
    # with rhs w.b + 1, shows one: its elimination updates only that last
    # row, so a gather of L would double the peak.
    n, p = 1500, 7
    a = np.diag(rng.integers(1, p, n)) + np.diag(rng.integers(0, p, n - 1), 1)
    b, w = rng.integers(0, p, n), rng.integers(0, p, n)
    bidiagonal = AffineSystem(p, np.vstack([a, w @ a]), np.append(b, w @ b + 1))
    d16, c63 = (
        linearize(induced_witness(g, find_subgroup_witness(g))).system
        for _, g in (dihedral(16), cyclic_group(63))
    )
    for system, shape, bound in (
        (d16, (768, 512), 0.3),
        (c63, (2025, 2025), 0.75),
        (bidiagonal, (n + 1, n), 0.75),
    ):
        assert (system.rows, system.cols) == shape
        tracemalloc.start()
        try:
            res = solve_affine(system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(res, Inconsistent)
        assert peak < bound * system.rows * system.cols * 8


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
    prod = Poly([-1, 1]) * Poly([1, 1]) * Poly([1, 0, 1])
    assert prod == Poly.x_pow_minus_one(4)


def test_poly_divmod_detects_nondivisor():
    q, r = Poly.x_pow_minus_one(4).divmod_exact(Poly([1, 1, 1]))
    assert not r.is_zero()


def test_poly_reduction_mod_3():
    lhs = Poly([1, 1, 1]).reduce(3)
    rhs = Poly([-1, 1], 3) ** 2
    assert lhs == rhs


def test_poly_divmod_requires_monic():
    with pytest.raises(NonMonicDivisor):
        Poly([1, 0, 1]).divmod_exact(Poly([1, 2]))


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=6),
    b=st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=4),
)
def test_poly_divmod_exact_recovers_factor(a, b):
    divisor = Poly(b + [1])  # force monic
    prod = Poly(a) * divisor
    q, r = prod.divmod_exact(divisor)
    assert r.is_zero()
    assert q == Poly(a)


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
    assert Poly([1, 1]) ** 5 == Poly([1, 5, 10, 10, 5, 1])
    assert power(3, 13, 1) == 3 ** 13
    with pytest.raises(ValueError):
        power(3, -1, 1)


def test_power_product_count():
    # x^k takes bit_length(k) - 1 squarings and popcount(k) - 1 products:
    # the first factor is never multiplied into one
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    for k in range(1, 70):
        calls.clear()
        assert power(3, k, 1, mul) == 3 ** k
        assert len(calls) == k.bit_length() - 1 + bin(k).count("1") - 1, k
    assert power(3, 0, 1, mul) == 1
    m = Mat(7, [[1, 2], [3, 4]])
    assert m ** 1 is m
    assert m ** 2 == m @ m


@pytest.mark.parametrize("base", [Poly([1, 1]), Poly([1, 1], 3)])
@pytest.mark.parametrize("k", [-1, -2])
def test_polynomial_negative_power_raises(base, k):
    with time_limit(2), pytest.raises(ValueError):
        base ** k


def test_polynomial_mixed_rings_raise():
    with pytest.raises(ValueError):
        Poly([1, 1]) * Poly([1, 1], 3)
    with pytest.raises(ValueError):
        Poly([1, 1], 3).divmod_exact(Poly([1, 1], 5))


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


def test_linearize_hands_matrix_over():
    # linearize's array is reduced and read-only, so the system keeps it
    # without a copy; the D16 induced Klein witness is 768 x 512
    _, g = dihedral(16)
    rep = induced_witness(g, find_subgroup_witness(g))
    tracemalloc.start()
    try:
        system = linearize(rep).system
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (system.rows, system.cols) == (768, 512)
    assert peak <= 1.5 * system.rows * system.cols * 8
    assert system.matrix.dtype == np.uint8 and not system.matrix.flags.writeable
    kept = AffineSystem(system.p, system.matrix, system.rhs)
    assert kept.matrix is system.matrix and kept.rhs is system.rhs
    # a read-only array out of [0, p) is reduced into a copy
    raw = np.array([[3, -1], [2, 5]], dtype=np.int64)
    raw.flags.writeable = False
    reduced = AffineSystem(3, raw, raw[0])
    assert reduced.matrix.tolist() == [[0, 2], [2, 2]] and reduced.rhs.tolist() == [0, 2]
    assert raw.tolist() == [[3, -1], [2, 5]]
    # a writeable narrow array is reduced into an int64 copy
    narrow = np.array([[1, 2], [0, 1]], dtype=np.uint8)
    copied = AffineSystem(3, narrow, narrow[0])
    assert copied.matrix.dtype == np.int64 and not np.shares_memory(copied.matrix, narrow)
