"""Exact arithmetic over F_p and Z/p^2.

Dense square matrices over either modulus, Gaussian elimination with
certificate-grade determinism, affine systems over F_p, and one exact
polynomial type over Z or Z/m.  An affine system holds A as given when it
is read-only, reduced and int64, uint8 or uint16 (linearize's A has the
narrowest of these that holds p - 1), and as a reduced int64 copy
otherwise.  It is eliminated once, each row keeping its multipliers, so a
refutation is read off the same elimination.  Over F_2 rows are packed 64
bits to a word, straight from A, and eliminated with XOR and the same
pivots as for odd p, so certificates do not depend on the kernel.  Both
kernels scan only the columns of A that hold a nonzero entry: row
operations keep a zero column zero, so it never holds a pivot.  Over
odd p, A is widened into a work copy whose rows are reduced mod p only
where a value is read: the entries the pivot search finds, the pivot row
when it is chosen, the right-hand sides left below the rank, and the rows
in which a column scan finds nothing but multiples of p.  A row update
subtracts products of two values in [0, p) unreduced, so an entry stays
below p + rank * (p-1)^2 in absolute value, under 2^63 for p <= PRIME_CAP
at any rank that fits in memory.  With rank taken as min(rows, cols) + 1,
the work copy is the narrowest of int16, int32 and int64 under which that
bound stays: int16 below 2^15 (min(rows, cols) up to 8,190 at p = 3, 2,046
at p = 5 and 909 at p = 7), int32 below 2^31 (up to 34,358 at p = 251, and
to 6 * 10^7 at p = 7), int64 otherwise.  A narrower copy holds the same
values in fewer bytes, and each row update moves fewer of them.  Over F_2,
back-substitution reads each pivot row as one Python integer.  Everything
here is immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import Error


class Singular(Error):
    """Matrix has no inverse over its ring."""


class NotInKernel(Error):
    """Matrix is not congruent to the identity mod p."""


class NotDivisible(Error):
    """p does not divide the binomial coefficient."""


class NonMonicDivisor(Error):
    """Exact polynomial division requires a monic divisor."""


PRIME_CAP = 1 << 15


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeCtx:
    """The prime p together with the lifted modulus p**2."""

    __slots__ = ("p", "p2")

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p <= PRIME_CAP or not is_prime(p):
            raise ValueError(f"p must be a prime in [2, {PRIME_CAP}], got {p!r}")
        self.p = p
        self.p2 = p * p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeCtx) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeCtx", self.p))

    def __repr__(self) -> str:
        return f"PrimeCtx({self.p})"


def power(x, k: int, one, mul=operator.mul):
    """x**k by square-and-multiply, for k >= 0; one is the identity of mul.

    The first factor taken is not multiplied into one, so x**k costs
    bit_length(k) - 1 squarings and popcount(k) - 1 products, and x**1 is x.
    """
    if k < 0:
        raise ValueError(f"exponent must be >= 0, got {k}")
    result = None
    while k:
        if k & 1:
            result = x if result is None else mul(result, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return one if result is None else result


# ---------------------------------------------------------------------------
# matrices


def matmul_mod(a: np.ndarray, b: np.ndarray, mod: int) -> np.ndarray:
    """a @ b reduced to [0, mod), for int64 arrays with entries in [0, mod).

    int64 is used while the worst-case dot product cannot overflow, Python
    integers otherwise (mod can be as large as 2**30).
    """
    if a.shape[1] * (mod - 1) * (mod - 1) < (1 << 62):
        return (a @ b) % mod
    return ((a.astype(object) @ b.astype(object)) % mod).astype(np.int64)


class Mat:
    """Immutable dense square matrix over Z/mod; inverses over F_p, Z/p^2 only.

    Entries are kept reduced to [0, mod).  All arithmetic is exact: products
    use 64-bit integers while that cannot overflow and fall back to Python
    integers otherwise (mod can be as large as 2**30).
    """

    __slots__ = ("mod", "a")

    def __init__(self, mod: int, rows):
        if mod < 2:
            raise ValueError("modulus must be >= 2")
        if isinstance(rows, np.ndarray):
            a = np.array(rows, dtype=np.int64)
        else:
            rows = [list(r) for r in rows]
            if rows:
                a = np.array(rows, dtype=np.int64)
            else:
                a = np.zeros((0, 0), dtype=np.int64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"square matrix expected, got shape {a.shape}")
        a = np.mod(a, mod)
        a.flags.writeable = False
        self.mod = mod
        self.a = a

    @classmethod
    def identity(cls, mod: int, n: int) -> "Mat":
        return cls(mod, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, mod: int, n: int) -> "Mat":
        return cls(mod, np.zeros((n, n), dtype=np.int64))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def rows(self) -> tuple:
        return tuple(tuple(int(v) for v in row) for row in self.a)

    def _check_compatible(self, other: "Mat"):
        if not isinstance(other, Mat):
            raise TypeError(f"Mat expected, got {type(other).__name__}")
        if self.mod != other.mod or self.n != other.n:
            raise ValueError(
                f"ring/dimension mismatch: Z/{self.mod} {self.n}x{self.n} vs "
                f"Z/{other.mod} {other.n}x{other.n}"
            )

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_compatible(other)
        return Mat(self.mod, matmul_mod(self.a, other.a, self.mod))

    def __add__(self, other: "Mat") -> "Mat":
        self._check_compatible(other)
        return Mat(self.mod, (self.a + other.a) % self.mod)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_compatible(other)
        return Mat(self.mod, (self.a - other.a) % self.mod)

    def __pow__(self, k: int) -> "Mat":
        base = self.inv() if k < 0 else self
        return power(base, abs(k), Mat.identity(self.mod, self.n), operator.matmul)

    def inv(self) -> "Mat":
        """The inverse over F_p, the right half of rref([M | I], p), or over
        Z/p^2, lift_inverse's Newton step from it, for a prime p <= PRIME_CAP;
        a ValueError over any other ring, Singular when M mod p is singular.
        One product checks M B = I, so that the certificate check, which
        inverts, does not rest on the solver's own elimination."""
        mod, n = self.mod, self.n
        p = mod if math.isqrt(mod) ** 2 != mod else math.isqrt(mod)
        if not (p <= PRIME_CAP and is_prime(p)):
            raise ValueError(f"inverses exist over F_p and Z/p^2, p prime <= {PRIME_CAP}; not over Z/{mod}")
        reduced, pivots = rref(np.concatenate([self.a, np.eye(n, dtype=np.int64)], axis=1), p)
        if pivots != list(range(n)):
            raise Singular(f"matrix is singular over Z/{mod}")
        b = reduced[:, n:] if p == mod else lift_inverse(self.a, reduced[:, n:], mod)
        if not np.array_equal(matmul_mod(self.a, b, mod), np.eye(n, dtype=np.int64)):
            raise AssertionError(f"internal error: inverse over Z/{mod} fails M B = I")
        return Mat(mod, b)

    def reduce(self, newmod: int) -> "Mat":
        if self.mod % newmod:
            raise ValueError(f"{newmod} does not divide {self.mod}")
        return Mat(newmod, self.a % newmod)

    def lift(self, newmod: int) -> "Mat":
        """Canonical section: entries re-read in [0, mod) as elements of Z/newmod."""
        if newmod % self.mod:
            raise ValueError(f"{self.mod} does not divide {newmod}")
        return Mat(newmod, self.a)

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.a, np.eye(self.n, dtype=np.int64)))

    def is_zero(self) -> bool:
        return not self.a.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.mod == other.mod
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self) -> int:
        return hash((self.mod, self.a.shape, self.a.tobytes()))

    def __repr__(self) -> str:
        return f"Mat(mod={self.mod}, {[list(r) for r in self.a.tolist()]})"


def lift_inverse(m: np.ndarray, b: np.ndarray, mod: int) -> np.ndarray:
    """m^-1 over Z/mod = Z/p^2 from b, an inverse mod p, entries in [0, mod),
    by one Newton step: m b = 1 + pE, so m b (2 - m b) = 1 - p^2 E^2 = 1."""
    return matmul_mod(b, (2 * np.eye(len(m), dtype=np.int64) - matmul_mod(m, b, mod)) % mod, mod)


def split_kernel_element(m: Mat, p: int) -> Mat:
    """Write m = I + p*X for m in the kernel of GL_n(Z/p^2) -> GL_n(F_p).

    Returns X over F_p.  Inverse of merge_kernel_element.
    """
    if m.mod != p * p:
        raise ValueError(f"matrix must live over Z/{p * p}")
    if not m.reduce(p).is_identity():
        raise NotInKernel("matrix is not congruent to the identity mod p")
    diff = (m.a - np.eye(m.n, dtype=np.int64)) % m.mod
    return Mat(p, diff // p)


def merge_kernel_element(x: Mat, p: int) -> Mat:
    """I + p*X over Z/p^2 for X over F_p."""
    if x.mod != p:
        raise ValueError(f"matrix must live over F_{p}")
    return Mat(p * p, np.eye(x.n, dtype=np.int64) + p * x.a)


# ---------------------------------------------------------------------------
# affine systems over F_p


class AffineSystem:
    """A x = b over F_p, rows are scalar equations.

    matrix is int64, or the uint8 or uint16 array handed over read-only and
    reduced (see _owned_reduced); rhs is int64 unless handed over likewise.
    """

    __slots__ = ("p", "matrix", "rhs")

    def __init__(self, p: int, matrix, rhs):
        a = _owned_reduced(matrix, p)
        b = _owned_reduced(rhs, p)
        if a.ndim != 2:
            raise ValueError("coefficient matrix must be 2-dimensional")
        if b.shape != (a.shape[0],):
            raise ValueError("rhs length must equal the number of rows")
        a.flags.writeable = False
        b.flags.writeable = False
        self.p = p
        self.matrix = a
        self.rhs = b

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def is_solution(self, x) -> bool:
        return not ((self.matrix @ np.asarray(x, dtype=np.int64) - self.rhs) % self.p).any()

    def checks_refutation(self, c) -> bool:
        """c is a valid refutation iff c.A = 0 and c.b != 0."""
        c = np.asarray(c, dtype=np.int64)
        if c.shape != (self.rows,):
            return False
        # einsum forms the same int64 sums as c @ A, without numpy's slow
        # integer matmul, and reads a narrow A without widening a copy
        ca = np.einsum("i,ij->j", c, self.matrix) % self.p
        return not ca.any() and bool((c @ self.rhs) % self.p)


_OWNED_DTYPES = (np.dtype(np.int64), np.dtype(np.uint8), np.dtype(np.uint16))


def _owned_reduced(x, p: int) -> np.ndarray:
    """x as an array in [0, p) for a system to own.

    A read-only array that is already reduced is taken over as it is when
    its dtype is int64, uint8 or uint16 (linearize's narrow A); anything
    else is reduced into an int64 copy, so a writeable array of the
    caller's is never aliased.
    """
    a = np.asarray(x)
    if a.dtype not in _OWNED_DTYPES or a.flags.writeable or (a.size and (a.min() < 0 or a.max() >= p)):
        a = np.remainder(a, p, dtype=np.int64, casting="unsafe")
    return a


@dataclass(frozen=True)
class Consistent:
    particular: np.ndarray


@dataclass(frozen=True)
class Inconsistent:
    functional: np.ndarray


SolveResult = Union[Consistent, Inconsistent]


def _forward_eliminate(work: np.ndarray, p: int, pivot_cols: int) -> tuple:
    """In-place row echelon form; pivots restricted to the first pivot_cols
    columns.  Row order is deterministic: first entry nonzero mod p wins.

    work must start with entries in [0, p).  Returns (pivots, perm, scales):
    the original index of each row and each pivot's value before scaling.
    The update skips the pivot's column, so each row keeps there its entry,
    which is its multiplier mod p; pivot rows are reduced to [0, p) but not
    zero left of their pivots.  Rows below the rank may stay unreduced: one
    is reduced when a column scan finds in it a nonzero multiple of p and
    keeps no entry of the column.  Row operations keep a column that starts
    all zero all zero, so only the columns holding a nonzero entry at the
    start are scanned; pivots and multipliers are those of a scan of all.
    """
    rows = work.shape[0]
    pivots, scales = [], []
    perm = np.arange(rows)
    r = 0
    for j in work[:, :pivot_cols].any(axis=0).nonzero()[0].tolist():
        if r == rows:
            break
        nz = work[r:, j].nonzero()[0]
        if nz.size == 0:
            continue
        vals = work[r:, j][nz] % p
        if not vals.all():
            # multiples of p are zeros that were left unreduced
            keep = np.flatnonzero(vals)
            if keep.size == 0:
                # reduce the rows that hold them, or the scans of the
                # columns to come read the same unreduced zeros again
                work[r + nz] %= p
                continue
            nz, vals = nz[keep], vals[keep]
        i = r + int(nz[0])
        if i != r:
            work[r], work[i] = work[i].copy(), work[r].copy()
            perm[r], perm[i] = perm[i], perm[r]
        row = work[r]
        np.remainder(row, p, out=row)
        piv = int(vals[0])
        if piv != 1:
            row[j:] = (row[j:] * pow(piv, -1, p)) % p
        if nz.size > 1:
            # the old row r moved to row i and is zero in column j, so the
            # rows to update are those found by the scan after the first
            work[r + nz[1:], j + 1 :] -= np.multiply.outer(vals[1:], row[j + 1 :])
        pivots.append(j)
        scales.append(piv)
        r += 1
    return pivots, perm, scales


def rref(matrix: np.ndarray, p: int) -> tuple:
    """Reduced row echelon form over F_p; returns (rref, pivot columns).

    _forward_eliminate, then from the last pivot up: clear the row's
    multipliers, left of its pivot, and its pivot column in the rows above.
    """
    work = np.array(matrix, dtype=np.int64) % p
    pivots, _, _ = _forward_eliminate(work, p, work.shape[1])
    for r in range(len(pivots) - 1, -1, -1):
        j = pivots[r]
        work[r, :j] = 0
        above = work[:r, j].nonzero()[0]
        if above.size:
            work[above, j:] = (work[above, j:] - np.multiply.outer(work[above, j], work[r, j:])) % p
    return work[: len(pivots)], pivots


def nullspace(matrix: np.ndarray, p: int) -> tuple:
    """Basis of {x : A x = 0} over F_p: for each free column f in order, the
    vector with 1 at f and -R[r, f] at pivot column r of the rref R."""
    reduced, pivots = rref(matrix, p)
    basis = []
    for f in sorted(set(range(reduced.shape[1])) - set(pivots)):
        v = np.zeros(reduced.shape[1], dtype=np.int64)
        v[f] = 1
        v[pivots] = (-reduced[:, f]) % p
        v.flags.writeable = False
        basis.append(v)
    return tuple(basis)


def _refutation(
    work: np.ndarray, p: int, pivots: list, perm: np.ndarray, scales: list, i: int
) -> np.ndarray:
    """c with c.[A | b] = row i of the eliminated work (A-part 0 mod p),
    scaled so that c.b = 1.

    Row i is original row perm[i] minus sum_m a_m U_m, where a_m is its
    multiplier at pivot m and U_m = (row perm[m] - sum_{q<m} L[m, q] U_q) /
    scales[m] is the scaled pivot row.  So from the last pivot down,
    d = a_m / scales[m] gives c[perm[m]] = -d and a_q -= d L[m, q]; acc
    holds the a_q, mod p, at the pivot columns.  For p = 2 work is packed.
    """
    c = np.zeros(len(perm), dtype=np.int64)
    c[perm[i]] = 1
    acc = work[i].copy()
    for m in range(len(pivots) - 1, -1, -1):
        j = pivots[m]
        if p == 2 and acc[j >> 6] & _BIT[j & 63]:
            c[perm[m]] = 1
            acc[: (j >> 6) + 1] ^= work[m, : (j >> 6) + 1]
        elif p > 2 and (d := int(acc[j]) * pow(scales[m], -1, p) % p):
            c[perm[m]] = p - d
            acc[:j] = (acc[:j] - d * work[m, :j]) % p
    if p > 2:
        c = c * pow(int(work[i, -1]) % p, -1, p) % p
    c.flags.writeable = False
    return c


# bit j of a packed row is bit j & 63 of word j >> 6; _ABOVE[k] has the bits above k
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
_ABOVE = ~(_BIT | (_BIT - np.uint64(1)))


def _pack_primal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A | b] over F_2 as packed rows of little-endian uint64 words."""
    rows, cols = a.shape
    words = np.zeros((rows, (cols + 64) >> 6), dtype="<u8")
    words.view(np.uint8)[:, : (cols + 7) >> 3] = np.packbits(a, axis=1, bitorder="little")
    words[:, cols >> 6] |= b.astype("<u8") << np.uint64(cols & 63)
    return words


def _solve_packed(words: np.ndarray, cols: int, live: list) -> SolveResult:
    """solve_affine over F_2 on packed rows, with _forward_eliminate's pivots.

    live lists the columns of A that hold a nonzero entry, in order; as in
    _forward_eliminate, the other columns stay zero and are not scanned.
    The pivot row is XORed into the rows below from its pivot's word on,
    with its bits up to the pivot masked off: a target keeps bit j, its
    multiplier, and takes none of the pivot row's.  Back-substitution
    reads each pivot row as one Python integer and carries the right-hand
    side as bit `cols` of x, so each pivot unknown is the parity of (row
    AND x).
    """
    rows = words.shape[0]
    pivots = []
    perm = np.arange(rows)
    r = 0
    for j in live:
        if r == rows:
            break
        w = j >> 6
        nz = (words[r:, w] & _BIT[j & 63]).nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            i = r + int(nz[0])
            words[r], words[i] = words[i], words[r].copy()
            perm[r], perm[i] = perm[i], perm[r]
        if nz.size > 1:
            row = words[r, w:].copy()
            row[0] &= _ABOVE[j & 63]
            words[r + nz[1:], w:] ^= row
        pivots.append(j)
        r += 1
    bad = np.flatnonzero(words[r:, cols >> 6] & _BIT[cols & 63])
    if bad.size:
        return Inconsistent(functional=_refutation(words, 2, pivots, perm, [], r + int(bad[0])))
    x = 1 << cols
    for j, row in zip(reversed(pivots), reversed(words[:r])):
        if (int.from_bytes(row.tobytes(), "little") & x).bit_count() & 1:
            x |= 1 << j
    x = np.frombuffer(x.to_bytes(words.shape[1] * 8, "little"), dtype=np.uint8)
    x = np.unpackbits(x, count=cols, bitorder="little").astype(np.int64)
    x.flags.writeable = False
    return Consistent(particular=x)


def solve_affine(sys: AffineSystem) -> SolveResult:
    """Decide A x = b over F_p with a checkable certificate either way.

    Consistent:   a particular solution, free unknowns zero.
    Inconsistent: a functional c with c.A = 0 and c.b = 1, read off the
                  same elimination (see _refutation).  Such c exists iff
                  A x = b has no solution.

    For p = 2 the elimination runs on bits packed straight from A, so no
    integer copy of A is made; for odd p, A is widened into one work copy,
    int16, int32 or int64, the narrowest that its entries' bound fits.  The
    certificate is not checked here; `check_lift` checks it once.
    """
    p, cols = sys.p, sys.cols
    if p == 2:
        live = np.flatnonzero(sys.matrix.any(axis=0)).tolist()
        return _solve_packed(_pack_primal(sys.matrix, sys.rhs), cols, live)
    # entries stay below p + (rank + 1) (p-1)^2, the refutation's first
    # subtraction included (see the module docstring)
    bound = p + (min(sys.rows, cols) + 1) * (p - 1) ** 2
    dtype = np.int16 if bound < 1 << 15 else np.int32 if bound < 1 << 31 else np.int64
    work = np.concatenate([sys.matrix, sys.rhs[:, None]], axis=1, dtype=dtype)
    pivots, perm, scales = _forward_eliminate(work, p, cols)
    rank = len(pivots)
    bad = np.flatnonzero(work[rank:, cols] % p)
    if bad.size:
        return Inconsistent(functional=_refutation(work, p, pivots, perm, scales, rank + int(bad[0])))
    x = np.zeros(cols, dtype=np.int64)
    for r in range(rank - 1, -1, -1):
        j = pivots[r]
        acc = int(work[r, cols]) - int(work[r, j + 1 : cols] @ x[j + 1 :])
        x[j] = acc % p
    x.flags.writeable = False
    return Consistent(particular=x)


# ---------------------------------------------------------------------------
# binomials


def binom_div_p(N: int, K: int, ctx: PrimeCtx) -> int:
    """(binom(N, K) / p) mod p, exact over the integers."""
    if not 0 <= K <= N:
        raise ValueError("need 0 <= K <= N")
    c = math.comb(N, K)
    if c % ctx.p:
        raise NotDivisible(f"{ctx.p} does not divide binom({N},{K})")
    return (c // ctx.p) % ctx.p


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Polynomial over Z (mod None) or over Z/mod, dense coefficients lowest
    degree first.

    Coefficients are reduced into [0, mod) when mod is given, and trailing
    zeros are trimmed, so the zero polynomial is the empty tuple.
    Arbitrary-precision throughout; these only appear in the cyclotomic
    machinery, never in matrix code.
    """

    __slots__ = ("coeffs", "mod")

    def __init__(self, coeffs: Sequence[int] = (), mod: Optional[int] = None):
        coeffs = [int(c) if mod is None else int(c) % mod for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.mod = mod

    @classmethod
    def x_pow_minus_one(cls, k: int) -> "Poly":
        return cls([-1] + [0] * (k - 1) + [1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check(self, other: "Poly"):
        if self.mod != other.mod:
            raise ValueError(f"mixed rings: mod {self.mod} and mod {other.mod}")

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = [0] * max(len(self.coeffs) + len(other.coeffs) - 1, 0)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return Poly(out, self.mod)

    def __pow__(self, k: int) -> "Poly":
        return power(self, k, Poly([1], self.mod))

    def divmod_exact(self, divisor: "Poly") -> tuple:
        """Long division by a monic divisor, exact in the polynomials' ring."""
        self._check(divisor)
        if not divisor.is_monic():
            raise NonMonicDivisor(f"divisor {divisor} is not monic")
        rem = list(self.coeffs)
        d = divisor.degree
        quo = [0] * max(len(rem) - d, 0)
        for i in range(len(rem) - d - 1, -1, -1):
            q = rem[i + d]
            if q:
                quo[i] = q
                for j, c in enumerate(divisor.coeffs):
                    rem[i + j] -= q * c
        return Poly(quo, self.mod), Poly(rem[:d], self.mod)

    def reduce(self, p: int) -> "Poly":
        return Poly(self.coeffs, p)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.mod == other.mod and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        ring = "" if self.mod is None else f", mod={self.mod}"
        return f"Poly({_poly_str(self.coeffs)}{ring})"


def _poly_str(coeffs: tuple) -> str:
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c)) + "*"
            term = f"{mag}t" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append(("- " if c < 0 else "+ ") + term)
    return " ".join(parts)
