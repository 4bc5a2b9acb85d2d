"""Exact arithmetic over F_p and Z/p^2.

Dense square matrices over either modulus, Gaussian elimination with
certificate-grade determinism, affine systems over F_p, and exact integer /
mod-p polynomial arithmetic.  Everything here is immutable after
construction and safe to share between threads.
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
    """x**k by square-and-multiply, for k >= 0; one is the identity of mul."""
    if k < 0:
        raise ValueError(f"exponent must be >= 0, got {k}")
    result = one
    while k:
        if k & 1:
            result = mul(result, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return result


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
    """Immutable dense square matrix over Z/mod.

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
        if self.n == 0:
            return self
        return Mat(self.mod, matmul_mod(self.a, other.a, self.mod))

    def __add__(self, other: "Mat") -> "Mat":
        self._check_compatible(other)
        return Mat(self.mod, (self.a + other.a) % self.mod)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_compatible(other)
        return Mat(self.mod, (self.a - other.a) % self.mod)

    def __neg__(self) -> "Mat":
        return Mat(self.mod, (-self.a) % self.mod)

    def scale(self, k: int) -> "Mat":
        return Mat(self.mod, (self.a * (k % self.mod)) % self.mod)

    def __pow__(self, k: int) -> "Mat":
        base = self.inv() if k < 0 else self
        return power(base, abs(k), Mat.identity(self.mod, self.n), operator.matmul)

    def inv(self) -> "Mat":
        """Inverse by Gauss-Jordan elimination with unit pivots.

        Pivot choice is deterministic: the first row (in order) whose entry
        in the current column is a unit.  Over Z/p^2 a unit pivot exists in
        every column exactly when the mod-p reduction is invertible.
        """
        n, m = self.n, self.mod
        work = np.concatenate([self.a.copy(), np.eye(n, dtype=np.int64)], axis=1)
        for j in range(n):
            piv = -1
            for i in range(j, n):
                if math.gcd(int(work[i, j]), m) == 1:
                    piv = i
                    break
            if piv < 0:
                raise Singular(f"matrix is singular over Z/{m}")
            if piv != j:
                work[[j, piv]] = work[[piv, j]]
            inv_p = pow(int(work[j, j]), -1, m)
            work[j] = (work[j] * inv_p) % m
            for i in range(n):
                if i != j and work[i, j]:
                    work[i] = (work[i] - work[i, j] * work[j]) % m
        return Mat(m, work[:, n:])

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


@dataclass(frozen=True)
class UnknownLayout:
    """Column semantics of a linearized system.

    Unknowns are the entries of one n x n correction matrix per generator,
    ordered by (generator index, row-major entry).  Fixing this layout keeps
    certificates auditable: column j always means the same matrix entry.
    """

    num_gens: int
    n: int

    @property
    def cols(self) -> int:
        return self.num_gens * self.n * self.n

    def col(self, gen: int, row: int, colm: int) -> int:
        n = self.n
        if not (0 <= gen < self.num_gens and 0 <= row < n and 0 <= colm < n):
            raise IndexError("unknown (gen, row, col) out of range")
        return gen * n * n + row * n + colm

    def describe(self, j: int) -> tuple:
        n = self.n
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range")
        gen, rest = divmod(j, n * n)
        return (gen, *divmod(rest, n))


class AffineSystem:
    """A x = b over F_p, rows are scalar equations."""

    __slots__ = ("p", "matrix", "rhs", "layout")

    def __init__(self, p: int, matrix, rhs, layout: Optional[UnknownLayout] = None):
        # asarray does not copy an int64 array, and % p allocates the one
        # copy this system owns, so the caller's arrays are never written
        a = np.asarray(matrix, dtype=np.int64) % p
        b = np.asarray(rhs, dtype=np.int64) % p
        if a.ndim != 2:
            raise ValueError("coefficient matrix must be 2-dimensional")
        if b.shape != (a.shape[0],):
            raise ValueError("rhs length must equal the number of rows")
        if layout is not None and layout.cols != a.shape[1]:
            raise ValueError("layout does not cover the unknown columns")
        a.flags.writeable = False
        b.flags.writeable = False
        self.p = p
        self.matrix = a
        self.rhs = b
        self.layout = layout

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
        return not ((c @ self.matrix) % self.p).any() and bool((c @ self.rhs) % self.p)


@dataclass(frozen=True)
class Consistent:
    particular: np.ndarray


@dataclass(frozen=True)
class Inconsistent:
    functional: np.ndarray


SolveResult = Union[Consistent, Inconsistent]


def _forward_eliminate(work: np.ndarray, p: int, pivot_cols: int) -> list:
    """In-place row echelon form; pivots restricted to the first pivot_cols
    columns.  Row order is deterministic: first nonzero entry wins."""
    rows = work.shape[0]
    pivots = []
    r = 0
    for j in range(pivot_cols):
        if r == rows:
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
        below = np.flatnonzero(work[r + 1 :, j])
        if below.size:
            rows_sel = r + 1 + below
            work[rows_sel, j:] = (
                work[rows_sel, j:] - np.outer(work[rows_sel, j], work[r, j:])
            ) % p
        pivots.append(j)
        r += 1
    return pivots


def _back_eliminate(work: np.ndarray, p: int, pivots: list):
    for r in range(len(pivots) - 1, -1, -1):
        j = pivots[r]
        above = np.flatnonzero(work[:r, j])
        if above.size:
            work[above, j:] = (work[above, j:] - np.outer(work[above, j], work[r, j:])) % p


def rref(matrix: np.ndarray, p: int) -> tuple:
    """Reduced row echelon form over F_p; returns (rref, pivot columns)."""
    work = np.array(matrix, dtype=np.int64) % p
    pivots = _forward_eliminate(work, p, work.shape[1])
    _back_eliminate(work, p, pivots)
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


def _solve_augmented(work: np.ndarray, p: int) -> Optional[np.ndarray]:
    """Solve [M | v] with free unknowns 0, or None if inconsistent; work
    (entries in [0, p)) is eliminated in place, then back-substituted."""
    cols = work.shape[1] - 1
    pivots = _forward_eliminate(work, p, cols)
    rank = len(pivots)
    if work[rank:, cols].any():
        return None
    x = np.zeros(cols, dtype=np.int64)
    for r in range(rank - 1, -1, -1):
        j = pivots[r]
        acc = int(work[r, cols]) - int(work[r, j + 1 : cols] @ x[j + 1 :])
        x[j] = acc % p
    return x


def solve_affine(sys: AffineSystem) -> SolveResult:
    """Decide A x = b over F_p with a checkable certificate either way.

    Consistent:   a particular solution, free unknowns zero.
    Inconsistent: a functional c with c.A = 0 and c.b != 0, the solution of
                  the dual system [A^T 0; b^T 1], built once the primal
                  array is freed.  Such c exists iff A x = b has no solution.

    The certificate is not checked here; `check_lift` checks it once.
    """
    p = sys.p
    rows, cols = sys.rows, sys.cols
    work = np.concatenate([sys.matrix, sys.rhs.reshape(rows, 1)], axis=1)
    x = _solve_augmented(work, p)
    del work
    if x is not None:
        x.flags.writeable = False
        return Consistent(particular=x)
    dual = np.zeros((cols + 1, rows + 1), dtype=np.int64)
    dual[:cols, :rows] = sys.matrix.T
    dual[cols, :rows] = sys.rhs
    dual[cols, rows] = 1
    c = _solve_augmented(dual, p)
    if c is None:
        raise AssertionError("internal error: failed to certify inconsistency")
    c.flags.writeable = False
    return Inconsistent(functional=c)


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


def _trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


# coefficient arithmetic over Z shared by PolyInt and PolyFp, whose
# constructors trim the result and (for PolyFp) reduce it mod p


def _coeffs_add(a: tuple, b: tuple) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _coeffs_mul(a: tuple, b: tuple) -> list:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


class PolyInt:
    """Polynomial over Z, dense coefficients lowest degree first.

    The zero polynomial is the empty tuple.  Arbitrary-precision throughout;
    these only appear in the cyclotomic machinery, never in matrix code.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        self.coeffs = _trim(int(c) for c in coeffs)

    @classmethod
    def x_pow_minus_one(cls, k: int) -> "PolyInt":
        return cls([-1] + [0] * (k - 1) + [1])

    @classmethod
    def one(cls) -> "PolyInt":
        return cls([1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other: "PolyInt") -> "PolyInt":
        return PolyInt(_coeffs_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "PolyInt") -> "PolyInt":
        return self + (-other)

    def __neg__(self) -> "PolyInt":
        return PolyInt([-c for c in self.coeffs])

    def __mul__(self, other: "PolyInt") -> "PolyInt":
        return PolyInt(_coeffs_mul(self.coeffs, other.coeffs))

    def __pow__(self, k: int) -> "PolyInt":
        return power(self, k, PolyInt.one())

    def divmod_exact(self, divisor: "PolyInt") -> tuple:
        """Long division by a monic divisor, exact over Z."""
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
        return PolyInt(quo), PolyInt(rem[:d])

    def reduce(self, p: int) -> "PolyFp":
        return PolyFp(p, self.coeffs)

    def eval_mat(self, m: Mat) -> Mat:
        """Horner evaluation at a square matrix over its own ring."""
        acc = Mat.zeros(m.mod, m.n)
        ident = Mat.identity(m.mod, m.n)
        for c in reversed(self.coeffs):
            acc = acc @ m + ident.scale(c)
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyInt) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("PolyInt", self.coeffs))

    def __repr__(self) -> str:
        return f"PolyInt({_poly_str(self.coeffs)})"


class PolyFp:
    """Polynomial over F_p, dense coefficients lowest degree first."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Sequence[int] = ()):
        self.p = p
        self.coeffs = _trim(int(c) % p for c in coeffs)

    @classmethod
    def t_minus_one(cls, p: int) -> "PolyFp":
        return cls(p, [-1, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "PolyFp") -> "PolyFp":
        self._check(other)
        return PolyFp(self.p, _coeffs_add(self.coeffs, other.coeffs))

    def __mul__(self, other: "PolyFp") -> "PolyFp":
        self._check(other)
        return PolyFp(self.p, _coeffs_mul(self.coeffs, other.coeffs))

    def __pow__(self, k: int) -> "PolyFp":
        return power(self, k, PolyFp(self.p, [1]))

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def _check(self, other: "PolyFp"):
        if self.p != other.p:
            raise ValueError("mixed characteristics")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyFp) and self.p == other.p and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(("PolyFp", self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"PolyFp(p={self.p}, {_poly_str(self.coeffs)})"


def _poly_str(coeffs: tuple, var: str = "t") -> str:
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
            term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append(("- " if c < 0 else "+ ") + term)
    return " ".join(parts)
