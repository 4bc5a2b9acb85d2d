"""Decide whether a mod-p representation lifts to Z/p^2.

A representation is given by one invertible matrix over F_p per presentation
generator, with every relator evaluating to the identity.  Lifts of a
generator image g are exactly the matrices (1 + p*A) g^ for A over F_p, so a
relator w = x_{j_1}^{e_1} ... x_{j_L}^{e_L} lifts to the identity iff

    sum_t e_t * v_t A_{j_t} v_t^{-1}  =  -E_w   in M_n(F_p),

where v_t is the F_p evaluation of the prefix before letter t (extended by
x_{j_t}^{-1} when e_t = -1) and 1 + p*E_w is the evaluation of w at the
chosen lifts.  Solvability of the resulting affine system over F_p is
therefore equivalent to the existence of a lift; both outcomes carry an
independently checkable certificate.

In the row-major layout the map A |-> v A v^-1 is kron(v, (v^-1)^T), so
entry [(a,b),(c,d)] of generator g's block is sum_t e_t v_t[a,c] v_t^-1[d,b]
over the letters t of g.  `linearize` forms that sum as one float matrix
product per generator.  Every partial sum is a nonnegative integer below the
mantissa, so the products are exact in any BLAS order, and the float width
follows from p as in FFLAS-FFPACK (Dumas, Giorgi & Pernet, ACM TOMS 35(3),
2008).  `linearize`, `_linearize_relator`, `_float_dtype`, `_reduce_mod` and
`verify_certificate` give the walk, the bounds and the exact recheck.

A run g^m of a generator with a relator g^N, N a power of p, needs only
min(m, n) of its m terms.  Over F_p, (g - 1)^N = g^N - 1 = 0, so h = g^(+-1)
and s = h^-T are 1 + N and 1 + N' with N^n = N'^n = 0, and h^t = sum_{i<n}
C(t, i) N^i.  The run's terms are X_0 h^t and Y_0 s^t, so

    sum_{t<m} X_t^T Y_t  =  sum_{i,j<d} G_ij (X_0 N^i)^T (Y_0 N'^j),
    G_ij = sum_{t<m} C(t, i) C(t, j) mod p,   d = min(m, n),

which is one block product over d pairs with the Y half mixed by the d x d
Gram matrix G.  The identity holds mod p term by term, so A and b are the
same integers either way; runs longer than n of such generators take it.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from typing import Optional, Sequence

import numpy as np

from .errors import Error
from .groups import (
    FiniteGroup,
    NotASubgroup,
    Presentation,
    Subgroup,
    Word,
    extend_hom,
    transversal,
    word_value,
)
from .rings import (
    AffineSystem,
    Consistent,
    Mat,
    NotInKernel,
    PrimeCtx,
    Singular,
    lift_inverse,
    matmul_mod,
    merge_kernel_element,
    power,
    solve_affine,
    split_kernel_element,
)


class InvalidRepresentation(Error):
    pass


class BudgetExceeded(Error):
    pass


class UnrealizedPresentation(Error):
    pass


DEFAULT_BRUTE_BUDGET = 1 << 20

# dense elimination stays fast only at desk scale
MAX_DIMENSION = 64
# on rows * cols * 8, the size W of the odd-p solve's work copy of the lift
# system at its widest, int64 (it is int32, W / 2, or int16, W / 4, where
# the entries' bound allows; see rings); linearize's A itself is 1 or 2
# bytes an entry.
# A dense odd-p check can peak near 3 W on top of A: the work copy and, at
# the first pivots, the row update's two temporaries (the gathered rows and
# the outer product).  With an int64 work copy, tracemalloc inside
# solve_affine read 2.7-3.2 W on top of A for seeded dense refuted F_7
# systems of 200^2 to 1200^2, and 1.85-3.02 W on the six largest odd-p
# search-small systems at seed 3
MAX_SYSTEM_BYTES = 1 << 30


@dataclass(frozen=True)
class Representation:
    """Generator matrices over F_p for a presentation."""

    ctx: PrimeCtx
    presentation: Presentation
    gen_mats: tuple
    n: int

    def __post_init__(self):
        if len(self.gen_mats) != self.presentation.num_gens:
            raise InvalidRepresentation("one matrix per generator required")
        for m in self.gen_mats:
            if m.mod != self.ctx.p or m.n != self.n:
                raise InvalidRepresentation(
                    f"generator matrix must be {self.n}x{self.n} over F_{self.ctx.p}"
                )

    @property
    def num_gens(self) -> int:
        return self.presentation.num_gens


@dataclass(frozen=True)
class LiftCertificate:
    """One matrix over Z/p^2 per generator."""

    mats: tuple


@dataclass(frozen=True)
class LinearizedSystem:
    """The affine lift system plus the per-relator defects that fed it."""

    system: AffineSystem
    defects: tuple
    lifts: tuple


@dataclass(frozen=True)
class LiftVerdict:
    liftable: bool
    certificate: Optional[LiftCertificate] = None
    refutation: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# validation and word evaluation


def eval_word(mats: Sequence[Mat], word: Word, mod: int, n: int) -> Mat:
    """The value of word over Z/mod, with mats[g] as the image of generator g."""
    return word_value(word, mats, Mat.identity(mod, n), operator.matmul, Mat.inv)


def _power_orders(presentation: Presentation) -> dict:
    """g -> the least N with g^N, all letters positive, a relator: wherever
    that relator holds, g^-1 = g^(N-1)."""
    powers = (w for w in presentation.relators if w and w[0][1] == 1 and w.count(w[0]) == len(w))
    return {w[0][0]: len(w) for w in sorted(powers, key=len, reverse=True)}


def _generator_inverses(rep: Representation) -> list:
    """Each generator's inverse; raise on the first singular generator."""
    invs = []
    for name, m in zip(rep.presentation.names, rep.gen_mats):
        try:
            invs.append(m.inv())
        except Singular:
            raise InvalidRepresentation(f"generator {name!r} is not invertible over F_{rep.ctx.p}") from None
    return invs


def validate_rep(rep: Representation) -> None:
    """Check invertibility and all relators; raise on the first violation."""
    _generator_inverses(rep)
    for i, w in enumerate(rep.presentation.relators):
        if not eval_word(rep.gen_mats, w, rep.ctx.p, rep.n).is_identity():
            raise InvalidRepresentation(f"relator #{i} does not evaluate to the identity")


def canonical_lifts(rep: Representation) -> tuple:
    """The entrywise section [0, p) applied to each generator matrix."""
    return tuple(m.lift(rep.ctx.p2) for m in rep.gen_mats)


def randomized_lifts(rep: Representation, rng: np.random.Generator) -> tuple:
    """Any section differs from the canonical one by p times an F_p matrix."""
    p, p2 = rep.ctx.p, rep.ctx.p2
    return tuple(
        Mat(p2, m.a + p * rng.integers(0, p, size=(rep.n, rep.n)))
        for m in rep.gen_mats
    )


def _check_naive_lifts(rep: Representation, naive_lifts: Sequence[Mat]) -> None:
    if len(naive_lifts) != rep.num_gens:
        raise InvalidRepresentation("one naive lift per generator required")
    for m, lifted in zip(rep.gen_mats, naive_lifts):
        if lifted.mod != rep.ctx.p2 or lifted.reduce(rep.ctx.p) != m:
            raise InvalidRepresentation("naive lifts must reduce to the generator matrices")


def relator_defect(rep: Representation, naive_lifts: Sequence[Mat], word: Word) -> Mat:
    """E_w with w(lifts) = 1 + p*E_w; NotInKernel if w is not a relator."""
    _check_naive_lifts(rep, naive_lifts)
    w_val = eval_word(naive_lifts, word, rep.ctx.p2, rep.n)
    return split_kernel_element(w_val, rep.ctx.p)


# ---------------------------------------------------------------------------
# linearization and the decision procedure


# Letters per block sum.  Each entry of one block product is a sum of at
# most _CHUNK terms in [0, (p-1)^2], below 2^24 for p <= 181 (float32 is
# exact) and below 2^53 for every p <= PRIME_CAP = 2^15 (float64 is;
# _float_dtype).  A relator's k generators get buffers of _CHUNK // k
# prefix pairs each (at least one), so together they hold at most
# 2 * max(_CHUNK, k) * n^2 floats.
_CHUNK = 512
# Floats per slab of a block product's output (at least one row block of
# n^3), so that it and its reduction stay this small whatever the size of A.
_SLAB = 1 << 16


def _float_dtype(p: int):
    """The float width linearize computes in over F_p: float32 where every
    block sum, below _CHUNK * (p-1)^2 + p, fits its 24-bit mantissa (p <=
    181), float64 otherwise."""
    return np.float32 if _CHUNK * (p - 1) ** 2 + p < 1 << 24 else np.float64


def _reduce_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce x, integers in [0, 2^m), to [0, p) in place; return x.  m is
    24 for float32, 53 for float64.

    q = floor(x * (1/p)), x -= q * p, and one correction, in one pass whose
    temporaries are the size of x: linearize reduces at most half a buffer
    of prefix pairs or one slab of a block product at once.  1/p and the
    product each round by a relative 2^-m, so x * (1/p) is within 2/p of
    x/p and q is off by at most one: one too large only when x = -1 mod p,
    where q * p = x + 1 <= 2^m is exact and x - q * p = -1, or one too
    small, which leaves x - q * p in [p, 2p).  Adding p to the one and
    subtracting it from the other is exact.  For p = 2, 1/p and q are
    exact.  numpy's fmod gives the same values in time that grows with
    x / p: 5-60 times as long at the sizes linearize reduces.
    """
    q = x * (1.0 / p)
    np.floor(q, out=q)
    q *= p
    x -= q
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)
    return x


def _stack_powers(out, step, p) -> None:
    """Fill out[..., t, :, :] = out[..., 0, :, :] @ step^t mod p for every
    t < out.shape[-3], batched over the leading axes of out and step.

    The rows are made by doubling, out[k:2k] = out[:k] @ step^k, with out[:k]
    stacked as one (k*n, n) matrix, so m rows take O(log m) GEMMs.  All
    operands are in [0, p) and n <= MAX_DIMENSION, so every sum stays below
    64 * (p-1)^2: under 2^24 in float32 (p <= 181), under 2^53 in float64,
    so each product is exact; _reduce_mod reduces it in place.
    """
    *lead, m, n, _ = out.shape
    done, step_k = 1, step
    while done < m:
        k = min(done, m - done)
        rows = out[..., done : done + k, :, :].reshape(*lead, k * n, n)
        np.matmul(out[..., :k, :, :].reshape(*lead, k * n, n), step_k, out=rows)
        _reduce_mod(rows, p)
        done += k
        if done < m:
            step_k = _reduce_mod(step_k @ step_k, p)


def _binomial_gram(m, d, p, dtype):
    """[G; c_(m-1); c_m], (d + 2) x d over F_p in dtype, for m >= 1: G[i, j] =
    sum_{t<m} C(t, i) C(t, j) and c_t[j] = C(t, j), i, j < d, in memory
    independent of m.

    Below _CHUNK rows, Pascal's triangle is written out, column i the
    running sum of column i-1 (C(t, i) = sum_{s<t} C(s, i-1)), and G is the
    table's Gram matrix, whose sums stay below _CHUNK (p-1)^2 like those of
    a buffer's block product.  Past that, c_t = e_0 J^t with J = 1 + (ones
    above the diagonal), so S_k = sum_{t<k} (J^t)^T E_00 J^t obeys S_(k+l)
    = S_k + (J^k)^T S_l J^k, and rings.power takes [J^m, S_m] from [J, E_00]
    in O(log m) float products of d x d operands in [0, p).  Powers of J
    commute, so one batched product [J^l, S_l] @ J^k gives J^(k+l) and
    S_l J^k.  Then c_(m-1) = c_m J^-1, and J^-1 = sum_i (-U)^i for the
    shift U gives C(m-1, j) = sum_{i<=j} (-1)^(j-i) C(m, i).
    """

    def mul(a, b):
        return _reduce_mod(a @ b, p)

    out = np.empty((d + 2, d), dtype=dtype)
    if m < _CHUNK:
        table = np.zeros((m + 1, d), dtype=dtype)
        table[:, 0] = 1
        for i in range(1, d):
            np.remainder(np.cumsum(table[:-1, i - 1]), p, out=table[1:, i])
        out[:d], out[d:] = mul(table[:-1].T, table[:-1]), table[-2:]
        return out

    def combine(x, y):
        xy = mul(y, x[0])
        xy[1] = _reduce_mod(x[0].T @ xy[1] + x[1], p)
        return xy

    start = np.zeros((2, d, d), dtype=dtype)
    start[0] = np.eye(d) + np.eye(d, k=1)
    start[1, 0, 0] = 1
    # m >= 1, so the identity of combine is never taken
    jm, out[:d] = power(start, m, None, combine)
    sign = (-1) ** np.arange(d)
    out[d], out[d + 1] = np.cumsum(jm[0] * sign) * sign % p, jm[0]
    return out


def _linearize_relator(out, runs, steps, nil_steps, lift_steps, p, p2):
    """Fill one relator's block and return the relator's value at the lifts.

    out is the relator's zeroed block viewed as (n, n, k, n, n), so that
    out[a, b, g, c, d] is row (a, b), column (g, c, d) of the system.  The
    walk goes one run g^(e*m), given as (g, e, m), at a time and carries
    the prefix w at the naive lifts over Z/p^2, whose reduction mod p is v,
    and (v^-1)^T over F_p; w crosses the run as w @ lift_steps[g, e]^m, by
    rings.power in O(log m) matmul_mod products.  A letter moves the pair
    (X, Y^T) = (v, (v^-1)^T) to (X, Y^T) @ steps[g, e], which is (g, g^-T)
    for g and (g^-1, g^T) for g^-1, so _stack_powers makes a run's rows from
    its first pair.  A letter g is recorded before it is taken and a letter
    g^-1 after, with X negated.

    A run longer than n whose (g, e) is in nil_steps, steps[g, e] - 1 for a
    g of p-power order, enters compressed (module docstring): _stack_powers
    makes the n rows (X_0 N^i, Y_0 N'^i) from the first pair with that
    nilpotent step, and one product with _binomial_gram(m, n) replaces the
    Y half by G Y and gives the next (v^-1)^T as sum_j C(m', j) Y_0 N'^j,
    with m' = m - 1 for g^-1 (its last recorded letter) and m for g (one
    letter on).  Each sum has n terms below (p-1)^2, the bound _stack_powers
    keeps.  The n pairs are made apart and copied into g's buffer.

    Each of the relator's k generators has one buffer of min(pairs,
    _CHUNK // k) pairs, where pairs counts what its runs put in (m, or n
    for a compressed run), which its runs fill in order.  A full buffer is
    flushed, and a run that goes on starts again at its front from its last
    pair; at the end every buffer that holds pairs is flushed.  A flush adds
    X^T Y over the buffer's letters into out.  Y is stored transposed, so
    X^T Y comes out indexed [(a,c),(b,d)] and is transposed into place: one
    slab of rows a at a time, it is formed, reduced, added to what out holds
    (the sum is below 2p, so one subtraction of p reduces it) and written
    once.
    """
    n = out.shape[0]
    n2 = n * n
    fdt = _float_dtype(p)
    eye = np.eye(n, dtype=np.int64)
    w, vinv_t = eye, np.eye(n, dtype=fdt)

    def mul_p2(a, b):
        return matmul_mod(a, b, p2)

    def mul_p(a, b):
        return _reduce_mod(a @ b, p)

    runs = [(g, e, m, nil_steps.get((g, e)) if m > n else None) for g, e, m in runs]
    counts = Counter()
    for g, _, m, nil in runs:
        counts[g] += m if nil is None else n
    pairs = {
        g: np.empty((2, min(c, max(1, _CHUNK // len(counts))), n, n), dtype=fdt)
        for g, c in counts.items()
    }
    filled = dict.fromkeys(counts, 0)
    # generators whose block holds an earlier flush's sum
    written = set()
    # output row blocks a per slab of one block product
    slab = max(1, _SLAB // max(1, n * n2))

    def flush(g):
        c = filled[g]
        # X^T in C order: on the transposed view the same GEMM makes
        # multithreaded OpenBLAS keep more buffer memory resident
        xt = np.ascontiguousarray(pairs[g][0, :c].reshape(c, n2).T)
        y = pairs[g][1, :c].reshape(c, n2)
        for a in range(0, n, slab):
            prod = _reduce_mod(xt[a * n : (a + slab) * n] @ y, p)
            # rows (a, c) and columns (b, d) go to block[a, b, c, d]
            prod = prod.reshape(-1, n, n, n).transpose(0, 2, 1, 3)
            target = out[a : a + slab, :, g]
            if g in written:
                prod += target
                np.subtract(prod, p, out=prod, where=prod >= p)
            # integers in [0, p): the cast to A's dtype is exact
            target[...] = prod
        written.add(g)
        filled[g] = 0

    for g, e, m, nil in runs:
        step, buf, i = steps[g, e], pairs[g], filled[g]
        # a compressed run makes its n pairs outside the buffer
        head, j = (buf, i) if nil is None else (np.empty((2, n, n, n), dtype=fdt), 0)
        head[0, j], head[1, j] = (w if e == 1 else -w) % p, vinv_t
        if e == -1:
            head[:, j] = mul_p(head[:, j], step)
        w = mul_p2(w, power(lift_steps[g, e], m, eye, mul_p2))
        if nil is not None:
            _stack_powers(head, nil, p)
            mixed = mul_p(_binomial_gram(m, n, p, fdt), head[1].reshape(n, n2))
            head[1] = mixed[:n].reshape(n, n, n)
            # the run's last Y: row m-1 of a run of g^-1, row m (one letter
            # on) of a run of g
            vinv_t = mixed[n + (e == 1)].reshape(n, n)
            while j < n:
                c = min(n - j, buf.shape[1] - i)
                buf[:, i : i + c] = head[:, j : j + c]
                j, filled[g] = j + c, i + c
                if filled[g] == buf.shape[1]:
                    flush(g)
                i = filled[g]
            continue
        while True:
            c = min(m, buf.shape[1] - i)
            rows = buf[:, i : i + c]
            _stack_powers(rows, step, p)
            last, m, filled[g] = rows[:, -1], m - c, i + c
            if filled[g] == buf.shape[1]:
                flush(g)
            if not m:
                break
            # the run goes on from its last pair, at the front of the buffer
            buf[:, 0], i = mul_p(last, step), 0
        # last may view g's buffer: nothing writes there before the next
        # run has read vinv_t
        vinv_t = mul_p(last[1], step[1]) if e == 1 else last[1]
    for g in pairs:
        if filled[g]:
            flush(g)
    return w


def linearize(rep: Representation, naive_lifts: Optional[Sequence[Mat]] = None) -> LinearizedSystem:
    """Assemble the affine system over F_p whose solutions are the lifts.

    One n^2-row block per relator; unknowns laid out by (generator,
    row-major entry), so column j always means the same matrix entry and
    certificates stay auditable.  Each relator is walked once, one run
    g^(+-m) at a time, and generator g's block is X^T Y for the rows X_t =
    e_t v_t and Y_t = v_t^-1 stacked over the letters t of g (see the
    module docstring).  All float work is in _float_dtype(p), float32 for p
    <= 181 and float64 above.  A run's rows are made by doubling, each step
    one product whose sums stay below 64 * (p-1)^2.  The block product is
    taken over one buffer per generator of at most _CHUNK letters, so its
    nonnegative sums stay below _CHUNK * (p-1)^2 + p, under 2^24 in float32
    and 2^53 in float64: exact in any summation order, with no integer
    fallback.  Each buffer's product is formed and reduced one slab of rows
    at a time and added into A, whose dtype is np.min_scalar_type(p - 1),
    uint8 for p < 2^8 and uint16 above; the system keeps that narrow,
    read-only A without a copy, and b as int64.  The same walk gives each
    relator's defect E_w, in O(log m) matmul_mod products per run over
    Z/p^2.  A run longer than n of a generator g with a relator g^N, N a
    power of p, enters the block product as n pairs mixed by
    _binomial_gram (module docstring), so a run of 2^16 letters costs O(n)
    pairs and O(log m) n x n products.  The F_p inverse of a generator g
    with a relator g^N (_power_orders) is g^(N-1), in O(log N) matmul_mod
    products, and Mat.inv's otherwise; lift_inverse's Newton step takes it
    to Z/p^2.  g^(N-1) is g^-1 and g - 1 nilpotent unless g^N fails mod p,
    and the walk of g^N takes neither an inverse nor a compressed pair (its
    value at the lifts is a power of one lift), so it then fails.  A singular generator, a relator that fails
    mod p (both found by `validate_rep`, with its messages) and, before any
    allocation, a system over MAX_SYSTEM_BYTES raise InvalidRepresentation.
    """
    p, p2 = rep.ctx.p, rep.ctx.p2
    n = rep.n
    k = rep.num_gens
    relators = rep.presentation.relators
    if n > MAX_DIMENSION:
        raise InvalidRepresentation(f"dimension {n} exceeds the cap {MAX_DIMENSION}")
    rows, cols = len(relators) * n * n, k * n * n
    if rows * cols * 8 > MAX_SYSTEM_BYTES:
        raise InvalidRepresentation(f"lift system {rows}x{cols} exceeds the {MAX_SYSTEM_BYTES}-byte budget")
    if naive_lifts is None:
        naive_lifts = canonical_lifts(rep)
    _check_naive_lifts(rep, naive_lifts)
    orders = _power_orders(rep.presentation)
    runs = [[(g, e, sum(1 for _ in run)) for (g, e), run in groupby(word)] for word in relators]
    inverted = {g for word in runs for g, e, _ in word if e == -1}
    steps, lift_steps = {}, {}
    fdt = _float_dtype(p)
    eye, mul_p = np.eye(n, dtype=np.int64), functools.partial(matmul_mod, mod=p)
    try:
        for g, m in enumerate(rep.gen_mats):
            a = m.a
            b = power(a, orders[g] - 1, eye, mul_p) if g in orders else m.inv().a
            steps[g, 1], lift_steps[g, 1] = np.array((a, b.T), dtype=fdt), naive_lifts[g].a
            if g in inverted:
                steps[g, -1] = np.array((b, a.T), dtype=fdt)
                lift_steps[g, -1] = lift_inverse(naive_lifts[g].a, b, p2)
        # the steps less 1 of the runs that enter compressed: longer than n >
        # 0, of a g with g^N for N a power of p (N divides p^bit_length(N)
        # exactly then), so that (g - 1)^N = g^N - 1 = 0 over F_p
        nil_steps = {(g, e): (steps[g, e] - np.eye(n, dtype=fdt)) % p for word in runs for g, e, m in word
                     if 0 < n < m and g in orders and pow(p, orders[g].bit_length(), orders[g]) == 0}
        matrix = np.zeros((len(relators), n, n, k, n, n), dtype=np.min_scalar_type(p - 1))
        rhs = np.zeros((len(relators), n, n), dtype=np.int64)
        defects = []
        for block, b, word_runs in zip(matrix, rhs, runs):
            value = _linearize_relator(block, word_runs, steps, nil_steps, lift_steps, p, p2)
            defect = split_kernel_element(Mat(p2, value), p)
            b[...] = (-defect.a) % p
            defects.append(defect)
    except (Singular, NotInKernel):
        # g^(N-1) is g^-1 unless g^N fails; validate_rep names the first
        # singular generator or broken relator, with exact inverses
        validate_rep(rep)
        raise AssertionError("internal error: linearize rejected a valid representation") from None
    # every entry is already in [0, p); read-only, the arrays are handed
    # over to the system without a copy
    matrix.flags.writeable = False
    rhs.flags.writeable = False
    system = AffineSystem(p, matrix.reshape(rows, cols), rhs.reshape(rows))
    return LinearizedSystem(system=system, defects=tuple(defects), lifts=tuple(naive_lifts))


def _certificate_from_solution(rep: Representation, lin: LinearizedSystem, x: np.ndarray) -> LiftCertificate:
    p, n = rep.ctx.p, rep.n
    mats = []
    for g in range(rep.num_gens):
        a = x[g * n * n : (g + 1) * n * n].reshape(n, n)
        correction = merge_kernel_element(Mat(p, a), p)
        mats.append(correction @ lin.lifts[g])
    return LiftCertificate(tuple(mats))


def verify_certificate(rep: Representation, cert: LiftCertificate) -> bool:
    """Exact recheck over Z/p^2, independent of the solver: groups.word_value
    walks the relators and shares only rings.power and matmul_mod with
    linearize's walk.  Each L^-1 is L^(N-1) where L^N is a relator, else
    Mat.inv's, once per certificate.
    L^N takes no inverse, so a certificate that passes it had L^(N-1) = L^-1,
    and one that fails it is rejected: the check stays exact."""
    if len(cert.mats) != rep.num_gens:
        return False
    p, p2 = rep.ctx.p, rep.ctx.p2
    for m, lifted in zip(rep.gen_mats, cert.mats):
        if lifted.mod != p2 or lifted.n != rep.n or lifted.reduce(p) != m:
            return False
    one = Mat.identity(p2, rep.n)
    orders = {cert.mats[g]: order for g, order in _power_orders(rep.presentation).items()}
    inv = functools.cache(lambda m: m ** (orders[m] - 1) if m in orders else m.inv())
    try:
        return all(word_value(w, cert.mats, one, operator.matmul, inv).is_identity()
                   for w in rep.presentation.relators)
    except Singular:      # a relator inverts a lift that is singular mod p
        return False


def check_lift(rep: Representation, naive_lifts: Optional[Sequence[Mat]] = None) -> LiftVerdict:
    """The decision procedure: linearize (which also validates), solve, and
    check the verdict once, exactly and independently of the solver."""
    lin = linearize(rep, naive_lifts)
    result = solve_affine(lin.system)
    if isinstance(result, Consistent):
        cert = _certificate_from_solution(rep, lin, result.particular)
        if not verify_certificate(rep, cert):
            raise AssertionError("internal error: solver certificate failed verification")
        return LiftVerdict(liftable=True, certificate=cert)
    if not lin.system.checks_refutation(result.functional):
        raise AssertionError("internal error: refutation failed verification")
    return LiftVerdict(liftable=False, refutation=result.functional)


# ---------------------------------------------------------------------------
# functorial constructions


def direct_sum(x: Representation, y: Representation) -> Representation:
    """Block-diagonal sum over the same presentation and prime."""
    if x.ctx != y.ctx:
        raise InvalidRepresentation("direct sum requires the same prime")
    if x.presentation != y.presentation:
        raise InvalidRepresentation("direct sum requires the same presentation")
    p = x.ctx.p
    n = x.n + y.n
    mats = []
    for a, b in zip(x.gen_mats, y.gen_mats):
        m = np.zeros((n, n), dtype=np.int64)
        m[: x.n, : x.n] = a.a
        m[x.n :, x.n :] = b.a
        mats.append(Mat(p, m))
    return Representation(x.ctx, x.presentation, tuple(mats), n)


def _realize_all_elements(rep: Representation, group: FiniteGroup) -> list:
    """Matrix for every element of the realizing group."""
    if group.presentation is None or group.gen_indices is None:
        raise UnrealizedPresentation("group does not realize a presentation")
    if group.presentation != rep.presentation:
        raise UnrealizedPresentation("representation is on a different presentation")
    mats = extend_hom(group, rep.gen_mats, Mat.identity(rep.ctx.p, rep.n), operator.matmul)
    if mats is None:
        raise InvalidRepresentation("generator matrices are inconsistent on the group")
    return mats


def induce(
    rep_h: Representation,
    h_group: FiniteGroup,
    g: FiniteGroup,
    sub: Subgroup,
    hom: Sequence[int],
) -> Representation:
    """Induce a representation of H up to G along an embedding H -> G.

    hom maps element indices of the abstract group h_group (which realizes
    rep_h's presentation) to element indices of g; its image must be the
    subgroup sub.  Block (i, j) of the induced image of g0 is
    rep_h(t_i^-1 g0 t_j) when that element lands in sub, else zero.
    """
    if sub.parent is not g:
        raise NotASubgroup("subgroup belongs to a different parent group")
    if g.presentation is None or g.gen_indices is None:
        raise UnrealizedPresentation("target group does not realize a presentation")
    hom = np.asarray(hom, dtype=np.int64)
    if hom.shape != (h_group.order,) or not np.array_equal(np.sort(hom), sub.elements):
        raise NotASubgroup("hom must biject the abstract group onto the subgroup")
    if not np.array_equal(hom[h_group.table], g.table[np.ix_(hom, hom)]):
        raise NotASubgroup("hom is not a homomorphism")
    inv_hom = np.full(g.order, -1)
    inv_hom[hom] = np.arange(h_group.order)
    mats_h = np.stack([m.a for m in _realize_all_elements(rep_h, h_group)])
    reps = np.array(transversal(g, sub))
    r, n = len(reps), rep_h.n
    big = r * n
    out = []
    for g0 in g.gen_indices:
        # z[i, j] = t_i^-1 g0 t_j as an element of h_group, -1 outside sub
        z = inv_hom[g.table[g.table[g.inverse[reps], g0][:, None], reps]]
        blocks = mats_h[z]
        blocks[z < 0] = 0
        out.append(Mat(rep_h.ctx.p, blocks.transpose(0, 2, 1, 3).reshape(big, big)))
    return Representation(rep_h.ctx, g.presentation, tuple(out), big)


def restrict(rep_g: Representation, sub_presentation: Presentation, words: Sequence[Word]) -> Representation:
    """Representation of a subgroup: generators are the given words in G's."""
    if len(words) != sub_presentation.num_gens:
        raise InvalidRepresentation("one word per subgroup generator required")
    mats = tuple(eval_word(rep_g.gen_mats, w, rep_g.ctx.p, rep_g.n) for w in words)
    out = Representation(rep_g.ctx, sub_presentation, mats, rep_g.n)
    validate_rep(out)
    return out


def regular_representation(g: FiniteGroup, ctx: PrimeCtx) -> Representation:
    """Left-regular permutation representation on the group's presentation."""
    if g.presentation is None or g.gen_indices is None:
        raise UnrealizedPresentation("group does not realize a presentation")
    return permutation_matrix_rep(ctx, g.presentation, [g.table[x] for x in g.gen_indices])


def permutation_matrix_rep(ctx: PrimeCtx, pres: Presentation, perms: Sequence[tuple]) -> Representation:
    """Generators as permutation matrices (column j maps to row perm[j])."""
    if not perms:
        raise InvalidRepresentation("need at least one permutation")
    n = len(perms[0])
    mats = []
    for perm in perms:
        m = np.zeros((n, n), dtype=np.int64)
        m[np.asarray(perm), np.arange(n)] = 1
        mats.append(Mat(ctx.p, m))
    return Representation(ctx, pres, tuple(mats), n)


# ---------------------------------------------------------------------------
# exhaustive oracle


def brute_force_lift(rep: Representation, budget: int = DEFAULT_BRUTE_BUDGET) -> LiftVerdict:
    """Enumerate every kernel correction per generator and test all relators.

    Independent of the linearization: candidates (1 + p*A_i) g^_i are
    evaluated directly over Z/p^2.  Raises BudgetExceeded when the search
    space p^(num_gens * n^2) is larger than the budget.
    """
    validate_rep(rep)
    p, p2, n, k = rep.ctx.p, rep.ctx.p2, rep.n, rep.num_gens
    digits = k * n * n
    total = p ** digits
    if total > budget:
        raise BudgetExceeded(f"{total} assignments exceed budget {budget}")
    lifts = canonical_lifts(rep)
    ghat = np.array([m.a for m in lifts], dtype=np.int64).reshape(k, n, n)
    ghat_inv = np.array([m.inv().a for m in lifts], dtype=np.int64).reshape(k, n, n)
    ident = np.eye(n, dtype=np.int64)
    relators = rep.presentation.relators

    chunk = 4096
    powers = p ** np.arange(digits, dtype=np.int64)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        a = ((idx[:, None] // powers) % p).reshape(stop - start, k, n, n)
        cand = (ident + p * a) @ ghat % p2
        cand_inv = ghat_inv @ (ident - p * a) % p2
        ok = np.ones(stop - start, dtype=bool)
        for word in relators:
            cur = np.broadcast_to(ident, (stop - start, n, n)).copy()
            for gi, e in word:
                term = cand[:, gi] if e == 1 else cand_inv[:, gi]
                cur = cur @ term % p2
            ok &= (cur == ident).all(axis=(1, 2))
            if not ok.any():
                break
        hits = np.flatnonzero(ok)
        if hits.size:
            a0 = a[hits[0]]
            mats = tuple(
                Mat(p2, (ident + p * a0[gi]) @ ghat[gi] % p2) for gi in range(k)
            )
            cert = LiftCertificate(mats)
            if not verify_certificate(rep, cert):
                raise AssertionError("internal error: brute force certificate invalid")
            return LiftVerdict(liftable=True, certificate=cert)
    return LiftVerdict(liftable=False)
