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
over the letters t of g.  `linearize` walks each relator once, stacks the
prefixes v_t and v_t^-1 as rows of two matrices and forms that sum as one
float64 matrix product per generator.  The letters go in chunks of _CHUNK
and the sums are reduced mod p after each chunk, so no sum exceeds
_CHUNK * (p-1)^2 < 2^53 and float64 is exact for every admitted prime: there
is no second, integer path.  The same walk evaluates the relator at the
lifts over Z/p^2, which gives E_w and rejects a relator that fails mod p,
so it is the one relator walk of `check_lift`.  Certificates are re-checked
with `eval_word`, which shares no code with that walk.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import Error
from .groups import FiniteGroup, Presentation, Subgroup, Word, extend_hom, transversal
from .rings import (
    AffineSystem,
    Consistent,
    Mat,
    NotInKernel,
    PrimeCtx,
    Singular,
    UnknownLayout,
    matmul_mod,
    merge_kernel_element,
    solve_affine,
    split_kernel_element,
)


class InvalidRepresentation(Error):
    pass


class BudgetExceeded(Error):
    pass


class UnrealizedPresentation(Error):
    pass


class NotASubgroupError(Error):
    pass


DEFAULT_BRUTE_BUDGET = 1 << 20

# dense elimination stays fast only at desk scale
MAX_DIMENSION = 64
MAX_SYSTEM_BYTES = 1 << 30  # per int64 copy of the lift system; a check peaks at two


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
    system: Optional[LinearizedSystem] = None

    def refutation_checks_out(self) -> bool:
        return (
            self.refutation is not None
            and self.system is not None
            and self.system.system.checks_refutation(self.refutation)
        )


# ---------------------------------------------------------------------------
# validation and word evaluation


def eval_word(mats: Sequence[Mat], word: Word, mod: int, n: int) -> Mat:
    """The value of word over Z/mod, with mats[g] as the image of generator g."""
    acc = Mat.identity(mod, n)
    invs = {}
    for g, e in word:
        if e == 1:
            acc = acc @ mats[g]
        else:
            if g not in invs:
                invs[g] = mats[g].inv()
            acc = acc @ invs[g]
    return acc


def _generator_inverses(rep: Representation) -> list:
    """Each generator's inverse; raise on the first singular generator."""
    invs = []
    for name, m in zip(rep.presentation.names, rep.gen_mats):
        try:
            invs.append(m.inv())
        except Singular:
            raise InvalidRepresentation(f"generator {name!r} is not invertible over F_{rep.ctx.p}") from None
    return invs


_BROKEN_RELATOR = "relator #{} does not evaluate to the identity"


def validate_rep(rep: Representation) -> None:
    """Check invertibility and all relators; raise on the first violation."""
    _generator_inverses(rep)
    for i, w in enumerate(rep.presentation.relators):
        if not eval_word(rep.gen_mats, w, rep.ctx.p, rep.n).is_identity():
            raise InvalidRepresentation(_BROKEN_RELATOR.format(i))


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


# Letters per stacked product.  Each entry of one product is a sum of at most
# _CHUNK terms, each below (p-1)^2 < 2^30 (p <= PRIME_CAP = 2^15), so float64
# holds it exactly for any _CHUNK below 2^23.  The chunk also caps the stacked
# prefixes at 2 * _CHUNK * n^2 floats, whatever the length of the relator.
_CHUNK = 512


def _linearize_relator(out, word, gens, gen_invs, lifts, lift_invs, p, p2):
    """Fill one relator's block and return the relator's value at the lifts.

    out is the relator's zeroed block viewed as (n, n, k, n, n), so that
    out[a, b, g, c, d] is row (a, b), column (g, c, d) of the system; each
    chunk's product is added into it and reduced mod p.  The walk carries
    the prefix w at the naive lifts over Z/p^2, whose reduction mod p is
    v_t, and v_t^-1 over F_p.  X^T Y comes out indexed [(a,c),(d,b)] and is
    transposed into place.
    """
    n = out.shape[0]
    n2 = n * n
    w = np.eye(n, dtype=np.int64)
    vinv = np.eye(n, dtype=np.int64)
    for start in range(0, len(word), _CHUNK):
        chunk = word[start : start + _CHUNK]
        counts = Counter(g for g, _ in chunk)
        # X is stored transposed so that both GEMM operands are C-contiguous
        xt = {g: np.empty((n2, c)) for g, c in counts.items()}
        y = {g: np.empty((c, n2)) for g, c in counts.items()}
        filled = dict.fromkeys(counts, 0)
        for g, e in chunk:
            if e == 1:
                x_t, y_t = w % p, vinv
                w = matmul_mod(w, lifts[g], p2)
                vinv = matmul_mod(gen_invs[g], vinv, p)
            else:
                w = matmul_mod(w, lift_invs[g], p2)
                vinv = matmul_mod(gens[g], vinv, p)
                x_t, y_t = -w % p, vinv
            i = filled[g]
            filled[g] = i + 1
            xt[g][:, i] = x_t.reshape(-1)
            y[g][i] = y_t.reshape(-1)
        for g in counts:
            block = out[:, :, g]
            prod = (xt[g] @ y[g]).reshape(n, n, n, n).transpose(0, 3, 1, 2)
            # prod holds integers below 2^53, so the float-to-int cast is exact
            np.add(block, prod, out=block, casting="unsafe")
            np.remainder(block, p, out=block)
    return w


def linearize(rep: Representation, naive_lifts: Optional[Sequence[Mat]] = None) -> LinearizedSystem:
    """Assemble the affine system over F_p whose solutions are the lifts.

    One n^2-row block per relator; unknowns laid out by (generator,
    row-major entry).  Each relator is walked once, and generator g's block
    is X^T Y for the rows X_t = e_t v_t and Y_t = v_t^-1 stacked over the
    letters t of g (see the module docstring).  The product is taken in
    float64 over chunks of _CHUNK letters and reduced mod p after each, so
    its sums stay below _CHUNK * (p-1)^2 < 2^53, where float64 is exact for
    every prime up to PRIME_CAP; no integer fallback is needed.  The same
    walk gives each relator's defect E_w.  A singular generator, a relator
    that fails mod p (both with `validate_rep`'s messages) and, before any
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
    gens = [m.a for m in rep.gen_mats]
    gen_invs = [m.a for m in _generator_inverses(rep)]
    lifts = [m.a for m in naive_lifts]
    inverted = {g for word in relators for g, e in word if e == -1}
    lift_invs = {g: naive_lifts[g].inv().a for g in inverted}
    matrix = np.zeros((len(relators), n, n, k, n, n), dtype=np.int64)
    rhs = np.zeros((len(relators), n, n), dtype=np.int64)
    defects = []
    for i, (block, b, word) in enumerate(zip(matrix, rhs, relators)):
        value = _linearize_relator(block, word, gens, gen_invs, lifts, lift_invs, p, p2)
        try:
            defect = split_kernel_element(Mat(p2, value), p)
        except NotInKernel:
            raise InvalidRepresentation(_BROKEN_RELATOR.format(i)) from None
        b[...] = (-defect.a) % p
        defects.append(defect)
    system = AffineSystem(p, matrix.reshape(rows, cols), rhs.reshape(rows), UnknownLayout(k, n))
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
    """Exact recheck over Z/p^2, independent of the solver."""
    if len(cert.mats) != rep.num_gens:
        return False
    p, p2 = rep.ctx.p, rep.ctx.p2
    for m, lifted in zip(rep.gen_mats, cert.mats):
        if lifted.mod != p2 or lifted.n != rep.n or lifted.reduce(p) != m:
            return False
    for word in rep.presentation.relators:
        if not eval_word(cert.mats, word, p2, rep.n).is_identity():
            return False
    return True


def check_lift(rep: Representation, naive_lifts: Optional[Sequence[Mat]] = None) -> LiftVerdict:
    """The decision procedure: linearize (which also validates), solve, and
    check the verdict once, exactly and independently of the solver."""
    lin = linearize(rep, naive_lifts)
    result = solve_affine(lin.system)
    if isinstance(result, Consistent):
        cert = _certificate_from_solution(rep, lin, result.particular)
        if not verify_certificate(rep, cert):
            raise AssertionError("internal error: solver certificate failed verification")
        return LiftVerdict(liftable=True, certificate=cert, system=lin)
    verdict = LiftVerdict(liftable=False, refutation=result.functional, system=lin)
    if not verdict.refutation_checks_out():
        raise AssertionError("internal error: refutation failed verification")
    return verdict


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
        raise NotASubgroupError("subgroup belongs to a different parent group")
    if g.presentation is None or g.gen_indices is None:
        raise UnrealizedPresentation("target group does not realize a presentation")
    hom = list(hom)
    if len(hom) != h_group.order or sorted(hom) != list(sub.elements):
        raise NotASubgroupError("hom must biject the abstract group onto the subgroup")
    for a in range(h_group.order):
        for b in range(h_group.order):
            if hom[h_group.mul(a, b)] != g.mul(hom[a], hom[b]):
                raise NotASubgroupError("hom is not a homomorphism")
    inv_hom = {gx: ax for ax, gx in enumerate(hom)}
    mats_h = _realize_all_elements(rep_h, h_group)
    reps = transversal(g, sub)
    r = len(reps)
    n = rep_h.n
    p = rep_h.ctx.p
    big = r * n
    out = []
    for g0 in g.gen_indices:
        m = np.zeros((big, big), dtype=np.int64)
        for i, ti in enumerate(reps):
            ti_inv = g.inv_of(ti)
            for j, tj in enumerate(reps):
                z = g.mul(g.mul(ti_inv, g0), tj)
                if z in inv_hom:
                    m[i * n : (i + 1) * n, j * n : (j + 1) * n] = mats_h[inv_hom[z]].a
        out.append(Mat(p, m))
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
    n = g.order
    mats = []
    for x in g.gen_indices:
        m = np.zeros((n, n), dtype=np.int64)
        for j in range(n):
            m[g.mul(x, j), j] = 1
        mats.append(Mat(ctx.p, m))
    return Representation(ctx, g.presentation, tuple(mats), n)


def permutation_matrix_rep(ctx: PrimeCtx, pres: Presentation, perms: Sequence[tuple]) -> Representation:
    """Generators as permutation matrices (column j maps to row perm[j])."""
    if not perms:
        raise InvalidRepresentation("need at least one permutation")
    n = len(perms[0])
    mats = []
    for perm in perms:
        m = np.zeros((n, n), dtype=np.int64)
        for j, i in enumerate(perm):
            m[i, j] = 1
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
    ghat = np.stack([m.a for m in lifts]) if k else np.zeros((0, n, n), dtype=np.int64)
    ghat_inv = (
        np.stack([m.inv().a for m in lifts]) if k else np.zeros((0, n, n), dtype=np.int64)
    )
    ident = np.eye(n, dtype=np.int64)
    relators = rep.presentation.relators

    chunk = 4096
    powers = p ** np.arange(digits, dtype=np.int64) if digits else np.zeros(0, dtype=np.int64)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        if digits:
            a = (idx[:, None] // powers[None, :]) % p
        else:
            a = np.zeros((stop - start, 0), dtype=np.int64)
        a = a.reshape(stop - start, k, n, n)
        cand = (ident + p * a) @ ghat % p2 if k else np.zeros((stop - start, 0, n, n), dtype=np.int64)
        cand_inv = ghat_inv @ (ident - p * a) % p2 if k else cand
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
