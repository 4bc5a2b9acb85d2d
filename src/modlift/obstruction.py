"""Group algebras over F_p and Z/p^2 and the lifting obstruction theta(f, h).

For f h = 0 in F_p[G], any lifts satisfy f^ h^ = p u with u unique modulo
p F_p[G] and modulo f F_p[G] + F_p[G] h; the class of u is theta(f, h).  A
nonzero class obstructs lifting of the module F_p[G] / F_p[G] h, which this
module materializes as an explicit matrix representation so the solver can
refute it independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import Error
from .groups import FiniteGroup, cyclic_group
from .rings import Mat, PolyFp, PrimeCtx, is_prime, power, rref
from .replift import Representation, UnrealizedPresentation, validate_rep


class ProductNotZero(Error):
    pass


class ZeroElement(Error):
    pass


class OutOfRange(Error):
    pass


class GroupAlgebraElement:
    """A vector of coefficients indexed by group elements, over Z/mod."""

    __slots__ = ("group", "mod", "coeffs")

    def __init__(self, group: FiniteGroup, mod: int, coeffs):
        if mod < 2:
            raise ValueError("modulus must be >= 2")
        c = np.array(coeffs, dtype=np.int64) % mod
        if c.shape != (group.order,):
            raise ValueError(f"need {group.order} coefficients, got {c.shape}")
        c.flags.writeable = False
        self.group = group
        self.mod = mod
        self.coeffs = c

    @classmethod
    def zero(cls, group: FiniteGroup, mod: int) -> "GroupAlgebraElement":
        return cls(group, mod, np.zeros(group.order, dtype=np.int64))

    @classmethod
    def basis(cls, group: FiniteGroup, mod: int, x: int) -> "GroupAlgebraElement":
        c = np.zeros(group.order, dtype=np.int64)
        c[x] = 1
        return cls(group, mod, c)

    @classmethod
    def one(cls, group: FiniteGroup, mod: int) -> "GroupAlgebraElement":
        return cls.basis(group, mod, 0)

    def _check(self, other: "GroupAlgebraElement"):
        if self.group is not other.group or self.mod != other.mod:
            raise ValueError("mixed groups or rings")

    def __add__(self, other):
        self._check(other)
        return GroupAlgebraElement(self.group, self.mod, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return GroupAlgebraElement(self.group, self.mod, self.coeffs - other.coeffs)

    def __neg__(self):
        return GroupAlgebraElement(self.group, self.mod, -self.coeffs)

    def scale(self, k: int):
        return GroupAlgebraElement(self.group, self.mod, self.coeffs * (k % self.mod))

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        """Convolution through the multiplication table."""
        self._check(other)
        table = self.group.table
        out = np.zeros(self.group.order, dtype=np.int64)
        for x in np.flatnonzero(self.coeffs):
            np.add.at(out, table[x], int(self.coeffs[x]) * other.coeffs)
        return GroupAlgebraElement(self.group, self.mod, out)

    def __pow__(self, k: int) -> "GroupAlgebraElement":
        return power(self, k, GroupAlgebraElement.one(self.group, self.mod))

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def reduce(self, newmod: int) -> "GroupAlgebraElement":
        if self.mod % newmod:
            raise ValueError(f"{newmod} does not divide {self.mod}")
        return GroupAlgebraElement(self.group, newmod, self.coeffs % newmod)

    def lift(self, newmod: int) -> "GroupAlgebraElement":
        if newmod % self.mod:
            raise ValueError(f"{self.mod} does not divide {newmod}")
        return GroupAlgebraElement(self.group, newmod, self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupAlgebraElement)
            and self.group is other.group
            and self.mod == other.mod
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.mod, self.coeffs.tobytes()))

    def __repr__(self) -> str:
        return f"GroupAlgebraElement(mod={self.mod}, {self.coeffs.tolist()})"


def one_minus_generator(group: FiniteGroup, mod: int, gen: Optional[int] = None) -> GroupAlgebraElement:
    """1 - sigma for a realized generator (default: the group's first)."""
    if gen is None:
        if not group.gen_indices:
            raise UnrealizedPresentation("group has no realized generators")
        gen = group.gen_indices[0]
    one = GroupAlgebraElement.one(group, mod)
    return one - GroupAlgebraElement.basis(group, mod, gen)


@dataclass(frozen=True)
class ThetaClass:
    """Canonical representative of u in F_p[G] / (f F_p[G] + F_p[G] h)."""

    representative: GroupAlgebraElement
    quotient_basis: np.ndarray
    is_zero: bool


def _ideal_rows(f: GroupAlgebraElement, h: GroupAlgebraElement) -> np.ndarray:
    """Spanning rows of f*k[G] + k[G]*h: all f e_x and e_x h."""
    g, mod = f.group, f.mod
    rows = []
    for x in range(g.order):
        ex = GroupAlgebraElement.basis(g, mod, x)
        rows.append((f * ex).coeffs)
        rows.append((ex * h).coeffs)
    return np.array(rows, dtype=np.int64)


def _reduce_against(vec: np.ndarray, basis: np.ndarray, pivots: Sequence[int], p: int) -> np.ndarray:
    out = vec % p
    for r, j in enumerate(pivots):
        if out[j]:
            out = (out - out[j] * basis[r]) % p
    return out


def theta(
    g: FiniteGroup,
    f: GroupAlgebraElement,
    h: GroupAlgebraElement,
    lift_f: Optional[GroupAlgebraElement] = None,
    lift_h: Optional[GroupAlgebraElement] = None,
) -> ThetaClass:
    """The obstruction class of a zero-product pair, canonically reduced.

    lift_f / lift_h override the coefficientwise section (they must reduce
    to f and h); the class is independent of that choice, which the test
    suite checks rather than assumes.
    """
    if f.group is not g or h.group is not g:
        raise ValueError("elements live on a different group")
    p = f.mod
    p2 = p * p
    if h.mod != p:
        raise ValueError("mixed characteristics")
    if not is_prime(p):
        raise ValueError(f"theta needs coefficients over F_p, got modulus {p}")
    if not (f * h).is_zero():
        raise ProductNotZero("theta requires f h = 0 in F_p[G]")
    fhat = f.lift(p2) if lift_f is None else lift_f
    hhat = h.lift(p2) if lift_h is None else lift_h
    if fhat.mod != p2 or hhat.mod != p2 or fhat.reduce(p) != f or hhat.reduce(p) != h:
        raise ValueError("provided lifts do not reduce to f, h")
    prod = fhat * hhat
    if (prod.coeffs % p).any():
        raise AssertionError("internal error: product of lifts not divisible by p")
    u = GroupAlgebraElement(g, p, prod.coeffs // p)
    basis, pivots = rref(_ideal_rows(f, h), p)
    rep_coeffs = _reduce_against(u.coeffs, basis, pivots, p)
    representative = GroupAlgebraElement(g, p, rep_coeffs)
    basis = basis.copy()
    basis.flags.writeable = False
    return ThetaClass(
        representative=representative,
        quotient_basis=basis,
        is_zero=representative.is_zero(),
    )


def cyclic_witness(ctx: PrimeCtx, n: int) -> tuple:
    """The zero-product pair f = (1-s)^m, h = (1-s)^{p^n - m} with m = p^{n-1}+1.

    Defined for p > 2 with n >= 2 when p = 3; otherwise m would exceed
    p^n - m and the construction degenerates (OutOfRange).
    """
    p = ctx.p
    if p == 2:
        raise OutOfRange("the cyclic witness requires p > 2")
    pn = p ** n
    m = p ** (n - 1) + 1
    if m > pn - m:
        raise OutOfRange(f"m = {m} exceeds p^n - m = {pn - m} at (p, n) = ({p}, {n})")
    _, group = cyclic_group(pn)
    s = one_minus_generator(group, p)
    f = s ** m
    h = s ** (pn - m)
    if not (f * h).is_zero():
        raise AssertionError("internal error: witness pair has nonzero product")
    return f, h, m


def q_polynomial(ctx: PrimeCtx, n: int) -> PolyFp:
    """[(1-s)^{p^n} - (1 - s^{p^n})] / p mod p, in the variable s = 1 - t.

    Exact big-integer construction; the s^{p^{n-1}} coefficient is the
    binomial binom(p^n, p^{n-1})/p up to sign.
    """
    p = ctx.p
    pn = p ** n
    coeffs = [0] * (pn + 1)
    for k_ in range(1, pn):
        c = math.comb(pn, k_)
        if c % p:
            raise AssertionError("internal error: inner binomial not divisible by p")
        coeffs[k_] = (-1) ** k_ * (c // p)
    top = (-1) ** pn + 1
    coeffs[pn] = top // p if top else 0
    return PolyFp(p, coeffs)


def module_of_quotient(
    g: FiniteGroup, h: GroupAlgebraElement, prefer_unipotent_basis: bool = True
) -> Representation:
    """The left module F_p[G] / F_p[G] h as explicit generator matrices.

    For a cyclic p-group with h = (1-s)^d the basis {(1-s)^i : i < d} is
    used, so the generator acts by the readable unipotent matrix I - N with
    N the subdiagonal shift (disable via prefer_unipotent_basis to exercise
    the generic path).  Otherwise the basis is the lexicographically first
    complement of the ideal's row space.
    """
    if h.is_zero():
        raise ZeroElement("quotient by the zero element is not a module witness")
    if h.group is not g:
        raise ValueError("element lives on a different group")
    if g.presentation is None or g.gen_indices is None:
        raise UnrealizedPresentation("group does not realize a presentation")
    p = h.mod
    ctx = PrimeCtx(p)

    order = g.order
    while order % p == 0:
        order //= p
    is_cyclic_p_group = order == 1 and g.is_cyclic()
    # the unipotent basis {(1-s)^i} needs (1-s) nilpotent, i.e. a cyclic p-group
    if (
        prefer_unipotent_basis
        and is_cyclic_p_group
        and len(g.gen_indices) == 1
        and g.order_of(g.gen_indices[0]) == g.order
    ):
        s = one_minus_generator(g, p)
        acc = GroupAlgebraElement.one(g, p)
        for d in range(1, g.order + 1):
            acc = acc * s
            if acc == h:
                m = np.eye(d, dtype=np.int64)
                for i in range(d - 1):
                    m[i + 1, i] = p - 1
                rep = Representation(ctx, g.presentation, (Mat(p, m),), d)
                validate_rep(rep)
                return rep

    rows = []
    for x in range(g.order):
        rows.append((GroupAlgebraElement.basis(g, p, x) * h).coeffs)
    basis, pivots = rref(np.array(rows, dtype=np.int64), p)
    pivot_set = set(pivots)
    free = [j for j in range(g.order) if j not in pivot_set]
    dim = len(free)
    mats = []
    for gen_elem in g.gen_indices:
        m = np.zeros((dim, dim), dtype=np.int64)
        for col, y in enumerate(free):
            vec = np.zeros(g.order, dtype=np.int64)
            vec[g.mul(gen_elem, y)] = 1
            red = _reduce_against(vec, basis, pivots, p)
            m[:, col] = red[free]
        mats.append(Mat(p, m))
    rep = Representation(ctx, g.presentation, tuple(mats), dim)
    validate_rep(rep)
    return rep
