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
from typing import Optional

import numpy as np

from .errors import Error
from .groups import FiniteGroup, cyclic_group
from .rings import PRIME_CAP, Mat, Poly, PrimeCtx, power, rref
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
        self.check_modulus(mod)
        c = np.array(coeffs, dtype=np.int64) % mod
        if c.shape != (group.order,):
            raise ValueError(f"need {group.order} coefficients, got {c.shape}")
        c.flags.writeable = False
        self.group = group
        self.mod = mod
        self.coeffs = c

    @staticmethod
    def check_modulus(mod: int) -> None:
        """Products are exact int64 sums while mod^2 < 2^63: mod must lie in
        [2, PRIME_CAP^2], which holds Z/p^2 for every admitted p."""
        if mod < 2:
            raise ValueError("modulus must be >= 2")
        if mod > PRIME_CAP ** 2:
            raise ValueError(f"modulus must be <= PRIME_CAP^2 = {PRIME_CAP ** 2}")

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

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        """Convolution through the multiplication table; each scaled row is
        reduced before it is summed, so no term reaches mod^2 (2^60 at p^2,
        p <= PRIME_CAP)."""
        self._check(other)
        table = self.group.table
        out = np.zeros(self.group.order, dtype=np.int64)
        for x in np.flatnonzero(self.coeffs):
            np.add.at(out, table[x], int(self.coeffs[x]) * other.coeffs % self.mod)
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


def one_minus_generator(group: FiniteGroup, mod: int) -> GroupAlgebraElement:
    """1 - sigma for the group's first realized generator sigma."""
    if not group.gen_indices:
        raise UnrealizedPresentation("group has no realized generators")
    one = GroupAlgebraElement.one(group, mod)
    return one - GroupAlgebraElement.basis(group, mod, group.gen_indices[0])


@dataclass(frozen=True)
class ThetaClass:
    """Canonical representative of u in F_p[G] / (f F_p[G] + F_p[G] h)."""

    representative: GroupAlgebraElement
    quotient_basis: np.ndarray
    is_zero: bool


def _translates(table: np.ndarray, a: GroupAlgebraElement) -> np.ndarray:
    """Row x is a's coefficients moved along table's row x, out[x, table[x, y]]
    = a[y]: e_x a for the group's table, a e_x for its transpose."""
    out = np.zeros(table.shape, dtype=np.int64)
    out[np.arange(len(table))[:, None], table] = a.coeffs
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
    PrimeCtx(p)  # p <= PRIME_CAP keeps the products over Z/p^2 exact
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
    # spanning rows of f F_p[G] + F_p[G] h: all f e_x and e_x h
    basis, pivots = rref(np.vstack([_translates(g.table.T, f), _translates(g.table, h)]), p)
    # an rref row is 1 at its pivot and 0 at every other pivot column, so
    # the reduction against all rows at once is one product
    representative = GroupAlgebraElement(g, p, u.coeffs - u.coeffs[pivots] @ basis)
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


def q_polynomial(ctx: PrimeCtx, n: int) -> Poly:
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
    return Poly(coeffs, p)


def module_of_quotient(g: FiniteGroup, h: GroupAlgebraElement) -> Representation:
    """The left module F_p[G] / F_p[G] h as explicit generator matrices.

    For a cyclic p-group with h = (1-s)^d the basis {(1-s)^i : i < d} is
    used, so the generator acts by the readable unipotent matrix I - N with
    N the subdiagonal shift.  Otherwise the basis is the lexicographically
    first complement of the ideal's row space.
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
    # the unipotent basis {(1-s)^i} needs (1-s) nilpotent: a p-group that s generates
    if order == 1 and len(g.gen_indices) == 1 and g.order_of(g.gen_indices[0]) == g.order:
        s = one_minus_generator(g, p)
        acc = GroupAlgebraElement.one(g, p)
        for d in range(1, g.order + 1):
            acc = acc * s
            if acc == h:
                m = np.eye(d, dtype=np.int64) - np.eye(d, k=-1, dtype=np.int64)
                rep = Representation(ctx, g.presentation, (Mat(p, m),), d)
                validate_rep(rep)
                return rep

    basis, pivots = rref(_translates(g.table, h), p)
    free = np.setdiff1d(np.arange(g.order), pivots)
    dim = len(free)
    mats = []
    for gen_elem in g.gen_indices:
        # row i is the image e_{gen y} of the basis vector e_y, y = free[i]
        images = np.zeros((dim, g.order), dtype=np.int64)
        images[np.arange(dim), g.table[gen_elem, free]] = 1
        reduced = (images - images[:, pivots] @ basis) % p
        mats.append(Mat(p, reduced[:, free].T))
    rep = Representation(ctx, g.presentation, tuple(mats), dim)
    validate_rep(rep)
    return rep
