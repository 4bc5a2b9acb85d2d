"""Finite groups as multiplication tables.

Presentations with relator words, built-in families, Sylow subgroups, coset
transversals, and the obstruction-subgroup search used by the classifier.
Element 0 is always the identity.

The five built-in families are metacyclic, <a, b | a^m, b^k = a^t,
b a b^-1 = a^r> with a^i b^j at index i + m*j, and one numpy builder makes
their tables by
  a^{i1} b^{j1} * a^{i2} b^{j2} = a^{i1 + i2 r^{j1} + t [j1 + j2 >= k]} b^{(j1 + j2) mod k}.
(m, k, r, t) is (n, 1, 1, 0) for C_n, (b, a, 1, 0) for C_a x C_b (whose t is
a and s is b), (h, 2, h-1, 0) for D_{2h}, (h, 2, h-1, h/2) for Q_{2h} and
(3, 2^n, 2, 0) for C3 semidirect C_{2^n}.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Optional, Sequence

import numpy as np

from . import rings
from .errors import Error


class GroupAuditError(Error):
    """Multiplication table fails the group axioms."""


class UnsupportedFamily(Error):
    pass


class OrderTooLarge(Error):
    pass


class NotASubgroup(Error):
    pass


MAX_ORDER = 4096

# A word is a sequence of letters (generator index, exponent sign +-1).
Word = tuple


def wpow(gen: int, k: int) -> Word:
    """gen^k as a word: k letters with the sign of k."""
    sign = 1 if k >= 0 else -1
    return tuple((gen, sign) for _ in range(abs(k)))


def wmul(*words: Word) -> Word:
    out = []
    for w in words:
        out.extend(w)
    return tuple(out)


def winv(word: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(word))


def commutator(a: int, b: int) -> Word:
    return ((a, 1), (b, 1), (a, -1), (b, -1))


@dataclass(frozen=True)
class Presentation:
    """Generator names plus relator words.

    An empty generator list is legal (the trivial presentation); it shows up
    when restricting a representation to the trivial subgroup.
    """

    names: tuple
    relators: tuple

    def __post_init__(self):
        k = len(self.names)
        for w in self.relators:
            for g, e in w:
                if not 0 <= g < k:
                    raise ValueError(f"relator references generator {g}, arity {k}")
                if e not in (1, -1):
                    raise ValueError(f"exponent sign must be +-1, got {e}")

    @property
    def num_gens(self) -> int:
        return len(self.names)


class FiniteGroup:
    """A finite group given by its full multiplication table.

    table[a, b] is the index of a*b and index 0 is the identity.  The group
    axioms are audited exactly at construction, associativity by Light's
    test over a greedy generating set (see _audit).  Families built here
    also carry their presentation with realized generator indices.
    """

    __slots__ = ("order", "table", "inverse", "orders", "presentation", "gen_indices", "name")

    def __init__(
        self,
        table,
        presentation: Optional[Presentation] = None,
        gen_indices: Optional[tuple] = None,
        name: Optional[str] = None,
    ):
        # a read-only int64 table is kept as it is; anything else is copied
        t = table
        if not (isinstance(t, np.ndarray) and t.dtype == np.int64 and not t.flags.writeable):
            t = np.array(table, dtype=np.int64)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise GroupAuditError("table must be square")
        n = t.shape[0]
        if n == 0:
            raise GroupAuditError("empty table")
        if n > MAX_ORDER:
            raise OrderTooLarge(f"order {n} exceeds cap {MAX_ORDER}")
        if t.min() < 0 or t.max() >= n:
            raise GroupAuditError("table entries out of range")
        self.order = n
        t.flags.writeable = False
        self.table = t
        self.inverse = self._audit()
        self.orders = self._element_orders()
        self.presentation = presentation
        self.gen_indices = tuple(gen_indices) if gen_indices is not None else None
        self.name = name
        if presentation is not None:
            if self.gen_indices is None or len(self.gen_indices) != presentation.num_gens:
                raise GroupAuditError("presentation requires realized generator indices")
            for w in presentation.relators:
                if word_value(w, self.gen_indices, 0, self.mul, self.inv_of) != 0:
                    raise GroupAuditError(f"relator {w} does not hold in the table")

    def _audit(self) -> np.ndarray:
        n, t = self.order, self.table
        idx = np.arange(n)
        if not np.array_equal(t[0], idx) or not np.array_equal(t[:, 0], idx):
            raise GroupAuditError("element 0 is not a two-sided identity")
        step = max(1, (1 << 18) // n)   # rows per slab: 2 MB per gathered slab
        inv, once = np.empty(n, dtype=np.intp), np.empty(n, dtype=bool)
        for lo in range(0, n, step):
            zeros = t[lo : lo + step] == 0
            inv[lo : lo + step] = zeros.argmax(axis=1)
            once[lo : lo + step] = zeros.sum(axis=1) == 1
        bad = np.flatnonzero(~once | (t[inv, idx] != 0))
        if bad.size:
            raise GroupAuditError(f"element {bad[0]} lacks a two-sided inverse")
        # Light's test over greedy generators: the s with (x s) y = x (s y)
        # for all x, y contain 0 and are closed under products, so they hold
        # closure(gens), the whole table.  In a group each pick at least
        # doubles the subgroup, so fewer than n.bit_length() picks suffice.
        gens, span = [], closure(self, ())
        while len(span) < n:
            if len(gens) == n.bit_length():
                raise GroupAuditError("associativity fails")
            gens.append(next((i for i, x in enumerate(span) if i != x), len(span)))
            span = closure(self, gens)
        for s in gens:
            for lo in range(0, n, step):
                rows = t[lo : lo + step]
                if not np.array_equal(t[rows[:, s]], np.take(rows, t[s], axis=1)):
                    raise GroupAuditError("associativity fails")
        inv.flags.writeable = False
        return inv

    def _element_orders(self) -> np.ndarray:
        """The order of x is the least divisor d of |G| with x^d = 1; the
        powers of all elements still open are taken at once over the table."""
        n, t = self.order, self.table
        orders = np.zeros(n, dtype=np.int64)
        for d in [d for d in range(1, n + 1) if n % d == 0]:
            todo = np.flatnonzero(orders == 0)
            if todo.size == 0:
                break
            powers = rings.power(todo, d, np.zeros_like(todo), lambda a, b: t[a, b])
            orders[todo[powers == 0]] = d
        if not orders.all():
            raise GroupAuditError("element order does not divide the group order")
        orders.flags.writeable = False
        return orders

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv_of(self, a: int) -> int:
        return int(self.inverse[a])

    def order_of(self, a: int) -> int:
        return int(self.orders[a])

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv_of(a), -k
        return rings.power(a, k, 0, self.mul)

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def is_cyclic(self) -> bool:
        return bool((self.orders == self.order).any())

    def conjugate(self, x: int, a: int) -> int:
        """x a x^-1."""
        return self.mul(self.mul(x, a), self.inv_of(x))

    def __repr__(self) -> str:
        label = self.name or f"order-{self.order} group"
        return f"FiniteGroup({label})"


def closure(g: FiniteGroup, seed: Iterable[int]) -> tuple:
    """Subgroup generated by seed, as a sorted element tuple: the elements
    reached from 0 by right multiplication with seed, which is the subgroup
    in a finite group and the set the table audit's Light test needs."""
    elems = {0}
    frontier = [0]
    gens = sorted(set(seed))
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = g.mul(x, s)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return tuple(sorted(elems))


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    elements: tuple

    def __post_init__(self):
        g = self.parent
        elems = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "elements", elems)
        if not elems or elems[0] != 0:
            raise NotASubgroup("subgroup must contain the identity")
        e = np.array(elems)
        member = np.zeros(g.order, dtype=bool)
        member[e] = True
        step = max(1, (1 << 18) // len(e))  # rows per slab, as in FiniteGroup._audit
        for lo in range(0, len(e), step):
            bad_inv = ~member[g.inverse[e[lo : lo + step]]]
            bad_mul = ~member[g.table[np.ix_(e[lo : lo + step], e)]]
            rows = np.flatnonzero(bad_inv | bad_mul.any(axis=1))
            if rows.size:
                a = rows[0]
                if bad_inv[a]:
                    raise NotASubgroup(f"not inverse-closed at {elems[lo + a]}")
                raise NotASubgroup(f"not closed at {elems[lo + a]}*{elems[bad_mul[a].argmax()]}")

    @property
    def order(self) -> int:
        return len(self.elements)


# ---------------------------------------------------------------------------
# families


def _check_order(n: int):
    if n > MAX_ORDER:
        raise OrderTooLarge(f"order {n} exceeds cap {MAX_ORDER}")
    if n < 1:
        raise UnsupportedFamily("order must be positive")


# t s t^-1 s: the second generator inverts the first
_INVERTS = ((1, 1), (0, 1), (1, -1), (0, 1))


def _metacyclic(m: int, k: int, r: int, t: int, pres: Presentation, gens: tuple, name: str) -> tuple:
    """(pres, group) with the table of <a, b | a^m, b^k = a^t, b a b^-1 = a^r>
    (module docstring), built on axes (j1, i1, j2, i2); callers check m*k first."""
    j1, i1, j2, i2 = np.ix_(range(k), range(m), range(k), range(m))
    r_pow = np.array([pow(r, e, m) for e in range(k)])
    j = j1 + j2
    table = i1 + t * (j >= k) + i2 * r_pow[j1]
    table %= m
    table += m * (j % k)
    table = table.reshape(m * k, m * k)
    table.flags.writeable = False
    return pres, FiniteGroup(table, pres, gens, name=name)


def cyclic_presentation(n: int) -> Presentation:
    """<s | s^n>."""
    return Presentation(("s",), (wpow(0, n),))


def cyclic_group(n: int) -> tuple:
    """C_n = <s | s^n>."""
    _check_order(n)
    return _metacyclic(n, 1, 1, 0, cyclic_presentation(n), (1 % n,), f"C{n}")


def direct_product_cyclic(a: int, b: int) -> tuple:
    """C_a x C_b = <s, t | s^a, t^b, [s,t]>, element (i, j) at index i*b + j."""
    if a < 1 or b < 1:
        raise UnsupportedFamily("order must be positive")
    _check_order(a * b)
    pres = Presentation(("s", "t"), (wpow(0, a), wpow(1, b), commutator(0, 1)))
    return _metacyclic(b, a, 1, 0, pres, (b % (a * b), 1 % b), f"C{a}xC{b}")


def elementary_abelian(p: int, rank: int) -> tuple:
    if rank == 1:
        return cyclic_group(p)
    if rank == 2:
        return direct_product_cyclic(p, p)
    raise UnsupportedFamily("elementary abelian rank must be 1 or 2")


def generalized_quaternion(order: int) -> tuple:
    """Q_{2^n} = <s, t | s^{2^{n-2}} t^-2, s^{2^{n-1}}, t s t^-1 s>, order >= 8.

    Element (a, b) = s^a t^b with a < 2^{n-1}, b < 2, at index a + b*2^{n-1}.
    """
    if order < 8 or order & (order - 1):
        raise UnsupportedFamily("generalized quaternion order must be 2^n, n >= 3")
    _check_order(order)
    h, q = order // 2, order // 4
    pres = Presentation(("s", "t"), (wmul(wpow(0, q), wpow(1, -2)), wpow(0, h), _INVERTS))
    return _metacyclic(h, 2, h - 1, q, pres, (1, h), f"Q{order}")


def dihedral(order: int) -> tuple:
    """Dihedral group of the given order 2^n >= 4: <r, f | r^{o/2}, f^2, f r f^-1 r>."""
    if order < 4 or order & (order - 1):
        raise UnsupportedFamily("dihedral order must be 2^n, n >= 2")
    _check_order(order)
    h = order // 2
    pres = Presentation(("r", "f"), (wpow(0, h), wpow(1, 2), _INVERTS))
    return _metacyclic(h, 2, h - 1, 0, pres, (1, h), f"D{order}")


def semidirect_c3_c2n(n: int) -> tuple:
    """C3 semidirect C_{2^n}, the generator of C_{2^n} inverting C3.

    Element (x, y) with x in Z/3, y in Z/2^n at index x + 3*y.
    <s, t | s^3, t^{2^n}, t s t^-1 s>.
    """
    if n < 1:
        raise UnsupportedFamily("need n >= 1")
    m = 1 << n
    _check_order(3 * m)
    pres = Presentation(("s", "t"), (wpow(0, 3), wpow(1, m), _INVERTS))
    return _metacyclic(3, m, 2, 0, pres, (1, 3), f"C3:C{m}")


def perm_group(perms: Sequence[tuple], names: Sequence[str], relators: Sequence[Word], name=None) -> tuple:
    """Closure of permutations of 0..d-1; multiplication (f*g)(i) = f(g(i)).

    Elements are indexed in BFS discovery order from the identity, so the
    identity gets index 0.  The walk records the edge y = x*s_k that found
    each element; as (x s_k) z = x (s_k z), row y of the table is row x
    gathered at row_k[j] = index(s_k * e_j).
    """
    if not perms:
        raise UnsupportedFamily("need at least one permutation")
    try:
        perms = [tuple(map(operator.index, s)) for s in perms]
    except TypeError:
        raise UnsupportedFamily("generators must be permutations of integers") from None
    deg = len(perms[0])
    ident = tuple(range(deg))
    if any(len(s) != deg or set(s) != set(ident) for s in perms):
        raise UnsupportedFamily(f"generators must be permutations of 0..{deg - 1}")
    elems = [ident]
    index = {ident: 0}
    found_by = [None]
    for x, cur in enumerate(elems):  # elems grows behind the loop: a BFS
        for k, s in enumerate(perms):
            nxt = tuple(cur[s[i]] for i in range(deg))  # cur after s: (cur . s)
            if nxt not in index:
                index[nxt] = len(elems)
                elems.append(nxt)
                found_by.append((x, k))
        if len(elems) > MAX_ORDER:
            raise OrderTooLarge("permutation closure exceeds order cap")
    n = len(elems)
    # moved[k][j] = s_k * e_j
    moved = np.asarray(perms, dtype=np.int64)[:, np.array(elems, dtype=np.int64)].tolist()
    rows = np.array([[index[tuple(e)] for e in m] for m in moved], dtype=np.int64)
    table = np.empty((n, n), dtype=np.int64)
    table[0] = np.arange(n)
    for y, (x, k) in enumerate(found_by[1:], 1):
        table[y] = table[x, rows[k]]
    table.flags.writeable = False
    pres = Presentation(tuple(names), tuple(relators))
    gens = tuple(int(i) for i in rows[:, 0])  # index(s_k * identity)
    return pres, FiniteGroup(table, pres, gens, name=name)


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name=None) -> FiniteGroup:
    """Table-level direct product; presentations merge when both exist."""
    n1, n2 = g1.order, g2.order
    _check_order(n1 * n2)
    # (a1, b1) * (a2, b2) at [a1, b1, a2, b2], element (a, b) at index a*n2 + b
    table = (g1.table[:, None, :, None] * n2 + g2.table[None, :, None, :]).reshape(n1 * n2, -1)
    table.flags.writeable = False
    pres = gens = None
    if g1.presentation is not None and g2.presentation is not None:
        p1, p2 = g1.presentation, g2.presentation
        k1 = p1.num_gens
        names = tuple(f"a_{nm}" for nm in p1.names) + tuple(f"b_{nm}" for nm in p2.names)
        shift = lambda w: tuple((g + k1, e) for g, e in w)
        relators = list(p1.relators) + [shift(w) for w in p2.relators]
        for i in range(k1):
            for j in range(p2.num_gens):
                relators.append(commutator(i, k1 + j))
        pres = Presentation(names, tuple(relators))
        gens = tuple(x * n2 for x in g1.gen_indices) + tuple(y for y in g2.gen_indices)
    return FiniteGroup(table, pres, gens, name=name)


# ---------------------------------------------------------------------------
# homomorphisms and subgroups


def extend_hom(g: FiniteGroup, gen_images: Sequence, one, mul) -> Optional[list]:
    """The images of all of g's elements under the homomorphism sending
    g's i-th realized generator to gen_images[i].

    A breadth-first walk from the identity (image one) over the table; mul
    is the target's product.  None when two paths to an element give
    different images, i.e. when gen_images violate g's relations.
    """
    images: list = [None] * g.order
    images[0] = one
    queue = [0]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for gen, img in zip(g.gen_indices, gen_images):
            y = g.mul(x, gen)
            value = mul(images[x], img)
            if images[y] is None:
                images[y] = value
                queue.append(y)
            elif images[y] != value:
                return None
    return images


def word_value(word: Word, images: Sequence, one, mul, inv):
    """The value of word with images[g] as the image of generator g, in the
    target with identity one, product mul and inverse inv.

    The word is walked one run at a time: a maximal block g^(+-m) of one
    repeated letter is raised with rings.power, so it costs O(log m)
    products instead of m, and a run of length 1 costs one product, as a
    letter did.  Each inverted generator is inverted once.
    """
    acc = one
    invs = {}
    for (g, e), run in groupby(word):
        if e == 1:
            base = images[g]
        else:
            if g not in invs:
                invs[g] = inv(images[g])
            base = invs[g]
        acc = mul(acc, rings.power(base, sum(1 for _ in run), one, mul))
    return acc


def sylow(g: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup by iterative p-element closure, deterministic scan.

    Grows a p-subgroup H by the first element (ascending index) of p-power
    order that normalizes H; such an element exists whenever |H| is short of
    the full p-part.  A p-group is its own Sylow p-subgroup, returned at
    once.  p must be prime (ValueError otherwise).
    """
    if not rings.is_prime(p):
        raise ValueError(f"sylow needs a prime, got {p}")
    target = 1
    n = g.order
    while n % p == 0:
        n //= p
        target *= p
    elems = {0} if target < g.order else set(range(g.order))
    while len(elems) < target:
        for x in range(1, g.order):
            # x is a p-element iff its order, a divisor of |G|, divides the p-part
            if x in elems or target % g.order_of(x):
                continue
            if all(g.conjugate(x, h) in elems for h in elems):
                elems = set(closure(g, set(elems) | {x}))
                break
        else:
            raise AssertionError("internal error: Sylow growth stalled")
    return Subgroup(g, tuple(sorted(elems)))


def transversal(g: FiniteGroup, h: Subgroup) -> list:
    """Left-coset representatives t_i, smallest element index per coset, in
    ascending order: the minima of the cosets xH over all x."""
    if h.parent is not g:
        raise NotASubgroup("subgroup belongs to a different parent")
    return np.unique(g.table[:, h.elements].min(axis=1)).tolist()


@dataclass(frozen=True)
class BadSubgroup:
    """A subgroup from the fixed obstruction list, with its generators in G."""

    kind: str          # "Cp" | "C9" | "C3xC3" | "C2xC2" | "Q8"
    prime: int
    gens: tuple
    elements: tuple


def find_subgroup_witness(g: FiniteGroup) -> Optional[BadSubgroup]:
    """First non-liftable subgroup in the fixed search order, or None.

    Order: C_p with p >= 5, then C9, then C3xC3, then C2xC2, then Q8.  All
    scans run in ascending element index, so witnesses are reproducible.
    """
    orders = g.orders.tolist()
    # C_p, p >= 5: the least divisor d >= 5 of the part of an order prime
    # to 6 is a prime (orders are at most 4096, so 6^12 covers 2 and 3)
    for x, o in enumerate(orders):
        rest = o // math.gcd(o, 6**12)
        if rest > 1:
            q = next(d for d in range(5, rest + 1) if rest % d == 0)
            y = g.power(x, o // q)
            return BadSubgroup("Cp", q, (y,), closure(g, (y,)))
    # C9: an element of order divisible by 9
    for x, o in enumerate(orders):
        if o % 9 == 0:
            y = g.power(x, o // 9)
            return BadSubgroup("C9", 3, (y,), closure(g, (y,)))
    # Each relation is symmetric, so the least x with a partner has its least
    # partner above it.  Q8: y x y^-1 = x^-1 puts y outside <x> and y^2 = x^2
    # inside it, so <x, y> has order 8.
    commute = lambda x, y: g.mul(x, y) == g.mul(y, x)
    pairs = (
        ("C3xC3", 3, 3, lambda x, y: y != g.mul(x, x) and commute(x, y)),
        ("C2xC2", 2, 2, commute),
        ("Q8", 2, 4, lambda x, y: g.mul(y, y) == g.mul(x, x) and g.conjugate(y, x) == g.inv_of(x)),
    )
    for kind, p, k, related in pairs:
        elems = [x for x, o in enumerate(orders) if o == k]
        for i, x in enumerate(elems):
            for y in elems[i + 1 :]:
                if related(x, y):
                    return BadSubgroup(kind, p, (x, y), closure(g, (x, y)))
    return None


def is_listed_family(g: FiniteGroup) -> Optional[str]:
    """The liftable family of g, read off its element orders, or None.

    The liftable groups are C_{2^a}, C3 x C_{2^a} and C3 : C_{2^a}.  For
    |G| = 2^a or 3*2^a that says the Sylow 2-subgroup P is cyclic, i.e. some
    element has order 2^a: Aut(P) is then a 2-group, so P is central in its
    normalizer, and Burnside's normal p-complement theorem gives G = C3 : P
    (Gorenstein, Finite Groups, 7.4).  Cyclic G is C2n or C3xC2n; otherwise
    P acts on C3 by inversion and G is C3semiC2n.
    """
    n = g.order
    two = n & -n
    if n // two not in (1, 3) or not (g.orders == two).any():
        return None
    if two == n:
        return "C2n"
    return "C3xC2n" if g.is_cyclic() else "C3semiC2n"
