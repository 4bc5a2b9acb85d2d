"""Finite groups as multiplication tables.

Presentations with relator words, built-in families (cyclic, products,
dihedral, generalized quaternion, C3 semidirect C_{2^n}), Sylow subgroups,
coset transversals, and the obstruction-subgroup search used by the
classifier.  Element 0 is always the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
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
EXHAUSTIVE_AUDIT_ORDER = 256

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
    axioms are audited at construction: exhaustively up to order 256, on a
    deterministic random sample above that.  Families built here also carry
    their presentation with realized generator indices.
    """

    __slots__ = ("order", "table", "inverse", "orders", "presentation", "gen_indices", "name")

    def __init__(
        self,
        table,
        presentation: Optional[Presentation] = None,
        gen_indices: Optional[tuple] = None,
        name: Optional[str] = None,
    ):
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
        if self.orders[0] != 1:
            raise GroupAuditError("identity must have order 1")
        self.presentation = presentation
        self.gen_indices = tuple(gen_indices) if gen_indices is not None else None
        self.name = name
        if presentation is not None:
            if self.gen_indices is None or len(self.gen_indices) != presentation.num_gens:
                raise GroupAuditError("presentation requires realized generator indices")
            for w in presentation.relators:
                if self.eval_word(w, self.gen_indices) != 0:
                    raise GroupAuditError(f"relator {w} does not hold in the table")

    def _audit(self) -> np.ndarray:
        n, t = self.order, self.table
        idx = np.arange(n)
        if not np.array_equal(t[0], idx) or not np.array_equal(t[:, 0], idx):
            raise GroupAuditError("element 0 is not a two-sided identity")
        inv = np.full(n, -1, dtype=np.int64)
        for a in range(n):
            hits = np.flatnonzero(t[a] == 0)
            if hits.size != 1 or t[hits[0], a] != 0:
                raise GroupAuditError(f"element {a} lacks a two-sided inverse")
            inv[a] = hits[0]
        if n <= EXHAUSTIVE_AUDIT_ORDER:
            left = t[t]              # left[a,b,c] = (a*b)*c
            right = t[:, t]          # right[a,b,c] = a*(b*c)
            if not np.array_equal(left, right):
                raise GroupAuditError("associativity fails")
        else:
            rng = np.random.default_rng(0)
            samples = min(200_000, n * n * n)
            a = rng.integers(0, n, samples)
            b = rng.integers(0, n, samples)
            c = rng.integers(0, n, samples)
            if not np.array_equal(t[t[a, b], c], t[a, t[b, c]]):
                raise GroupAuditError("associativity fails on sampled triples")
        inv.flags.writeable = False
        return inv

    def _element_orders(self) -> np.ndarray:
        n, t = self.order, self.table
        orders = np.zeros(n, dtype=np.int64)
        orders[0] = 1
        cur = np.arange(n)
        k = 1
        while (orders == 0).any():
            k += 1
            cur = t[cur, np.arange(n)]
            done = (cur == 0) & (orders == 0)
            orders[done] = k
            if k > n:
                raise GroupAuditError("element order exceeds group order")
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

    def eval_word(self, word: Word, gen_elems: Sequence[int]) -> int:
        acc = 0
        for g, e in word:
            x = gen_elems[g]
            acc = self.mul(acc, x if e == 1 else self.inv_of(x))
        return acc

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
    """Subgroup generated by seed, as a sorted element tuple."""
    elems = {0}
    frontier = [0]
    gens = sorted(set(seed))
    while frontier:
        x = frontier.pop()
        for s in gens:
            for y in (g.mul(x, s), g.mul(x, g.inv_of(s))):
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
        eset = set(elems)
        for a in elems:
            if g.inv_of(a) not in eset:
                raise NotASubgroup(f"not inverse-closed at {a}")
            for b in elems:
                if g.mul(a, b) not in eset:
                    raise NotASubgroup(f"not closed at {a}*{b}")

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


def cyclic_group(n: int) -> tuple:
    """C_n = <s | s^n>."""
    _check_order(n)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    pres = Presentation(("s",), (wpow(0, n),))
    gen = 1 % n
    g = FiniteGroup(table, pres, (gen,), name=f"C{n}")
    return pres, g


def direct_product_cyclic(a: int, b: int) -> tuple:
    """C_a x C_b = <s, t | s^a, t^b, [s,t]>, element (i, j) at index i*b + j."""
    _check_order(a * b)
    n = a * b
    table = [
        [((i1 + i2) % a) * b + (j1 + j2) % b for i2 in range(a) for j2 in range(b)]
        for i1 in range(a)
        for j1 in range(b)
    ]
    pres = Presentation(("s", "t"), (wpow(0, a), wpow(1, b), commutator(0, 1)))
    g = FiniteGroup(table, pres, (b % n, 1 % n), name=f"C{a}xC{b}")
    return pres, g


def elementary_abelian(p: int, rank: int) -> tuple:
    if rank == 1:
        return cyclic_group(p)
    if rank == 2:
        pres, g = direct_product_cyclic(p, p)
        return pres, g
    raise UnsupportedFamily("elementary abelian rank must be 1 or 2")


def generalized_quaternion(order: int) -> tuple:
    """Q_{2^n} = <s, t | s^{2^{n-2}} t^-2, s^{2^{n-1}}, t s t^-1 s>, order >= 8.

    Element (a, b) = s^a t^b with a < 2^{n-1}, b < 2, at index a + b*2^{n-1}.
    """
    n_exp = order.bit_length() - 1
    if order < 8 or order != 1 << n_exp:
        raise UnsupportedFamily("generalized quaternion order must be 2^n, n >= 3")
    _check_order(order)
    h = order // 2
    q = order // 4

    def idx(a, b):
        return a % h + (b % 2) * h

    table = [[0] * order for _ in range(order)]
    for a in range(h):
        for b in range(2):
            for c in range(h):
                for d in range(2):
                    if b == 0:
                        r_a, r_b = a + c, d
                    else:
                        r_a, r_b = a - c, 1 + d
                        if r_b == 2:
                            r_a, r_b = r_a + q, 0
                    table[idx(a, b)][idx(c, d)] = idx(r_a, r_b)
    pres = Presentation(
        ("s", "t"),
        (wmul(wpow(0, q), wpow(1, -2)), wpow(0, h), ((1, 1), (0, 1), (1, -1), (0, 1))),
    )
    g = FiniteGroup(table, pres, (1, h), name=f"Q{order}")
    return pres, g


def dihedral(order: int) -> tuple:
    """Dihedral group of the given order 2^n >= 4: <r, f | r^{o/2}, f^2, f r f^-1 r>."""
    n_exp = order.bit_length() - 1
    if order < 4 or order != 1 << n_exp:
        raise UnsupportedFamily("dihedral order must be 2^n, n >= 2")
    _check_order(order)
    h = order // 2

    def idx(a, b):
        return a % h + (b % 2) * h

    table = [[0] * order for _ in range(order)]
    for a in range(h):
        for b in range(2):
            for c in range(h):
                for d in range(2):
                    r_a = a + c if b == 0 else a - c
                    table[idx(a, b)][idx(c, d)] = idx(r_a, b + d)
    pres = Presentation(
        ("r", "f"), (wpow(0, h), wpow(1, 2), ((1, 1), (0, 1), (1, -1), (0, 1)))
    )
    g = FiniteGroup(table, pres, (1, h), name=f"D{order}")
    return pres, g


def semidirect_c3_c2n(n: int) -> tuple:
    """C3 semidirect C_{2^n}, the generator of C_{2^n} inverting C3.

    Element (x, y) with x in Z/3, y in Z/2^n at index x + 3*y.
    <s, t | s^3, t^{2^n}, t s t^-1 s>.
    """
    if n < 1:
        raise UnsupportedFamily("need n >= 1")
    m = 1 << n
    _check_order(3 * m)

    def idx(x, y):
        return x % 3 + 3 * (y % m)

    table = [[0] * (3 * m) for _ in range(3 * m)]
    for x1 in range(3):
        for y1 in range(m):
            for x2 in range(3):
                for y2 in range(m):
                    x = x1 + (x2 if y1 % 2 == 0 else -x2)
                    table[idx(x1, y1)][idx(x2, y2)] = idx(x, y1 + y2)
    pres = Presentation(
        ("s", "t"), (wpow(0, 3), wpow(1, m), ((1, 1), (0, 1), (1, -1), (0, 1)))
    )
    g = FiniteGroup(table, pres, (1, 3), name=f"C3:C{m}")
    return pres, g


def perm_group(perms: Sequence[tuple], names: Sequence[str], relators: Sequence[Word], name=None) -> tuple:
    """Closure of permutation generators; multiplication (f*g)(i) = f(g(i)).

    Elements are indexed in BFS discovery order from the identity, so the
    identity gets index 0.
    """
    if not perms:
        raise UnsupportedFamily("need at least one permutation")
    deg = len(perms[0])
    ident = tuple(range(deg))
    elems = [ident]
    index = {ident: 0}
    queue = [ident]
    while queue:
        cur = queue.pop(0)
        for s in perms:
            nxt = tuple(cur[s[i]] for i in range(deg))  # cur after s: (cur . s)
            if nxt not in index:
                index[nxt] = len(elems)
                elems.append(nxt)
                queue.append(nxt)
        if len(elems) > MAX_ORDER:
            raise OrderTooLarge("permutation closure exceeds order cap")
    n = len(elems)
    table = [[0] * n for _ in range(n)]
    for i, f in enumerate(elems):
        for j, g in enumerate(elems):
            table[i][j] = index[tuple(f[g[k]] for k in range(deg))]
    pres = Presentation(tuple(names), tuple(relators))
    gens = tuple(index[p] for p in perms)
    g = FiniteGroup(table, pres, gens, name=name)
    return pres, g


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name=None) -> FiniteGroup:
    """Table-level direct product; presentations merge when both exist."""
    n1, n2 = g1.order, g2.order
    _check_order(n1 * n2)
    t1, t2 = g1.table, g2.table
    table = np.empty((n1 * n2, n1 * n2), dtype=np.int64)
    for a1 in range(n1):
        for b1 in range(n2):
            row = t1[a1][:, None] * n2 + t2[b1][None, :]
            table[a1 * n2 + b1] = row.reshape(-1)
    pres = None
    gens = None
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


def sylow(g: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup by iterative p-element closure, deterministic scan.

    Grows a p-subgroup H by the first element (ascending index) of p-power
    order that normalizes H; such an element exists whenever |H| is short of
    the full p-part.
    """
    target = 1
    n = g.order
    while n % p == 0:
        n //= p
        target *= p
    elems = {0}
    while len(elems) < target:
        for x in range(1, g.order):
            if x in elems:
                continue
            o = g.order_of(x)
            while o % p == 0:
                o //= p
            if o != 1:
                continue
            if all(g.conjugate(x, h) in elems for h in elems):
                elems = set(closure(g, set(elems) | {x}))
                break
        else:
            raise AssertionError("internal error: Sylow growth stalled")
    return Subgroup(g, tuple(sorted(elems)))


def transversal(g: FiniteGroup, h: Subgroup) -> list:
    """Left-coset representatives t_i, smallest element index per coset."""
    if h.parent is not g:
        raise NotASubgroup("subgroup belongs to a different parent")
    seen = set()
    reps = []
    for x in range(g.order):
        if x in seen:
            continue
        reps.append(x)
        for s in h.elements:
            seen.add(g.mul(x, s))
    return reps


@dataclass(frozen=True)
class BadSubgroup:
    """A subgroup from the fixed obstruction list, with its generators in G."""

    kind: str          # "Cp" | "C9" | "C3xC3" | "C2xC2" | "Q8"
    prime: int
    gens: tuple
    elements: tuple


def _smallest_big_prime_factor(n: int) -> Optional[int]:
    """Smallest prime >= 5 dividing n, or None."""
    while n % 2 == 0:
        n //= 2
    while n % 3 == 0:
        n //= 3
    if n == 1:
        return None
    d = 5
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def find_subgroup_witness(g: FiniteGroup) -> Optional[BadSubgroup]:
    """First non-liftable subgroup in the fixed search order, or None.

    Order: C_p with p >= 5, then C9, then C3xC3, then C2xC2, then Q8.  All
    scans run in ascending element index, so witnesses are reproducible.
    """
    # C_p, p >= 5: any element order divisible by such a prime
    for x in range(1, g.order):
        o = g.order_of(x)
        q = _smallest_big_prime_factor(o)
        if q is not None:
            y = g.power(x, o // q)
            return BadSubgroup("Cp", q, (y,), closure(g, (y,)))
    # C9: an element of order divisible by 9
    for x in range(1, g.order):
        o = g.order_of(x)
        if o % 9 == 0:
            y = g.power(x, o // 9)
            return BadSubgroup("C9", 3, (y,), closure(g, (y,)))
    # C3xC3: two commuting order-3 elements generating 9 elements
    order3 = [x for x in range(1, g.order) if g.order_of(x) == 3]
    for x in order3:
        span_x = closure(g, (x,))
        for y in order3:
            if y in span_x:
                continue
            if g.mul(x, y) == g.mul(y, x):
                return BadSubgroup("C3xC3", 3, (x, y), closure(g, (x, y)))
    # C2xC2: two distinct commuting involutions
    invol = [x for x in range(1, g.order) if g.order_of(x) == 2]
    for i, x in enumerate(invol):
        for y in invol[i + 1 :]:
            if g.mul(x, y) == g.mul(y, x):
                return BadSubgroup("C2xC2", 2, (x, y), closure(g, (x, y)))
    # Q8: x of order 4, y with y^2 = x^2 and y x y^-1 = x^-1
    order4 = [x for x in range(1, g.order) if g.order_of(x) == 4]
    for x in order4:
        x2 = g.mul(x, x)
        xinv = g.inv_of(x)
        for y in order4:
            if g.mul(y, y) == x2 and g.conjugate(y, x) == xinv:
                elems = closure(g, (x, y))
                if len(elems) == 8:
                    return BadSubgroup("Q8", 2, (x, y), elems)
    return None


def is_listed_family(g: FiniteGroup) -> Optional[str]:
    """Recognize the three liftable families, directly from the table.

    C2n:       order 2^a, cyclic.
    C3xC2n:    order 3*2^a, cyclic (the direct product is cyclic).
    C3semiC2n: order 3*2^a, non-abelian, cyclic Sylow-2, with x of order 3
               and y generating a Sylow-2 such that y x y^-1 = x^-1 and
               <x, y> is the whole group.
    """
    n = g.order
    two_part = n & -n
    rest = n // two_part
    if rest == 1:
        return "C2n" if g.is_cyclic() else None
    if rest != 3:
        return None
    if g.is_cyclic():
        return "C3xC2n"
    if g.is_abelian():
        return None
    syl2 = sylow(g, 2)
    if not any(g.order_of(x) == syl2.order for x in syl2.elements):
        return None
    order3 = [x for x in range(1, n) if g.order_of(x) == 3]
    gens2 = [y for y in range(1, n) if g.order_of(y) == two_part]
    for x in order3:
        xinv = g.inv_of(x)
        for y in gens2:
            if g.conjugate(y, x) == xinv and len(closure(g, (x, y))) == n:
                return "C3semiC2n"
    return None
