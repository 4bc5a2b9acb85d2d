"""Inputs, expected verdicts and timed operations of the three workloads.

Every item carries the verdict it must get.  Expectations come from theory
where a constructive argument exists (trivial and regular representations
lift, a Jordan block J_i of C_{p^n} lifts when a cyclotomic divisor of
degree i exists, a bundled witness refutes, direct sums lift iff every
summand does, conjugation changes nothing) and are pinned at the commit that
defined the benchmark otherwise; the pinned entries are marked below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from modlift.classify import canonical_witness, classify
from modlift.cyclic_lift import jordan_companion_rep
from modlift.formats import family_from_tokens, format_representation, parse_representation
from modlift.groups import FiniteGroup, cyclic_group, elementary_abelian, generalized_quaternion
from modlift.replift import Representation, check_lift
from modlift.rings import Mat, PrimeCtx, Singular

MAX_SUM_DIM = 16


@dataclass(frozen=True)
class LiftItem:
    """A representation whose liftability is decided by check_lift."""

    label: str
    rep: Representation              # what the harness re-checks against
    expect_liftable: bool
    text: Optional[str] = None       # when set, the timed call parses it first


@dataclass(frozen=True)
class ClassifyItem:
    """A family spec whose classification is decided by classify."""

    label: str
    tokens: tuple
    expect_liftable: bool
    expect_detail: str               # family tag if liftable, bad-subgroup kind otherwise
    expect_prime: int = 0            # the bad subgroup's prime, 0 if liftable


# ---------------------------------------------------------------------------
# conjugation by a seeded invertible matrix


def random_invertible(rng: np.random.Generator, p: int, n: int) -> tuple:
    """(P, P^-1) over F_p, P uniform among invertible matrices."""
    while True:
        m = Mat(p, rng.integers(0, p, size=(n, n)))
        try:
            return m, m.inv()
        except Singular:
            continue


def conjugate(rep: Representation, rng: np.random.Generator) -> Representation:
    """P^-1 rho P for a random invertible P; liftability is unchanged."""
    P, P_inv = random_invertible(rng, rep.ctx.p, rep.n)
    mats = tuple(P_inv @ m @ P for m in rep.gen_mats)
    return Representation(rep.ctx, rep.presentation, mats, rep.n)


def block_sum(blocks) -> Representation:
    """Block-diagonal sum of representations on one presentation."""
    first = blocks[0]
    n = sum(b.n for b in blocks)
    mats = []
    for g in range(first.num_gens):
        m = np.zeros((n, n), dtype=np.int64)
        at = 0
        for b in blocks:
            m[at : at + b.n, at : at + b.n] = b.gen_mats[g].a
            at += b.n
        mats.append(Mat(first.ctx.p, m))
    return Representation(first.ctx, first.presentation, tuple(mats), n)


# ---------------------------------------------------------------------------
# search-small: direct sums of blocks with known verdicts

# Jordan sizes i <= p^n of C_{p^n} for which J_i is pinned (no cyclotomic
# divisor of degree i exists, so theory gives no constructive lift); every
# other size is the degree of such a divisor and lifts.
PINNED_SMALL_JORDAN = {
    (3, 2): {4: False, 5: False},
    (7, 1): {2: False, 3: False, 4: False, 5: False},
}

# (name, prime, builder, witness kind or None, witness lifts?, cyclic p^n)
# The bundled Q8 witness lifts: that is pinned and is the known-red item.
SMALL_GROUPS = (
    ("C2xC2", 2, lambda: elementary_abelian(2, 2), "C2xC2", False, None),
    ("Q8", 2, lambda: generalized_quaternion(8), "Q8", True, None),
    ("C3xC3", 3, lambda: elementary_abelian(3, 2), "C3xC3", False, None),
    ("C8", 2, lambda: cyclic_group(8), None, None, 3),
    ("C9", 3, lambda: cyclic_group(9), "C9", False, 2),
    ("C7", 7, lambda: cyclic_group(7), "Cp", False, 1),
)


def _small_blocks(name, p, builder, kind, witness_lifts, cyclic_n) -> list:
    """[(label, rep, expected liftable)] for one group."""
    pres, g = builder()
    ctx = PrimeCtx(p)
    trivial = Representation(ctx, pres, tuple(Mat.identity(p, 1) for _ in g.gen_indices), 1)
    regular_mats = []
    for x in g.gen_indices:
        m = np.zeros((g.order, g.order), dtype=np.int64)
        m[g.table[x], np.arange(g.order)] = 1
        regular_mats.append(Mat(p, m))
    regular = Representation(ctx, pres, tuple(regular_mats), g.order)
    blocks = [("triv", trivial, True), ("reg", regular, True)]
    if kind is not None:
        blocks.append(("wit", canonical_witness(kind, p), witness_lifts))
    if cyclic_n is not None:
        pinned = PINNED_SMALL_JORDAN.get((p, cyclic_n), {})
        for i in range(2, p ** cyclic_n + 1):
            blocks.append((f"J{i}", jordan_companion_rep(ctx, cyclic_n, i), pinned.get(i, True)))
    for label, rep, _ in blocks:
        if rep.presentation != pres:
            raise AssertionError(f"{name} block {label} is on another presentation")
    return blocks


# The block structure of the items is drawn once from this fixed seed, so
# every run seed does the same work: the cost of an item depends mostly on
# its group and dimension, and a few 16-dimensional sums on two generators
# dominate a pass.  The run seed picks each conjugating matrix and the order.
STRUCTURE_SEED = 20260117


def _small_structures(count: int, groups) -> list:
    rng = np.random.default_rng(STRUCTURE_SEED)
    out = []
    for _ in range(count):
        name, blocks = groups[rng.integers(len(groups))]
        chosen = []
        dim = 0
        for _ in range(int(rng.integers(1, 4))):
            fits = [b for b in blocks if dim + b[1].n <= MAX_SUM_DIM]
            if not fits:
                break
            chosen.append(fits[rng.integers(len(fits))])
            dim += chosen[-1][1].n
        out.append((name, chosen))
    return out


def search_small(seed: int, count: int) -> list:
    """`count` direct sums of 1-3 blocks, dimension <= 16, conjugated."""
    groups = [(spec[0], _small_blocks(*spec)) for spec in SMALL_GROUPS]
    structures = _small_structures(count, groups)
    rng = np.random.default_rng(seed)
    items = []
    for k in rng.permutation(count):
        name, chosen = structures[k]
        rep = conjugate(block_sum([b[1] for b in chosen]), rng)
        items.append(
            LiftItem(
                label=f"{name}:{'+'.join(b[0] for b in chosen)}",
                rep=rep,
                expect_liftable=all(b[2] for b in chosen),
                text=format_representation(rep),
            )
        )
    return items


# ---------------------------------------------------------------------------
# long-relator: Jordan companion representations of <s | s^{p^n}>

# (p, n, i, lifts, how the expectation is known)
LONG_RELATOR_LADDER = (
    (2, 7, 12, True, "divisor"),
    (2, 8, 16, True, "divisor"),
    (2, 9, 24, True, "divisor"),
    (2, 10, 20, True, "divisor"),
    (3, 4, 20, True, "divisor"),
    (3, 4, 30, False, "pinned"),
    (3, 5, 16, True, "pinned"),
    (3, 5, 20, True, "divisor"),
    (5, 3, 20, True, "divisor"),
    (5, 3, 27, False, "pinned"),
    (7, 2, 20, False, "pinned"),
    (7, 2, 28, False, "pinned"),
)


def long_relator(seed: int) -> list:
    """The fixed ladder; the seed only picks each conjugating matrix."""
    rng = np.random.default_rng(seed)
    items = []
    for p, n, i, lifts, _ in LONG_RELATOR_LADDER:
        rep = conjugate(jordan_companion_rep(PrimeCtx(p), n, i), rng)
        items.append(LiftItem(label=f"J({p},{n},{i})", rep=rep, expect_liftable=lifts))
    return items


# ---------------------------------------------------------------------------
# classify-induced: fixed specs, the seed only orders them

# (spec, liftable, family tag or first obstruction kind, its prime)
CLASSIFY_INDUCED = (
    ("D 16", False, "C2xC2", 2),
    ("CxC 2 8", False, "C2xC2", 2),
    ("Q 16", False, "Q8", 2),
    ("C 18", False, "C9", 3),
    ("CxC 3 6", False, "C3xC3", 3),
    ("C 27", False, "C9", 3),
    ("C 35", False, "Cp", 5),
    ("C 40", False, "Cp", 5),
    ("C 45", False, "Cp", 5),
    ("Q 32", False, "Q8", 2),
    ("D 32", False, "C2xC2", 2),
    ("C 49", False, "Cp", 7),
    ("C 63", False, "Cp", 7),
)

def classify_specs(table, seed: int) -> list:
    order = np.random.default_rng(seed).permutation(len(table))
    items = []
    for k in order:
        spec, lifts, detail, prime = table[k]
        items.append(
            ClassifyItem(
                label=spec,
                tokens=tuple(spec.split()),
                expect_liftable=lifts,
                expect_detail=detail,
                expect_prime=prime,
            )
        )
    return items


def fill_witness_cache(items) -> None:
    """Build every bad-subgroup witness the items need (classify caches them)."""
    for item in items:
        if isinstance(item, ClassifyItem) and not item.expect_liftable:
            canonical_witness(item.expect_detail, item.expect_prime)


# ---------------------------------------------------------------------------
# the timed operations (tracing spans are opened by the caller's tracer)


def run_lift(item: LiftItem, tracer):
    if item.text is not None:
        with tracer.span("formats.parse"):
            rep = parse_representation(item.text)
    else:
        rep = item.rep
    with tracer.span("replift.check_lift"):
        return check_lift(rep)


def run_classify(item: ClassifyItem, tracer):
    with tracer.span("groups.build") as s:
        _, g = family_from_tokens(item.tokens)
        s.attrs["order"] = g.order
    with tracer.span("classify.classify") as s:
        verdict = classify(g)
        s.attrs["witness_dim"] = verdict.witness.n if verdict.witness is not None else 0
    return g, verdict


def audit_classified(result, tracer) -> None:
    """Traced runs only, outside the item's time: the table audit on its own."""
    with tracer.span("groups.audit"):
        FiniteGroup(result[0].table)


WARMUP_SEED = 7


def _warm_small() -> list:
    return [it for it in search_small(WARMUP_SEED, 40) if it.rep.n <= 8][:10]


@dataclass(frozen=True)
class Workload:
    make: object           # seed -> list of items, one pass
    run: object            # (item, tracer) -> result, the timed call
    min_passes: int        # every run measures at least this many whole passes
    warmup: object         # () -> items run once, untimed, before timing
    traced_extra: object = None  # (result, tracer), traced runs only, untimed

    def tail_percentile(self, pass_items: int) -> float:
        """Highest percentile with >= 10 samples beyond it in the shortest run."""
        n = pass_items * self.min_passes
        return 100.0 * (n - 10) / n


WORKLOADS = {
    "search-small": Workload(
        make=lambda seed: search_small(seed, 100),
        run=run_lift,
        min_passes=4,
        warmup=_warm_small,
    ),
    "long-relator": Workload(
        make=long_relator,
        run=run_lift,
        min_passes=3,
        warmup=lambda: [LiftItem("warm", jordan_companion_rep(PrimeCtx(2), 7, 12), True)],
    ),
    "classify-induced": Workload(
        make=lambda seed: classify_specs(CLASSIFY_INDUCED, seed),
        run=run_classify,
        min_passes=4,
        warmup=lambda: classify_specs((("D 8", False, "C2xC2", 2),), 0),
        traced_extra=audit_classified,
    ),
}
