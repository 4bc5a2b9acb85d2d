"""Constructive lifts for cyclic p-groups via cyclotomic divisors.

t^{p^n} - 1 factors over Z into the cyclotomic polynomials Phi_{p^j},
j = 0..n, each reducing mod p to a power of (t - 1).  A monic divisor
congruent to (t-1)^i therefore exists iff some subset of the factor degrees
sums to i, and its companion matrix over Z/p^2 is a verbatim lift of the
size-i unipotent Jordan module.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import Error
from .groups import cyclic_presentation
from .rings import Mat, Poly, PrimeCtx
from .replift import LiftCertificate, Representation, verify_certificate


class InvalidDivisor(Error):
    pass


def _cyclotomic_p_power(p: int, j: int) -> Poly:
    if j == 0:
        return Poly([-1, 1])
    # Phi_{p^j}(t) = sum_{i < p} t^{i * p^{j-1}}
    step = p ** (j - 1)
    coeffs = [0] * ((p - 1) * step + 1)
    for i in range(p):
        coeffs[i * step] = 1
    return Poly(coeffs)


def cyclotomic_factors(ctx: PrimeCtx, n: int) -> tuple:
    """(Phi_1, Phi_p, ..., Phi_{p^n}), checked to multiply to t^{p^n} - 1
    and each to reduce mod p to a power of (t - 1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    factors = tuple(_cyclotomic_p_power(ctx.p, j) for j in range(n + 1))
    if math.prod(factors, start=Poly([1])) != Poly.x_pow_minus_one(ctx.p ** n):
        raise AssertionError("cyclotomic product is not t^{p^n} - 1")
    tm1 = Poly([-1, 1], ctx.p)
    for f in factors:
        if f.reduce(ctx.p) != tm1 ** f.degree:
            raise AssertionError("factor does not reduce to a power of (t - 1)")
    return factors


def find_divisor_lift(ctx: PrimeCtx, n: int, i: int) -> Optional[Poly]:
    """A monic divisor of t^{p^n} - 1 over Z congruent to (t-1)^i mod p.

    Searches subsets of the cyclotomic factors whose degrees sum to i,
    preferring higher-index factors; for p = 2 this reproduces the
    Q_{s_0} Q_{s_1} ... product of the binary digits of i.  Every hit is
    re-verified exactly before being returned.
    """
    pn = ctx.p ** n
    if not 1 <= i <= pn:
        raise ValueError(f"need 1 <= i <= p^n = {pn}")
    factors = cyclotomic_factors(ctx, n)
    for mask in range((1 << len(factors)) - 1, -1, -1):
        chosen = [f for j, f in enumerate(factors) if mask >> j & 1]
        if sum(f.degree for f in chosen) == i:
            prod = math.prod(chosen, start=Poly([1]))
            _assert_divisor(ctx, n, i, prod)
            return prod
    return None


def _assert_divisor(ctx: PrimeCtx, n: int, i: int, P: Poly):
    if not P.is_monic():
        raise InvalidDivisor("P is not monic")
    if P.reduce(ctx.p) != Poly([-1, 1], ctx.p) ** i:
        raise InvalidDivisor(f"P is not congruent to (t-1)^{i} mod {ctx.p}")
    _, rem = Poly.x_pow_minus_one(ctx.p ** n).divmod_exact(P)
    if not rem.is_zero():
        raise InvalidDivisor(f"P does not divide t^{ctx.p ** n} - 1")


def companion_matrix(poly, mod: int) -> Mat:
    """Companion matrix of a monic polynomial, entries over Z/mod."""
    coeffs = poly.coeffs
    d = len(coeffs) - 1
    if d < 1 or coeffs[-1] != 1:
        raise InvalidDivisor("companion matrix needs a monic polynomial of degree >= 1")
    m = np.zeros((d, d), dtype=np.int64)
    for r in range(1, d):
        m[r, r - 1] = 1
    for r in range(d):
        m[r, d - 1] = -coeffs[r] % mod
    return Mat(mod, m)


def jordan_companion_rep(ctx: PrimeCtx, n: int, i: int) -> Representation:
    """<s | s^{p^n}> with s acting as the companion matrix of (t-1)^i mod p."""
    pn = ctx.p ** n
    mat = companion_matrix(Poly([-1, 1], ctx.p) ** i, ctx.p)
    return Representation(ctx, cyclic_presentation(pn), (mat,), i)


def companion_lift(ctx: PrimeCtx, n: int, i: int, P: Poly) -> tuple:
    """The Jordan companion representation together with its verbatim lift.

    P must be a monic divisor of t^{p^n} - 1 congruent to (t-1)^i mod p
    (InvalidDivisor otherwise); its companion matrix over Z/p^2 satisfies
    s^{p^n} = 1 because P divides t^{p^n} - 1, so the certificate verifies.
    """
    _assert_divisor(ctx, n, i, P)
    rep = jordan_companion_rep(ctx, n, i)
    cert = LiftCertificate((companion_matrix(P, ctx.p2),))
    if not verify_certificate(rep, cert):
        raise InvalidDivisor("companion lift failed certificate verification")
    return rep, cert


def liftable_jordan_sizes(ctx: PrimeCtx, n: int) -> set:
    """All i in [1, p^n] reachable as a subset sum of cyclotomic degrees."""
    pn = ctx.p ** n
    sums = {0}
    for f in cyclotomic_factors(ctx, n):
        sums |= {s + f.degree for s in sums}
    return {i for i in sums if 1 <= i <= pn}
