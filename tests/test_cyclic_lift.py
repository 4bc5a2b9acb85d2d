import pytest

from modlift.cyclic_lift import (
    InvalidDivisor,
    companion_lift,
    companion_matrix,
    cyclotomic_factors,
    find_divisor_lift,
    jordan_companion_rep,
    liftable_jordan_sizes,
)
from modlift.replift import check_lift, verify_certificate
from modlift.rings import Mat, Poly, PrimeCtx


def test_factors_p2_n3():
    fac = cyclotomic_factors(PrimeCtx(2), 3)
    assert fac == (
        Poly([-1, 1]),
        Poly([1, 1]),
        Poly([1, 0, 1]),
        Poly([1, 0, 0, 0, 1]),
    )
    assert tuple(f.degree for f in fac) == (1, 1, 2, 4)


def test_factors_p3_n1():
    fac = cyclotomic_factors(PrimeCtx(3), 1)
    assert fac == (Poly([-1, 1]), Poly([1, 1, 1]))


def test_factors_p5_n1():
    fac = cyclotomic_factors(PrimeCtx(5), 1)
    prod = Poly([1])
    for f in fac:
        prod = prod * f
    assert prod == Poly.x_pow_minus_one(5)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_factorization_exact(p, n):
    fac = cyclotomic_factors(PrimeCtx(p), n)
    prod = Poly([1])
    for f in fac:
        prod = prod * f
    assert prod == Poly.x_pow_minus_one(p ** n)
    tm1 = Poly([-1, 1], p)
    for f in fac:
        assert f.reduce(p) == tm1 ** f.degree


def test_divisor_lift_p2_binary_digits():
    P = find_divisor_lift(PrimeCtx(2), 3, 5)
    # 5 = 2^0 + 2^2: product (t+1)(t^4+1)
    assert P == Poly([1, 1]) * Poly([1, 0, 0, 0, 1])


def test_divisor_lift_p3():
    assert find_divisor_lift(PrimeCtx(3), 1, 2) == Poly([1, 1, 1])


def test_divisor_lift_none_cases():
    assert find_divisor_lift(PrimeCtx(5), 1, 2) is None
    assert find_divisor_lift(PrimeCtx(3), 2, 4) is None


def test_divisor_lift_valid_outputs():
    for p, n in [(2, 3), (3, 2), (5, 1), (7, 1)]:
        ctx = PrimeCtx(p)
        pn = p ** n
        target = Poly.x_pow_minus_one(pn)
        for i in range(1, pn + 1):
            P = find_divisor_lift(ctx, n, i)
            if P is None:
                continue
            assert P.is_monic()
            assert P.degree == i
            _, r = target.divmod_exact(P)
            assert r.is_zero()
            assert P.reduce(p) == Poly([-1, 1], p) ** i


def test_companion_lift_examples():
    ctx = PrimeCtx(2)
    P = find_divisor_lift(ctx, 2, 3)
    rep, cert = companion_lift(ctx, 2, 3, P)
    assert rep.n == 3
    assert verify_certificate(rep, cert)

    ctx3 = PrimeCtx(3)
    rep3, cert3 = companion_lift(ctx3, 1, 2, Poly([1, 1, 1]))
    assert rep3.n == 2
    assert verify_certificate(rep3, cert3)

    rep1, cert1 = companion_lift(ctx3, 1, 1, Poly([-1, 1]))
    assert rep1.n == 1
    assert cert1.mats[0] == Mat.identity(9, 1)


def test_companion_lift_rejects_bad_divisor():
    ctx = PrimeCtx(2)
    with pytest.raises(InvalidDivisor):
        companion_lift(ctx, 2, 2, Poly([1, 0, 1, 1]))  # wrong degree/congruence
    with pytest.raises(InvalidDivisor):
        companion_lift(ctx, 2, 2, Poly([1, 2, 1]))  # (t+1)^2 does not divide t^4-1


def test_companion_matrix_shape():
    c = companion_matrix(Poly([2, 0, 1]), 9)  # t^2 + 2
    assert c == Mat(9, [[0, 7], [1, 0]])
    with pytest.raises(InvalidDivisor):
        companion_matrix(Poly([1]), 9)


def test_jordan_sizes_examples():
    assert liftable_jordan_sizes(PrimeCtx(2), 2) == {1, 2, 3, 4}
    assert liftable_jordan_sizes(PrimeCtx(3), 1) == {1, 2, 3}
    assert liftable_jordan_sizes(PrimeCtx(3), 2) == {1, 2, 3, 6, 7, 8, 9}
    assert liftable_jordan_sizes(PrimeCtx(5), 1) == {1, 4, 5}


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4)])
def test_p2_all_sizes_lift(p, n):
    sizes = liftable_jordan_sizes(PrimeCtx(p), n)
    assert sizes == set(range(1, 2 ** n + 1))


def test_checker_confirms_divisor_sizes():
    for p, n in [(2, 2), (3, 1), (3, 2)]:
        ctx = PrimeCtx(p)
        for i in sorted(liftable_jordan_sizes(ctx, n)):
            rep = jordan_companion_rep(ctx, n, i)
            assert check_lift(rep).liftable, (p, n, i)
