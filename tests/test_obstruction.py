import numpy as np
import pytest

from conftest import time_limit
from modlift.groups import cyclic_group, elementary_abelian
from modlift.obstruction import (
    GroupAlgebraElement,
    OutOfRange,
    ProductNotZero,
    ZeroElement,
    cyclic_witness,
    module_of_quotient,
    one_minus_generator,
    q_polynomial,
    theta,
)
from modlift.replift import check_lift, validate_rep
from modlift.rings import Mat, PolyFp, PrimeCtx, binom_div_p


def test_algebra_identity():
    _, g = cyclic_group(5)
    a = GroupAlgebraElement(g, 5, [1, 2, 3, 4, 0])
    assert GroupAlgebraElement.one(g, 5) * a == a


def test_algebra_power():
    s = one_minus_generator(cyclic_group(9)[1], 3)
    assert s ** 3 == s * s * s
    with time_limit(2), pytest.raises(ValueError):
        s ** -1


def test_algebra_nilpotence_mod_3():
    _, g = cyclic_group(3)
    s = one_minus_generator(g, 3)
    assert (s * (s * s)).is_zero()


def test_algebra_cube_mod_9():
    _, g = cyclic_group(3)
    s = one_minus_generator(g, 9)
    cube = s * (s * s)
    # (1-sigma)^3 = 1 - 3 sigma + 3 sigma^2 - 1 = 3(sigma^2 - sigma) in Z/9[C3]
    assert list(cube.coeffs) == [0, 6, 3]


def test_algebra_mismatch():
    _, g3 = cyclic_group(3)
    _, g5 = cyclic_group(5)
    with pytest.raises(ValueError):
        GroupAlgebraElement.one(g3, 3) * GroupAlgebraElement.one(g5, 3)


# --- theta -------------------------------------------------------------------


def test_theta_zero_f():
    _, g = cyclic_group(3)
    z = GroupAlgebraElement.zero(g, 3)
    h = one_minus_generator(g, 3)
    cls = theta(g, z, h)
    assert cls.is_zero
    assert theta(g, h * h, z).is_zero


def test_theta_c3_vanishes():
    _, g = cyclic_group(3)
    s = one_minus_generator(g, 3)
    cls = theta(g, s, s * s)
    assert cls.is_zero


def test_theta_c9_nonzero():
    ctx = PrimeCtx(3)
    f, h, m = cyclic_witness(ctx, 2)
    assert m == 4
    cls = theta(f.group, f, h)
    assert not cls.is_zero


def test_theta_c5_nonzero():
    ctx = PrimeCtx(5)
    f, h, m = cyclic_witness(ctx, 1)
    assert m == 2
    assert not theta(f.group, f, h).is_zero


def test_theta_requires_zero_product():
    _, g = cyclic_group(3)
    one = GroupAlgebraElement.one(g, 3)
    with pytest.raises(ProductNotZero):
        theta(g, one, one)


def test_theta_well_defined_under_relifts(rng):
    ctx = PrimeCtx(3)
    f, h, _ = cyclic_witness(ctx, 2)
    g = f.group
    base = theta(g, f, h)
    for _ in range(25):
        lf = GroupAlgebraElement(g, 9, f.coeffs + 3 * rng.integers(0, 3, g.order))
        lh = GroupAlgebraElement(g, 9, h.coeffs + 3 * rng.integers(0, 3, g.order))
        cls = theta(g, f, h, lift_f=lf, lift_h=lh)
        assert cls.representative == base.representative


# --- cyclic witnesses -----------------------------------------------------------


def test_cyclic_witness_parameters():
    f, h, m = cyclic_witness(PrimeCtx(3), 2)
    assert m == 4
    s = one_minus_generator(f.group, 3)
    assert f == s ** 4
    assert h == s ** 5
    f5, h5, m5 = cyclic_witness(PrimeCtx(5), 1)
    assert m5 == 2


def test_cyclic_witness_out_of_range():
    with pytest.raises(OutOfRange):
        cyclic_witness(PrimeCtx(3), 1)
    with pytest.raises(OutOfRange):
        cyclic_witness(PrimeCtx(2), 3)


# --- Q polynomial ----------------------------------------------------------------


def test_q_polynomial_p2():
    q = q_polynomial(PrimeCtx(2), 1)
    assert q == PolyFp(2, [0, 1, 1])  # s^2 + s


def test_q_polynomial_coefficient_matches_binomial():
    for p, n in [(3, 2), (5, 1), (7, 1), (3, 1), (2, 2)]:
        ctx = PrimeCtx(p)
        q = q_polynomial(ctx, n)
        m = p ** (n - 1) + 1
        b = binom_div_p(p ** n, p ** (n - 1), ctx)
        assert q.coeff(m - 1) in (b % p, (-b) % p)
        assert q.coeff(m - 1) != 0


def test_q_polynomial_p5_linear_coeff():
    q = q_polynomial(PrimeCtx(5), 1)
    assert q.coeff(1) in (1, 4)  # +- binom(5,1)/5, sign left open


# --- quotient modules ---------------------------------------------------------------


def test_module_of_quotient_unit_ideal():
    _, g = cyclic_group(3)
    rep = module_of_quotient(g, GroupAlgebraElement.one(g, 3))
    assert rep.n == 0
    assert check_lift(rep).liftable


def test_module_of_quotient_c9_unipotent_shape():
    _, g = cyclic_group(9)
    h = one_minus_generator(g, 3) ** 5
    rep = module_of_quotient(g, h)
    assert rep.n == 5
    m = rep.gen_mats[0]
    expected = np.eye(5, dtype=np.int64)
    for i in range(4):
        expected[i + 1, i] = 2  # -1 mod 3
    assert m == Mat(3, expected)
    assert not check_lift(rep).liftable


def test_module_of_quotient_c5():
    _, g = cyclic_group(5)
    h = one_minus_generator(g, 5) ** 3
    rep = module_of_quotient(g, h)
    assert rep.n == 3
    # unipotent: (m - 1)^3 = 0 over F_5
    m = rep.gen_mats[0]
    n = m - Mat.identity(5, 3)
    assert (n @ n @ n).is_zero()


def test_module_of_quotient_general_path_agrees():
    _, g = cyclic_group(9)
    h = one_minus_generator(g, 3) ** 5
    fast = module_of_quotient(g, h)
    slow = module_of_quotient(g, h, prefer_unipotent_basis=False)
    assert slow.n == fast.n
    validate_rep(slow)
    assert check_lift(slow).liftable == check_lift(fast).liftable == False


def test_module_of_quotient_noncyclic_group():
    _, g = elementary_abelian(2, 2)
    # h = 1 + s: ideal has dim 2, quotient dim 2
    h = GroupAlgebraElement(g, 2, [1, 0, 1, 0])
    rep = module_of_quotient(g, h)
    validate_rep(rep)
    assert rep.n == 2


def test_module_of_quotient_zero_element():
    _, g = cyclic_group(3)
    with pytest.raises(ZeroElement):
        module_of_quotient(g, GroupAlgebraElement.zero(g, 3))


# --- the Prop 3.1 bridge --------------------------------------------------------------


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1), (7, 1)])
def test_nonzero_theta_refutes_quotient_module(p, n):
    ctx = PrimeCtx(p)
    f, h, m = cyclic_witness(ctx, n)
    assert not theta(f.group, f, h).is_zero
    rep = module_of_quotient(f.group, h)
    assert rep.n == p ** n - m
    v = check_lift(rep)
    assert not v.liftable
    assert v.refutation_checks_out()
