"""Operator arithmetic, basis conversions, singularity test."""

import random
from fractions import Fraction

import pytest

from pseudolin.ore import (GEN_DX, GEN_EULER, OrePoly, _euler_raw,
                           full_primitive, infinity_not_irregular,
                           is_right_multiple, normalize_primitive, ore_mul,
                           to_euler)
from pseudolin.poly import Poly
from pseudolin.ratfun import RatFun
from test_ratfun import rand_ratfun

from _oracle import from_euler, full_primitive_ref, ore_apply, right_divide

x = Poly.x()
L_CAUCHY = OrePoly([2, RatFun(-2 * x), RatFun(x * x)])  # x^2 Dx^2 - 2x Dx + 2


def rand_op(rng, max_order=3, max_deg=3, generator=GEN_DX):
    order = rng.randint(0, max_order)
    coeffs = [rand_ratfun(rng) for _ in range(order)]
    lead = rand_ratfun(rng)
    while lead.is_zero():
        lead = rand_ratfun(rng)
    return OrePoly(coeffs + [lead], generator)


def test_mul_examples():
    assert ore_mul(OrePoly([-2, RatFun(x)]), OrePoly([-1, RatFun(x)])) \
        == L_CAUCHY
    assert ore_mul(OrePoly([1, 1]), OrePoly([-1, 1])) == OrePoly([-1, 0, 1])
    # Euler commutation: E x = x E + x
    e = OrePoly([0, 1], GEN_EULER)
    fx = OrePoly([RatFun(x)], GEN_EULER)
    assert ore_mul(e, fx) == OrePoly([RatFun(x), RatFun(x)], GEN_EULER)


def test_mul_generator_mismatch():
    with pytest.raises(ValueError):
        ore_mul(OrePoly([1, 1], GEN_DX), OrePoly([1, 1], GEN_EULER))


def test_mul_order_additivity_and_associativity():
    rng = random.Random(40)
    for _ in range(25):
        a, b, c = (rand_op(rng, 2, 2) for _ in range(3))
        ab = ore_mul(a, b)
        assert ab.order == a.order + b.order
        assert ore_mul(ab, c) == ore_mul(a, ore_mul(b, c))
        assert ore_mul(a + b, c) == ore_mul(a, c) + ore_mul(b, c)
        assert ore_mul(a, b + c) == ore_mul(a, b) + ore_mul(a, c)


def test_apply_examples():
    assert ore_apply(OrePoly([-1, RatFun(x)]), RatFun(x)).is_zero()
    assert ore_apply(OrePoly([-1, 0, 1]), RatFun(x)) == RatFun(-x)
    e2 = OrePoly([0, -1, 1], GEN_EULER)
    assert ore_apply(e2, RatFun(x * x)) == RatFun(2 * x * x)


def test_apply_is_ring_action():
    rng = random.Random(41)
    for _ in range(25):
        a, b = rand_op(rng, 2, 2), rand_op(rng, 2, 2)
        f = rand_ratfun(rng)
        assert ore_apply(ore_mul(a, b), f) == ore_apply(a, ore_apply(b, f))


def test_right_divide_examples():
    q, r = right_divide(OrePoly([-1, 0, 1]), OrePoly([-1, 1]))
    assert q == OrePoly([1, 1]) and r.is_zero()
    q, r = right_divide(L_CAUCHY, OrePoly([-1, RatFun(x)]))
    assert q == OrePoly([-2, RatFun(x)]) and r.is_zero()
    q, r = right_divide(OrePoly([0, 1]), OrePoly([0, 1]))
    assert q == OrePoly([1]) and r.is_zero()
    with pytest.raises(ZeroDivisionError):
        right_divide(L_CAUCHY, OrePoly.zero())


def test_right_divide_reconstruction():
    rng = random.Random(42)
    for _ in range(30):
        a, b = rand_op(rng, 3, 2), rand_op(rng, 2, 2)
        q, r = right_divide(a, b)
        assert ore_mul(q, b) + r == a
        assert r.is_zero() or r.order < b.order


def test_to_euler_examples():
    assert to_euler(OrePoly([0, 0, 1])) == OrePoly([0, -1, 1], GEN_EULER)
    assert to_euler(OrePoly([-1, 1])) == OrePoly([RatFun(-x), RatFun(1)],
                                                  GEN_EULER)
    assert to_euler(OrePoly([-1, RatFun(x)])) == OrePoly([-1, 1], GEN_EULER)


def test_from_euler_examples():
    assert from_euler(OrePoly([0, 1], GEN_EULER)) == OrePoly([0, RatFun(x)])
    assert from_euler(OrePoly([0, -1, 1], GEN_EULER)) \
        == OrePoly([0, 0, RatFun(x * x)])
    assert from_euler(OrePoly([-1, 1], GEN_EULER)) == OrePoly([-1, RatFun(x)])


def test_conversion_roundtrip():
    rng = random.Random(43)
    for _ in range(25):
        L = rand_op(rng, 3, 3)
        if L.order < 1:
            continue
        back = from_euler(to_euler(L))
        assert full_primitive(back) == full_primitive(L)


def test_roundtrip_right_divides_both_ways():
    """from_euler(to_euler(L)) and L right-divide each other, so they
    have the same solutions, series solutions included."""
    rng = random.Random(44)
    done = 0
    while done < 10:
        L = rand_op(rng, 2, 2)
        if L.order < 1:
            continue
        back = from_euler(to_euler(L))
        assert is_right_multiple(back, L) and is_right_multiple(L, back)
        done += 1


def test_euler_conversion_degree_bounds_raw():
    rng = random.Random(45)
    for _ in range(30):
        L = rand_op(rng, 3, 3)
        if L.order < 1:
            continue
        prim = normalize_primitive(L)
        raw = _euler_raw(prim)
        r = prim.order
        degs = [c.num.degree for c in prim.coeffs]
        assert raw.coeffs[-1].num.degree == degs[-1]
        for j in range(r + 1):
            qj = raw.coeff(j)
            if qj.is_zero():
                continue
            cap = r + max(degs[ell] - ell for ell in range(j, r + 1)
                          if not prim.coeffs[ell].is_zero())
            assert qj.num.degree <= cap


def test_infinity_not_irregular_examples():
    assert infinity_not_irregular(OrePoly([-1, RatFun(x)]))
    assert not infinity_not_irregular(OrePoly([-1, 1]))
    assert infinity_not_irregular(L_CAUCHY)


def test_normalize_primitive():
    L = OrePoly([RatFun(Poly([Fraction(1, 2)])), RatFun(-x, Poly([0, 2]))])
    prim = normalize_primitive(L)
    assert prim == OrePoly([-1, 1])
    assert prim.coeffs[-1].num.lc > 0
    assert normalize_primitive(OrePoly.zero()).is_zero()


def test_full_primitive_matches_the_gcd_chain():
    """full_primitive, one content strip of the cleared coefficients,
    equals normalize_primitive followed by the poly_gcd chain and the
    exact divisions it replaces."""
    rng = random.Random(172)
    stripped = 0
    for trial in range(80):
        L = rand_op(rng)
        if trial % 2:
            c = RatFun(Poly([rng.randint(-3, 3), rng.choice((-2, 1, 3))]))
            L = OrePoly([c * a for a in L.coeffs], L.generator)
        want = full_primitive_ref(L)
        assert full_primitive(L) == want
        stripped += want != normalize_primitive(L)
    assert stripped >= 20
