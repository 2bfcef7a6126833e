"""Reduced rational-function arithmetic."""

import random
from fractions import Fraction

import pytest

from pseudolin.poly import Poly, poly_gcd
from pseudolin.ratfun import RatFun, common_denominator
from test_poly import euclid_gcd, rand_poly, rand_q_poly

x = Poly.x()


def rand_ratfun(rng):
    num = rand_poly(rng, 4)
    den = rand_poly(rng, 3)
    while den.is_zero():
        den = rand_poly(rng, 3)
    return RatFun(num, den)


def test_reduction_invariants():
    f = RatFun(2 * x * x - 2, 2 * x - 2)   # reduces to x + 1
    assert f == RatFun(x + 1)
    assert f.den == Poly.one()
    rng = random.Random(10)
    for _ in range(100):
        f = rand_ratfun(rng)
        assert f.den.lc == 1
        assert poly_gcd(f.num, f.den).degree <= 0
        if f.is_zero():
            assert f.den == Poly.one()


def test_normalisation_matches_fraction_reference():
    """RatFun cancels and scales in Z[x]; the gcd check uses the Fraction
    remainder sequence of the oracle's poly_divmod instead."""
    rng = random.Random(22)
    for _ in range(300):
        n, d, g = rand_q_poly(rng, 4), rand_q_poly(rng, 3), rand_q_poly(rng, 2)
        if d.is_zero():
            d = Poly.const(rng.choice([-3, Fraction(2, 5)]))
        if not g.is_zero():
            n, d = n * g, d * g
        f = RatFun(n, d)
        assert f.den.lc == 1
        assert f.num * d == n * f.den
        if n.is_zero():
            assert f.num.is_zero() and f.den == Poly.one()
        else:
            assert euclid_gcd(f.num, f.den) == Poly.one()


def test_field_identities():
    rng = random.Random(11)
    for _ in range(150):
        a, b = rand_ratfun(rng), rand_ratfun(rng)
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a * b) / b == a
        assert a * (b + RatFun.one()) == a * b + a


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFun(x, Poly())
    with pytest.raises(ZeroDivisionError):
        RatFun.one() / RatFun.zero()


def test_derivative():
    f = RatFun(1, x)
    assert f.derivative() == RatFun(-1, x * x)
    rng = random.Random(12)
    for _ in range(60):
        a, b = rand_ratfun(rng), rand_ratfun(rng)
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()
        assert (a + b).derivative() == a.derivative() + b.derivative()


def test_strictly_proper():
    assert RatFun(1, x).is_strictly_proper()
    assert not RatFun(x + 1, x).is_strictly_proper()
    assert RatFun.zero().is_strictly_proper()
    assert not RatFun(3).is_strictly_proper()


def test_common_denominator():
    vals = [RatFun(1, x), RatFun(1, x - 1), RatFun(1, x * x)]
    assert common_denominator(vals) == (x * x * (x - 1)).monic()
