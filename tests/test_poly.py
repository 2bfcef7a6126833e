"""Poly arithmetic, gcd and normal forms."""

import random
from fractions import Fraction

import pytest

from pseudolin.poly import (NEG_INF, Poly, format_poly, poly_divides,
                            poly_gcd, poly_lcm)

from _oracle import poly_divmod

x = Poly.x()


def rand_poly(rng, max_deg=6, bound=9):
    deg = rng.randint(-1, max_deg)
    if deg < 0:
        return Poly()
    coeffs = [Fraction(rng.randint(-bound, bound),
                       rng.randint(1, 4)) for _ in range(deg + 1)]
    coeffs[-1] = Fraction(rng.randint(1, bound))
    return Poly(coeffs)


def rand_q_poly(rng, max_deg=5, bound=9):
    """Like rand_poly, but the leading coefficient may also be negative
    or non-integral; degree -1 (zero) and 0 (constants) both occur."""
    p = rand_poly(rng, max_deg, bound)
    if p.is_zero():
        return p
    lead = Fraction(rng.choice([-1, 1]) * rng.randint(1, bound),
                    rng.randint(1, 4))
    return Poly(p.coeffs[:-1] + (lead,))


def euclid_gcd(a, b):
    """Monic gcd by the Fraction remainder sequence of poly_divmod."""
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    return a.monic()


def test_degree_sentinel():
    assert Poly().degree == NEG_INF
    assert NEG_INF < -10**9
    assert Poly([3]).degree == 0
    assert (x**5).degree == 5


def test_gcd_examples():
    # common factor by construction
    assert poly_gcd(x * x - 1, x - 1) == x - 1
    # gcd with zero
    assert poly_gcd(x, Poly()) == x
    assert poly_gcd(Poly(), Poly()) == Poly()
    # coprime pair: Euclidean remainder sequence gives 1
    assert poly_gcd(x * x + 1, x * x - 1) == Poly.one()


def test_gcd_is_monic_and_divides():
    rng = random.Random(1)
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        g = poly_gcd(a, b)
        if a.is_zero() and b.is_zero():
            assert g.is_zero()
            continue
        assert g.lc == 1
        assert poly_divides(g, a) and poly_divides(g, b)


def test_gcd_scaling_law():
    rng = random.Random(2)
    for _ in range(60):
        a, b, g = rand_poly(rng, 4), rand_poly(rng, 4), rand_poly(rng, 3)
        if g.is_zero():
            continue
        common = poly_gcd(a, b)
        if a.is_zero() or b.is_zero() or common.degree > 0:
            continue  # want coprime a, b
        assert poly_gcd(a * g, b * g) == g.monic()


def test_divmod_and_exact_division():
    rng = random.Random(3)
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                poly_divmod(a, b)
            continue
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        assert (a * b).exact_div(b) == a


def test_exact_paths_match_divmod_reference():
    """exact_div, poly_divides and poly_lcm run in Z[x]; divmod over
    Fraction coefficients (the oracle's poly_divmod) is the reference."""
    rng = random.Random(21)
    outcomes = set()
    for _ in range(300):
        b = rand_q_poly(rng, 4)
        if rng.random() < 0.5:
            a = b * rand_q_poly(rng, 3)
        else:
            a = rand_q_poly(rng, 6)
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.exact_div(b)
            assert poly_divides(b, a) == a.is_zero()
            continue
        q, r = poly_divmod(a, b)
        if r.is_zero():
            assert a.exact_div(b) == q
        else:
            with pytest.raises(ValueError):
                a.exact_div(b)
        assert poly_divides(b, a) == r.is_zero()
        outcomes.add((r.is_zero(), b.degree == 0, a.is_zero()))
        if not a.is_zero():
            m = poly_lcm(a, b)
            assert m.lc == 1
            assert poly_divmod(m, a)[1].is_zero()
            assert poly_divmod(m, b)[1].is_zero()
            assert m * euclid_gcd(a, b) == (a * b).monic()
    # exact and inexact divisions, constant divisors and zero dividends
    assert {(True, False, False), (False, False, False), (True, True, False),
            (True, False, True)} <= outcomes


def test_compose_shift_eval():
    p = x**2 - 2 * x + 2
    assert p.shift(1) == x**2 + 1
    assert p.eval(3) == 5
    assert p.compose(x**2) == x**4 - 2 * x**2 + 2


def test_pow_and_lcm():
    assert (x + 1)**3 == x**3 + 3 * x**2 + 3 * x + 1
    assert poly_lcm(x * (x - 1), x) == (x * (x - 1)).monic()
    assert poly_lcm(x, Poly()) == Poly()


def test_format():
    assert format_poly(x**2 - 2 * x + 2) == "x^2 - 2*x + 2"
    assert format_poly(Poly()) == "0"
    assert format_poly(-x) == "-x"
    assert format_poly(Poly([Fraction(1, 2)])) == "1/2"
