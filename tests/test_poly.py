"""Poly arithmetic, gcd and normal forms."""

import fractions
import random
from fractions import Fraction
from math import gcd

import pytest

from pseudolin.poly import (NEG_INF, Poly, format_poly, format_terms,
                            poly_divides, poly_gcd, poly_lcm)

from _oracle import (fl_add, fl_deriv, fl_divmod, fl_eval, fl_monic, fl_mul,
                     fl_neg, format_terms_ref, poly_divmod)

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


def test_pow_and_lcm():
    assert (x + 1)**3 == x**3 + 3 * x**2 + 3 * x + 1
    assert poly_lcm(x * (x - 1), x) == (x * (x - 1)).monic()
    assert poly_lcm(x, Poly()) == Poly()


def test_format():
    assert format_poly(x**2 - 2 * x + 2) == "x^2 - 2*x + 2"
    assert format_poly(Poly()) == "0"
    assert format_poly(-x) == "-x"
    assert format_poly(Poly([Fraction(1, 2)])) == "1/2"


def test_format_terms_matches_the_fraction_reference():
    """format_terms reads z and d; it prints what the Fraction
    coefficients print, unit and negative coefficients included."""
    rng = random.Random(97)
    for _ in range(500):
        rows = [Poly([Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 6)))
                      for _ in range(rng.randint(0, 4))])
                for _ in range(rng.randint(1, 3))]
        assert format_terms(rows, "Dx") == format_terms_ref(rows, "Dx")
        assert format_terms(rows[:1]) == format_terms_ref(rows[:1])


def assert_canonical(p):
    """Poly's invariants: z a trimmed list of ints, d > 0 an int,
    gcd(content(z), d) = 1, and zero stored as ([], 1)."""
    assert isinstance(p.z, list) and isinstance(p.d, int)
    assert all(type(c) is int for c in p.z)
    assert p.d > 0
    if not p.z:
        assert p.d == 1
        return
    assert p.z[-1] != 0
    assert gcd(p.d, *p.z) == 1


def rand_scalar(rng):
    if rng.random() < 0.5:
        return rng.randint(-6, 6)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 8))


def test_ring_ops_match_fraction_reference():
    """Every ring operation gives a canonical (z, d) whose coefficients
    match the Fraction-list reference of ``_oracle``."""
    rng = random.Random(91)
    for _ in range(300):
        a, b = rand_q_poly(rng, 6), rand_q_poly(rng, 6)
        k = rand_scalar(rng)
        fa, fb = list(a.coeffs), list(b.coeffs)
        cases = [(a + b, fl_add(fa, fb)), (a - b, fl_add(fa, fl_neg(fb))),
                 (-a, fl_neg(fa)), (a * b, fl_mul(fa, fb)),
                 (a * k, fl_mul(fa, [Fraction(k)] if k else [])),
                 (k * a, fl_mul(fa, [Fraction(k)] if k else [])),
                 (a + k, fl_add(fa, [Fraction(k)] if k else [])),
                 (a**3, fl_mul(fa, fl_mul(fa, fa))),
                 (a.derivative(), fl_deriv(fa)), (a.monic(), fl_monic(fa))]
        if not b.is_zero():
            c = a * b
            cases.append((c.exact_div(b), fl_divmod(list(c.coeffs), fb)[0]))
        for got, want in cases:
            assert_canonical(got)
            assert list(got.coeffs) == want
        pt = rand_scalar(rng)
        assert a.eval(pt) == fl_eval(fa, Fraction(pt))


def test_coeffs_round_trip():
    rng = random.Random(92)
    for _ in range(200):
        p = rand_q_poly(rng, 8, 50)
        assert_canonical(p)
        q = Poly(p.coeffs)
        assert (q.z, q.d) == (p.z, p.d) and q == p
        assert all(type(c) is Fraction for c in p.coeffs)
        assert hash(q) == hash(p)


def test_from_z_canonical_form():
    p = Poly.from_z([2, -4, 6], -4)
    assert (p.z, p.d) == ([-1, 2, -3], 2)
    assert p == Poly([Fraction(-1, 2), 1, Fraction(-3, 2)])
    zero = Poly.from_z([0, 0], 7)
    assert (zero.z, zero.d) == ([], 1) and zero == Poly()
    for p in (Poly(), Poly([0, 0]), x - x, x * 0, Poly.const(Fraction(0))):
        assert (p.z, p.d) == ([], 1)
    assert Poly([Fraction(3, 6), 1]).d == 2


def test_ring_ops_create_no_fraction(monkeypatch):
    """+, -, *, powers, derivative, monic, exact_div, gcd, lcm,
    divisibility, == and hash run on ints only."""
    rng = random.Random(93)
    pairs = [(rand_q_poly(rng, 5), rand_q_poly(rng, 5)) for _ in range(40)]
    scalars = [rand_scalar(rng) for _ in range(40)]
    created = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        created.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
    for (a, b), k in zip(pairs, scalars):
        c = a * b
        _ = (a + b, a - b, -a, a * k, k * a, a + k, a**2, a.derivative(),
             a.monic(), poly_gcd(a, b), poly_lcm(a, b), poly_divides(a, c),
             a == b, a == k, hash(a))
        if not b.is_zero():
            _ = c.exact_div(b)
    monkeypatch.undo()
    assert created == []
