"""Bivariate polynomials: derivatives, resultants, square-freeness, gcd."""

import random

import pytest

from pseudolin.bipoly import (BiPoly, _primitive, bipoly_coprime,
                              bipoly_ext_prs, bipoly_gcd, bipoly_pseudo_divmod,
                              format_bipoly, resultant_y, squarefree_y)
from pseudolin.poly import Poly
from pseudolin.ratfun import RatFun
from _oracle import bipoly_primitive_ref, content_x_ref, ratfun_y_ext_gcd
from test_poly import rand_poly

x = Poly.x()
one = Poly.one()


def rand_bipoly(rng, dx=3, dy=3):
    cols = [rand_poly(rng, rng.randint(-1, dx)) for _ in range(dy + 1)]
    return BiPoly(cols)


def rand_pair(rng, trial, dx=2, dy=2):
    """A random pair; every third one shares a random factor."""
    a, b = rand_bipoly(rng, dx, dy), rand_bipoly(rng, dx, dy)
    if trial % 3 == 0:
        c = rand_bipoly(rng, 1, 1)
        a, b = a * c, b * c
    return a, b


def ratfun_lists(p: BiPoly, scale=RatFun.one()):
    """p * scale as the oracle's list of RatFun y-coefficients."""
    return [RatFun(c) * scale for c in p.ycoeffs]


def test_derivative_examples():
    p = BiPoly([x, Poly(), one])             # y^2 + x
    assert p.deriv("y") == BiPoly([Poly(), Poly([2])])
    assert p.deriv("x") == BiPoly([one])
    m = BiPoly([Poly(), Poly(), Poly(), x * x])   # x^2 y^3
    assert m.deriv("x") == BiPoly([Poly(), Poly(), Poly(),
                                                Poly([0, 2])])


def test_derivative_linearity_and_leibniz():
    rng = random.Random(20)
    for _ in range(60):
        a, b = rand_bipoly(rng, 2, 2), rand_bipoly(rng, 2, 2)
        for var in ("x", "y"):
            assert (a + b).deriv(var) == a.deriv(var) + b.deriv(var)
            assert (a * b).deriv(var) == \
                a.deriv(var) * b + a * b.deriv(var)


def test_resultant_examples():
    q = BiPoly([x, Poly(), one])              # y^2 + x
    assert resultant_y(q, BiPoly([Poly(), Poly([2])])) == Poly([0, 4])
    assert resultant_y(BiPoly([-one, one]), BiPoly([one, one])) == Poly([2])
    q2 = BiPoly([-x, Poly(), one])            # y^2 - x
    assert resultant_y(q2, BiPoly([Poly(), Poly([2])])) == Poly([0, -4])


def test_resultant_rejects_zero():
    with pytest.raises(ValueError):
        resultant_y(BiPoly(), BiPoly.one())


def test_resultant_detects_common_factor():
    rng = random.Random(21)
    for _ in range(40):
        a = rand_bipoly(rng, 2, 2)
        b = rand_bipoly(rng, 2, 2)
        if a.is_zero() or b.is_zero() or a.degree_y < 1 or b.degree_y < 1:
            continue
        g, _, _ = ratfun_y_ext_gcd(ratfun_lists(a), ratfun_lists(b))
        res = resultant_y(a, b)
        assert res.is_zero() == (len(g) > 1)
        # and force a shared factor
        c = rand_bipoly(rng, 1, 1)
        if c.degree_y == 1:
            assert resultant_y(a * c, b * c).is_zero()


def test_squarefree_examples():
    assert squarefree_y(BiPoly([x, Poly(), one]))       # y^2 + x
    sq = BiPoly([one, Poly([-2]), one])                 # (y-1)^2
    assert not squarefree_y(sq)
    assert squarefree_y(BiPoly([-(x * x), Poly(), one]))  # y^2 - x^2
    rng = random.Random(25)
    verdicts = set()
    for trial in range(40):
        q = rand_bipoly(rng, 2, 2)
        if trial % 2:
            c = rand_bipoly(rng, 1, 1)
            q = q * c * c
        if q.is_zero():
            continue
        g, _, _ = ratfun_y_ext_gcd(ratfun_lists(q), ratfun_lists(q.deriv("y")))
        assert squarefree_y(q) == (len(g) <= 1)
        verdicts.add(squarefree_y(q))
    assert verdicts == {True, False}


def test_bipoly_ext_prs():
    """s*a + t*b = r, and scaled by 1/lc_y(r) the triple is the Q(x)[y]
    extended Euclid of the oracle: the monic gcd and its cofactors."""
    rng = random.Random(22)
    degrees = set()
    for trial in range(40):
        a, b = rand_pair(rng, trial)
        if a.is_zero() or b.is_zero():
            continue
        r, s, t = bipoly_ext_prs(a, b)
        assert s * a + t * b == r
        inv = RatFun.one() / RatFun(r.lc_y)
        expected = ratfun_y_ext_gcd(ratfun_lists(a), ratfun_lists(b))
        assert (ratfun_lists(r, inv), ratfun_lists(s, inv),
                ratfun_lists(t, inv)) == expected
        degrees.add(min(r.degree_y, 1))
    assert degrees == {0, 1}
    r, s, t = bipoly_ext_prs(BiPoly([x, one]), BiPoly())
    assert (r, s, t) == (BiPoly([x, one]), BiPoly.one(), BiPoly.zero())


def test_pseudo_divmod():
    rng = random.Random(23)
    for _ in range(40):
        a, b = rand_bipoly(rng, 2, 3), rand_bipoly(rng, 2, 2)
        if b.is_zero() or b.degree_y < 1:
            continue
        Q, R, k = bipoly_pseudo_divmod(a, b)
        lc = b.lc_y
        lhs = a
        for _ in range(k):
            lhs = lhs * lc
        assert lhs == Q * b + R
        assert R.is_zero() or R.degree_y < b.degree_y


def test_bipoly_gcd_and_coprime():
    p = BiPoly([one])
    q = BiPoly([x, Poly(), one])
    assert bipoly_coprime(p, q)
    g = BiPoly([x, one])                      # y + x
    a = q * g
    b = BiPoly([one, one]) * g                # (y+1)(y+x)
    got = bipoly_gcd(a, b)
    assert got == g
    assert not bipoly_coprime(a, b)


def test_x_slice_and_format():
    q = BiPoly([Poly([0, -1]), one, Poly([0, 1])])   # x y^2 + y - x
    assert q.x_slice(1) == Poly([-1, 0, 1])          # y^2 - 1
    assert q.x_slice(0) == Poly([0, 1])              # y
    assert format_bipoly(BiPoly([x, Poly(), one])) == "y^2 + x"


def test_matches_sympy():
    """resultant_y, bipoly_gcd and the cofactors of bipoly_ext_prs against
    sympy's resultant, gcd and gcdex, up to normalisation."""
    sympy = pytest.importorskip("sympy")
    X, Y = sympy.symbols("x y")
    field = sympy.QQ.frac_field(X)

    def expr(p):
        if isinstance(p, Poly):
            p = BiPoly([p])
        return sum(sympy.Rational(f.numerator, f.denominator) * X**i * Y**j
                   for j, c in enumerate(p.ycoeffs)
                   for i, f in enumerate(c.coeffs))

    rng = random.Random(26)
    shared = 0
    for trial in range(30):
        a, b = rand_pair(rng, trial, 2, 3)
        if a.is_zero() or b.is_zero():
            continue
        A, B = expr(a), expr(b)
        res = resultant_y(a, b)
        assert sympy.expand(expr(res) - sympy.resultant(A, B, Y)) == 0
        ratio = sympy.cancel(expr(bipoly_gcd(a, b)) / sympy.gcd(A, B))
        assert ratio.is_Rational and ratio != 0
        r, s, t = bipoly_ext_prs(a, b)
        ss, ts, h = sympy.gcdex(sympy.Poly(A, Y, domain=field),
                                sympy.Poly(B, Y, domain=field))
        lc = expr(r.lc_y)
        assert sympy.cancel(expr(r) / lc - h.as_expr()) == 0
        assert sympy.cancel(expr(s) / lc - ss.as_expr()) == 0
        assert sympy.cancel(expr(t) / lc - ts.as_expr()) == 0
        shared += res.is_zero()
    assert shared >= 5


def test_contents_match_the_gcd_chains():
    """content_x and the joint primitive part of the PRS step, taken by
    one content strip of the cleared coefficients, equal the chains of
    poly_gcd and exact_div they replace, signs included."""
    rng = random.Random(171)
    planted = 0
    for trial in range(120):
        ps = [rand_bipoly(rng, 2, rng.randint(0, 3))
              for _ in range(rng.randint(1, 3))]
        if trial % 2:
            c = rand_poly(rng, rng.randint(1, 2)) * rng.choice((-3, 1, 2))
            ps = [p * c for p in ps]
        if trial % 5 == 0:
            ps.append(BiPoly.zero())
        for p in ps:
            assert p.content_x() == content_x_ref(p)
        if any(not p.is_zero() for p in ps):
            assert _primitive(*ps) == bipoly_primitive_ref(*ps)
            planted += content_x_ref(ps[0]).degree > 0
    assert planted >= 30
