"""Hermite reduction, the telescoping instance and its degree bounds."""

import random
from fractions import Fraction

import pytest

from pseudolin import relations
from pseudolin.bipoly import BiPoly, resultant_y, squarefree_y
from pseudolin.exprparse import parse
from pseudolin.instances.hermite import (_bezout_cleared,
                                         _telescoping_map,
                                         _x_derivative_numerators,
                                         bound_hermite,
                                         build_hermite,
                                         certificate_fraction,
                                         certificate_matches,
                                         genericity_check,
                                         hermite_bound_report, hermite_reduce,
                                         telescoper, verify_telescoper)
from pseudolin.ore import OrePoly
from pseudolin.poly import Poly, poly_gcd
from pseudolin.randgen import (rand_bipoly, rand_hermite_input,
                               rand_nonzero_poly)
from pseudolin.ratfun import RatFun

import sys
sys.path.insert(0, "tests")
from _oracle import (certificate_fraction_ref, hermite_reduce_pseudo,
                     oracle_min_relation, ratfun_y_ext_gcd, realisation_map)

x = Poly.x()
one = Poly.one()
Q_SHIFTED = BiPoly([x, Poly(), one])            # y^2 + x
P_ONE = BiPoly([one])


def fraction(num: BiPoly, den: Poly):
    """num/den as a list of RatFun y-coefficients."""
    return [RatFun(c, den) for c in num.ycoeffs]


def test_hermite_reduce_power_one_is_identity():
    rb, rd, cert = hermite_reduce(BiPoly([x, Poly([2])]), Poly.one(), 1,
                                  Q_SHIFTED, want_certificate=True)
    assert fraction(rb, rd) == [RatFun(x), RatFun(2)]
    assert cert == []


def test_hermite_reduce_example():
    rb, rd, cert = hermite_reduce(BiPoly.one(), Poly.one(), 2, Q_SHIFTED,
                                  want_certificate=True)
    assert fraction(rb, rd) == [RatFun(1, 2 * x)]
    H, D, J = certificate_fraction(cert, Q_SHIFTED)
    # h = y / (2x q)
    assert J == 1
    assert [(RatFun(c, D)) for c in H.ycoeffs] == [RatFun(0), RatFun(1, 2 * x)]


def test_hermite_reduce_kills_derivatives():
    rb, _, _ = hermite_reduce(BiPoly([Poly(), Poly([-2])]), Poly.one(), 2,
                              Q_SHIFTED)
    assert rb.is_zero()
    rng = random.Random(60)
    for _ in range(10):
        p, q = rand_hermite_input(rng, 2, 2)
        g = rand_bipoly(rng, 1, 1, exact=False)
        den = rand_bipoly(rng, 1, 0).lc_y
        # d/dy(g/(den q)) = (g' q - g q_y)/(den q^2) must reduce to zero
        num = g.deriv("y") * q - g * q.deriv("y")
        rb, _, _ = hermite_reduce(num, den, 2, q)
        assert rb.is_zero()


def test_hermite_reduce_rejects_non_squarefree():
    sq = BiPoly([one, Poly([-2]), one])   # (y - 1)^2
    with pytest.raises(ValueError):
        hermite_reduce(BiPoly.one(), Poly.one(), 2, sq)
    with pytest.raises(ValueError):
        hermite_reduce(BiPoly.one(), Poly.one(), 0, Q_SHIFTED)


def same_certificate(c1, c2, q):
    """The two certificates are the same rational function h."""
    H1, D1, J1 = certificate_fraction(c1, q)
    H2, D2, J2 = certificate_fraction(c2, q)
    lhs, rhs = H1 * D2, H2 * D1
    for _ in range(J2 - J1):
        lhs = lhs * q
    for _ in range(J1 - J2):
        rhs = rhs * q
    return lhs == rhs


def assert_matches_pseudo(num, den, power, q):
    rb, rd, cert = hermite_reduce(num, den, power, q, want_certificate=True)
    ob, od, ocert = hermite_reduce_pseudo(num, den, power, q, True)
    assert rb.degree_y < q.degree_y
    assert fraction(rb, rd) == fraction(ob, od)
    assert same_certificate(cert, ocert, q)


def _lc_with_square(rng, dx, dy):
    """A square-free q whose lc_y is x^2 (x + c), a repeated x-factor."""
    while True:
        q = rand_bipoly(rng, dx, dy - 1, exact=False)
        lead = Poly([0, 0, rng.choice((1, -2)), 1])
        q = BiPoly(list(q.ycoeffs) + [Poly()] * (dy - len(q.ycoeffs))
                   + [lead])
        if squarefree_y(q):
            return q


def test_hermite_reduce_matches_pseudo_division_loop():
    """The q-adic reduction gives the same remainder, as a Q(x)-fraction,
    and the same h as the classical loop that pseudo-divides by q."""
    for num, den, power in ((BiPoly([x, Poly([2])]), one, 1),
                            (BiPoly.one(), one, 2),
                            (BiPoly([Poly(), Poly([-2])]), one, 2)):
        assert_matches_pseudo(num, den, power, Q_SHIFTED)
    rng = random.Random(66)
    shapes = [(dx, dy, power) for dx in (1, 2) for dy in (1, 2, 3)
              for power in (1, 2, 3)]
    for dx, dy, power in shapes:
        for kind in range(2):
            if kind:
                q = _lc_with_square(rng, dx, dy)
            else:
                _, q = rand_hermite_input(rng, dx, dy)
            # deg_y num up to power*dy + 1 leaves a polynomial part
            deg = rng.randint(0, power * dy + 1)
            num = rand_bipoly(rng, dx, deg, exact=False)
            den = rand_nonzero_poly(rng, rng.randint(0, 1))
            assert_matches_pseudo(num, den, power, q)
            assert_matches_pseudo(BiPoly.zero(), den, power, q)
    # a polynomial part next to the fractional levels
    num = rand_bipoly(rng, 1, 3 * 2 + 2)
    assert_matches_pseudo(num, one, 3, _lc_with_square(rng, 1, 2))


def test_bezout_cleared_is_minimal():
    """sigma/w and tau/w are the oracle's Bezout cofactors of (q, q_y),
    cleared by their least common denominator: w is monic and shares no
    factor with both contents."""
    rng = random.Random(65)
    for _ in range(12):
        _, q = rand_hermite_input(rng, rng.randint(1, 3), rng.randint(1, 3))
        sigma, tau, w = _bezout_cleared(q)
        qy = q.deriv("y")
        assert sigma * q + tau * qy == BiPoly([w])
        assert w.lc == 1
        assert poly_gcd(w, poly_gcd(sigma.content_x(),
                                    tau.content_x())) == Poly.one()
        g, s, t = ratfun_y_ext_gcd([RatFun(c) for c in q.ycoeffs],
                                   [RatFun(c) for c in qy.ycoeffs])
        assert g == [RatFun.one()]
        assert (fraction(sigma, w), fraction(tau, w)) == (s, t)


def test_build_example_matrix():
    inst = build_hermite(P_ONE, Q_SHIFTED)
    T = inst.map.T
    assert T.entry(0, 0) == RatFun(Poly([Fraction(-1, 2)]), x)
    assert T.entry(1, 0).is_zero()
    assert T.entry(0, 1).is_zero() and T.entry(1, 1).is_zero()
    # determinant shape: Delta = +- lc(q) res_y(q, q_y)
    target = Q_SHIFTED.lc_y * resultant_y(Q_SHIFTED, Q_SHIFTED.deriv("y"))
    assert inst.realisation.delta in (target, -target)
    real = inst.realisation
    assert T == realisation_map(real.W, real.X, real.M, real.Y)


def test_build_validates_inputs(monkeypatch):
    with pytest.raises(ValueError, match="^deg_y p must be smaller"):
        build_hermite(BiPoly([one, one, one]), Q_SHIFTED)
    # a singular M is the square-free refusal, also for p = y - 1, which
    # is not coprime to q = (y - 1)^2 either
    sq = BiPoly([one, Poly([-2]), one])
    for p in (P_ONE, BiPoly([-one, one])):
        with pytest.raises(ValueError, match="^q must be square-free"):
            build_hermite(p, sq)
    with pytest.raises(ValueError, match="^q must be square-free"):
        build_hermite(BiPoly([Poly(), one]), BiPoly([Poly(), Poly(), one]))
    with pytest.raises(ValueError, match="^p and q must be coprime"):
        build_hermite(BiPoly([x, one]), BiPoly([Poly(), x, one]))

    # any other error of the elimination passes through
    def broken(rows, m):
        raise ValueError("inexact zpoly division")
    monkeypatch.setattr(relations, "_bareiss", broken)
    with pytest.raises(ValueError, match="^inexact zpoly division"):
        build_hermite(P_ONE, Q_SHIFTED)


def test_verifier_map_is_the_instance_map():
    """The verifier's T, from q~ and one checked Bezout identity, equals
    the realisation's map exactly: dy = 1, generic and non-generic q, a
    q free of x and lc_y(q) with a repeated factor."""
    rng = random.Random(68)
    qs = [Q_SHIFTED, BiPoly([Poly([-2]), Poly(), one])]     # y^2 - 2
    for dx, dy in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3)):
        for generic in (True, False):
            qs.append(rand_hermite_input(rng, dx, dy, generic)[1])
    qs += [_lc_with_square(rng, dx, dy)
           for dx, dy in ((1, 1), (1, 2), (2, 2), (1, 3))]
    assert sum(genericity_check(q) for q in qs) < len(qs) - 4
    for q in qs:
        assert _telescoping_map(q) == build_hermite(P_ONE, q).map.T


def test_telescoper_examples():
    inst = build_hermite(P_ONE, Q_SHIFTED)
    L, cert = telescoper(inst, want_certificate=True)
    assert L == OrePoly([1, RatFun(2 * x)])
    assert verify_telescoper(inst, L)
    assert certificate_matches(inst, L, cert)
    # f = 1/(y - x): d/dx f is already a y-derivative, so L = Dx
    inst2 = build_hermite(P_ONE, BiPoly([-x, one]))
    L2, _ = telescoper(inst2)
    assert L2 == OrePoly([0, 1])
    assert verify_telescoper(inst2, L2)


def test_telescoper_generic_instance_against_oracle():
    # y / q for a generic q: order <= dy, degree within the generic bound
    q = BiPoly([Poly([0, -1]), one, Poly([0, 1])])   # x y^2 + y - x
    assert genericity_check(q)
    p = BiPoly([Poly(), one])                        # y
    inst = build_hermite(p, q)
    assert inst.map.T.is_strictly_proper()
    L, _ = telescoper(inst)
    assert 1 <= L.order <= 2
    ref = oracle_min_relation(inst.map, list(inst.a))
    assert tuple(c.num for c in L.coeffs) == ref.eta
    assert verify_telescoper(inst, L)
    rep = hermite_bound_report(inst, L)
    assert rep.asserted and rep.holds()
    deg = max(c.num.degree for c in L.coeffs)
    assert deg <= bound_hermite(L.order, inst.dx, inst.dy)


def test_genericity_examples():
    assert genericity_check(BiPoly([Poly([0, -1]), one, Poly([0, 1])]))
    assert not genericity_check(Q_SHIFTED)
    # x(y-1)^2 + 1: top x-coefficient (y-1)^2 is not square-free
    qng = BiPoly([Poly([1, 1]), Poly([0, -2]), Poly([0, 1])])
    assert not genericity_check(qng)


def test_generic_implies_strictly_proper():
    rng = random.Random(61)
    for _ in range(10):
        p, q = rand_hermite_input(rng, 2, 2, generic=True)
        inst = build_hermite(p, q)
        assert inst.map.T.is_strictly_proper()


def test_bound_hermite_values():
    assert bound_hermite(1, 1, 2) == 5
    assert bound_hermite(2, 1, 2) == 9
    # envelope: bound(d, d, d)/d^3 decreases toward 2
    ratios = [bound_hermite(d, d, d) / d**3 for d in (1, 2, 3)]
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[-1] < 2.25
    with pytest.raises(ValueError):
        bound_hermite(0, 1, 1)


def test_delta_resultant_identity_randomized():
    rng = random.Random(62)
    for _ in range(10):
        p, q = rand_hermite_input(rng, 2, 2)
        inst = build_hermite(p, q)
        target = q.lc_y * resultant_y(q, q.deriv("y"))
        assert inst.realisation.delta in (target, -target)


def test_genericity_iff_maximal_resultant_degree():
    rng = random.Random(63)
    seen_generic = seen_not = 0
    for _ in range(30):
        dx, dy = rng.randint(1, 2), rng.randint(1, 3)
        q = rand_bipoly(rng, dx, dy)
        if not squarefree_y(q) or q.degree_y < 1:
            continue
        res = resultant_y(q, q.deriv("y"))
        maximal = res.degree == (2 * q.degree_y - 1) * q.degree_x
        if genericity_check(q):
            seen_generic += 1
            assert maximal
        else:
            seen_not += 1
            assert not maximal
    assert seen_generic and seen_not


def test_delta_bound_and_report():
    rng = random.Random(64)
    for _ in range(8):
        p, q = rand_hermite_input(rng, 2, 2, generic=True)
        inst = build_hermite(p, q)
        assert inst.realisation.delta_degree <= 2 * inst.dx * inst.dy
        L, cert = telescoper(inst, want_certificate=True)
        assert verify_telescoper(inst, L)
        assert certificate_matches(inst, L, cert)
        rep = hermite_bound_report(inst, L)
        assert rep.holds()


def test_certificate_dy3_is_the_per_coefficient_h():
    """One reduction of L(f) gives the same h as reducing each
    eta_i d^i f/dx^i on its own with the pseudo-division loop, and the
    certificate checks exactly, on dy = 3."""
    rng = random.Random(67)
    for dx, dy in ((1, 3), (2, 3), (3, 3)):
        p, q = rand_hermite_input(rng, dx, dy, generic=True)
        inst = build_hermite(p, q)
        L, cert = telescoper(inst, want_certificate=True)
        assert certificate_matches(inst, L, cert)
        ref = []
        for i, (num, power) in enumerate(
                _x_derivative_numerators(inst, L.order)):
            if not L.coeff(i).is_zero():
                ref += hermite_reduce_pseudo(num * L.coeff(i).num, one,
                                             power, q, True)[2]
        assert same_certificate(cert, ref, q)


@pytest.mark.parametrize("f", ["1/(y^2+x)", "y/(x*y^2+y-x)",
                               "1/(x*y^3+y+x^2)",
                               "(y^2+x)/((x+1)^2*y^3+x*y-1)"])
def test_certificate_fraction_in_lowest_terms(f):
    """The collapsed certificate H/(D q^J) shares no x-factor between H
    and D, and still checks exactly."""
    inst = build_hermite(*parse(f, "ratfun2"))
    L, cert = telescoper(inst, want_certificate=True)
    H, D, _ = certificate_fraction(cert, inst.q)
    assert poly_gcd(H.content_x(), D) == one
    assert D.lc == 1
    assert certificate_matches(inst, L, cert)


def test_certificate_fraction_matches_the_gcd_chain():
    """certificate_fraction strips gcd(content_x(H), D) by one content
    strip of H's cleared y-coefficients and D; the fraction is the one
    the poly_gcd and exact_div chain gave, term for term."""
    rng = random.Random(173)
    reduced = 0
    for dx, dy in [(1, 1), (1, 2), (2, 2), (2, 1), (1, 3), (3, 1)] * 2:
        inst = build_hermite(*rand_hermite_input(rng, dx, dy, generic=True))
        _, cert = telescoper(inst, want_certificate=True)
        got = certificate_fraction(cert, inst.q)
        assert got == certificate_fraction_ref(cert, inst.q)
        reduced += got[1] != certificate_fraction_ref(cert[:0], inst.q)[1]
    assert reduced >= 4
