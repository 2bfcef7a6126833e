"""Differential resolvents: construction, verification, degree bounds."""

import random

import pytest

from pseudolin import relations
from pseudolin.bipoly import BiPoly, resultant_y
from pseudolin.instances.algebraic import (algebraic_bound_report,
                                           bound_algebraic, build_algebraic,
                                           empirical_curve_algebraic,
                                           resolvent, verify_resolvent)
from pseudolin.ore import OrePoly
from pseudolin.poly import Poly
from pseudolin.randgen import rand_algebraic_input
from pseudolin.ratfun import RatFun

from _oracle import ore_apply, realisation_map, verify_resolvent_frac
from test_hermite import _lc_with_square

x = Poly.x()
one = Poly.one()
P_SQRT = BiPoly([-x, Poly(), one])          # y^2 - x


def test_build_example():
    inst = build_algebraic(P_SQRT)
    T = inst.map.T
    assert T.entry(1, 1) == RatFun(1, 2 * x)
    assert T.entry(0, 0).is_zero()
    assert T.entry(0, 1).is_zero() and T.entry(1, 0).is_zero()
    res = resultant_y(P_SQRT, P_SQRT.deriv("y"))
    assert inst.realisation.delta in (res, -res)
    real = inst.realisation
    assert T == realisation_map(real.W, real.X, real.M, real.Y)


def test_build_rejects_bad_inputs(monkeypatch):
    with pytest.raises(ValueError, match="^P must be square-free"):
        build_algebraic(BiPoly([one, Poly([-2]), one]))  # (y-1)^2
    with pytest.raises(ValueError, match="^P must involve y"):
        build_algebraic(BiPoly([x]))
    with pytest.raises(ValueError, match="^P must be nonzero"):
        build_algebraic(BiPoly())

    # only a singular M means "not square-free"
    def broken(rows, m):
        raise ValueError("inexact zpoly division")
    monkeypatch.setattr(relations, "_bareiss", broken)
    with pytest.raises(ValueError, match="^inexact zpoly division"):
        build_algebraic(P_SQRT)


def test_resolvent_examples():
    inst = build_algebraic(P_SQRT)
    L = resolvent(inst)
    assert L == OrePoly([-1, RatFun(2 * x)])
    assert verify_resolvent(inst, L)
    # linear in y: rational root x^2
    inst2 = build_algebraic(BiPoly([-(x * x), one]))
    L2 = resolvent(inst2)
    assert L2 == OrePoly([-2, RatFun(x)])
    assert ore_apply(L2, RatFun(x * x)).is_zero()
    # shifted square root
    inst3 = build_algebraic(BiPoly([-(x + 1), Poly(), one]))
    L3 = resolvent(inst3)
    assert L3 == OrePoly([-1, RatFun(2 * (x + 1))])
    assert verify_resolvent(inst3, L3)


def test_resolvent_zero_root_degenerate():
    inst = build_algebraic(BiPoly([Poly(), x]))          # x*y
    assert resolvent(inst) == OrePoly([1])


def test_genericity_gates_strict_properness():
    rng = random.Random(70)
    for _ in range(8):
        P = rand_algebraic_input(rng, 2, 2, generic=True)
        inst = build_algebraic(P)
        assert inst.map.T.is_strictly_proper()
        assert inst.realisation.delta_degree \
            <= (2 * inst.dy - 1) * inst.dx


def test_bound_algebraic_values():
    assert bound_algebraic(1, 1, 2) == 3
    # r = dx = dy = d gives d(2d^2 - 3d/2 + 1/2)
    for d in (1, 2, 3):
        assert 2 * bound_algebraic(d, d, d) == d * (4 * d * d - 3 * d + 1)
    assert empirical_curve_algebraic(2) == 10
    with pytest.raises(ValueError):
        bound_algebraic(0, 1, 1)


def test_random_generic_resolvents():
    rng = random.Random(71)
    for _ in range(6):
        P = rand_algebraic_input(rng, 2, 2, generic=True)
        inst = build_algebraic(P)
        L = resolvent(inst)
        assert L.order <= inst.dy
        assert verify_resolvent(inst, L)
        rep = algebraic_bound_report(inst, L)
        assert rep.asserted and rep.holds()
        deg = max(c.num.degree for c in L.coeffs)
        assert deg <= bound_algebraic(L.order, inst.dx, inst.dy)


def _coefficient_mutants(L):
    """L with eta_0 + x, and L with each eta_k + 1 in turn."""
    out = [OrePoly([L.coeff(0) + RatFun(x)] + list(L.coeffs[1:]))]
    for k in range(L.order + 1):
        cs = list(L.coeffs)
        cs[k] = cs[k] + RatFun.one()
        out.append(OrePoly(cs))
    return out


def test_verify_resolvent_matches_fraction_recursion():
    """``verify_resolvent``, on its map in the basis z^j / lc_y(P), gives
    the same verdict on L and on every mutant as the reduced-fraction
    recursion on P."""
    rng = random.Random(72)
    cases = [BiPoly([Poly(), x]),                          # x*y
             BiPoly([Poly(), one]),                        # y
             BiPoly([Poly([-3]), Poly([2])]),              # 2*y - 3
             BiPoly([-x, -one, Poly(), Poly(), x])]        # x*y^4 - y - x
    for dx in (1, 2, 3):
        for dy in (1, 2, 3, 4):
            cases.append(rand_algebraic_input(rng, dx, dy))
    for dx, dy in ((1, 1), (1, 2), (2, 3), (1, 4)):
        cases.append(_lc_with_square(rng, dx, dy))
    rejected = 0
    for P in cases:
        inst = build_algebraic(P)
        L = resolvent(inst)
        assert verify_resolvent(inst, L) and verify_resolvent_frac(P, L)
        for m in _coefficient_mutants(L):
            ok = verify_resolvent(inst, m)
            assert ok == verify_resolvent_frac(P, m)
            rejected += not ok
    # only the mutants of x*y, y and 2*y - 3 (constant roots) pass
    assert rejected == 79
