"""LCLM and symmetric products: construction, closed forms, bounds."""

import random
from fractions import Fraction

import pytest

from pseudolin.instances.closures import (_companion_sum, bound_lclm,
                                          bound_symprod, build_lclm,
                                          build_symprod,
                                          closure_bound_report, lclm,
                                          operator_degree, symprod,
                                          symprod_conjecture_curve,
                                          verify_lclm, verify_symprod)
from pseudolin.linalg import RatMatrix, det_fraction_free
from pseudolin.ore import (OrePoly, infinity_not_irregular,
                           normalize_primitive, to_euler)
from pseudolin.poly import Poly
from pseudolin.randgen import rand_operator
from pseudolin.ratfun import RatFun, zclear_ratfuns
from pseudolin.relations import PseudoLinearMap
from test_ratfun import rand_ratfun

from _oracle import right_divide

x = Poly.x()
XD1 = OrePoly([-1, RatFun(x)])                       # x Dx - 1
XD2 = OrePoly([-2, RatFun(x)])                       # x Dx - 2
D1 = OrePoly([-1, 1])                                # Dx - 1
CAUCHY = OrePoly([2, RatFun(-2 * x), RatFun(x * x)])


def _euler_companion(E):
    """The companion matrix of an Euler form, built with RatFun entries:
    subdiagonal ones and last column -c_i/lead."""
    r = E.order
    lead = E.coeffs[-1]
    entries = [RatFun.zero()] * (r * r)
    for j in range(r - 1):
        entries[(j + 1) * r + j] = RatFun.one()
    for i in range(r):
        entries[i * r + (r - 1)] = -(E.coeffs[i] / lead)
    return RatMatrix(r, r, entries)


def _assert_reference_T(inst):
    """T against a construction independent of the realisation.  For the
    LCLM, T = 1/x diag(C_i): each diagonal block is 1/x times the RatFun
    companion matrix of an Euler form, every other block is zero.  For the
    symmetric product, T = 1/x sum_i I @ C_i @ I, built by the verifier's
    ``_companion_sum`` on the Euler forms with its denominator times x."""
    T = inst.map.T
    eulers = [to_euler(L) for L in inst.operators]
    if inst.kind == "symprod":
        D, N = _companion_sum([zclear_ratfuns(E.coeffs)[1] for E in eulers])
        assert T == PseudoLinearMap.from_cleared([0] + D, N).T
        return
    o = 0
    for E in eulers:
        C, r = _euler_companion(E), E.order
        for i in range(T.rows):
            for j in range(o, o + r):
                want = (C.entry(i - o, j - o) / RatFun(x) if o <= i < o + r
                        else RatFun.zero())
                assert T.entry(i, j) == want
        o += r


def test_build_lclm_example():
    inst = build_lclm([XD1, XD2])
    T = inst.map.T
    assert T.entry(0, 0) == RatFun(1, x)
    assert T.entry(1, 1) == RatFun(2, x)
    assert T.entry(0, 1).is_zero() and T.entry(1, 0).is_zero()
    assert list(inst.a) == [Poly.one(), Poly.one()]
    assert inst.realisation.delta in (x * x, -(x * x))
    _assert_reference_T(inst)
    assert T.is_strictly_proper()


def test_closure_maps_match_companion_reference():
    """The map a build takes from its realisation is the T of the
    companion-matrix construction."""
    rng = random.Random(84)
    for _ in range(8):
        for build in (build_lclm, build_symprod):
            ops = [rand_operator(rng, rng.randint(1, 2), rng.randint(1, 2),
                                 regular_infinity=rng.random() < 0.5)
                   for _ in range(rng.choice((2, 2, 3)))]
            _assert_reference_T(build(ops))


def test_companion_sum_layout():
    """N/D = C_1 @ I + I @ C_2 on the basis (0, 0), (0, 1), (1, 0),
    (1, 1) for Dx^2 + 2 Dx + 3 and x Dx^2 + 1: D = 1 * x, slot 1 (stride
    2) holds x [[0, -3], [1, -2]] and slot 2 (stride 1) [[0, -1], [x, 0]]."""
    D, N = _companion_sum([[[3], [2], [1]], [[1], [], [0, 1]]])
    assert D == [0, 1]
    assert N == [[[], [-1], [0, -3], []],
                 [[0, 1], [], [], [0, -3]],
                 [[0, 1], [], [0, -2], [-1]],
                 [[], [0, 1], [0, 1], [0, -2]]]


def test_degree_reads_match_the_primitive_form():
    """operator_degree and infinity_not_irregular read degrees off L as it
    is; they agree with the same reads on the primitive form, for
    operators with rational coefficients and left factors in Q(x)."""
    rng = random.Random(71)
    verdicts = set()
    for _ in range(60):
        L = rand_operator(rng, rng.randint(1, 3), rng.randint(0, 3),
                          regular_infinity=rng.random() < 0.5)
        c = rand_ratfun(rng)
        if not c.is_zero():
            L = OrePoly([c * a for a in L.coeffs])
        prim = [a.num.degree for a in normalize_primitive(L).coeffs]
        r = len(prim) - 1
        regular = all(d + (r - j) <= prim[r] for j, d in enumerate(prim))
        assert infinity_not_irregular(L) == regular
        assert operator_degree(L) == max(prim)
        verdicts.add(regular)
    assert verdicts == {True, False}


def test_build_lclm_irregular_still_builds():
    inst = build_lclm([D1, XD2])
    assert not infinity_not_irregular(D1)
    assert not inst.map.T.is_strictly_proper()  # Euler form of Dx-1: E - x
    L = lclm(inst)
    assert verify_lclm(inst, L)


def test_build_rejects_order_zero():
    with pytest.raises(ValueError):
        build_lclm([OrePoly([1])])
    with pytest.raises(ValueError):
        build_lclm([XD1, OrePoly.zero()])
    with pytest.raises(ValueError):
        build_symprod([OrePoly([RatFun(x)])])


def test_lclm_closed_forms():
    assert lclm(build_lclm([XD1, XD2])) == CAUCHY
    assert lclm(build_lclm([D1, OrePoly([1, 1])])) == OrePoly([-1, 0, 1])
    assert lclm(build_lclm([CAUCHY, CAUCHY])) == CAUCHY


def test_lclm_verifies_by_right_division():
    rng = random.Random(80)
    for _ in range(6):
        count = rng.choice((2, 3))
        ops = [rand_operator(rng, rng.randint(1, 2), 2) for _ in range(count)]
        inst = build_lclm(ops)
        L = lclm(inst)
        assert verify_lclm(inst, L)
        assert L.order <= sum(op.order for op in ops)
        for op in ops:
            assert right_divide(L, op)[1].is_zero()


def test_bound_lclm_values():
    assert bound_lclm(2, [1, 1], 1) == 7
    assert bound_lclm(3, [1, 1, 1], 1) == 18
    with pytest.raises(ValueError):
        bound_lclm(3, [1, 1], 1)


def test_lclm_delta_degree_bound():
    rng = random.Random(81)
    for _ in range(6):
        s = rng.choice((2, 3))
        ops = [rand_operator(rng, rng.randint(1, 3), 3,
                             regular_infinity=True) for _ in range(s)]
        inst = build_lclm(ops)
        R = sum(op.order for op in ops)
        d = max(operator_degree(op) for op in ops)
        assert inst.realisation.delta_degree <= s * d + R
        assert inst.map.T.is_strictly_proper()


def test_build_symprod_example():
    inst = build_symprod([XD1, XD2])
    assert inst.map.T.entry(0, 0) == RatFun(3, x)
    assert list(inst.a) == [Poly.one()]
    assert inst.realisation.delta in (x * x, -(x * x))
    _assert_reference_T(inst)
    # det M_i = -x^(r_i) q_(i, r_i) blockwise
    M = inst.realisation.M
    blk1 = det_fraction_free(
        type(M)(1, 1, [M.entry(0, 0)]))
    assert blk1 == -x


def test_symprod_closed_forms():
    S = symprod(build_symprod([XD1, XD2]))
    assert S == OrePoly([-3, RatFun(x)])
    assert verify_symprod(build_symprod([XD1, XD2]), S)
    S2 = symprod(build_symprod([D1, D1]))
    assert S2 == OrePoly([-2, 1])
    assert verify_symprod(build_symprod([D1, D1]), S2)
    S3 = symprod(build_symprod([XD1, CAUCHY]))
    assert S3 == OrePoly([6, RatFun(-4 * x), RatFun(x * x)])
    assert verify_symprod(build_symprod([XD1, CAUCHY]), S3)


def test_symprod_strict_properness_iff_regular():
    inst = build_symprod([XD1, XD2])
    assert inst.map.T.is_strictly_proper()
    inst2 = build_symprod([D1, XD1])
    assert not inst2.map.T.is_strictly_proper()


def test_symprod_delta_degree():
    inst = build_symprod([XD1, XD2])
    # formula cap 2 r1 r2 + d1 r2 + d2 r1 = 4; actual is 2
    assert inst.realisation.delta_degree == 2
    assert inst.realisation.delta_degree <= 4


def test_symprod_random_pairs():
    rng = random.Random(82)
    for _ in range(5):
        ops = [rand_operator(rng, rng.randint(1, 2), 2,
                             regular_infinity=True) for _ in range(2)]
        inst = build_symprod(ops)
        S = symprod(inst)
        assert S.order <= ops[0].order * ops[1].order
        assert verify_symprod(inst, S)
        rep = closure_bound_report(inst, S)
        assert rep.asserted and rep.holds()
        deg = max(c.num.degree for c in S.coeffs)
        orders = [op.order for op in ops]
        degs = [operator_degree(op) for op in ops]
        assert deg <= bound_symprod(S.order, orders, degs)


def test_symprod_triple():
    XD3 = OrePoly([-3, RatFun(x)])
    inst = build_symprod([XD1, XD2, XD3])
    S = symprod(inst)
    assert S == OrePoly([-6, RatFun(x)])   # annihilates x^6
    assert verify_symprod(inst, S)
    # s-ary Kronecker degree cap
    orders = [1, 1, 1]
    degs = [0, 0, 0]
    cap = sum((orders[i] + degs[i]) for i in range(3))
    assert inst.realisation.delta_degree <= cap


def test_bound_symprod_values():
    assert bound_symprod(1, [1, 1], [1, 1]) == 4
    assert bound_symprod(2, [1, 2], [1, 2]) == 15
    assert bound_symprod(2, [1, 1, 2], [1, 1, 1]) == 6 * (2 + 1 * 2**2)
    assert symprod_conjecture_curve([2, 2], [2, 2]) == 2 * 8
    with pytest.raises(ValueError):
        bound_symprod(3, [1, 2], [1, 1])


def test_bound_asymptotic_envelopes():
    # LCLM leading behavior d s^2 r: the s-ary bound R(sd + R) stays within
    # 2 d s^2 r for s operators of order r <= d
    for s in (3, 4, 5):
        for d in (2, 3, 5):
            for r in range(1, d + 1):
                R = s * r
                assert bound_lclm(R, [r] * s, d) <= 2 * d * s * s * r
    # symmetric product: s R (R + d r^(s-1)) is O(d r^(2s-1)) for r <= d
    for s in (3, 4):
        for d in (2, 3):
            for r in range(1, d + 1):
                R = r**s
                assert bound_symprod(R, [r] * s, [d] * s) \
                    <= 2 * s * d * r**(2 * s - 1)


def test_closures_match_sympy_holonomic():
    """lclm and symprod against sympy.holonomic's annihilators of f + g
    and f * g on seeded operator pairs of order <= 2.  Any annihilator A
    of all f + g (or all f * g) is a left multiple of the minimal one, so
    our L right-divides A and order(A) >= order(L); at equal orders A and
    L agree up to a factor in Q(x).  ``verify_symprod`` accepts A."""
    sympy = pytest.importorskip("sympy")
    from sympy.holonomic import DifferentialOperators, HolonomicFunction

    from pseudolin.ore import GEN_DX, full_primitive, is_right_multiple
    X = sympy.symbols("x")
    ring, DX = DifferentialOperators(sympy.QQ.old_poly_ring(X), "Dx")

    def to_sympy(L):
        prim = full_primitive(L)
        return sum((sum(sympy.Rational(f.numerator, f.denominator) * X**i
                        for i, f in enumerate(c.num.coeffs)) * DX**j
                    for j, c in enumerate(prim.coeffs)), 0 * DX)

    def from_sympy(A):
        coeffs = []
        for p in A.listofpoly:
            cs = sympy.Poly(ring.base.to_sympy(p), X).all_coeffs()[::-1]
            coeffs.append(RatFun(Poly([Fraction(int(c.p), int(c.q))
                                       for c in cs])))
        return OrePoly(coeffs, GEN_DX)

    rng = random.Random(61)
    equal_orders = 0
    for _ in range(10):
        ops = [rand_operator(rng, rng.randint(1, 2), rng.randint(1, 2),
                             regular_infinity=True) for _ in range(2)]
        f, g = (HolonomicFunction(to_sympy(L), X) for L in ops)
        sym_inst = build_symprod(ops)
        A_prod = from_sympy((f * g).annihilator)
        assert verify_symprod(sym_inst, A_prod)
        for A, L in ((from_sympy((f + g).annihilator),
                      lclm(build_lclm(ops))),
                     (A_prod, symprod(sym_inst))):
            assert A.order >= L.order
            assert is_right_multiple(A, L)
            if A.order == L.order:
                assert full_primitive(A) == full_primitive(L)
                equal_orders += 1
    assert equal_orders >= 15
