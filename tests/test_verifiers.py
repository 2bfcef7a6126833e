"""Mutation and differential tests for the independent verifiers.

Every verifier must accept the solver's output and reject three mutants
of it: eta_0 + x, the middle coefficient eta_(rho//2) + 1, and the
operator with its top coefficient dropped (order reduced).  By minimality
none of the mutants is a valid relation: eta_0 + x adds x*a != 0, the
middle coefficient adds theta^k(a) with k < rho, and a shorter relation
would contradict the minimal order.

Every verifier must also reject a fourth mutant, one lower coefficient
scaled by a non-unit s (2, -3 or x): L + (s - 1) c_k Dx^k with c_k != 0
and k < order(L) is no left multiple of L, since c_k Dx^k has the lower
order; for a relation, (s - 1) eta_k theta^k(a) with k < rho is nonzero
because the first rho iterates are independent.  For the telescoper and
the resolvent the same minimality argument applies: the mutant passes
only if the lower-order c_k Dx^k is itself a telescoper or annihilator.

``verify_relation`` is also compared with a reference that recomputes the
theta-iterates as reduced RatFun vectors (``theta_iterates``), and the
fraction-free ``is_right_multiple`` behind ``verify_lclm`` with the
``RatFun`` right division ``right_divide``.
"""

import random
from fractions import Fraction

import pytest

from pseudolin import _kernel as zk
from pseudolin._kernel import _zkernel_py as kernel
from pseudolin import ore
from pseudolin.bipoly import BiPoly
from pseudolin.instances import hermite
from pseudolin.instances import (build_algebraic, build_hermite, build_lclm,
                                 build_symprod, lclm, resolvent, symprod,
                                 telescoper, verify_lclm, verify_resolvent,
                                 verify_symprod, verify_telescoper)
from pseudolin.linalg import RatMatrix
from pseudolin.ore import (GEN_DX, GEN_EULER, OrePoly, is_right_multiple,
                           ore_mul)
from pseudolin.poly import Poly
from pseudolin.randgen import (rand_algebraic_input, rand_hermite_input,
                               rand_map, rand_operator, rand_vector)
from pseudolin.ratfun import RatFun
from pseudolin.relations import (PseudoLinearMap, Relation,
                                 solve_min_relation, verify_relation)

from _oracle import right_divide, theta_iterates

X = Poly.x()


def reference_verify(pmap, a, rel):
    """sum eta_i theta^i(a) = 0 over reduced RatFun iterates."""
    a = [c if isinstance(c, Poly) else Poly.const(c) for c in a]
    vecs = theta_iterates(pmap, a, rel.rho + 1)
    for j in range(pmap.n):
        acc = RatFun.zero()
        for i, e in enumerate(rel.eta):
            acc = acc + vecs[i][j] * e
        if not acc.is_zero():
            return False
    return True


def mutated_coeffs(coeffs, one, x):
    """The three mutants of a coefficient list, as lists (None when the
    order cannot be reduced)."""
    plus_x = list(coeffs)
    plus_x[0] = plus_x[0] + x
    middle = list(coeffs)
    k = (len(coeffs) - 1) // 2
    middle[k] = middle[k] + one
    dropped = list(coeffs[:-1])
    while dropped and dropped[-1].is_zero():
        dropped.pop()
    return [plus_x, middle, dropped or None]


def relation_mutants(rel):
    out = []
    for eta in mutated_coeffs(rel.eta, Poly.one(), X):
        if eta is not None:
            out.append(Relation(len(eta) - 1, tuple(eta)))
    return out


def operator_mutants(L):
    return [OrePoly(cs, L.generator) for cs in
            mutated_coeffs(L.coeffs, RatFun.one(), RatFun.x())
            if cs is not None]


def scaled_mutant(L, rng, unit):
    """L with one nonzero coefficient of order below L's scaled by unit."""
    ks = [k for k in range(L.order) if not L.coeff(k).is_zero()]
    cs = list(L.coeffs)
    k = rng.choice(ks)
    cs[k] = cs[k] * unit
    return OrePoly(cs, L.generator)


def scaled_relation(rel, rng, unit):
    """rel with one nonzero eta_k, k < rho, scaled by unit."""
    ks = [k for k in range(rel.rho) if not rel.eta[k].is_zero()]
    eta = list(rel.eta)
    k = rng.choice(ks)
    eta[k] = eta[k] * unit
    return Relation(rel.rho, tuple(eta))


# the non-units of the scaled mutants, as polynomials and as coefficients
POLY_UNITS = (Poly.const(2), Poly.const(-3), X)
RATFUN_UNITS = tuple(RatFun(u) for u in POLY_UNITS)


def test_mutants_of_a_known_relation():
    # theta = d/dx + 1/x on a = 1 gives theta(a) = 1/x, so the minimal
    # relation is x*theta(a) - a = 0
    pmap = PseudoLinearMap(RatMatrix(1, 1, [RatFun(1, X)]))
    rel = solve_min_relation(pmap, [Poly.one()])
    assert rel.eta == (Poly.const(-1), X)
    assert verify_relation(pmap, [Poly.one()], rel)
    mutants = relation_mutants(rel)
    assert len(mutants) == 3
    for m in mutants:
        assert not verify_relation(pmap, [Poly.one()], m)


@pytest.mark.parametrize("seed", range(3))
def test_relation_mutants_rejected(seed):
    rng = random.Random(1000 + seed)
    for n in (1, 2, 3):
        pmap = rand_map(rng, n, num_deg=2, den_deg=2)
        a = rand_vector(rng, n, 2)
        rel = solve_min_relation(pmap, a)
        assert verify_relation(pmap, a, rel)
        mutants = relation_mutants(rel)
        assert len(mutants) == 3
        for m in mutants:
            assert not verify_relation(pmap, a, m)


def test_relation_mutants_with_scaled_coefficient_rejected():
    rng = random.Random(1010)
    checked = 0
    for k in range(9):
        n = 1 + k % 3
        pmap = rand_map(rng, n, num_deg=2, den_deg=2)
        a = rand_vector(rng, n, 2)
        rel = solve_min_relation(pmap, a)
        assert verify_relation(pmap, a, rel)
        if not any(not e.is_zero() for e in rel.eta[:rel.rho]):
            continue
        for unit in POLY_UNITS:
            assert not verify_relation(pmap, a, scaled_relation(rel, rng,
                                                                unit))
            checked += 1
    assert checked >= 18


# dy >= 3: the numerators hermite_reduce passes down a level have positive
# z-degree (at most dy - 2)
TELESCOPER_MUTANT_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3),
                            (1, 4))


def test_telescoper_mutants_rejected():
    rng = random.Random(21)
    checked = 0
    for dx, dy in TELESCOPER_MUTANT_SHAPES:
        p, q = rand_hermite_input(rng, dx, dy, generic=True)
        inst = build_hermite(p, q)
        L, _ = telescoper(inst)
        assert verify_telescoper(inst, L)
        for m in operator_mutants(L):
            assert not verify_telescoper(inst, m)
            checked += 1
    assert checked == 21


def test_telescoper_mutants_with_scaled_coefficient_rejected():
    rng = random.Random(26)
    checked = 0
    for dx, dy in TELESCOPER_MUTANT_SHAPES:
        p, q = rand_hermite_input(rng, dx, dy, generic=True)
        inst = build_hermite(p, q)
        L, _ = telescoper(inst)
        assert verify_telescoper(inst, L)
        if all(L.coeff(j).is_zero() for j in range(L.order)):
            continue
        for unit in RATFUN_UNITS:
            assert not verify_telescoper(inst, scaled_mutant(L, rng, unit))
            checked += 1
    assert checked >= 18


RESOLVENT_MUTANT_SHAPES = ((1, 2), (2, 2), (1, 3), (3, 3), (1, 4))


def test_resolvent_mutants_rejected():
    rng = random.Random(22)
    checked = 0
    for dx, dy in RESOLVENT_MUTANT_SHAPES:
        P = rand_algebraic_input(rng, dx, dy, generic=True)
        inst = build_algebraic(P)
        L = resolvent(inst)
        assert verify_resolvent(inst, L)
        for m in operator_mutants(L):
            assert not verify_resolvent(inst, m)
            checked += 1
    assert checked == 15


def test_resolvent_mutants_with_scaled_coefficient_rejected():
    rng = random.Random(27)
    checked = 0
    for dx, dy in RESOLVENT_MUTANT_SHAPES:
        P = rand_algebraic_input(rng, dx, dy, generic=True)
        inst = build_algebraic(P)
        L = resolvent(inst)
        assert verify_resolvent(inst, L)
        if all(L.coeff(j).is_zero() for j in range(L.order)):
            continue
        for unit in RATFUN_UNITS:
            assert not verify_resolvent(inst, scaled_mutant(L, rng, unit))
            checked += 1
    assert checked >= 12


def _bezout_mutant_sets():
    """(verify, inst, L, mutants) for the telescopers and resolvents of the
    mutant shapes (seed 28), with the three mutants and, where L has a
    nonzero lower coefficient, one scaled by x."""
    rng = random.Random(28)
    sets = []
    for dx, dy in TELESCOPER_MUTANT_SHAPES:
        inst = build_hermite(*rand_hermite_input(rng, dx, dy, generic=True))
        sets.append((verify_telescoper, inst, telescoper(inst)[0]))
    for dx, dy in RESOLVENT_MUTANT_SHAPES:
        inst = build_algebraic(rand_algebraic_input(rng, dx, dy,
                                                    generic=True))
        sets.append((verify_resolvent, inst, resolvent(inst)))
    out = []
    for verify, inst, L in sets:
        mutants = operator_mutants(L)
        if any(not L.coeff(j).is_zero() for j in range(L.order)):
            mutants.append(scaled_mutant(L, rng, RatFun.x()))
        out.append((verify, inst, L, mutants))
    return out


# (sigma, tau, w) -> faulty Bezout data of q~: the first three break
# sigma q~ + tau q~_z = w, "zero" keeps it with w = 0, and the last two
# are other true identities, which must give the same verdicts
BEZOUT_FAULTS = {
    "shifted-sigma": lambda q, s, t, w: (s + BiPoly.one(), t, w),
    "shifted-tau": lambda q, s, t, w: (s, t + BiPoly.one(), w),
    "doubled-w": lambda q, s, t, w: (s, t, w * 2),
    "zero": lambda q, s, t, w: (BiPoly.zero(), BiPoly.zero(), Poly()),
    "other-cofactors": lambda q, s, t, w: (s + q.deriv("y"), t - q, w),
    "scaled-by-x": lambda q, s, t, w: (s * X, t * X, w * X),
}


@pytest.mark.parametrize("fault", list(BEZOUT_FAULTS))
def test_faulty_bezout_data_accepts_no_mutant(monkeypatch, fault):
    """The telescoper and resolvent verifiers check the Bezout identity
    of q~ by products: with faulty cofactors from ``_bezout_cleared``
    they answer False, and with other true cofactors they keep their
    verdicts.  No mutant is accepted either way."""
    sets = _bezout_mutant_sets()
    cleared = hermite._bezout_cleared
    monkeypatch.setattr(hermite, "_bezout_cleared",
                        lambda q: BEZOUT_FAULTS[fault](q, *cleared(q)))
    holds = fault in ("other-cofactors", "scaled-by-x")
    checked = 0
    for verify, inst, L, mutants in sets:
        assert verify(inst, L) is holds
        for m in mutants:
            assert not verify(inst, m)
            checked += 1
    assert checked >= 45


def _lclm_mutant_sets():
    """(inst, L, mutants): three LCLMs of order-1 or -2 operators with the
    three mutants (seed 23), then six with two scaled mutants too (seed
    24)."""
    sets = []
    rng = random.Random(23)
    for _ in range(3):
        ops = [rand_operator(rng, rng.randint(1, 2), rng.randint(1, 2),
                             regular_infinity=True) for _ in range(2)]
        inst = build_lclm(ops)
        L = lclm(inst)
        sets.append((inst, L, operator_mutants(L)))
    rng = random.Random(24)
    for k in range(6):
        ops = [rand_operator(rng, rng.randint(1, 3), rng.randint(1, 2),
                             regular_infinity=k % 2 == 0) for _ in range(2)]
        inst = build_lclm(ops)
        L = lclm(inst)
        sets.append((inst, L, operator_mutants(L) + [
            scaled_mutant(L, rng, RatFun(rng.choice((2, -3, 5)))),
            scaled_mutant(L, rng, RatFun.x())]))
    return sets


def test_lclm_mutants_rejected():
    checked = 0
    for inst, L, mutants in _lclm_mutant_sets()[:3]:
        assert verify_lclm(inst, L)
        for m in mutants:
            assert not verify_lclm(inst, m)
            checked += 1
    assert checked == 9


def test_lclm_mutants_with_scaled_coefficient_rejected():
    checked = 0
    for inst, L, mutants in _lclm_mutant_sets()[3:]:
        assert verify_lclm(inst, L)
        for m in mutants:
            assert not verify_lclm(inst, m)
            checked += 1
    assert checked == 30


# the symmetric square of Dx^2 - 1 (solutions exp(x), exp(-x)) is
# Dx^3 - 4 Dx, of order 3 below the dimension 4; its dropped mutant is the
# truncation below Dx^3
SQUARE = [OrePoly([-1, 0, 1])] * 2


def _symprod_mutant_sets():
    """(inst, L, mutants) for four random symmetric products (seed 25),
    SQUARE, and a factor whose leading coefficient x(x - 1) vanishes at 0
    and at 1."""
    rng = random.Random(25)
    cases = [[rand_operator(rng, rng.randint(1, 2), rng.randint(1, 2),
                            regular_infinity=True) for _ in range(2)]
             for _ in range(4)]
    singular = [OrePoly([-1, RatFun(X * (X - 1))]), OrePoly([-2, RatFun(X)])]
    sets = []
    for ops in cases + [SQUARE, singular]:
        inst = build_symprod(ops)
        L = symprod(inst)
        mutants = operator_mutants(L)
        if any(not L.coeff(j).is_zero() for j in range(L.order)):
            mutants += [scaled_mutant(L, rng, u) for u in RATFUN_UNITS]
        sets.append((inst, L, mutants))
    return sets


def test_symprod_mutants_rejected():
    sets = _symprod_mutant_sets()
    assert sets[4][1] == OrePoly([0, -4, 0, 1])
    checked = 0
    for inst, L, mutants in sets:
        assert verify_symprod(inst, L)
        for m in mutants:
            assert not verify_symprod(inst, m)
            checked += 1
    assert checked >= 30


class _WrongCofactors:
    """The kernel as ``ore`` sees it, except that the cofactors of the
    two-entry content strip behind ``is_right_multiple`` are wrong."""

    def __init__(self, wrong):
        self.wrong = wrong

    def __getattr__(self, name):
        return getattr(zk, name)

    def zvec_poly_content(self, vec):
        g, (u, v) = zk.zvec_poly_content(vec)
        return g, self.wrong(u, v)


@pytest.mark.parametrize("wrong", [lambda u, v: ([], []),
                                   lambda u, v: (u, zk.zp_scale(v, 2))],
                         ids=["zero", "doubled-v"])
def test_wrong_cofactors_accept_no_mutant(monkeypatch, wrong):
    """Right division forms every coefficient of each step, top included,
    and answers False when the top does not cancel or the cofactor of the
    remainder is zero.  So cofactors from a faulty strip -- zero, or v
    doubled -- can only turn a True verdict into False: no mutant of the
    lclm and symprod sets is accepted, and every call ends."""
    sets = ([(verify_lclm, s) for s in _lclm_mutant_sets()]
            + [(verify_symprod, s) for s in _symprod_mutant_sets()])
    monkeypatch.setattr(ore, "zk", _WrongCofactors(wrong))
    checked = 0
    for verify, (inst, _, mutants) in sets:
        for m in mutants:
            assert not verify(inst, m)
            checked += 1
    assert checked >= 69
    # Dx^2 + x = (Dx + 1)(Dx - 1) + x + 1 is no multiple of Dx - 1; with
    # zero cofactors the remainder used to vanish, and the answer was True
    assert not is_right_multiple(OrePoly([X, 0, 1]), OrePoly([-1, 1]))


def _divisor_fault(g, q, t):
    """A proper divisor d of the content g of t, g/x when x divides g and
    1 otherwise, with the quotients t/d, which multiply back."""
    if g == [1]:
        return g, q
    if g[0] == 0:
        return g[1:], [[0] + z if z else [] for z in q]
    return [1], t


def _wrong_fault(g, q, t):
    """The wrong content (x + 1) g with the quotients t/g, which do not
    multiply back; zero entries stay zero."""
    return zk.zp_mul(g, [1, 1]), q


@pytest.mark.parametrize("fault", [_divisor_fault, _wrong_fault],
                         ids=["proper-divisor", "wrong-g"])
def test_faulty_strip_accepts_no_mutant(monkeypatch, fault):
    """With the solver's outputs computed first, a faulty content strip
    (``_strip_packed``) cannot make a verifier accept a mutant: the
    telescoper and resolvent verdicts rest on a Bezout identity checked by
    products and on ``verify_relation``, which strips nothing, and right
    division checks every step.  Every call answers False or raises."""
    sets = ([(verify, inst, mutants)
             for verify, inst, _, mutants in _bezout_mutant_sets()]
            + [(verify_lclm, inst, mutants)
               for inst, _, mutants in _lclm_mutant_sets()]
            + [(verify_symprod, inst, mutants)
               for inst, _, mutants in _symprod_mutant_sets()])
    strip, calls = kernel._strip_packed, []

    def faulty(vals, nb, vec):
        calls.append(None)
        got = strip(vals, nb, vec)
        if got is None:
            return None
        t = vec if vec is not None else [kernel._digits(v, nb) if v else []
                                         for v in vals]
        return fault(*got, t)

    monkeypatch.setattr(kernel, "_strip_packed", faulty)
    checked = 0
    for verify, inst, mutants in sets:
        for m in mutants:
            try:
                assert verify(inst, m) is False
            except (ValueError, ArithmeticError):
                pass
            checked += 1
    assert checked >= 120 and calls


def _rand_ratfun(rng, deg):
    """Rational coefficients over a non-monic denominator, or a
    polynomial with Fraction coefficients."""
    num = Poly([_rand_fraction(rng) for _ in range(rng.randint(1, deg + 1))])
    if rng.random() < 0.5:
        return RatFun(num)
    den = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]
               + [rng.choice((-3, 2, 5))])
    return RatFun(num, den)


def _rand_ore(rng, order, generator):
    cs = [_rand_ratfun(rng, 2) for _ in range(order)]
    lead = RatFun.zero()
    while lead.is_zero():
        lead = _rand_ratfun(rng, 2)
    return OrePoly(cs + [lead], generator)


def test_is_right_multiple_matches_right_divide():
    rng = random.Random(31)
    verdicts = {True: 0, False: 0}
    for k in range(64):
        gen = GEN_EULER if k % 8 >= 6 else GEN_DX
        b = _rand_ore(rng, rng.randint(1, 4), gen)
        q = _rand_ore(rng, rng.randint(0, 2), gen)
        a = ore_mul(q, b)
        planted = k % 2 == 0
        if not planted:
            # a random term of order <= order(b): a multiple only by accident
            a = a + _rand_ore(rng, rng.randint(0, b.order), gen)
        want = right_divide(a, b)[1].is_zero()
        assert is_right_multiple(a, b) is want
        if planted:
            assert want
        verdicts[want] += 1
    assert verdicts[True] >= 32 and verdicts[False] >= 25
    # coefficients over denominators that share factors, where clearing by
    # their lcm and by the product of the distinct ones differ
    dens = [X, X * X, X * (X + 1), 3 * X - 2]

    def shared(order):
        return OrePoly([RatFun(_rand_fraction(rng) * X + 1, rng.choice(dens))
                        for _ in range(order)] + [RatFun(1, X)], GEN_DX)

    for k in range(16):
        b, q = shared(rng.randint(1, 2)), shared(rng.randint(0, 1))
        a = ore_mul(q, b)
        if k % 2:
            a = a + OrePoly([RatFun(1, rng.choice(dens))])
        want = right_divide(a, b)[1].is_zero()
        assert is_right_multiple(a, b) is want
        assert want is (k % 2 == 0)
    # a lower order than b, the zero operator, and b = 0
    b = _rand_ore(rng, 3, GEN_DX)
    assert not is_right_multiple(_rand_ore(rng, 2, GEN_DX), b)
    assert is_right_multiple(OrePoly.zero(), b)
    with pytest.raises(ZeroDivisionError):
        is_right_multiple(b, OrePoly.zero())


def _rand_fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _rational_map(rng, n):
    """T with Fraction coefficients over non-monic denominators, so the
    monic common denominator has non-integer coefficients."""
    entries = []
    for _ in range(n * n):
        if rng.random() < 0.25:
            entries.append(RatFun.zero())
            continue
        num = Poly([_rand_fraction(rng) for _ in range(rng.randint(1, 3))])
        den = Poly([rng.randint(-4, 4), rng.choice([-3, 2, 3, 5])])
        if rng.random() < 0.5:
            den = den * Poly([rng.randint(1, 3), 0, rng.choice([2, -7])])
        entries.append(RatFun(num, den))
    return PseudoLinearMap(RatMatrix(n, n, entries))


def _vector_with_zeros(rng, n):
    while True:
        a = [Poly([_rand_fraction(rng) for _ in range(rng.randint(0, 3))])
             for _ in range(n)]
        if n > 1:
            a[rng.randrange(n)] = Poly()
        if any(not c.is_zero() for c in a):
            return a


def test_verify_relation_matches_reference():
    rng = random.Random(77)
    for k in range(60):
        n = 1 + k % 3
        pmap = _rational_map(rng, n)
        a = _vector_with_zeros(rng, n)
        rel = solve_min_relation(pmap, a)
        cases = [(rel, True)] + [(m, False) for m in relation_mutants(rel)]
        # rho = 0: eta_0 * a = 0 fails for every nonzero a
        cases.append((Relation(0, (Poly([1, 2]),)), False))
        for r, expected in cases:
            assert reference_verify(pmap, a, r) is expected
            assert verify_relation(pmap, a, r) is expected


def test_verify_relation_zero_vector_and_scalars():
    rng = random.Random(5)
    pmap = _rational_map(rng, 2)
    zero_rel = Relation(0, (Poly.one(),))
    assert verify_relation(pmap, [0, 0], zero_rel)
    assert reference_verify(pmap, [0, 0], zero_rel)
    # integer and Fraction entries of a are read as constant polynomials
    a = [3, Fraction(1, 2)]
    rel = solve_min_relation(pmap, a)
    assert verify_relation(pmap, a, rel) and reference_verify(pmap, a, rel)
    with pytest.raises(ValueError):
        verify_relation(pmap, [1], rel)
