"""LCLM and symmetric products of linear differential operators.

Sums (resp. products) of solutions of operators L_1, ..., L_s live in a
finite-dimensional Q(x)-space; expressing successive derivatives in the
Euler-derivative generating set (E^j applied to each solution, E = x d/dx)
turns differentiation into a pseudo-linear map theta = d/dx + T whose
minimal relation for the right start vector gives the LCLM (resp. the
symmetric product) with the coefficients read off directly as the Dx^i
coefficients.

The Euler basis is what makes T strictly proper when no operator has an
irregular singularity at infinity, which is the hypothesis of the degree
bounds; the construction itself works unconditionally.

For the LCLM, T = 1/x diag(D_1, ..., D_s) with D_i the Euler-form
companion blocks, realised as X M^-1 with M = x diag(1,..,-q_{1,r_1},..)
and X block-companion; det M is x^R times the product of the Euler
leading coefficients.  For the symmetric product of two operators,
T = 1/x (D_1 @ I + I @ D_2) with Kronecker-product realisation
X = [X_1 @ I | I @ X_2], M = diag(M_1 @ I, I @ M_2), Y = [I; I], and the
s-factor case stacks one Kronecker slot per operator (multi-indices in
lexicographic order).  The builds assemble only the realisation; its one
elimination (``relations.Realisation``) gives the map in cleared form.

Both results are checked exactly and without the solver: ``verify_lclm``
by right division by every input, ``verify_symprod`` by the relation of
L in the factors' tensor module, written in the Dx basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from pseudolin.linalg import (PolyMatrix, block_diag, companion, hstack_poly,
                              kronecker, kronecker_sum, vstack_poly)
from pseudolin.ore import (GEN_DX, OrePoly, infinity_not_irregular,
                           is_right_multiple, normalize_primitive, to_euler)
from pseudolin.poly import Poly
from pseudolin.ratfun import RatFun, common_denominator
from pseudolin.relations import (PseudoLinearMap, Realisation, Relation,
                                 realisation_bound_report, solve_min_relation,
                                 verify_relation)

KIND_LCLM = "lclm"
KIND_SYMPROD = "symprod"


@dataclass(frozen=True)
class ClosureInstance:
    """Operators with their Euler forms, the closure map and realisation."""

    kind: str
    operators: tuple
    euler_forms: tuple
    a: tuple
    map: PseudoLinearMap
    realisation: Realisation


def operator_degree(L: OrePoly) -> int:
    """Max degree of the polynomial coefficients of the primitive form,
    read without forming it: clearing multiplies every coefficient by the
    common denominator of L."""
    return (max(c.num.degree - c.den.degree for c in L.coeffs)
            + common_denominator(L.coeffs).degree)


def _euler_data(ops):
    """Validate operators, convert to Euler form and expose block pieces."""
    ops = tuple(ops)
    if not ops:
        raise ValueError("need at least one operator")
    for L in ops:
        if L.is_zero() or L.generator != GEN_DX or L.order < 1:
            raise ValueError("operators must be nonzero of order >= 1 in Dx")
    eulers = tuple(to_euler(L) for L in ops)
    blocks = []
    for E in eulers:
        r = E.order
        lead = E.coeffs[-1].num
        lower = [E.coeff(j).num for j in range(r)]
        blocks.append((r, lead, lower))
    return ops, eulers, blocks


def _companion_poly(lower) -> PolyMatrix:
    """Subdiagonal ones with last column the plain coefficients (no lead)."""
    r = len(lower)
    entries = [Poly()] * (r * r)
    for j in range(r - 1):
        entries[(j + 1) * r + j] = Poly.one()
    for i in range(r):
        entries[i * r + (r - 1)] = lower[i]
    return PolyMatrix(r, r, entries)


def build_lclm(ops) -> ClosureInstance:
    """Euler-basis sum construction: T = 1/x diag(D_1, ..., D_s)."""
    ops, eulers, blocks = _euler_data(ops)
    x = Poly.x()
    R = sum(r for r, _, _ in blocks)
    a = []
    for r, _, _ in blocks:
        a.extend([Poly.one()] + [Poly()] * (r - 1))
    mdiag = []
    for r, lead, _ in blocks:
        mdiag.extend([x] * (r - 1) + [-(lead * x)])
    M = PolyMatrix(R, R, [mdiag[i] if i == j else Poly()
                          for i in range(R) for j in range(R)])
    X = block_diag([_companion_poly(lower) for _, _, lower in blocks],
                   Poly())
    real = Realisation(PolyMatrix.zeros(R, R), X, M, PolyMatrix.identity(R))
    d = max(operator_degree(L) for L in ops)
    if real.delta_degree > len(ops) * d + R:
        raise AssertionError("det M exceeds the s*d + R degree bound")
    return ClosureInstance(KIND_LCLM, ops, eulers, tuple(a), real.map, real)


def lclm(inst: ClosureInstance) -> OrePoly:
    """Least common left multiple, read off the minimal relation."""
    if inst.kind != KIND_LCLM:
        raise ValueError("expected an lclm instance")
    rel = solve_min_relation(inst.map, list(inst.a))
    return OrePoly([RatFun(e) for e in rel.eta], GEN_DX)


def verify_lclm(inst: ClosureInstance, L: OrePoly) -> bool:
    """L must be a left multiple of every input operator.

    Each operator must right-divide L, which ``ore.is_right_multiple``
    checks by fraction-free right pseudo-division on integer polynomial
    coefficients; it shares no code with the solver.
    """
    if L.is_zero():
        return False
    return all(is_right_multiple(L, Li) for Li in inst.operators)


def bound_lclm(r: int, r_list, d: int) -> int:
    """Degree bound for the LCLM: the two-operator closed form, or
    R(s d + R) for s > 2 operators."""
    r_list = list(r_list)
    s = len(r_list)
    R = sum(r_list)
    if r > R:
        raise ValueError("order exceeds the dimension")
    if s == 2:
        return r * (r_list[0] + r_list[1] + 2 * d) - r * (r - 1) // 2
    return R * (s * d + R)


def build_symprod(ops) -> ClosureInstance:
    """Kronecker-sum construction: T = 1/x sum_i I @ D_i @ I on the
    lexicographic multi-index basis of dimension prod r_i."""
    ops, eulers, blocks = _euler_data(ops)
    x = Poly.x()
    orders = [r for r, _, _ in blocks]
    R = prod(orders)
    a = tuple(Poly.one() if i == 0 else Poly() for i in range(R))

    xparts = []
    mparts = []
    for i, (r, lead, lower) in enumerate(blocks):
        left = prod(orders[:i])
        right = prod(orders[i + 1:])
        Xi = _companion_poly(lower)
        Mi = PolyMatrix(r, r, [(x if k < r - 1 else -(lead * x))
                               if k == j else Poly()
                               for k in range(r) for j in range(r)])
        xparts.append(kronecker(kronecker(PolyMatrix.identity(left), Xi),
                                PolyMatrix.identity(right)))
        mparts.append(kronecker(kronecker(PolyMatrix.identity(left), Mi),
                                PolyMatrix.identity(right)))
    X = hstack_poly(xparts)
    M = block_diag(mparts, Poly())
    Y = vstack_poly([PolyMatrix.identity(R)] * len(blocks))
    real = Realisation(PolyMatrix.zeros(R, R), X, M, Y)
    s = len(ops)
    degs = [operator_degree(L) for L in ops]
    cap = sum(prod(orders[:i]) * (orders[i] + degs[i]) * prod(orders[i + 1:])
              for i in range(s))
    if real.delta_degree > cap:
        raise AssertionError("det M exceeds the Kronecker degree bound")
    return ClosureInstance(KIND_SYMPROD, ops, eulers, a, real.map, real)


def symprod(inst: ClosureInstance) -> OrePoly:
    """Symmetric product, read off the minimal relation for (T, e_1)."""
    if inst.kind != KIND_SYMPROD:
        raise ValueError("expected a symprod instance")
    rel = solve_min_relation(inst.map, list(inst.a))
    return OrePoly([RatFun(e) for e in rel.eta], GEN_DX)


def verify_symprod(inst: ClosureInstance, L: OrePoly) -> bool:
    """Exact check that L annihilates every product y_1 ... y_s of
    solutions of the factors.

    In the tensor product of the factors' differential modules, with basis
    e_I = y_1^(i_1) ... y_s^(i_s) in lexicographic order, Dx acts as
    theta = d/dx + T with T = sum_t I @ C_t @ I and C_t the companion
    matrix of the primitive form of factor t: column I of T holds the
    coordinates of Dx(e_I).  So theta^k(e_0) holds the coordinates of
    Dx^k(y_1 ... y_s), and L kills every product iff the relation with
    L's coefficients holds for (theta, e_0), which ``verify_relation``
    decides exactly.

    It shares only ``linalg.kronecker`` with ``build_symprod``: T is built
    in the Dx basis straight from the operators (no ``to_euler``, no 1/x
    scaling, no realisation), and there is no elimination (no
    ``solve_min_relation``).
    """
    if L.is_zero():
        return False
    blocks = []
    for Li in inst.operators:
        P = normalize_primitive(Li)
        blocks.append(companion(P.coeffs[:-1], P.coeffs[-1]))
    T = kronecker_sum(blocks)
    e0 = [Poly.one()] + [Poly()] * (T.rows - 1)
    prim = normalize_primitive(L)
    return verify_relation(PseudoLinearMap(T), e0, Relation(
        prim.order, tuple(c.num for c in prim.coeffs)))


def bound_symprod(r: int, r_list, d_list) -> int:
    """Degree bound for the symmetric product: the two-operator closed
    form, or s R (R + d rmax^(s-1)) for s > 2 operators."""
    r_list, d_list = list(r_list), list(d_list)
    s = len(r_list)
    R = prod(r_list)
    if r > R:
        raise ValueError("order exceeds the dimension")
    if s == 2:
        r1, r2 = r_list
        d1, d2 = d_list
        return r * (2 * r1 * r2 + d1 * r2 + d2 * r1) - r * (r - 1) // 2
    rmax, d = max(r_list), max(d_list)
    return s * R * (R + d * rmax**(s - 1))


def symprod_conjecture_curve(r_list, d_list) -> int:
    """Reference curve (r1 r2 - r1 - r2 + 2)(d1 r2 + d2 r1): reported by
    the harness, never asserted."""
    r1, r2 = r_list
    d1, d2 = d_list
    return (r1 * r2 - r1 - r2 + 2) * (d1 * r2 + d2 * r1)


def closure_bound_report(inst: ClosureInstance, L: OrePoly):
    """Per-coefficient degree report for a computed closure operator."""
    rel = Relation(L.order, tuple(c.num for c in L.coeffs))
    asserted = all(infinity_not_irregular(Li) for Li in inst.operators)
    orders = [Li.order for Li in inst.operators]
    degs = [operator_degree(Li) for Li in inst.operators]
    if inst.kind == KIND_LCLM:
        gb = bound_lclm(max(rel.rho, 1), orders, max(degs))
    else:
        gb = bound_symprod(max(rel.rho, 1), orders, degs)
    return realisation_bound_report(
        inst.kind, rel, d_a=0, delta_deg=inst.realisation.delta_degree,
        asserted=asserted, bound_name=inst.kind, global_bound=gb)
