"""Differential resolvents of algebraic functions.

A root y(x) of a square-free P(x, y) satisfies y' = -P_x/P_y evaluated at
y, so differentiation acts on the quotient ring Q(x)[y]/(P) as the
pseudo-linear map theta = d/dx + T with

    T: a  |->  -da/dy * P_x / P_y  mod P,

and the minimal relation of (T, y) is an operator annihilating every root
of P (the differential resolvent).  T is realised through the Sylvester
system of (P, P_y): solving U P + V P_y = -da/dy * P_x gives T a = V, so
M is the Sylvester matrix and det M = res_y(P, P_y) up to sign.  As for
the telescoper, the map comes in cleared form from the one elimination of
[M | Y] in ``relations.Realisation``.

The verifier builds its own map from the derivative of the root
(Bostan, Chyzak, Lecerf, Salvy and Schost, ISSAC 2007).  With
l = lc_y(P), z = l y is a root of P~ = l^(dy-1) P(z/l), monic in z, and
the Bezout identity sigma P~ + tau P~_z = w gives z' = S/w with
S = -P~_x tau mod P~.  So on the basis z^j / l, where y has polynomial
coordinates, column j of T is (j/w) (z^(j-1) S mod P~) - (l'/l) e_j.
"""

from __future__ import annotations

from dataclasses import dataclass

from pseudolin.bipoly import BiPoly
from pseudolin.linalg import PolyMatrix
from pseudolin.ore import GEN_DX, OrePoly, normalize_primitive
from pseudolin.poly import Poly, zclear
from pseudolin.ratfun import RatFun
from pseudolin.relations import (PseudoLinearMap, Realisation, Relation,
                                 SingularRealisation,
                                 realisation_bound_report, solve_min_relation,
                                 verify_relation)

from pseudolin.instances.hermite import (_checked_bezout, _divmod_monic,
                                         _dx_relation, _monic_transform,
                                         _yshift, genericity_check)


@dataclass(frozen=True)
class AlgebraicInstance:
    """A square-free bivariate P with its resolvent map and realisation."""

    P: BiPoly
    dx: int
    dy: int
    map: PseudoLinearMap
    realisation: Realisation


def build_algebraic(P: BiPoly) -> AlgebraicInstance:
    """Construct the resolvent instance for a square-free P with d_y >= 1."""
    if P.is_zero():
        raise ValueError("P must be nonzero")
    dy = P.degree_y
    dx = P.degree_x
    if dy < 1:
        raise ValueError("P must involve y")

    Py = P.deriv("y")
    Px = P.deriv("x")
    m = 2 * dy - 1
    # Sylvester map (U, V) |-> U P + V P_y with deg U < dy - 1, deg V < dy
    mcols = []
    for j in range(dy - 1):
        mcols.append([P.ycoeff(t - j) for t in range(m)])
    for j in range(dy):
        mcols.append([Py.ycoeff(t - j) for t in range(m)])
    M = PolyMatrix(m, m, [mcols[j][i] for i in range(m) for j in range(m)])
    # Y: a = y^j |-> -j y^(j-1) P_x
    ycols = []
    for j in range(dy):
        img = -(Px * j)
        ycols.append([img.ycoeff(t - (j - 1)) if j else Poly()
                      for t in range(m)])
    Y = PolyMatrix(m, dy, [ycols[j][i] for i in range(m) for j in range(dy)])
    X = PolyMatrix(dy, m, [Poly.one() if c == (dy - 1) + i else Poly()
                           for i in range(dy) for c in range(m)])
    W = PolyMatrix.zeros(dy, dy)
    try:
        real = Realisation(W, X, M, Y)
    except SingularRealisation:
        raise ValueError("P must be square-free with respect to y") from None
    if real.delta_degree > (2 * dy - 1) * dx:
        raise AssertionError("det M exceeds the (2dy-1)dx degree bound")
    return AlgebraicInstance(P, dx, dy, real.map, real)


def resolvent(inst: AlgebraicInstance) -> OrePoly:
    """Minimal operator annihilating every root of P.

    For d_y = 1 the single root is rational and the order <= 1 operator is
    written down directly (the constant operator 1 when the root is 0).
    """
    if inst.dy == 1:
        alpha = -RatFun(inst.P.ycoeff(0), inst.P.ycoeff(1))
        if alpha.is_zero():
            return OrePoly([1], GEN_DX)
        w = alpha.derivative() / alpha
        return normalize_primitive(OrePoly([-w.num, w.den], GEN_DX))
    a = [Poly.one() if j == 1 else Poly() for j in range(inst.dy)]
    rel = solve_min_relation(inst.map, a)
    return OrePoly([RatFun(e) for e in rel.eta], GEN_DX)


def _resolvent_map(P: BiPoly):
    """(theta, a) with d/dx on Q(x)[y]/(P) as theta = d/dx + T in the
    basis z^j / l, a cleared pair over l w, and a the coordinates of the
    root y = z / l (module docstring), or None when the Bezout identity
    of P~ fails to check.  a is z mod P~: e_1 when dy >= 2, not dy = 1."""
    dy, lc = P.degree_y, P.lc_y
    qt, _ = _monic_transform(P)
    bez = _checked_bezout(qt)
    if bez is None:
        return None
    _, tau, w, _ = bez
    _, R = _divmod_monic(-(qt.deriv("x") * tau), qt)
    dlw = lc.derivative() * w
    cols = []
    for j in range(dy):
        if j > 1:                     # R = z^(j-1) S mod P~
            _, R = _divmod_monic(_yshift(R, 1), qt)
        cols.append(R * (lc * j) - _yshift(BiPoly((dlw,)), j))
    _, zs = zclear([lc * w] + [cols[j].ycoeff(i)
                               for i in range(dy) for j in range(dy)])
    _, z = _divmod_monic(BiPoly.y(), qt)
    return (PseudoLinearMap.from_cleared(
                zs[0], [zs[1 + i * dy:1 + (i + 1) * dy] for i in range(dy)]),
            [z.ycoeff(i) for i in range(dy)])


def verify_resolvent(inst: AlgebraicInstance, L: OrePoly) -> bool:
    """Check sum eta_i y^(i) = 0 in Q(x)[y]/(P) for the root y: theta^i(a)
    holds the coordinates of y^(i), so ``verify_relation`` on the map of
    ``_resolvent_map`` decides it exactly.  The Bezout identity behind S
    is checked by products.  Past the map, built from P alone, it shares
    with the solver only ``PseudoLinearMap.cleared`` and ring products.
    """
    rel = _dx_relation(L)
    got = None if rel is None else _resolvent_map(inst.P)
    return got is not None and verify_relation(*got, rel)


def bound_algebraic(r: int, dx: int, dy: int) -> int:
    """Resolvent degree bound r(2dy-1)dx - r(r-1)/2 for generic P."""
    if r < 1:
        raise ValueError("order must be at least 1")
    return r * (2 * dy - 1) * dx - r * (r - 1) // 2


def empirical_curve_algebraic(d: int) -> int:
    """Observed-degree reference curve d(2d^2 - 3d + 3) for dx = dy = d."""
    return d * (2 * d * d - 3 * d + 3)


def algebraic_bound_report(inst: AlgebraicInstance, L: OrePoly):
    """Per-coefficient degree report for a computed resolvent."""
    rel = Relation(L.order, tuple(c.num for c in L.coeffs))
    return realisation_bound_report(
        "algebraic", rel, d_a=0,
        delta_deg=inst.realisation.delta_degree,
        asserted=genericity_check(inst.P),
        bound_name="algebraic",
        global_bound=bound_algebraic(max(rel.rho, 1), inst.dx, inst.dy))
