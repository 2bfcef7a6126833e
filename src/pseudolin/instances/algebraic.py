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

The verifier does not use T.  It differentiates the root modulo P over
one known denominator (Bostan, Chyzak, Lecerf, Salvy and Schost, ISSAC
2007): with l = lc_y(P), the substitution y = z/l makes
P~ = l^(dy-1) P(z/l) monic in z, and the Bezout identity
sigma P~ + tau P~_z = w gives z' = S/w with S = -P~_x tau mod P~.  The
i-th derivative of y is then C_i / (l^(i+1) w^i) with C_i in Q[x][z] of
z-degree below dy, each step one exact division by P~, no gcd and no
pseudo-division (``_cockle_z``).
"""

from __future__ import annotations

from dataclasses import dataclass

from pseudolin.bipoly import BiPoly, squarefree_y
from pseudolin.linalg import PolyMatrix
from pseudolin.ore import GEN_DX, OrePoly, normalize_primitive
from pseudolin.poly import Poly
from pseudolin.ratfun import RatFun
from pseudolin.relations import (PseudoLinearMap, Realisation, Relation,
                                 realisation_bound_report, solve_min_relation)

from pseudolin.instances.hermite import (_bezout_cleared, _divmod_monic,
                                         _monic_transform, _scale_y,
                                         genericity_check)


@dataclass(frozen=True)
class AlgebraicInstance:
    """A square-free bivariate P with the Cockle map and its realisation."""

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
    if not squarefree_y(P):
        raise ValueError("P must be square-free with respect to y")

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
    real = Realisation(W, X, M, Y)
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


def _cockle_z(P: BiPoly, count: int):
    """The numerators C_0, ..., C_(count-1) of the Cockle recursion in
    z = l y, l = lc_y(P), with the data (l, l w, pw) that maps them back.

    With P~ = l^(dy-1) P(z/l) monic in z, sigma P~ + tau P~_z = w and
    S = -P~_x tau mod P~, a root z = l y of P~ has z' = S/w modulo P~,
    and the k-th derivative of y is C_k / (l^(k+1) w^k):

        C_0 = z mod P~,
        C_(k+1) = l (w dC_k/dx + (dC_k/dz S mod P~))
                  - C_k ((k+1) l' w + k l w').

    Every reduction is an exact division by the monic P~, and no
    fraction is ever reduced.  pw[j] = l^j for j <= dy.
    """
    qt, pw = _monic_transform(P)
    _, tau, w = _bezout_cleared(qt)
    lc = P.lc_y
    _, S = _divmod_monic(-(qt.deriv("x") * tau), qt)
    lw = lc * w
    dlw, dlc_w = lw.derivative(), lc.derivative() * w
    _, C = _divmod_monic(BiPoly.y(), qt)
    out = [C]
    for k in range(count - 1):
        _, CS = _divmod_monic(C.deriv("y") * S, qt)
        C = C.deriv("x") * lw + CS * lc - C * (dlc_w + dlw * k)
        out.append(C)
    return out, lc, lw, pw


def cockle_iterates(inst: AlgebraicInstance, count: int):
    """Pairs (C_i, d_i) in Q[x][y] with D_i = C_i/d_i = the i-th
    derivative of y modulo P, for i < count: D_0 = y mod P and
    D_(i+1) = D_i' - dD_i/dy * P_x / P_y mod P.

    Runs the fraction-free recursion of ``_cockle_z`` in z = l y and maps
    each C_i back through z = l y, so d_i = l^(i+1) w^i with w the
    Bezout denominator of (P~, P~_z).  Independent of the matrix T used
    by the solver.
    """
    cs, d, lw, pw = _cockle_z(inst.P, count)
    out = []
    for C in cs:
        out.append((BiPoly(_scale_y(C.ycoeffs, pw)), d))
        d = d * lw
    return out


def verify_resolvent(inst: AlgebraicInstance, L: OrePoly) -> bool:
    """Check sum eta_i D_i = 0 in Q(x)[y]/(P) for the i-th derivatives
    D_i = C_i/(l^(i+1) w^i) of the root y, in z = l y (``_cockle_z``).

    Over the common denominator l^(rho+1) w^rho the check is
    sum eta_i (l w)^(rho-i) C_i = 0, formed by Horner in l w.  Each C_i
    has z-degree below deg_y P, so the sum vanishes modulo P~ iff it is
    the zero polynomial: the check is exact, and past the one Bezout
    identity it takes no gcd and no pseudo-division.  It shares no code
    with the solver (no matrix T, realisation, ``solve_min_relation`` or
    ``linalg``).
    """
    if L.is_zero() or L.generator != GEN_DX:
        return False
    if not all(c.is_poly() for c in L.coeffs):
        return False
    cs, _, lw, _ = _cockle_z(inst.P, L.order + 1)
    acc = BiPoly.zero()
    for i, C in enumerate(cs):
        acc = acc * lw
        c = L.coeff(i)
        if not c.is_zero():
            acc = acc + C * c.num
    return acc.is_zero()


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
