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

The verifier does not use T: ``cockle_iterates`` differentiates y modulo
P as fractions C_i/d_i in Q[x][y], with the inverse of P_y modulo P taken
from the Bezout identity of (P, P_y).
"""

from __future__ import annotations

from dataclasses import dataclass

from pseudolin.bipoly import BiPoly, bipoly_pseudo_divmod, squarefree_y
from pseudolin.linalg import PolyMatrix
from pseudolin.ore import GEN_DX, OrePoly, normalize_primitive
from pseudolin.poly import Poly, poly_gcd, poly_lcm
from pseudolin.ratfun import RatFun
from pseudolin.relations import (PseudoLinearMap, Realisation, Relation,
                                 realisation_bound_report, solve_min_relation)

from pseudolin.instances.hermite import _bezout_cleared, genericity_check


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


def cockle_iterates(inst: AlgebraicInstance, count: int):
    """Fraction-form Cockle recursion: pairs (C_i, d_i) with D_i = C_i/d_i,
    D_0 = y mod P and D_{i+1} = D_i' - dD_i/dy * P_x / P_y mod P.

    Runs entirely in Q[x][y] with pseudo-division by P, independently of
    the matrix T used by the solver: 1/P_y mod P is tau/w from the Bezout
    identity sigma P + tau P_y = w.  After every step C and d are divided
    by gcd(content_x(C), d), so d does not square at each step.
    """
    P = inst.P
    Px = P.deriv("x")
    _, tb, w = _bezout_cleared(P)
    lc = P.lc_y
    _, C, k0 = bipoly_pseudo_divmod(BiPoly.y(), P)
    d = lc**k0
    out = [(C, d)]
    for _ in range(count - 1):
        _, R, k = bipoly_pseudo_divmod(C.deriv("y") * Px * tb, P)
        lck = lc**k
        num = (C.deriv("x") * d - C * d.derivative()) * (w * lck) - R * d
        den = d * d * w * lck
        _, num, k2 = bipoly_pseudo_divmod(num, P)
        C, d = num, den * lc**k2
        g = d
        for c in C.ycoeffs:
            g = poly_gcd(g, c)
            if g.degree == 0:
                break
        if g.degree > 0:
            C = BiPoly(tuple(c.exact_div(g) for c in C.ycoeffs))
            d = d.exact_div(g)
        out.append((C, d))
    return out


def verify_resolvent(inst: AlgebraicInstance, L: OrePoly) -> bool:
    """Check sum eta_i D_i = 0 in Q(x)[y]/(P) with Cockle-recursed D_i.

    The D_i = C_i/d_i come from ``cockle_iterates``, which differentiates y
    modulo P directly and shares no code with the solver (no matrix T,
    realisation or ``solve_min_relation``).  The sum is taken exactly over
    the lcm of the d_i: each C_i has y-degree below deg_y P, so the sum
    vanishes modulo P iff its numerator is the zero polynomial.
    """
    if L.is_zero() or L.generator != GEN_DX:
        return False
    terms = []
    for i, (C, d) in enumerate(cockle_iterates(inst, L.order + 1)):
        c = L.coeff(i)
        if c.is_zero():
            continue
        if not c.is_poly():
            return False
        terms.append((C * c.num, d))
    D = Poly.one()
    for _, d in terms:
        D = poly_lcm(D, d)
    acc = BiPoly.zero()
    for C, d in terms:
        acc = acc + C * D.exact_div(d)
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
