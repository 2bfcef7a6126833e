"""Creative telescoping for bivariate rational functions via Hermite reduction.

For f = p/q with q square-free in y, the Hermite reduction herm(g) of any
g with denominator a power of q is the unique r with deg_y r < deg_y q and
g = d/dy(h) + r/q.  Differentiating under herm gives a pseudo-linear map
theta = d/dx + T on the space of y-polynomials of degree < deg_y q, with

    T: a  |->  -herm(q_x a / q^2),

and a minimal telescoper of f is the minimal relation of (T, p).

T is realised as X M^-1 Y where M is the 2d_y x 2d_y matrix of the map
(A, r) |-> q dA/dy - q_y A + q r, Y is multiplication by -q_x and X the
projection onto the last d_y coordinates; det M has degree at most
2 d_x d_y and equals lc_y(q) res_y(q, q_y) up to sign.  The build
assembles only (W, X, M, Y): one fraction-free elimination of [M | Y] in
``relations.Realisation`` gives det M and the map in cleared form.

``hermite_reduce`` works on fractions (BiPoly numerator, Poly
denominator) with pseudo-division by q, so the inner loop is polynomial
multiplication only.  The Bezout cofactors of (q, q_y) it needs come from
the fraction-free pseudo-remainder sequence ``bipoly_ext_prs``.
Certificates are lists of (numerator, denominator, j) terms meaning
sum num/(den * q^j).
"""

from __future__ import annotations

from dataclasses import dataclass

from pseudolin.bipoly import (BiPoly, bipoly_coprime, bipoly_ext_prs,
                              bipoly_pseudo_divmod, squarefree_y)
from pseudolin.linalg import PolyMatrix
from pseudolin.ore import GEN_DX, OrePoly
from pseudolin.poly import Poly, poly_gcd, poly_lcm
from pseudolin.ratfun import RatFun
from pseudolin.relations import (PseudoLinearMap, Realisation, Relation,
                                 realisation_bound_report, solve_min_relation,
                                 vector_degree)


def _bezout_cleared(q: BiPoly):
    """(sigma, tau, w) in Q[x][y]^2 x Q[x] with sigma q + tau q_y = w.

    sigma/w and tau/w are the unique Bezout cofactors over Q(x) of degrees
    below deg_y q_y and deg_y q, cleared by their least common denominator:
    w is monic and gcd(w, content_x(sigma), content_x(tau)) = 1.  The
    pseudo-remainder sequence already strips that joint content, so only
    the scale that makes w monic is left.
    """
    r, sigma, tau = bipoly_ext_prs(q, q.deriv("y"))
    if r.degree_y != 0:
        raise ValueError("q must be square-free with respect to y")
    inv = 1 / r.lc_y.lc
    return sigma * inv, tau * inv, r.lc_y * inv


def hermite_reduce(num: BiPoly, den: Poly, power: int, q: BiPoly,
                   want_certificate: bool = False, bezout=None):
    """Hermite-reduce num/(den * q^power) to (r_num, r_den, cert).

    r = r_num/r_den has deg_y r < deg_y q and num/(den * q^power) =
    d/dy(h) + r/q.  The certificate is a list of (BiPoly, Poly, j) terms
    meaning h = sum num_j/(den_j * q^j); None unless requested.  ``bezout``
    is ``_bezout_cleared(q)`` when the caller already has it.

    The loop pseudo-divides by q, so it is polynomial multiplication
    only.  Raises ValueError when power < 1 or q is not square-free in y.
    """
    if power < 1:
        raise ValueError("power must be at least 1")
    sigma, tau, w = bezout if bezout is not None else _bezout_cleared(q)
    cert = [] if want_certificate else None
    cur, d, m = num, den, power
    qy = q.deriv("y")
    lc = q.lc_y
    while m >= 2:
        Q, R, k = bipoly_pseudo_divmod(cur * tau, q)
        lck = lc**k
        if cert is not None and not R.is_zero():
            cert.append((-R, d * w * lck * (m - 1), m - 1))
        cur = (cur * sigma * lck + Q * qy) * (m - 1) + R.deriv("y")
        d = d * w * lck * (m - 1)
        m -= 1
    Q, R, k = bipoly_pseudo_divmod(cur, q)
    lck = lc**k
    if cert is not None and not Q.is_zero():
        cert.append((_antideriv_y(Q), d * lck, 0))
    return R, d * lck, cert


def _antideriv_y(p: BiPoly) -> BiPoly:
    from fractions import Fraction
    return BiPoly((Poly(),) + tuple(c * Fraction(1, i + 1)
                                    for i, c in enumerate(p.ycoeffs)))


def certificate_fraction(cert, q: BiPoly):
    """Collapse a certificate term list into one fraction (H, D, J) with
    h = H / (D * q^J)."""
    if not cert:
        return BiPoly.zero(), Poly.one(), 0
    J = max(j for _, _, j in cert)
    D = Poly.one()
    for _, den, _ in cert:
        D = poly_lcm(D, den.monic())
    H = BiPoly.zero()
    for num, den, j in cert:
        dmonic = den.monic()
        term = num * (D.exact_div(dmonic) * (1 / den.lc))
        for _ in range(J - j):
            term = term * q
        H = H + term
    return H, D, J


@dataclass(frozen=True)
class HermiteInstance:
    """A rational integrand p/q with its telescoping map and realisation."""

    p: BiPoly
    q: BiPoly
    dx: int
    dy: int
    map: PseudoLinearMap
    realisation: Realisation
    a: tuple  # coefficient vector of p in the basis 1, y, ..., y^(dy-1)


def _column(bp: BiPoly, rows: int):
    return [bp.ycoeff(t) for t in range(rows)]


def _yshift(bp: BiPoly, k: int) -> BiPoly:
    if bp.is_zero():
        return bp
    return BiPoly((Poly(),) * k + tuple(bp.ycoeffs))


def build_hermite(p: BiPoly, q: BiPoly) -> HermiteInstance:
    """Construct the telescoping instance for f = p/q.

    Requires q square-free in y, p and q coprime, deg_y p < deg_y q and
    deg_x p <= deg_x q.
    """
    if q.is_zero() or p.is_zero():
        raise ValueError("p and q must be nonzero")
    dy = q.degree_y
    dx = q.degree_x
    if dy < 1:
        raise ValueError("q must involve y")
    if not p.degree_y < dy:
        raise ValueError("deg_y p must be smaller than deg_y q")
    if not p.degree_x <= dx:
        raise ValueError("deg_x p must not exceed deg_x q")
    if not squarefree_y(q):
        raise ValueError("q must be square-free with respect to y")
    if not bipoly_coprime(p, q):
        raise ValueError("p and q must be coprime")

    qy = q.deriv("y")
    qx = q.deriv("x")
    rows = 2 * dy
    # M = [M1 | M2]: A |-> q dA/dy - q_y A on the first dy columns,
    # r |-> q r on the last dy columns
    mcols = []
    for j in range(dy):
        img = _yshift(q * j, j - 1) - _yshift(qy, j) if j else -_yshift(qy, 0)
        mcols.append(_column(img, rows))
    for j in range(dy):
        mcols.append(_column(_yshift(q, j), rows))
    M = PolyMatrix(rows, rows,
                   [mcols[j][i] for i in range(rows) for j in range(rows)])
    ycols = [_column(-_yshift(qx, j), rows) for j in range(dy)]
    Y = PolyMatrix(rows, dy,
                   [ycols[j][i] for i in range(rows) for j in range(dy)])
    X = PolyMatrix(dy, rows, [Poly.one() if c == dy + i else Poly()
                              for i in range(dy) for c in range(rows)])
    W = PolyMatrix.zeros(dy, dy)
    real = Realisation(W, X, M, Y)
    if real.delta_degree > 2 * dx * dy:
        raise AssertionError("det M exceeds the 2*dx*dy degree bound")
    a = tuple(p.ycoeff(j) for j in range(dy))
    return HermiteInstance(p, q, dx, dy, real.map, real, a)


def telescoper(inst: HermiteInstance, want_certificate: bool = False):
    """Minimal telescoper L = sum eta_i Dx^i of f, with optional certificate
    h such that L(f) = d/dy(h)."""
    rel = solve_min_relation(inst.map, list(inst.a))
    L = OrePoly([RatFun(e) for e in rel.eta], GEN_DX)
    if not want_certificate:
        return L, None
    cert = []
    bezout = _bezout_cleared(inst.q)
    for i, (num, power) in enumerate(_x_derivative_numerators(inst, rel.rho)):
        eta = rel.eta[i]
        if eta.is_zero():
            continue
        _, _, ci = hermite_reduce(num * eta, Poly.one(), power, inst.q, True,
                                  bezout)
        cert.extend(ci)
    return L, cert


def _x_derivative_numerators(inst: HermiteInstance, rho: int):
    """Numerators f_i with d^i f/dx^i = f_i / q^(i+1), for i = 0..rho."""
    q, qx = inst.q, inst.q.deriv("x")
    f = inst.p
    out = [(f, 1)]
    for i in range(rho):
        f = q * f.deriv("x") - (i + 1) * (qx * f)
        out.append((f, i + 2))
    return out


def _applied_numerator(inst: HermiteInstance, L: OrePoly):
    """The numerator N of L(f) = N / q^(rho + 1), rho = order of L:

        N = sum eta_i f_i q^(rho - i)  with  d^i f/dx^i = f_i / q^(i+1).

    Returns None when a coefficient of L is not a polynomial.
    """
    num = BiPoly.zero()
    for i, (fi, _) in enumerate(_x_derivative_numerators(inst, L.order)):
        c = L.coeff(i)
        if not c.is_poly():
            return None
        # Horner in q: term i ends up multiplied by q^(rho - i)
        num = num * inst.q + fi * c.num
    return num


def verify_telescoper(inst: HermiteInstance, L: OrePoly) -> bool:
    """Check herm(L(f)) = 0 with a single Hermite reduction of
    L(f) = N / q^(rho + 1) (see ``_applied_numerator``).

    The check is exact: for q square-free in y, the remainder r of
    g = d/dy(h) + r/q with deg_y r < deg_y q is unique, and r = 0 exactly
    when g is the y-derivative of a rational function.

    It shares no code with the solver: the x-derivatives of f are
    recomputed from p and q, never from the matrix T, the realisation or
    ``solve_min_relation``.
    """
    if L.is_zero() or L.generator != GEN_DX:
        return False
    num = _applied_numerator(inst, L)
    if num is None:
        return False
    rb, _, _ = hermite_reduce(num, Poly.one(), L.order + 1, inst.q)
    return rb.is_zero()


def certificate_matches(inst: HermiteInstance, L: OrePoly, cert) -> bool:
    """Exact check of L(f) = d/dy(h) for a telescoper certificate."""
    lhs = _applied_numerator(inst, L)
    if lhs is None:
        return False
    H, D, J = certificate_fraction(cert, inst.q)
    q = inst.q
    qy = q.deriv("y")
    rho = L.order
    # d/dy(H / (D q^J)) = (H' q - J H q_y) / (D q^(J + 1))
    rhs = H.deriv("y") * q - (H * qy) * J
    # compare over the common denominator D * q^(max(rho, J) + 1)
    lhs = lhs * D
    for _ in range(max(J - rho, 0)):
        lhs = lhs * q
    for _ in range(max(rho - J, 0)):
        rhs = rhs * q
    return lhs == rhs


def genericity_check(q: BiPoly) -> bool:
    """True iff the coefficient of x^(deg_x q), a polynomial in y, has
    degree deg_y q and is square-free."""
    if q.is_zero():
        return False
    top = q.x_slice(q.degree_x)
    if top.degree != q.degree_y:
        return False
    return poly_gcd(top, top.derivative()).degree == 0


def bound_hermite(r: int, dx: int, dy: int) -> int:
    """Telescoper degree bound r*dx + 2*r*dy*dx - r(r-1)/2 for generic q."""
    if r < 1:
        raise ValueError("order must be at least 1")
    return r * dx + 2 * r * dy * dx - r * (r - 1) // 2


def hermite_bound_report(inst: HermiteInstance, L: OrePoly):
    """Per-coefficient degree report for a computed telescoper."""
    rel = Relation(L.order, tuple(c.num for c in L.coeffs))
    return realisation_bound_report(
        "hermite", rel, d_a=int(vector_degree(list(inst.a))),
        delta_deg=inst.realisation.delta_degree,
        asserted=genericity_check(inst.q),
        bound_name="hermite",
        global_bound=bound_hermite(max(rel.rho, 1), inst.dx, inst.dy))
