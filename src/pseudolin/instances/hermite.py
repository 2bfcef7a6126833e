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
``relations.Realisation`` gives det M, nonzero iff q is square-free in y,
and the map in cleared form.

``hermite_reduce`` is the exact Hermite reduction behind the certificate;
its k = 2 step gives the verifier a T of its own.  It runs on the q-adic
digits of the numerator modulo q~(z) = l^(d_y - 1) q(z/l), l = lc_y(q),
which is monic in z = l y: every division by q~ is exact, each level's
numerator stays below y-degree 2 d_y and no power of l accumulates.  The
Bezout cofactors of (q~, q~_z) come from the fraction-free
pseudo-remainder sequence ``bipoly_ext_prs``.  Certificates are lists of
(numerator, denominator, j) terms meaning sum num/(den * q^j).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from pseudolin.bipoly import BiPoly, bipoly_coprime, bipoly_ext_prs
from pseudolin.linalg import PolyMatrix, RatMatrix
from pseudolin.ore import GEN_DX, OrePoly
from pseudolin.poly import Poly, poly_gcd, poly_lcm, zclear, zvec_content
from pseudolin.ratfun import RatFun
from pseudolin.relations import (PseudoLinearMap, Realisation, Relation,
                                 SingularRealisation,
                                 realisation_bound_report, solve_min_relation,
                                 vector_degree, verify_relation)


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
                   want_certificate: bool = False):
    """Hermite-reduce num/(den * q^power) to (r_num, r_den, cert).

    r = r_num/r_den has deg_y r < deg_y q and num/(den * q^power) =
    d/dy(h) + r/q.  For q square-free in y this r is unique, so r = 0
    exactly when num/(den * q^power) is the y-derivative of a rational
    function.  The certificate is a list of (BiPoly, Poly, j) terms
    meaning h = sum num_j/(den_j * q^j), a proper rational part plus a
    polynomial with no constant term; None unless requested.

    The reduction runs on q~(z) = l^(dy-1) q(z/l), l = lc_y(q), which is
    monic in z, so every division is exact and no power of l builds up:

    1. Transform.  With N~(z) = l^n num(z/l), n = deg_y num, the input at
       y = z/l is l^((dy-1) power - n) N~ / (den q~^power).  Since
       d/dz = (1/l) d/dy and l does not depend on z, g(y) is a
       y-derivative exactly when g(z/l) is a z-derivative, and a nonzero
       factor in Q(x) does not change whether the remainder is zero.
    2. Digits.  N~ = sum c_j q~^j with deg_z c_j < dy; digit c_j sits at
       level power - j.  The digits at levels <= 0 make a polynomial,
       the derivative of its antiderivative.
    3. Cascade, from level k = power down to 2, with sigma q~ + tau q~_z
       = w and A the numerator at level k (deg_z A < dy):
       A tau = v q~ + u with deg_z u < dy, and

           A / q~^k = d/dz(-u / ((k-1) w q~^(k-1))) + B / ((k-1) w q~^(k-1)),
           B = (k-1)(A sigma + v q~_z) + u_z.

       At z = infinity A / q~^k and the derivative both vanish to order
       at least (k-1) dy - dy + 2, so deg_z B <= dy - 2: B joins the
       digit of level k-1, scaled by the running denominator, with no
       division.
    4. Level 1 holds the remainder.  The remainder and the certificate
       go back to y through z = l y.

    Raises ValueError when power < 1 or q is not square-free in y.
    """
    return _reduce_terms([(Poly.one(), num, power)], den, q,
                         want_certificate)


def _reduce_terms(terms, den: Poly, q: BiPoly, want_certificate: bool):
    """``hermite_reduce`` of sum c num/(den q^power) over the (c, num,
    power) in terms, c in Q[x].  Each term goes to z on its own, so the
    digits of num are taken before it is multiplied by c."""
    if any(power < 1 for _, _, power in terms):
        raise ValueError("power must be at least 1")
    dy, lc = q.degree_y, q.lc_y
    terms = [(c, num, power, (dy - 1) * power - num.degree_y)
             for c, num, power in terms
             if not (c.is_zero() or num.is_zero())]
    # num/q^power at y = z/l is l^e N~/q~^power, e = (dy-1) power - n;
    # the sum is l^E times sum c l^(e-E) N~/q~^power with E = min e
    E = min((e for *_, e in terms), default=0)
    qt, pw = _monic_transform(q, max((max(num.degree_y, e - E)
                                      for _, num, _, e in terms), default=0))
    sigma, tau, w = _bezout_cleared(qt)
    qtz = qt.deriv("y")
    cert = [] if want_certificate else None
    m = max((power for _, _, power, _ in terms), default=1)
    # digits[k] is the numerator over qt^k; poly the polynomial part
    digits = [BiPoly.zero()] * (m + 1)
    poly = BiPoly.zero()
    for c, num, power, e in terms:
        c = c * pw[e - E]
        rest = BiPoly(_scale_y(num.ycoeffs, pw, num.degree_y))
        for k in range(power, 0, -1):
            rest, digit = _divmod_monic(rest, qt)
            digits[k] = digits[k] + digit * c
        poly = poly + rest * c
    D = Poly.one()
    parts = []                        # t / (c * qt^j), in z
    if cert is not None and not poly.is_zero():
        parts.append((_antideriv_y(poly), D, 0))
    a = digits[m]                     # the numerator over D * qt^k
    for k in range(m, 1, -1):
        v, u = _divmod_monic(a * tau, qt)
        s = w * (k - 1)
        if cert is not None and not u.is_zero():
            parts.append((-u, D * s, k - 1))
        D = D * s
        a = (digits[k - 1] * D + (a * sigma + v * qtz) * (k - 1)
             + u.deriv("y"))
    # back to y: the remainder is l^(E+1-dy) a(l y)/(den D), and h is
    # l^(E-1-(dy-1)j) t(l y)/(den c q^j) summed over the parts
    r_num, r_den = _unscale(a, den * D, pw, lc, E + 1 - dy)
    if cert is not None:
        for t, c, j in parts:
            cert.append(_unscale(t, den * c, pw, lc,
                                 E - 1 - (dy - 1) * j) + (j,))
    return r_num, r_den, cert


def _checked_bezout(qt: BiPoly):
    """``_bezout_cleared(qt)`` and qt_z, or None unless the products give
    sigma qt + tau qt_z = w != 0: that identity alone makes qt square-free
    and the reduction exact, whatever gcd found the cofactors."""
    sigma, tau, w = _bezout_cleared(qt)
    qtz = qt.deriv("y")
    if w.is_zero() or sigma * qt + tau * qtz != BiPoly((w,)):
        return None
    return sigma, tau, w, qtz


def _monic_transform(q: BiPoly, top: int = 0):
    """(q~, pw) with q~ = l^(dy-1) q(z/l) monic in z, l = lc_y(q) and
    dy = deg_y q, and the power table pw[k] = l^k for k <= max(dy, top).

    A root y of q gives the root z = l y of q~, so z = l y maps
    Q(x)[y]/(q) onto Q(x)[z]/(q~), and division by q~ is exact."""
    dy, lc = q.degree_y, q.lc_y
    pw = [Poly.one()]
    for _ in range(max(dy, top)):
        pw.append(pw[-1] * lc)
    return BiPoly(_scale_y(q.ycoeffs[:-1], pw, dy - 1) + [Poly.one()]), pw


def _scale_y(cs, pw, top=None) -> list:
    """The y-coefficients cs with c_j times pw[j], or times pw[top - j]
    when top is given; pw[k] = s^k, so this is p(s y), or s^top p(y/s)."""
    if top is None:
        return [c * pw[j] for j, c in enumerate(cs)]
    return [c * pw[top - j] for j, c in enumerate(cs)]


def _unscale(p: BiPoly, den: Poly, pw, lc: Poly, e: int):
    """(l^e p(l y), den) as a fraction (numerator, denominator)."""
    while len(pw) < len(p.ycoeffs):
        pw.append(pw[-1] * lc)
    p = BiPoly(_scale_y(p.ycoeffs, pw))
    if e >= 0:
        return p * lc**e, den
    return p, den * lc**(-e)


def _divmod_monic(a: BiPoly, b: BiPoly):
    """(Q, R) with a = Q b + R and deg_y R < deg_y b, for b monic in y."""
    db = b.degree_y
    r = list(a.ycoeffs)
    if len(r) <= db:
        return BiPoly.zero(), a
    low = b.ycoeffs[:-1]
    quo = [None] * (len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):
        c = quo[k] = r[k + db]
        if not c.is_zero():
            for i, bi in enumerate(low):
                if not bi.is_zero():
                    r[k + i] = r[k + i] - c * bi
    return BiPoly(quo), BiPoly(r[:db])


def _antideriv_y(p: BiPoly) -> BiPoly:
    return BiPoly((Poly(),) + tuple(c * Fraction(1, i + 1)
                                    for i, c in enumerate(p.ycoeffs)))


def certificate_fraction(cert, q: BiPoly):
    """Collapse a certificate term list into one fraction (H, D, J) with
    h = H / (D * q^J), D monic and gcd(content_x(H), D) = 1."""
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
    # one strip of H's y-coefficients and D leaves k*H/g and k*D/g for a
    # rational k; D/g is monic, so k is the stripped D's lead
    g, HD = zvec_content(zclear(H.ycoeffs + (D,))[1])
    if len(g) > 1:
        lead = HD[-1][-1]
        H = BiPoly(tuple(Poly.from_z(z, lead) for z in HD[:-1]))
        D = Poly.from_z(HD[-1], lead)
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
    try:
        real = Realisation(W, X, M, Y)
    except SingularRealisation:
        raise ValueError("q must be square-free with respect to y") from None
    if not bipoly_coprime(p, q):
        raise ValueError("p and q must be coprime")
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
    _, _, cert = _reduce_terms(_applied_terms(inst, L), Poly.one(), inst.q,
                               want_certificate=True)
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


def _applied_terms(inst: HermiteInstance, L: OrePoly):
    """The terms (eta_i, f_i, i + 1) of

        L(f) = sum eta_i f_i / q^(i+1)  with  d^i f/dx^i = f_i / q^(i+1),

    for L with polynomial coefficients eta_i."""
    return [(L.coeff(i).num, fi, power) for i, (fi, power)
            in enumerate(_x_derivative_numerators(inst, L.order))]


def _applied_numerator(inst: HermiteInstance, L: OrePoly):
    """The numerator N = sum eta_i f_i q^(rho - i) of L(f) = N / q^(rho+1),
    rho = order of L (see ``_applied_terms``)."""
    num = BiPoly.zero()
    for c, fi, _ in _applied_terms(inst, L):
        # Horner in q: term i ends up multiplied by q^(rho - i)
        num = num * inst.q + fi * c
    return num


def _dx_relation(L: OrePoly):
    """The coefficients of L as a ``Relation``, or None unless L is a
    nonzero operator in Dx with polynomial coefficients."""
    if (L.is_zero() or L.generator != GEN_DX
            or not all(c.is_poly() for c in L.coeffs)):
        return None
    return Relation(L.order, tuple(c.num for c in L.coeffs))


def _telescoping_map(q: BiPoly):
    """The matrix of T: a |-> herm(-q_x a / q^2) on the basis 1, ...,
    y^(dy-1), or None when the Bezout identity of q~ fails to check.

    Column j is herm(N/q^2), N = -y^j q_x.  With t = 2 dy - 1, N/q^2 at
    y = z/l is N~/(l q~^2), N~ = l^t N(z/l) = hi q~ + lo, and one cascade
    step of ``hermite_reduce`` (k = 2) leaves a/(w q~), so the remainder
    is a(l y)/(w l^dy).  The columns share q~ and the Bezout identity."""
    dy, t = q.degree_y, 2 * q.degree_y - 1
    qt, pw = _monic_transform(q, t)
    bez = _checked_bezout(qt)
    if bez is None:
        return None
    sigma, tau, w, qtz = bez
    qx, cols = -q.deriv("x"), []
    for j in range(dy):
        hi, lo = _divmod_monic(
            BiPoly(_scale_y(_yshift(qx, j).ycoeffs, pw, t)), qt)
        v, u = _divmod_monic(lo * tau, qt)
        cols.append(hi * w + lo * sigma + v * qtz + u.deriv("y"))
    return RatMatrix(dy, dy, [RatFun(cols[j].ycoeff(i), w * pw[dy - i])
                              for i in range(dy) for j in range(dy)])


def verify_telescoper(inst: HermiteInstance, L: OrePoly) -> bool:
    """Check herm(L(f)) = 0 as the relation of L's coefficients for
    (d/dx + T, p), with T from ``_telescoping_map`` and the relation
    decided by ``verify_relation``.  Since herm(d/dx g) =
    herm(d/dx herm(g)), herm(L(f)) = sum eta_i theta^i(p), and for q
    square-free in y it is 0 exactly when L(f) is a y-derivative.  It
    shares no code with the solver: T comes from q alone, with its Bezout
    identity checked by products, never from the instance's map.
    """
    rel = _dx_relation(L)
    T = None if rel is None else _telescoping_map(inst.q)
    return T is not None and verify_relation(
        PseudoLinearMap(T), [inst.p.ycoeff(j) for j in range(inst.dy)], rel)


def certificate_matches(inst: HermiteInstance, L: OrePoly, cert) -> bool:
    """Exact check of L(f) = d/dy(h) for a telescoper certificate."""
    if _dx_relation(L) is None:
        return False
    lhs = _applied_numerator(inst, L)
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
