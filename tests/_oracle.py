"""Brute-force reference implementations used to cross-check the solver.

``oracle_min_relation`` goes out of its way to be independent of the
production code paths: iterates via plain rational arithmetic, each
column scaled by the common denominator of its entries (so minors live in
Q[x]), ranks via exhaustive minor enumeration with recursive cofactor
determinants, and the relation via Cramer's rule on an explicitly located
nonsingular square subsystem.  No elimination, no integer kernels.

The ``fl_*`` functions are the ring operations of Q[x] on plain lists of
Fraction coefficients, the reference for the integer-backed ``Poly``;
``poly_divmod`` is schoolbook long division in Q[x] on top of them,
``ratfun_y_ext_gcd`` is the extended Euclidean algorithm in Q(x)[y] on
lists of RatFun coefficients, and ``ore_apply`` applies an operator to a
rational function by repeated differentiation.  ``right_divide`` is right
division of operators over ``RatFun`` coefficients, the reference for
``ore.is_right_multiple``, and ``from_euler`` expands an Euler operator
back to the Dx basis.  ``theta_iterates`` forms the rational iterates
theta^i(a) with ``matvec``, the reference for the solver's cleared
recurrence.

``solve_min_relation_plain`` is the reference for the solver's iteration:
the plain recurrence on the integer iterates b_i themselves, each offered
as b_i/g_i with g_i its content and a 1 in its coordinate slot, so the
den power of every b_i is put back only in the assembly of the relation.

``zp_gcd_ref`` is the heuristic gcd as it was before ``zp_gcd`` became
the two-entry case of the content strip: GCDHEU at points sized on the
smaller operand, each candidate checked by two trial divisions, then the
F_p certificate and the primitive PRS.  ``_zp_gcd_full`` adds the
integer content.  ``zvec_content_ref`` and ``GaussTrackerRef`` are the
reference for the packed content strip and the packed reductions of
``GaussTracker``: the vector lead*v - head*w formed in Z[x], and its
content from one ``zp_gcd_ref`` of the first entry with an odd-weighted
sum of the others, checked by exact divisions, with the chain of
pairwise gcds behind it.  ``bipoly_primitive_ref``, ``content_x_ref``,
``full_primitive_ref`` and ``certificate_fraction_ref`` take the same
contents above the kernel by chains of ``poly_gcd`` and ``exact_div``.

``solve_columns`` and ``realisation_map`` are the reference for the
fraction-free elimination behind ``Realisation``: one Q[x]
cross-multiplication elimination per right-hand side over columnwise
cleared denominators, a back-substitution in Q(x), and T = W + X M^-1 Y
summed entry by entry in ``RatFun``.

``hermite_reduce_pseudo`` is the reference for ``hermite.hermite_reduce``:
the classical Hermite loop on q itself, pseudo-dividing the whole running
numerator by q at every level.  ``cockle_iterates_frac`` and
``verify_resolvent_frac`` are the reference for the resolvent verifier:
the Cockle recursion on P itself, as reduced fractions C_i/d_i with two
pseudo-divisions by P and a content gcd per step, summed over the lcm of
the d_i.

``format_terms_ref`` is the reference for ``poly.format_terms``: it
prints the ``Fraction`` coefficients.

``eval_operator_ref`` and ``eval_birat_ref`` are the reference for the
expression evaluators of ``exprparse``: every product is formed, the
unit denominators and the order-0 left factors included, and a power is
one product per unit of the exponent.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from pseudolin.bipoly import BiPoly, bipoly_pseudo_divmod
from pseudolin.exprparse import (Neg, Num, Pow, Prod, SemanticError, Sum,
                                 Var, _check_order)
from pseudolin.instances.hermite import _bezout_cleared
from pseudolin import _kernel as zk
from pseudolin._kernel._zkernel_py import zp_modp_coprime
from pseudolin.linalg import GaussTracker, RatMatrix
from pseudolin.ore import (GEN_DX, GEN_EULER, OrePoly, normalize_primitive,
                           ore_mul)
from pseudolin.poly import (Poly, joint_primitive, poly_gcd, poly_lcm, zclear,
                            zvec_content, zvec_int_content)
from pseudolin.ratfun import RatFun, common_denominator
from pseudolin.relations import Relation, _iterate_step


def matvec(A: RatMatrix, v):
    """A v for a RatMatrix A and a list of RatFun."""
    if A.cols != len(v):
        raise ValueError("dimension mismatch")
    out = []
    for i in range(A.rows):
        acc = RatFun.zero()
        for k in range(A.cols):
            acc = acc + A.entry(i, k) * v[k]
        out.append(acc)
    return out


def theta_apply(pmap, v):
    """theta(v) = v' + T v, componentwise over RatFun."""
    if len(v) != pmap.n:
        raise ValueError("vector dimension mismatch")
    v = [c if isinstance(c, RatFun) else RatFun(c) for c in v]
    return [c.derivative() + w for c, w in zip(v, matvec(pmap.T, v))]


def theta_iterates(pmap, a, count: int):
    """[a, theta a, ..., theta^(count-1) a] as RatFun vectors."""
    vecs = [[RatFun(c) for c in a]]
    for _ in range(count - 1):
        vecs.append(theta_apply(pmap, vecs[-1]))
    return vecs


def cofactor_det(rows):
    """Recursive cofactor expansion along the first row (Poly entries)."""
    n = len(rows)
    if n == 0:
        return Poly.one()
    if n == 1:
        return rows[0][0]
    acc = Poly()
    sign = 1
    for j in range(n):
        if not rows[0][j].is_zero():
            minor = [[row[k] for k in range(n) if k != j]
                     for row in rows[1:]]
            acc = acc + rows[0][j] * cofactor_det(minor) * sign
        sign = -sign
    return acc


def brute_rank(cols):
    """Largest k with some nonzero k x k minor."""
    if not cols:
        return 0
    nrows = len(cols[0])
    ncols = len(cols)
    for k in range(min(nrows, ncols), 0, -1):
        for rsel in combinations(range(nrows), k):
            for csel in combinations(range(ncols), k):
                sub = [[cols[j][i] for j in csel] for i in rsel]
                if not cofactor_det(sub).is_zero():
                    return k
    return 0


def oracle_min_relation(pmap, a) -> Relation:
    """Relation from dense nullspace computation via Cramer's rule."""
    n = pmap.n
    vecs = [[RatFun(c) for c in a]]
    cols = []       # denominator-cleared columns (Poly entries)
    dens = []       # the monic clearing denominators
    rho = None

    def clear(vec):
        d = common_denominator(vec)
        return [(e * d).num for e in vec], d

    c0, d0 = clear(vecs[0])
    cols.append(c0)
    dens.append(d0)
    for m in range(1, n + 2):
        vecs.append(theta_apply(pmap, vecs[-1]))
        cm, dm = clear(vecs[-1])
        cols.append(cm)
        dens.append(dm)
        if brute_rank(cols) == m:
            rho = m
            break
    assert rho is not None, "no dependence within n+1 iterates"
    # nonsingular rho x rho row selection of the first rho cleared columns
    square = None
    for rsel in combinations(range(n), rho):
        sub = [[cols[j][i] for j in range(rho)] for i in rsel]
        d = cofactor_det(sub)
        if not d.is_zero():
            square = (rsel, sub, d)
            break
    assert square is not None
    rsel, sub, det = square
    rhs = [-cols[rho][i] for i in rsel]
    # Cramer on the cleared system: sum_j w_j C_j = -C_rho, then
    # nu_j = w_j d_j / d_rho recovers theta^rho a = sum nu_j theta^j a.
    nu = []
    for j in range(rho):
        replaced = [[rhs[i] if k == j else sub[i][k] for k in range(rho)]
                    for i in range(rho)]
        w = RatFun(cofactor_det(replaced), det)
        nu.append(w * dens[j] / dens[rho])
    ell = Poly.one()
    for v in nu:
        ell = poly_lcm(ell, v.den)
    eta = [v.num * ell.exact_div(v.den) for v in nu] + [ell]
    d = 1
    for p in eta:
        for f in p.coeffs:
            d = lcm(d, f.denominator)
    g = 0
    for p in eta:
        for f in p.coeffs:
            g = gcd(g, int(f * d))
    scale = Fraction(d, g)
    if eta[-1].lc * scale < 0:
        scale = -scale
    return Relation(rho, tuple(p * scale for p in eta))


def solve_min_relation_plain(pmap, a) -> Relation:
    """The minimal relation from the plain iterates b_i = sa den^i theta^i a.

    Each b_i is offered as p_i = b_i/g_i with a 1 in coordinate slot i, so
    sum c_j p_j = 0 gives eta_j = c_j den^j/g_j up to a factor of Q(x).
    Each c_j/g_j is reduced to num_j/dg_j, and with L the lcm of the dg_j
    the vector num_j den^j L/dg_j is made primitive with a positive leading
    coefficient in eta_rho.
    """
    n = pmap.n
    a = [c if isinstance(c, Poly) else Poly.const(c) for c in a]
    den_z, N_z = pmap.cleared()
    denp_z = zk.zp_deriv(den_z)
    _, b = zclear(a)
    tracker = GaussTracker(n)
    contents = []
    i = 0
    while True:
        g, p = zvec_content(b)
        contents.append(g)
        aug = p + [[] for _ in range(n + 1)]
        aug[n + i] = [1]
        coords = tracker.offer(aug)
        if coords is not None:
            break
        b = _iterate_step(den_z, N_z, b, zk.zp_scale(denp_z, -i))
        i += 1
    nums, dgs, L = [], [], [1]
    for num, dg in zip(coords[:i + 1], contents):
        if num and dg != [1]:
            h = _zp_gcd_full(num, dg)
            num, dg = zk.zp_divexact(num, h), zk.zp_divexact(dg, h)
            L = zk.zp_mul(L, zk.zp_divexact(dg, _zp_gcd_full(L, dg)))
        nums.append(num)
        dgs.append(dg)
    eta, dpow = [], [1]
    for j, (num, dg) in enumerate(zip(nums, dgs)):
        if j:
            dpow = zk.zp_mul(dpow, den_z)
        eta.append(zk.zp_mul(zk.zp_mul(num, dpow), zk.zp_divexact(L, dg))
                   if num else [])
    _, eta = zvec_content(eta)
    if eta[-1][-1] < 0:
        eta = [zk.zp_neg(z) for z in eta]
    return Relation(i, tuple(Poly.from_z(z) for z in eta))


def _horner_pow2(a, k):
    """a(2^k) by Horner's rule."""
    v = 0
    for c in reversed(a):
        v = (v << k) + c
    return v


def _balanced_digits(h, k):
    """The balanced base-2^k digits of the int h, as a zpoly."""
    xi, out = 1 << k, []
    while h:
        d = h & (xi - 1)
        if d >= xi >> 1:
            d -= xi
        out.append(d)
        h = (h - d) >> k
    return out


def zp_gcd_ref(a, b):
    """Primitive gcd in Z[x] with positive leading coefficient: GCDHEU at
    xi = 2^(8*nb) >= 2*min(|a|, |b|) + 2, where a candidate prim(G) that
    divides both a and b is the gcd; four points, each wider by half, then
    the coprimality certificate over F_p and the primitive PRS."""
    a, _ = zk.zp_primitive(a)
    b, _ = zk.zp_primitive(b)
    if not a:
        a, b = b, a
    if b and len(a) > 1 and len(b) > 1:
        nb = (min(max(map(abs, a)), max(map(abs, b))).bit_length() + 8) >> 3
        for _ in range(4):
            k = nb << 3
            h = gcd(_horner_pow2(a, k), _horner_pow2(b, k))
            if h.bit_length() < k:
                return [1]
            g, _ = zk.zp_primitive(_balanced_digits(h, k))
            try:
                zk.zp_divexact(a, g)
                zk.zp_divexact(b, g)
                return g
            except ValueError:
                nb += 1 + nb // 2
        if zp_modp_coprime(a, b):
            return [1]
    while b:
        r = zk.zp_pseudorem(a, b)
        r, _ = zk.zp_primitive(r)
        a, b = b, r
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a


def _zp_gcd_full(a, b):
    """gcd of two nonzero zpolys in Z[x], integer content included."""
    c = gcd(zk.zp_content(a), zk.zp_content(b))
    g = zp_gcd_ref(a, b) if len(a) > 1 and len(b) > 1 else [1]
    return zk.zp_scale(g, c) if c > 1 else g


def _strip_poly_content_ref(vec):
    """(g, vec/g) for g the polynomial content of an integer-primitive
    zpoly vector: the gcd of the first nonzero entry with an odd-weighted
    sum of the others, checked by exact divisions, and the chain of
    pairwise gcds when one of them fails."""
    live = [z for z in vec if z]
    if not live or any(len(z) == 1 for z in live):
        return [1], vec
    if len(live) == 1:
        # its own content, with a positive leading coefficient
        u = 1 if live[0][-1] > 0 else -1
        return zk.zp_scale(live[0], u), [[u] if z else z for z in vec]
    rest = []
    for w, z in enumerate(live[1:]):
        rest = zk.zp_add(rest, zk.zp_scale(z, 2 * w + 1))
    g = zp_gcd_ref(live[0], rest)
    if len(g) == 1:
        return [1], vec
    try:
        return g, [zk.zp_divexact(z, g) if z else z for z in vec]
    except ValueError:
        pass
    g = live[0]
    for z in live[1:]:
        g = zp_gcd_ref(g, z)
        if len(g) == 1:
            return [1], vec
    return g, [zk.zp_divexact(z, g) if z else z for z in vec]


def zvec_content_ref(vec):
    """(g, vec/g) for g the content of a zpoly vector, as ``zvec_content``
    gives it: integer content first, then the polynomial content."""
    c, vec = zvec_int_content(vec)
    if c == 0:
        return [1], vec
    g, vec = _strip_poly_content_ref(vec)
    return (zk.zp_scale(g, c) if c > 1 else g), vec


class GaussTrackerRef:
    """``GaussTracker`` with every reduction formed in Z[x]: the cofactor
    step, then (lead/h)*v - (head/h)*w by ``zp_mul`` and ``zp_sub`` and
    the strip ``zvec_content_ref``; the unit-lead step and its deferred
    strip are those of ``GaussTracker``."""

    def __init__(self, width: int):
        self.width = width
        self.pivots = []

    def offer(self, vec):
        vec = list(vec)
        pending = False
        for pr, pvec in self.pivots:
            head = vec[pr]
            if not head:
                continue
            lead = pvec[pr]
            if lead == [1]:
                for j, w in enumerate(pvec):
                    if w:
                        vec[j] = zk.zp_sub(vec[j], zk.zp_mul(head, w))
                pending = True
                continue
            if len(head) > 1 and len(lead) > 1:
                h = zp_gcd_ref(head, lead)
                if len(h) > 1:
                    head = zk.zp_divexact(head, h)
                    lead = zk.zp_divexact(lead, h)
            vec = [zk.zp_sub(zk.zp_mul(v, lead), zk.zp_mul(head, w))
                   for v, w in zip(vec, pvec)]
            vec = zvec_content_ref(vec)[1]
            pending = False
        if pending:
            vec = zvec_content_ref(vec)[1]
        if any(vec[j] for j in range(self.width)):
            pr = min((j for j in range(self.width) if vec[j]),
                     key=lambda j: len(vec[j]))
            self.pivots.append((pr, vec))
            return None
        return vec[self.width:]


def content_x_ref(p: BiPoly) -> Poly:
    """Monic gcd over Q[x] of the y-coefficients, a chain of poly_gcd."""
    g = Poly()
    for c in p.ycoeffs:
        g = poly_gcd(g, c)
    return g


def bipoly_primitive_ref(*ps):
    """The BiPolys divided jointly by the monic gcd of all their
    x-coefficients (a poly_gcd chain, then exact_div), then by their
    positive rational content."""
    g = Poly()
    for c in [c for p in ps for c in p.ycoeffs]:
        g = poly_gcd(g, c)
        if g.degree == 0:
            break
    if g.degree > 0:
        ps = [BiPoly(tuple(c.exact_div(g) for c in p.ycoeffs)) for p in ps]
    flat = joint_primitive([c for p in ps for c in p.ycoeffs])
    out, i = [], 0
    for p in ps:
        n = len(p.ycoeffs)
        out.append(BiPoly(flat[i:i + n]))
        i += n
    return tuple(out)


def full_primitive_ref(L: OrePoly) -> OrePoly:
    """normalize_primitive, then the coefficients divided by their monic
    gcd (a poly_gcd chain) and normalized again."""
    if L.is_zero():
        return L
    prim = normalize_primitive(L)
    polys = [c.num for c in prim.coeffs]
    g = Poly()
    for p in polys:
        g = poly_gcd(g, p)
        if g.degree == 0:
            break
    if g.degree > 0:
        polys = [p.exact_div(g) for p in polys]
        return normalize_primitive(OrePoly(
            tuple(RatFun(p) for p in polys), L.generator))
    return prim


def certificate_fraction_ref(cert, q: BiPoly):
    """The certificate as one fraction (H, D, J), h = H/(D q^J), with
    g = poly_gcd(content_x(H), D) divided out of H and D."""
    if not cert:
        return BiPoly.zero(), Poly.one(), 0
    J = max(j for _, _, j in cert)
    D = Poly.one()
    for _, den, _ in cert:
        D = poly_lcm(D, den.monic())
    H = BiPoly.zero()
    for num, den, j in cert:
        term = num * (D.exact_div(den.monic()) * (1 / den.lc))
        for _ in range(J - j):
            term = term * q
        H = H + term
    g = poly_gcd(content_x_ref(H), D)
    if g.degree > 0:
        H = BiPoly(tuple(c.exact_div(g) for c in H.ycoeffs))
        D = D.exact_div(g)
    return H, D, J


# Q[x] as lists of Fraction coefficients, index i holding the coefficient
# of x^i, with no trailing zero (the zero polynomial is []): the reference
# for Poly's integer-backed ring operations.

def fl_trim(a):
    a = [Fraction(c) for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def fl_add(a, b):
    n = max(len(a), len(b))
    return fl_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                    for i in range(n)])


def fl_neg(a):
    return [-c for c in a]


def fl_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return fl_trim(out)


def fl_deriv(a):
    return fl_trim([i * a[i] for i in range(1, len(a))])


def fl_monic(a):
    return [c / a[-1] for c in a] if a else []


def fl_eval(a, point):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * point + c
    return acc


def fl_divmod(a, b):
    """(q, r) with a = q*b + r and deg r < deg b, by long division."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return [], fl_trim(rem)
    q = [Fraction(0)] * (len(rem) - db)
    for k in range(len(rem) - 1 - db, -1, -1):
        c = rem[db + k] / b[-1]
        q[k] = c
        for i, bc in enumerate(b):
            rem[i + k] -= c * bc
    return fl_trim(q), fl_trim(rem[:db])


def poly_divmod(a: Poly, b: Poly):
    """(q, r) with a = q*b + r and deg r < deg b, by long division over
    Fraction coefficients."""
    q, r = fl_divmod(list(a.coeffs), list(b.coeffs))
    return Poly(q), Poly(r)


# Elements of Q(x)[y] as lists of RatFun, index j holding the coefficient
# of y^j, with no trailing zero (the zero polynomial is []).

def _trim(p):
    p = list(p)
    while p and p[-1].is_zero():
        p.pop()
    return p


def _y_sub(a, b):
    n = max(len(a), len(b))
    zero = RatFun.zero()
    return _trim([(a[i] if i < len(a) else zero)
                  - (b[i] if i < len(b) else zero) for i in range(n)])


def _y_mul(a, b):
    if not a or not b:
        return []
    out = [RatFun.zero()] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = out[i + j] + u * v
    return _trim(out)


def _y_divmod(a, b):
    rem = list(a)
    q = [RatFun.zero()] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        q[k] = c
        for i, bc in enumerate(b):
            rem[i + k] = rem[i + k] - c * bc
    return _trim(q), _trim(rem[:len(b) - 1])


def ratfun_y_ext_gcd(a, b):
    """Extended Euclid in Q(x)[y]: (g, s, t) with s*a + t*b = g, g monic
    (g = [] when a = b = [])."""
    r0, r1 = _trim(a), _trim(b)
    s0, s1, t0, t1 = [RatFun.one()], [], [], [RatFun.one()]
    while r1:
        q, r = _y_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _y_sub(s0, _y_mul(q, s1))
        t0, t1 = t1, _y_sub(t0, _y_mul(q, t1))
    if not r0:
        return r0, s0, t0
    inv = [RatFun.one() / r0[-1]]
    return _y_mul(r0, inv), _y_mul(s0, inv), _y_mul(t0, inv)


def ore_apply(L, f: RatFun) -> RatFun:
    """L(f) for a Dx- or Euler-operator L and a RatFun f: the j-th term
    applies Dx (or x*Dx) j times to f."""
    acc = RatFun.zero()
    g = f
    for j, c in enumerate(L.coeffs):
        if j:
            g = g.derivative()
            if L.generator == GEN_EULER:
                g = g * Poly.x()
        acc = acc + c * g
    return acc


def right_divide(a, b):
    """Right division a = q*b + r with order(r) < order(b)."""
    a._check_gen(b)
    if b.is_zero():
        raise ZeroDivisionError("right division by the zero operator")
    gen = a.generator
    q = OrePoly.zero(gen)
    r = a
    while not r.is_zero() and r.order >= b.order:
        k = r.order - b.order
        factor = r.lc / b.lc
        mono = OrePoly((RatFun.zero(),) * k + (factor,), gen)
        q = q + mono
        r = r - ore_mul(mono, b)
    return q, r


def from_euler(L):
    """Substitute E = x*Dx and expand back to the derivation basis."""
    if L.generator != GEN_EULER:
        raise ValueError("expected an Euler-generator operator")
    if L.is_zero():
        raise ValueError("cannot convert the zero operator")
    xdx = OrePoly((RatFun.zero(), RatFun(Poly.x())), GEN_DX)
    acc = OrePoly.zero(GEN_DX)
    power = OrePoly.from_scalar(1, GEN_DX)
    for j, c in enumerate(L.coeffs):
        if j:
            power = ore_mul(power, xdx)
        if not c.is_zero():
            acc = acc + power.scale(c)
    return normalize_primitive(acc)


def solve_columns(A: RatMatrix, b):
    """Solve A nu = b for a full-column-rank A over Q(x): each column and
    b are scaled by their least common denominators, the scaled system is
    eliminated over Q[x] by plain cross-multiplication, and the scaling is
    undone on the back-substituted solution.  None when inconsistent;
    ValueError when A does not have full column rank."""
    cols, dens = [], []
    for j in range(A.cols):
        col = A.col(j)
        d = common_denominator(col)
        dens.append(d)
        cols.append([(e * d).num for e in col])
    bden = common_denominator(b)
    rows = [[cols[j][i] for j in range(A.cols)] + [(b[i] * bden).num]
            for i in range(A.rows)]
    n, m = A.rows, A.cols
    for c in range(m):
        piv = next((i for i in range(c, n) if not rows[i][c].is_zero()), -1)
        if piv < 0:
            raise ValueError("matrix does not have full column rank")
        rows[c], rows[piv] = rows[piv], rows[c]
        for i in range(c + 1, n):
            if not rows[i][c].is_zero():
                head, lead = rows[i][c], rows[c][c]
                rows[i] = [rj * lead - rr * head
                           for rj, rr in zip(rows[i], rows[c])]
    if any(not rows[i][m].is_zero() for i in range(m, n)):
        return None
    y = [RatFun.zero()] * m
    for c in range(m - 1, -1, -1):
        acc = RatFun(rows[c][m])
        for j in range(c + 1, m):
            acc = acc - RatFun(rows[c][j]) * y[j]
        y[c] = acc / RatFun(rows[c][c])
    return [dens[j] * y[j] / RatFun(bden) for j in range(m)]


def realisation_map(W, X, M, Y) -> RatMatrix:
    """W + X M^-1 Y from one ``solve_columns`` call per column of Y."""
    n, m = X.rows, M.rows
    Mrat = RatMatrix(m, m, [RatFun(e) for e in M.entries])
    cols = []
    for j in range(n):
        sol = solve_columns(Mrat, [RatFun(Y.entry(i, j)) for i in range(m)])
        if sol is None:
            raise ValueError("inconsistent realisation solve")
        cols.append(sol)
    entries = []
    for i in range(n):
        for j in range(n):
            acc = RatFun(W.entry(i, j))
            for k in range(m):
                acc = acc + RatFun(X.entry(i, k)) * cols[j][k]
            entries.append(acc)
    return RatMatrix(n, n, entries)


def _antideriv_y(p: BiPoly) -> BiPoly:
    return BiPoly((Poly(),) + tuple(c * Fraction(1, i + 1)
                                    for i, c in enumerate(p.ycoeffs)))


def hermite_reduce_pseudo(num: BiPoly, den: Poly, power: int, q: BiPoly,
                          want_certificate: bool = False):
    """(r_num, r_den, cert) with num/(den q^power) = d/dy(h) + r/q and
    deg_y r < deg_y q, h = sum of the certificate terms t/(c q^j).

    Each level pseudo-divides cur * tau by q, with sigma q + tau q_y = w:
    lc_y(q)^k cur tau = Q q + R, so the level sheds d/dy(-R/((m-1) q^(m-1)))
    and everything is scaled by lc_y(q)^k w (m - 1)."""
    if power < 1:
        raise ValueError("power must be at least 1")
    sigma, tau, w = _bezout_cleared(q)
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


def cockle_iterates_frac(P: BiPoly, count: int):
    """Pairs (C_i, d_i) with D_i = C_i/d_i, D_0 = y mod P and
    D_(i+1) = D_i' - dD_i/dy * P_x / P_y mod P, in Q[x][y] by
    pseudo-division by P; 1/P_y mod P is tau/w from the Bezout identity
    sigma P + tau P_y = w.  After every step C and d are divided by
    gcd(content_x(C), d)."""
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


def verify_resolvent_frac(P: BiPoly, L) -> bool:
    """sum eta_i D_i = 0 modulo P over the lcm of the d_i of
    ``cockle_iterates_frac``."""
    if L.is_zero() or L.generator != GEN_DX:
        return False
    terms = []
    for i, (C, d) in enumerate(cockle_iterates_frac(P, L.order + 1)):
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


def eval_operator_ref(node) -> OrePoly:
    """An expression tree as an operator, every product by ``ore_mul``."""
    if isinstance(node, Num):
        return OrePoly.from_scalar(node.value, GEN_DX)
    if isinstance(node, Var):
        if node.name == "x":
            return OrePoly.from_scalar(RatFun(Poly.x()), GEN_DX)
        if node.name == "Dx":
            return OrePoly.gen(GEN_DX)
        raise SemanticError("y is not allowed in an operator", node.pos)
    if isinstance(node, Neg):
        return -eval_operator_ref(node.operand)
    if isinstance(node, Pow):
        base = eval_operator_ref(node.base)
        if base.order <= 0:
            return OrePoly.from_scalar(base.coeff(0) ** node.exp, GEN_DX)
        _check_order(base.order * node.exp, node.pos)
        out = OrePoly.from_scalar(1, GEN_DX)
        for _ in range(node.exp):
            out = ore_mul(out, base)
        return out
    if isinstance(node, (Sum, Prod)):
        lhs = eval_operator_ref(node.first)
        for op, operand, pos in node.rest:
            rhs = eval_operator_ref(operand)
            if op == "+":
                lhs = lhs + rhs
            elif op == "-":
                lhs = lhs - rhs
            elif op == "*":
                _check_order(lhs.order + rhs.order, pos)
                lhs = ore_mul(lhs, rhs)
            elif rhs.is_zero():
                raise SemanticError("division by zero", pos)
            elif rhs.order > 0:
                raise SemanticError("Dx cannot appear in a denominator", pos)
            else:
                lhs = lhs.scale(RatFun.one() / rhs.coeff(0))
        return lhs
    raise TypeError(f"unknown node {node!r}")


def eval_birat_ref(node):
    """An expression tree as an unreduced pair (numerator, denominator)
    of BiPoly, every product formed."""
    if isinstance(node, Num):
        return BiPoly([Poly.const(node.value)]), BiPoly.one()
    if isinstance(node, Var):
        if node.name == "x":
            return BiPoly([Poly.x()]), BiPoly.one()
        if node.name == "y":
            return BiPoly.y(), BiPoly.one()
        raise SemanticError("Dx is not allowed in a rational expression",
                            node.pos)
    if isinstance(node, Neg):
        n, d = eval_birat_ref(node.operand)
        return -n, d
    if isinstance(node, Pow):
        n, d = eval_birat_ref(node.base)
        nn, dd = BiPoly.one(), BiPoly.one()
        for _ in range(node.exp):
            nn, dd = nn * n, dd * d
        return nn, dd
    if isinstance(node, (Sum, Prod)):
        n1, d1 = eval_birat_ref(node.first)
        for op, operand, pos in node.rest:
            n2, d2 = eval_birat_ref(operand)
            if op == "+":
                n1, d1 = n1 * d2 + n2 * d1, d1 * d2
            elif op == "-":
                n1, d1 = n1 * d2 - n2 * d1, d1 * d2
            elif op == "*":
                n1, d1 = n1 * n2, d1 * d2
            elif n2.is_zero():
                raise SemanticError("division by zero", pos)
            else:
                n1, d1 = n1 * d2, d1 * n2
        return n1, d1
    raise TypeError(f"unknown node {node!r}")


def format_terms_ref(rows, sym="") -> str:
    """``poly.format_terms`` on the ``Fraction`` coefficients of the rows:
    each nonzero coefficient printed by ``str``, a unit magnitude left out
    except in the constant term."""
    parts = []
    for j in range(len(rows) - 1, -1, -1):
        cs = rows[j].coeffs
        for i in range(len(cs) - 1, -1, -1):
            c = cs[i]
            if c == 0:
                continue
            mag = abs(c)
            factors = [str(mag)] if mag != 1 or i == j == 0 else []
            if i >= 1:
                factors.append("x" if i == 1 else f"x^{i}")
            if j >= 1:
                factors.append(sym if j == 1 else f"{sym}^{j}")
            term = "*".join(factors)
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append((" + " if c > 0 else " - ") + term)
    return "".join(parts) or "0"
