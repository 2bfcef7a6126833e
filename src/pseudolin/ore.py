"""Linear differential operators with rational-function coefficients.

An :class:`OrePoly` is a dense list of :class:`RatFun` coefficients of
powers of a generator, either the derivation ``Dx`` or the Euler operator
``Euler`` (x*d/dx).  Multiplication is noncommutative, driven by the
commutation rules  Dx*f = f*Dx + f'  and  Euler*f = f*Euler + x*f'.

Conversions between the two generator bases use the falling-factorial
identity  x^j Dx^j = E(E-1)...(E-j+1): multiplying an order-r operator by
x^r on the left and expanding yields an Euler-form operator with
polynomial coefficients and the same solution set.  Canonical outputs are
"primitive": polynomial coefficients, jointly integer-primitive, with a
positive leading rational in the leading coefficient.

Right division only decides divisibility: ``is_right_multiple`` runs a
fraction-free right pseudo-division on integer polynomial coefficients
(the LCLM verifier's check).
"""

from __future__ import annotations

from pseudolin import _kernel as zk
from pseudolin.poly import NEG_INF, Poly, zvec_content, zvec_int_content
from pseudolin.ratfun import RatFun, zclear_ratfuns

GEN_DX = "Dx"
GEN_EULER = "Euler"


def _as_ratfun(c) -> RatFun:
    return c if isinstance(c, RatFun) else RatFun(c)


class OrePoly:
    """Linear differential operator in one generator over Q(x)."""

    __slots__ = ("generator", "coeffs")

    def __init__(self, coeffs=(), generator: str = GEN_DX):
        if generator not in (GEN_DX, GEN_EULER):
            raise ValueError(f"unknown generator {generator!r}")
        cs = [_as_ratfun(c) for c in coeffs]
        n = len(cs)
        while n and cs[n - 1].is_zero():
            n -= 1
        object.__setattr__(self, "coeffs", tuple(cs[:n]))
        object.__setattr__(self, "generator", generator)

    def __setattr__(self, name, value):
        raise AttributeError("OrePoly is immutable")

    @staticmethod
    def zero(generator: str = GEN_DX) -> OrePoly:
        return OrePoly((), generator)

    @staticmethod
    def gen(generator: str = GEN_DX) -> OrePoly:
        return OrePoly((0, 1), generator)

    @staticmethod
    def from_scalar(f, generator: str = GEN_DX) -> OrePoly:
        return OrePoly((f,), generator)

    @property
    def order(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> RatFun:
        return self.coeffs[-1] if self.coeffs else RatFun.zero()

    def coeff(self, j: int) -> RatFun:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else RatFun.zero()

    def _check_gen(self, other: OrePoly):
        if self.generator != other.generator:
            raise ValueError("generator mismatch")

    def __add__(self, other: OrePoly) -> OrePoly:
        self._check_gen(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return OrePoly(out, self.generator)

    def __sub__(self, other: OrePoly) -> OrePoly:
        return self + (-other)

    def __neg__(self) -> OrePoly:
        return OrePoly(tuple(-c for c in self.coeffs), self.generator)

    def scale(self, f) -> OrePoly:
        """Left multiplication by a rational function (coefficientwise)."""
        f = _as_ratfun(f)
        return OrePoly(tuple(c * f for c in self.coeffs), self.generator)

    def __mul__(self, other):
        if isinstance(other, OrePoly):
            return ore_mul(self, other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, OrePoly):
            return NotImplemented
        return (self.generator == other.generator
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(("OrePoly", self.generator, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if self.is_zero():
            return "0"
        sym = "Dx" if self.generator == GEN_DX else "E"
        parts = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[j]
            if c.is_zero():
                continue
            head = f"({c})"
            parts.append(f"{head}*{sym}^{j}" if j else head)
        return " + ".join(parts)

    def __repr__(self):
        return f"OrePoly({str(self)!r}, {self.generator!r})"


def _delta(c: RatFun, generator: str) -> RatFun:
    """The derivation attached to the generator: f' or x*f'."""
    d = c.derivative()
    if generator == GEN_EULER:
        d = d * Poly.x()
    return d


def ore_mul(a: OrePoly, b: OrePoly) -> OrePoly:
    """Noncommutative product a*b (apply b first, then a)."""
    a._check_gen(b)
    gen = a.generator
    if a.is_zero() or b.is_zero():
        return OrePoly.zero(gen)
    # powers[i] = gen^i composed with b, as coefficient lists
    cur = list(b.coeffs)
    out = [RatFun.zero()] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if not ca.is_zero():
            for j, cb in enumerate(cur):
                out[j] = out[j] + ca * cb
        if i + 1 < len(a.coeffs):
            nxt = [RatFun.zero()] * (len(cur) + 1)
            for j, cb in enumerate(cur):
                nxt[j + 1] = nxt[j + 1] + cb
                nxt[j] = nxt[j] + _delta(cb, gen)
            cur = nxt
    return OrePoly(out, gen)


def is_right_multiple(a: OrePoly, b: OrePoly) -> bool:
    """True when b right-divides a, i.e. a = q*b for an operator q over
    Q(x), by fraction-free right pseudo-division.

    Both operators are first cleared to integer polynomial coefficients
    by a left scalar (``zclear_ratfuns``), which does not change right
    divisibility.  Each step then cancels the top coefficient of the
    remainder r with

        r <- (lc_b/g) r - (lc_r/g) gen^k b,    g = gcd(lc_b, lc_r),

    which again only multiplies r on the left by a nonzero polynomial, so
    b right-divides a iff the final r (of order below b's) is 0.  The
    cofactors lc_b/g and lc_r/g come from the content strip of the pair
    (``zvec_poly_content``).  A step forms all of the new r, top included,
    by one ``zmat_mul`` and answers False unless the top cancels with a
    nonzero lc_b/g, so wrong cofactors can never give True.  The shifts
    gen^k b come from gen (c gen^j) = delta(c) gen^j + c gen^(j+1), and
    r's integer content is stripped after every step.  All arithmetic is
    the kernel's, in Z[x]: no ``Fraction`` or ``RatFun``.
    """
    a._check_gen(b)
    if b.is_zero():
        raise ZeroDivisionError("right division by the zero operator")
    euler = a.generator == GEN_EULER
    r = zclear_ratfuns(a.coeffs)[1]
    shifted = [zclear_ratfuns(b.coeffs)[1]]  # shifted[k] = gen^k * b
    m = len(shifted[0]) - 1
    lb = shifted[0][-1]
    while len(r) - 1 >= m:
        k = len(r) - 1 - m
        while len(shifted) <= k:
            prev = shifted[-1]
            nxt = [[]] + prev
            for j, c in enumerate(prev):
                dc = zk.zp_deriv(c)
                if euler and dc:
                    dc = [0] + dc
                nxt[j] = zk.zp_add(nxt[j], dc)
            shifted.append(nxt)
        _, (u, v) = zk.zvec_poly_content([lb, r[-1]])
        r = zk.zmat_mul([[u, zk.zp_neg(v)]], [r, shifted[k]])[0]
        if not u or r.pop():
            return False
        while r and not r[-1]:
            r.pop()
        r = zvec_int_content(r)[1]
    return not r


def normalize_primitive(L: OrePoly) -> OrePoly:
    """Canonical form: polynomial coefficients, jointly integer-primitive,
    positive leading rational in the leading coefficient.

    Common polynomial factors are kept (a left factor in Q[x] changes the
    operator); :func:`full_primitive` strips those too.
    """
    return _strip_content(L, zvec_int_content)


def full_primitive(L: OrePoly) -> OrePoly:
    """Like :func:`normalize_primitive` but also divides out the common
    polynomial factor of the coefficients."""
    return _strip_content(L, zvec_content)


def _strip_content(L: OrePoly, strip) -> OrePoly:
    """L's cleared coefficients divided by the content that strip takes,
    with a positive leading rational in the leading coefficient."""
    if L.is_zero():
        return L
    _, zs = strip(zclear_ratfuns(L.coeffs)[1])
    if zs[-1][-1] < 0:
        zs = [zk.zp_neg(z) for z in zs]
    return OrePoly(tuple(RatFun(Poly.from_z(z)) for z in zs), L.generator)


def _euler_raw(L: OrePoly) -> OrePoly:
    """x^r * L rewritten in the Euler generator, without content clearing."""
    if L.generator != GEN_DX:
        raise ValueError("expected a Dx-generator operator")
    if L.is_zero():
        raise ValueError("cannot convert the zero operator")
    polys = [Poly.from_z(z) for z in zclear_ratfuns(L.coeffs)[1]]
    r = len(polys) - 1
    x = Poly.x()
    out = [Poly() for _ in range(r + 1)]
    # falling factorial E(E-1)...(E-l+1) as integer coefficient lists in E
    fall = [1]
    for ell, p in enumerate(polys):
        if ell:
            new = [0] * (len(fall) + 1)
            for j, c in enumerate(fall):
                new[j + 1] += c
                new[j] -= c * (ell - 1)
            fall = new
        if p.is_zero():
            continue
        shift = p * x**(r - ell)
        for j, c in enumerate(fall):
            if c:
                out[j] = out[j] + shift * c
    return OrePoly(tuple(RatFun(p) for p in out), GEN_EULER)


def to_euler(L: OrePoly) -> OrePoly:
    """Rewrite a Dx-operator in the Euler generator (content-cleared).

    The result has polynomial coefficients and the same solution set; it is
    the fully content-cleared form of x^order(L) * L expanded through
    x^j Dx^j = E(E-1)...(E-j+1).
    """
    return full_primitive(_euler_raw(L))


def infinity_not_irregular(L: OrePoly) -> bool:
    """True iff deg p_j + (r - j) <= deg p_r for all j (so the point at
    infinity is ordinary or a regular singularity), for p_j the polynomial
    coefficients of the primitive form.

    Clearing multiplies every coefficient by one common denominator, so
    the test reads deg num - deg den of each coefficient of L as it is."""
    if L.is_zero():
        raise ValueError("zero operator")
    if L.generator != GEN_DX:
        raise ValueError("expected a Dx-generator operator")
    degs = [c.num.degree - c.den.degree for c in L.coeffs]
    r = len(degs) - 1
    return all(d + (r - j) <= degs[r] for j, d in enumerate(degs))
