"""Bivariate polynomial layers: Q[x][y] and Q(x)[y].

:class:`BiPoly` is a dense list of :class:`Poly` coefficients in y (index j
holds the x-polynomial coefficient of y^j); :class:`YPoly` is the same with
:class:`RatFun` coefficients, i.e. an element of the vector space of
y-polynomials over the field Q(x).  Both strip trailing zero coefficients,
and the zero polynomial has y-degree ``NEG_INF``.

The Sylvester-matrix resultant follows a fixed row convention (documented
on :func:`resultant_y`) because it pins the sign of determinant-vs-resultant
identities used elsewhere.
"""

from __future__ import annotations

from fractions import Fraction

from pseudolin.linalg import PolyMatrix, det_fraction_free
from pseudolin.poly import NEG_INF, Poly, poly_gcd
from pseudolin.ratfun import RatFun, common_denominator


def _as_poly(e) -> Poly:
    if isinstance(e, Poly):
        return e
    if isinstance(e, (int, Fraction)):
        return Poly.const(e)
    raise TypeError(f"cannot interpret {type(e).__name__} as Poly")


class BiPoly:
    """Element of Q[x][y], dense in y."""

    __slots__ = ("ycoeffs",)

    def __init__(self, ycoeffs=()):
        cs = [_as_poly(c) for c in ycoeffs]
        n = len(cs)
        while n and cs[n - 1].is_zero():
            n -= 1
        object.__setattr__(self, "ycoeffs", tuple(cs[:n]))

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @staticmethod
    def zero() -> BiPoly:
        return BiPoly()

    @staticmethod
    def one() -> BiPoly:
        return BiPoly((Poly.one(),))

    @staticmethod
    def y() -> BiPoly:
        return BiPoly((Poly(), Poly.one()))

    def is_zero(self) -> bool:
        return not self.ycoeffs

    @property
    def degree_y(self):
        return len(self.ycoeffs) - 1 if self.ycoeffs else NEG_INF

    @property
    def degree_x(self):
        if not self.ycoeffs:
            return NEG_INF
        return max(c.degree for c in self.ycoeffs)

    def ycoeff(self, j: int) -> Poly:
        return self.ycoeffs[j] if 0 <= j < len(self.ycoeffs) else Poly()

    @property
    def lc_y(self) -> Poly:
        """Leading coefficient with respect to y (a polynomial in x)."""
        return self.ycoeffs[-1] if self.ycoeffs else Poly()

    def x_slice(self, k: int) -> Poly:
        """Coefficient of x^k, returned as a polynomial in y (dense Poly)."""
        return Poly(tuple(c.coeff(k) for c in self.ycoeffs))

    def __add__(self, other: BiPoly) -> BiPoly:
        a, b = self.ycoeffs, other.ycoeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return BiPoly(out)

    def __sub__(self, other: BiPoly) -> BiPoly:
        return self + (-other)

    def __neg__(self) -> BiPoly:
        return BiPoly(tuple(-c for c in self.ycoeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            f = _as_poly(other)
            return BiPoly(tuple(c * f for c in self.ycoeffs))
        if not isinstance(other, BiPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return BiPoly()
        out = [Poly()] * (len(self.ycoeffs) + len(other.ycoeffs) - 1)
        for i, a in enumerate(self.ycoeffs):
            if not a.is_zero():
                for j, b in enumerate(other.ycoeffs):
                    out[i + j] = out[i + j] + a * b
        return BiPoly(out)

    __rmul__ = __mul__

    def deriv(self, var: str) -> BiPoly:
        """Partial derivative with respect to 'x' or 'y'."""
        if var == "y":
            return BiPoly(tuple(i * c for i, c in enumerate(self.ycoeffs)
                                if i))
        if var == "x":
            return BiPoly(tuple(c.derivative() for c in self.ycoeffs))
        raise ValueError(f"unknown variable {var!r}")

    def to_ypoly(self) -> YPoly:
        return YPoly(tuple(RatFun(c) for c in self.ycoeffs))

    def content_x(self) -> Poly:
        """Monic gcd over Q[x] of the y-coefficients (the x-content)."""
        g = Poly()
        for c in self.ycoeffs:
            g = poly_gcd(g, c)
        return g

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.ycoeffs == other.ycoeffs

    def __hash__(self):
        return hash(("BiPoly", tuple(c.coeffs for c in self.ycoeffs)))

    def __str__(self):
        return format_bipoly(self)

    def __repr__(self):
        return f"BiPoly({format_bipoly(self)!r})"


def bipoly_derivative(p: BiPoly, var: str) -> BiPoly:
    """Partial derivative of p with respect to the named variable."""
    return p.deriv(var)


class YPoly:
    """Element of Q(x)[y], dense in y with RatFun coefficients."""

    __slots__ = ("ycoeffs",)

    def __init__(self, ycoeffs=()):
        cs = []
        for c in ycoeffs:
            cs.append(c if isinstance(c, RatFun) else RatFun(c))
        n = len(cs)
        while n and cs[n - 1].is_zero():
            n -= 1
        object.__setattr__(self, "ycoeffs", tuple(cs[:n]))

    def __setattr__(self, name, value):
        raise AttributeError("YPoly is immutable")

    @staticmethod
    def zero() -> YPoly:
        return YPoly()

    @staticmethod
    def one() -> YPoly:
        return YPoly((RatFun.one(),))

    @staticmethod
    def y() -> YPoly:
        return YPoly((RatFun.zero(), RatFun.one()))

    @staticmethod
    def monomial(coeff: RatFun, power: int) -> YPoly:
        return YPoly((RatFun.zero(),) * power + (coeff,))

    def is_zero(self) -> bool:
        return not self.ycoeffs

    @property
    def degree(self):
        return len(self.ycoeffs) - 1 if self.ycoeffs else NEG_INF

    @property
    def lc(self) -> RatFun:
        return self.ycoeffs[-1] if self.ycoeffs else RatFun.zero()

    def ycoeff(self, j: int) -> RatFun:
        return self.ycoeffs[j] if 0 <= j < len(self.ycoeffs) else RatFun.zero()

    def __add__(self, other: YPoly) -> YPoly:
        a, b = self.ycoeffs, other.ycoeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return YPoly(out)

    def __sub__(self, other: YPoly) -> YPoly:
        return self + (-other)

    def __neg__(self) -> YPoly:
        return YPoly(tuple(-c for c in self.ycoeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly, RatFun)):
            f = other if isinstance(other, RatFun) else RatFun(other)
            return YPoly(tuple(c * f for c in self.ycoeffs))
        if not isinstance(other, YPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return YPoly()
        out = [RatFun.zero()] * (len(self.ycoeffs) + len(other.ycoeffs) - 1)
        for i, a in enumerate(self.ycoeffs):
            if not a.is_zero():
                for j, b in enumerate(other.ycoeffs):
                    out[i + j] = out[i + j] + a * b
        return YPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: YPoly):
        if other.is_zero():
            raise ZeroDivisionError("YPoly division by zero")
        rem = list(self.ycoeffs)
        db = len(other.ycoeffs) - 1
        lb = other.ycoeffs[-1]
        if len(rem) - 1 < db:
            return YPoly(), self
        q = [RatFun.zero()] * (len(rem) - db)
        for k in range(len(rem) - 1 - db, -1, -1):
            c = rem[db + k] / lb
            q[k] = c
            if not c.is_zero():
                for i, bc in enumerate(other.ycoeffs):
                    rem[i + k] = rem[i + k] - c * bc
        return YPoly(q), YPoly(rem[:db])

    def __mod__(self, other: YPoly) -> YPoly:
        return divmod(self, other)[1]

    def __floordiv__(self, other: YPoly) -> YPoly:
        return divmod(self, other)[0]

    def exact_div(self, other: YPoly) -> YPoly:
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact YPoly division")
        return q

    def deriv_y(self) -> YPoly:
        return YPoly(tuple(i * c for i, c in enumerate(self.ycoeffs) if i))

    def monic(self) -> YPoly:
        if self.is_zero():
            return self
        inv = RatFun.one() / self.lc
        return YPoly(tuple(c * inv for c in self.ycoeffs))

    def to_bipoly(self):
        """Clear denominators: returns (BiPoly numerator, Poly denominator)."""
        den = common_denominator(self.ycoeffs)
        nums = [(c * den).num for c in self.ycoeffs]
        return BiPoly(nums), den

    def __eq__(self, other):
        if not isinstance(other, YPoly):
            return NotImplemented
        return self.ycoeffs == other.ycoeffs

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if self.is_zero():
            return "0"
        return " + ".join(f"({c})*y^{j}" if j else f"({c})"
                          for j, c in enumerate(self.ycoeffs)
                          if not c.is_zero())

    def __repr__(self):
        return f"YPoly({str(self)!r})"


def bipoly_pseudo_divmod(a: BiPoly, b: BiPoly):
    """Pseudo-division in y: returns (Q, R, k) with lc_y(b)^k a = Q b + R
    and deg_y R < deg_y b, everything staying in Q[x][y]."""
    if b.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    db = b.degree_y
    lc = b.lc_y
    Q = BiPoly.zero()
    R = a
    k = 0
    while not R.is_zero() and R.degree_y >= db:
        dr = R.degree_y
        top = R.lc_y
        shift = dr - db
        Q = Q * lc + BiPoly((Poly(),) * shift + (top,))
        R = R * lc - b * BiPoly((Poly(),) * shift + (top,))
        k += 1
        if not R.is_zero() and R.degree_y >= dr:
            raise AssertionError("pseudo-division failed to reduce degree")
    return Q, R, k


def ypoly_gcd(a: YPoly, b: YPoly) -> YPoly:
    """Monic gcd in Q(x)[y]; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def ypoly_ext_gcd(a: YPoly, b: YPoly):
    """Extended Euclid in Q(x)[y]: returns (g, s, t) with s*a + t*b = g monic."""
    r0, r1 = a, b
    s0, s1 = YPoly.one(), YPoly.zero()
    t0, t1 = YPoly.zero(), YPoly.one()
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = RatFun.one() / r0.lc
    return r0 * inv, s0 * inv, t0 * inv


def squarefree_y(q: BiPoly) -> bool:
    """True iff gcd(q, dq/dy) over Q(x)[y] has y-degree 0."""
    if q.is_zero():
        raise ValueError("square-freeness of the zero polynomial")
    if q.degree_y <= 0:
        return True
    g = ypoly_gcd(q.to_ypoly(), q.deriv("y").to_ypoly())
    return g.degree == 0


def resultant_y(a: BiPoly, b: BiPoly) -> Poly:
    """Resultant with respect to y, as a Sylvester determinant.

    Row convention: the first deg_y(b) rows hold the shifted coefficients
    of a, the next deg_y(a) rows the shifted coefficients of b, highest
    y-power leftmost.  res(a, b) = 1 when both have y-degree 0.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant of a zero polynomial")
    da, db = len(a.ycoeffs) - 1, len(b.ycoeffs) - 1
    n = da + db
    if n == 0:
        return Poly.one()
    rows = []
    arow = [a.ycoeffs[da - k] for k in range(da + 1)]
    brow = [b.ycoeffs[db - k] for k in range(db + 1)]
    for i in range(db):
        rows.append([Poly()] * i + arow + [Poly()] * (n - da - 1 - i))
    for i in range(da):
        rows.append([Poly()] * i + brow + [Poly()] * (n - db - 1 - i))
    return det_fraction_free(PolyMatrix.from_rows(rows))


def bipoly_gcd(a: BiPoly, b: BiPoly) -> BiPoly:
    """Gcd in Q[x][y], normalized integer-primitive with positive leading
    rational in the leading y-coefficient.  gcd(0, 0) = 0."""
    if a.is_zero():
        a, b = b, a
    if a.is_zero():
        return BiPoly()
    if b.is_zero():
        return _normalize_bipoly(a)
    cont = poly_gcd(a.content_x(), b.content_x())
    gy = ypoly_gcd(a.to_ypoly(), b.to_ypoly())
    gnum, _ = gy.to_bipoly()
    gcont = gnum.content_x()
    if gcont.degree > 0:
        gnum = BiPoly(tuple(c.exact_div(gcont) for c in gnum.ycoeffs))
    return _normalize_bipoly(gnum * cont)


def bipoly_coprime(a: BiPoly, b: BiPoly) -> bool:
    return bipoly_gcd(a, b) == BiPoly.one()


def _normalize_bipoly(p: BiPoly) -> BiPoly:
    """Scale by a rational so coefficients are integer-primitive and the
    leading coefficient of lc_y is positive."""
    if p.is_zero():
        return p
    from math import gcd, lcm
    den = 1
    for c in p.ycoeffs:
        for f in c.coeffs:
            den = lcm(den, f.denominator)
    g = 0
    for c in p.ycoeffs:
        for f in c.coeffs:
            g = gcd(g, int(f * den))
    scale = Fraction(den, g)
    if p.lc_y.lc < 0:
        scale = -scale
    return p * scale


def format_bipoly(p: BiPoly) -> str:
    """Render with descending y powers, e.g. ``y^2 + x``."""
    if p.is_zero():
        return "0"
    parts = []
    for j in range(len(p.ycoeffs) - 1, -1, -1):
        c = p.ycoeffs[j]
        if c.is_zero():
            continue
        for i in range(len(c.coeffs) - 1, -1, -1):
            f = c.coeffs[i]
            if f == 0:
                continue
            mag = abs(f)
            factors = []
            if mag != 1 or (i == 0 and j == 0):
                factors.append(str(mag))
            if i >= 1:
                factors.append("x" if i == 1 else f"x^{i}")
            if j >= 1:
                factors.append("y" if j == 1 else f"y^{j}")
            term = "*".join(factors)
            if not parts:
                parts.append(term if f > 0 else "-" + term)
            else:
                parts.append((" + " if f > 0 else " - ") + term)
    return "".join(parts)
