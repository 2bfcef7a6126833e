"""Bivariate polynomials in Q[x][y].

:class:`BiPoly` is a dense list of :class:`Poly` coefficients in y (index j
holds the x-polynomial coefficient of y^j).  Trailing zero coefficients
are stripped, and the zero polynomial has y-degree ``NEG_INF``.

Every operation stays fraction-free in Q[x][y]: pseudo-division by the
y-leading coefficient is the only division, and the gcd, the Bezout
cofactors and exact quotients over Q(x)[y] all come from it.

The Sylvester-matrix resultant follows a fixed row convention (documented
on :func:`resultant_y`) because it pins the sign of determinant-vs-resultant
identities used elsewhere.
"""

from __future__ import annotations

from fractions import Fraction

from pseudolin.linalg import PolyMatrix, det_fraction_free
from pseudolin.poly import (NEG_INF, Poly, format_terms, joint_primitive,
                            poly_gcd, zclear, zvec_content)

_ZERO = Poly.zero()


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
        out = [_ZERO] * (len(self.ycoeffs) + len(other.ycoeffs) - 1)
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

    def content_x(self) -> Poly:
        """Monic gcd over Q[x] of the y-coefficients (the x-content)."""
        if self.is_zero():
            return _ZERO
        g, _ = zvec_content(zclear(self.ycoeffs)[1])
        return Poly.from_z(g).monic()

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.ycoeffs == other.ycoeffs

    def __hash__(self):
        return hash(("BiPoly", self.ycoeffs))

    def __str__(self):
        return format_bipoly(self)

    def __repr__(self):
        return f"BiPoly({format_bipoly(self)!r})"


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
        mono = BiPoly((_ZERO,) * shift + (top,))
        Q = Q * lc + mono
        R = R * lc - b * mono
        k += 1
        if not R.is_zero() and R.degree_y >= dr:
            raise AssertionError("pseudo-division failed to reduce degree")
    return Q, R, k


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


def squarefree_y(q: BiPoly) -> bool:
    """True iff q has no repeated factor of positive y-degree over Q(x),
    i.e. iff res_y(q, dq/dy) != 0."""
    if q.is_zero():
        raise ValueError("square-freeness of the zero polynomial")
    if q.degree_y <= 0:
        return True
    return not resultant_y(q, q.deriv("y")).is_zero()


def bipoly_ext_prs(a: BiPoly, b: BiPoly):
    """Primitive pseudo-remainder sequence of a and b in y, carrying its
    cofactors (Collins 1967; Brown and Traub 1971).

    Returns (r, s, t) with s*a + t*b = r, where r is the last nonzero
    remainder: over Q(x), r is a multiple of gcd(a, b), so deg_y r = 0
    exactly when a and b are coprime in Q(x)[y].  Each step pseudo-divides,
    lc_y(r1)^k r0 = Q r1 + R, and divides (R, s, t) jointly by their
    x-content and rational content, so the sequence never leaves Q[x][y]
    and its coefficients stay small.  The cofactors of b = 0 are (1, 0).
    """
    one, zero = BiPoly.one(), BiPoly.zero()
    if b.is_zero():
        return a, one, zero
    r0, s0, t0 = a, one, zero
    r1, s1, t1 = b, zero, one
    while True:
        Q, R, k = bipoly_pseudo_divmod(r0, r1)
        if R.is_zero():
            return r1, s1, t1
        lck = r1.lc_y**k
        r0, s0, t0, (r1, s1, t1) = r1, s1, t1, _primitive(
            R, s0 * lck - Q * s1, t0 * lck - Q * t1)


def _primitive(*ps):
    """Divide the BiPolys jointly by the content of all their
    x-coefficients: their monic gcd and their positive rational content."""
    _, flat = zvec_content(zclear([c for p in ps for c in p.ycoeffs])[1])
    out, i = [], 0
    for p in ps:
        n = len(p.ycoeffs)
        out.append(BiPoly(tuple(Poly.from_z(z) for z in flat[i:i + n])))
        i += n
    return tuple(out)


def bipoly_gcd(a: BiPoly, b: BiPoly) -> BiPoly:
    """Gcd in Q[x][y], normalized integer-primitive with positive leading
    rational in the leading y-coefficient.  gcd(0, 0) = 0.

    The gcd of the x-contents times the primitive part of the last
    remainder of the primitive pseudo-remainder sequence: the sequence of
    ``bipoly_ext_prs`` without its cofactors.  Over Q(x) each remainder is
    a multiple of the one ``bipoly_ext_prs`` reaches, so the last ones
    have the same primitive part."""
    cont = poly_gcd(a.content_x(), b.content_x())
    while not b.is_zero():
        a, (b,) = b, _primitive(bipoly_pseudo_divmod(a, b)[1])
    r, = _primitive(a)
    return _normalize_bipoly(r * cont)


def bipoly_coprime(a: BiPoly, b: BiPoly) -> bool:
    return bipoly_gcd(a, b) == BiPoly.one()


def _normalize_bipoly(p: BiPoly) -> BiPoly:
    """Scale by a rational so coefficients are integer-primitive and the
    leading coefficient of lc_y is positive."""
    if p.is_zero():
        return p
    cs = joint_primitive(p.ycoeffs)
    if p.lc_y.z[-1] < 0:
        cs = [-c for c in cs]
    return BiPoly(cs)


def format_bipoly(p: BiPoly) -> str:
    """Render with descending y powers, e.g. ``y^2 + x``."""
    return format_terms(p.ycoeffs, "y")
