"""Exact univariate polynomials over Q.

A :class:`Poly` is an integer polynomial over one positive denominator:
``z / d`` with ``z`` a trimmed zpoly (a list of ints, index i holding the
coefficient of x^i, see ``pseudolin._kernel``) and ``d > 0`` an int, kept
in the canonical form gcd(content(z), d) = 1.  The form is unique, so
equality and hashing compare ``(z, d)``.  The zero polynomial is
``([], 1)``; its degree is ``NEG_INF`` (``float("-inf")``), which compares
strictly less than every integer, so degree-bound checks work uniformly.

Every ring operation (``+``, ``-``, ``*``, powers, ``derivative``,
``monic``, ``exact_div``, gcd, lcm, divisibility) runs on ints through the
kernels in ``pseudolin._kernel``; none creates a ``fractions.Fraction``.
Scalars throughout the package are ``Fraction`` (an arbitrary-precision
reduced rational with positive denominator) or ``int``.  ``coeffs`` gives
the coefficients as a read-only tuple of ``Fraction``, built on first use,
for parsing and reports; ``format_terms`` prints from ``z`` and ``d``.
The only division is the exact one, ``exact_div``.

Clearing lives here too: ``zclear`` takes a list of polynomials to Z[x]
by their least integer scale, ``zvec_int_content`` strips the integer
content of a vector of integer polynomials, and ``zvec_content`` its
whole content in Z[x].  ``format_terms`` prints
every polynomial, bivariate polynomial and operator of the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from pseudolin import _kernel as zk

NEG_INF = float("-inf")


def _check_scalar(value):
    if not isinstance(value, (int, Fraction)):
        raise TypeError(
            f"expected int or Fraction, got {type(value).__name__}")
    return value


def _raw(z, d) -> Poly:
    """Poly from a trimmed zpoly ``z`` and ``d > 0`` already canonical."""
    p = object.__new__(Poly)
    _set_z(p, z)
    _set_d(p, d)
    return p


def _canon(z, d) -> Poly:
    """Poly z/d from a trimmed zpoly and a nonzero int."""
    if d < 0:
        z, d = [-c for c in z], -d
    if d != 1:
        g = gcd(d, *z)
        if g != 1:
            z, d = [c // g for c in z], d // g
    return _raw(z, d)


class Poly:
    """Dense univariate polynomial over Q, stored as ``z / d``.

    ``z`` and ``d`` are read-only: other values may share the list ``z``.
    """

    __slots__ = ("z", "d", "_coeffs")

    def __init__(self, coeffs=()):
        cs = [_check_scalar(c) for c in coeffs]
        # after clearing by the lcm of reduced denominators, no prime of d
        # divides every numerator: (z, d) is canonical as it stands
        d = lcm(*[c.denominator for c in cs])
        z = zk.zp_trim([c.numerator * (d // c.denominator) for c in cs])
        _set_z(self, z)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> Poly:
        return _raw([], 1)

    @staticmethod
    def one() -> Poly:
        return _raw([1], 1)

    @staticmethod
    def x() -> Poly:
        return _raw([0, 1], 1)

    @staticmethod
    def monomial(coeff, power: int) -> Poly:
        c = _check_scalar(coeff)
        if c == 0:
            return _raw([], 1)
        return _raw([0] * power + [c.numerator], c.denominator)

    @staticmethod
    def const(value) -> Poly:
        return Poly.monomial(value, 0)

    @staticmethod
    def from_z(zcoeffs, den=1) -> Poly:
        """The polynomial zcoeffs/den for a list of ints and a nonzero
        int.  The list is trimmed in place and kept, not copied, so it must
        not change afterwards.  O(1) for a trimmed list when den is 1."""
        return _canon(zk.zp_trim(zcoeffs), den)

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as a tuple of ``Fraction`` (built once)."""
        try:
            return self._coeffs
        except AttributeError:
            d = self.d
            cs = tuple(Fraction(c, d) for c in self.z)
            _set_coeffs(self, cs)
            return cs

    @property
    def degree(self):
        """Degree; ``NEG_INF`` for the zero polynomial."""
        return len(self.z) - 1 if self.z else NEG_INF

    def is_zero(self) -> bool:
        return not self.z

    @property
    def lc(self) -> Fraction:
        """Leading coefficient (0 for the zero polynomial)."""
        return Fraction(self.z[-1], self.d) if self.z else Fraction(0)

    def coeff(self, i: int) -> Fraction:
        z = self.z
        return Fraction(z[i], self.d) if 0 <= i < len(z) else Fraction(0)

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.d, other.d
        if da == db:
            return _canon(zk.zp_add(self.z, other.z), da)
        g = gcd(da, db)
        return _canon(zk.zp_add(zk.zp_scale(self.z, db // g),
                                zk.zp_scale(other.z, da // g)), da // g * db)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _raw(zk.zp_neg(self.z), self.d)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.z or not other.z:
                return _raw([], 1)
            return _canon(zk.zp_mul(self.z, other.z), self.d * other.d)
        if isinstance(other, (int, Fraction)):
            if not other or not self.z:
                return _raw([], 1)
            # k = n/m with gcd(n, m) = 1 and gcd(content(z), d) = 1:
            # only gcd(n, d) and gcd(content(z), m) can cancel
            n, m = other.numerator, other.denominator
            g = gcd(n, self.d)
            z = zk.zp_scale(self.z, n // g)
            if m == 1:
                return _raw(z, self.d // g)
            return _canon(z, self.d // g * m)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        """Powers by repeated squaring in Z[x]; (z^n, d^n) is canonical
        because gcd(content(z)^n, d^n) = 1."""
        if n < 0:
            raise ValueError("negative polynomial power")
        out, base, k = [1], self.z, n
        while k:
            if k & 1:
                out = zk.zp_mul(out, base)
            if k > 1:
                base = zk.zp_mul(base, base)
            k >>= 1
        return _raw(out, self.d**n)

    def exact_div(self, other) -> Poly:
        """Quotient self/other, raising ValueError when not exact.

        Runs in Z[x]: with self = za/da and other = zb/db, the quotient
        is (db/da) * (za/zb), and za/zb = q * ca/cb is an exact division
        of primitive parts (Gauss's lemma) with q primitive, so one gcd
        of the scalars puts the result in canonical form.
        """
        other = _coerce(other)
        if other is NotImplemented:
            raise TypeError("exact_div needs a Poly, int or Fraction")
        q, num, den = zk._divexact_q(self.z, other.z)
        if not q:
            return _raw([], 1)
        num *= other.d
        den *= self.d
        g = gcd(num, den)
        return _raw(zk.zp_scale(q, num // g), den // g)

    # -- calculus and evaluation ----------------------------------------

    def derivative(self) -> Poly:
        return _canon(zk.zp_deriv(self.z), self.d)

    def eval(self, point) -> Fraction:
        """Value at an int or Fraction point, as a Fraction."""
        p = _check_scalar(point)
        if not self.z:
            return Fraction(0)
        n, m = p.numerator, p.denominator
        acc, mp = 0, 1
        for c in reversed(self.z):
            acc = acc * n + c * mp
            mp *= m
        # acc = m^deg * z(n/m) and mp = m^(deg + 1)
        return Fraction(acc, self.d * (mp // m))

    # -- normal forms ----------------------------------------------------

    def monic(self) -> Poly:
        z = self.z
        if not z:
            return self
        # z / lc(z): dividing z and lc(z) by content(z) makes it canonical
        c = gcd(*z)
        if z[-1] < 0:
            c = -c
        return _raw([e // c for e in z] if c != 1 else z, z[-1] // c)

    # -- comparison / hashing / display -----------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.d == other.d and self.z == other.z

    def __hash__(self):
        return hash(("Poly", self.d, *self.z))

    def __bool__(self):
        return bool(self.z)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"


_set_z = Poly.z.__set__
_set_d = Poly.d.__set__
_set_coeffs = Poly._coeffs.__set__


def _coerce(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    return NotImplemented


def zclear(polys):
    """(s, [s*p for p in polys]) as integer zpolys, for s > 0 the least
    integer scale that makes every entry integer."""
    s = lcm(*[p.d for p in polys])
    return s, [zk.zp_scale(p.z, s // p.d) for p in polys]


def zvec_int_content(vec):
    """(c, vec/c) for c >= 0 the integer content of a zpoly vector; c = 0
    (and vec unchanged) when every entry is zero."""
    c = 0
    for z in vec:
        c = gcd(c, zk.zp_content(z))
        if c == 1:
            return 1, vec
    if c > 1:
        vec = [[e // c for e in z] for z in vec]
    return c, vec


def zvec_content(vec):
    """(g, vec/g) for g the content of a zpoly vector in Z[x]: its integer
    content times its polynomial content (g = [1] for the zero vector).
    The polynomial content comes from the kernel's packed strip
    (``zvec_poly_content``): one integer gcd of the entries' values at a
    power of two and certified integer divisions.  With no content the
    vector is returned as it is."""
    c, vec = zvec_int_content(vec)
    g, vec = zk.zvec_poly_content(vec)
    return (zk.zp_scale(g, c) if c > 1 else g), vec


def joint_primitive(polys) -> list:
    """The integer polynomials c*p, for the one positive rational c that
    makes them jointly primitive (gcd of all coefficients 1).  At least
    one of the polys must be nonzero."""
    return [_raw(z, 1) for z in zvec_int_content(zclear(polys)[1])[1]]


def format_terms(rows, sym="") -> str:
    """Render sum_j rows[j] * sym^j for Poly rows with descending powers of
    sym, then of x, and explicit '*', e.g. ``x^2*Dx - 2*x + 2``; a single
    row is a plain polynomial."""
    parts = []
    for j in range(len(rows) - 1, -1, -1):
        # coefficient i is z[i]/d, printed as Fraction prints it
        z, d = rows[j].z, rows[j].d
        for i in range(len(z) - 1, -1, -1):
            c = z[i]
            if c == 0:
                continue
            mag = abs(c)
            g = gcd(mag, d) if d != 1 else 1
            text = str(mag // g) if g == d else f"{mag // g}/{d // g}"
            factors = [text] if mag != d or i == j == 0 else []
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


def format_poly(p: Poly) -> str:
    """Render with descending powers, explicit '*', e.g. ``x^2 - 2*x + 2``."""
    return format_terms([p])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q; gcd(0, 0) = 0."""
    if a.is_zero() and b.is_zero():
        return _raw([], 1)
    # zp_gcd is primitive with a positive leading coefficient, so g/lc(g)
    # is canonical as it stands
    g = zk.zp_gcd(a.z, b.z)
    return _raw(g, g[-1])


def poly_lcm(a: Poly, b: Poly) -> Poly:
    """Monic lcm over Q; lcm with 0 is 0."""
    if a.is_zero() or b.is_zero():
        return _raw([], 1)
    # the cofactor za/gcd(za, zb) of the content strip, times zb
    _, (qa, _) = zk.zvec_poly_content([a.z, b.z])
    m = zk.zp_mul(qa, b.z)
    return _canon(m, m[-1])


def poly_divides(a: Poly, b: Poly) -> bool:
    """True when a divides b over Q[x]."""
    if a.is_zero():
        return b.is_zero()
    return zk.zp_divides(a.z, b.z)
