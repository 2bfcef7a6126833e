"""Exact univariate polynomials over Q.

A :class:`Poly` stores a dense tuple of ``fractions.Fraction`` coefficients,
index i holding the coefficient of x^i, with no trailing zeros.  The zero
polynomial has an empty tuple and degree ``NEG_INF`` (``float("-inf")``),
which compares strictly less than every integer, so degree-bound checks
work uniformly.

Scalars throughout the package are ``fractions.Fraction``: it already is an
arbitrary-precision reduced rational with positive denominator, so no extra
wrapper type is needed.  Heavy operations (products, gcds, exact
division, lcm and divisibility) clear denominators once, run in Z[x] on
the integer kernels in ``pseudolin._kernel`` and rescale once.  The
only division is the exact one, ``exact_div``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from pseudolin import _kernel as zk

NEG_INF = float("-inf")


def _fr(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class Poly:
    """Dense univariate polynomial over Q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_fr(c) for c in coeffs]
        n = len(cs)
        while n and cs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", tuple(cs[:n]))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> Poly:
        return Poly()

    @staticmethod
    def one() -> Poly:
        return Poly((1,))

    @staticmethod
    def x() -> Poly:
        return Poly((0, 1))

    @staticmethod
    def monomial(coeff, power: int) -> Poly:
        c = _fr(coeff)
        if c == 0:
            return Poly()
        return Poly((0,) * power + (c,))

    @staticmethod
    def const(value) -> Poly:
        return Poly((_fr(value),))

    @staticmethod
    def from_z(zcoeffs, den=1) -> Poly:
        """Build from integer coefficients divided by a common denominator."""
        return Poly(tuple(Fraction(c, den) for c in zcoeffs))

    # -- basic queries -------------------------------------------------

    @property
    def degree(self):
        """Degree; ``NEG_INF`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

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
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = _fr(other)
            if k == 0:
                return Poly()
            return Poly(tuple(c * k for c in self.coeffs))
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        if len(self.coeffs) + len(other.coeffs) <= 16:
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, ca in enumerate(self.coeffs):
                if ca:
                    for j, cb in enumerate(other.coeffs):
                        out[i + j] += ca * cb
            return Poly(out)
        za, da = self.clear_denominators()
        zb, db = other.clear_denominators()
        return Poly.from_z(zk.zp_mul(za, zb), da * db)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def exact_div(self, other) -> Poly:
        """Quotient self/other, raising ValueError when not exact.

        Runs in Z[x]: with self = za/da and other = zb/db cleared, the
        quotient is (db/da) * (za/zb), and za/zb is an exact division of
        primitive parts (Gauss's lemma).
        """
        other = _coerce(other)
        if other is NotImplemented:
            raise TypeError("exact_div needs a Poly, int or Fraction")
        za, da = self.clear_denominators()
        zb, db = other.clear_denominators()
        q, num, den = zk._divexact_q(za, zb)
        num *= db
        return Poly.from_z([c * num for c in q], den * da)

    # -- calculus and evaluation ----------------------------------------

    def derivative(self) -> Poly:
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def eval(self, point) -> Fraction:
        p = _fr(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc

    def compose(self, inner: Poly) -> Poly:
        """Substitute ``inner`` for x (Horner over Poly)."""
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.const(c)
        return acc

    def shift(self, c) -> Poly:
        """Return p(x + c)."""
        return self.compose(Poly((_fr(c), Fraction(1))))

    # -- normal forms ----------------------------------------------------

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        inv = 1 / self.lc
        return Poly(tuple(c * inv for c in self.coeffs))

    def clear_denominators(self):
        """Return (zpoly, den) with den > 0 and self == zpoly/den."""
        cs = self.coeffs
        den = lcm(*[c.denominator for c in cs])
        return [c.numerator * (den // c.denominator) for c in cs], den

    # -- comparison / hashing / display -----------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"


def _coerce(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    return NotImplemented


def format_poly(p: Poly, var: str = "x") -> str:
    """Render with descending powers, explicit '*', e.g. ``x^2 - 2*x + 2``."""
    if p.is_zero():
        return "0"
    parts = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        factors = []
        if mag != 1 or i == 0:
            factors.append(str(mag))
        if i >= 1:
            factors.append(var if i == 1 else f"{var}^{i}")
        term = "*".join(factors)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append((" + " if c > 0 else " - ") + term)
    return "".join(parts)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q; gcd(0, 0) = 0."""
    if a.is_zero() and b.is_zero():
        return Poly()
    za, _ = a.clear_denominators()
    zb, _ = b.clear_denominators()
    g = zk.zp_gcd(za, zb)
    return Poly.from_z(g, g[-1])


def poly_lcm(a: Poly, b: Poly) -> Poly:
    """Monic lcm over Q; lcm with 0 is 0."""
    if a.is_zero() or b.is_zero():
        return Poly()
    za, _ = a.clear_denominators()
    zb, _ = b.clear_denominators()
    # the primitive gcd divides za exactly in Z[x] (Gauss's lemma)
    m = zk.zp_mul(zk.zp_divexact(za, zk.zp_gcd(za, zb)), zb)
    return Poly.from_z(m, m[-1])


def poly_divides(a: Poly, b: Poly) -> bool:
    """True when a divides b over Q[x]."""
    if a.is_zero():
        return b.is_zero()
    za, _ = a.clear_denominators()
    zb, _ = b.clear_denominators()
    return zk.zp_divides(za, zb)
