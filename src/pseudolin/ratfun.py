"""Reduced rational functions over Q(x).

A :class:`RatFun` keeps ``num/den`` with ``gcd(num, den) = 1`` and a monic
denominator; zero is ``0/1``.  Construction always normalizes, so every
value in circulation is reduced.  Normalisation takes ``poly_gcd`` (itself
computed in Z[x]); when the gcd is nontrivial or ``den`` is not monic, it
cancels the gcd from the integer numerators of ``num`` and ``den`` with
exact Z[x] divisions and rebuilds both sides once, with the scale that
makes ``den`` monic folded in.

``zclear_ratfuns`` takes a list of them to Z[x]: one common denominator
and the cleared numerators, each with one least integer scale.
"""

from __future__ import annotations

from fractions import Fraction

from pseudolin import _kernel as zk
from pseudolin.poly import Poly, format_poly, poly_gcd, poly_lcm, zclear

_ZERO = Poly.zero()
_ONE = Poly.one()


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as Poly")


class RatFun:
    """Quotient of two polynomials, always kept reduced with monic den."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = _ZERO, _ONE
        else:
            # num/den = (za/dn)/(zb/dd) = (za*dd)/(zb*dn): cancel the gcd
            # in Z[x], then divide both sides by lc(zb)*dn to make den
            # monic; a reduced pair with monic den is kept as it is
            g = (poly_gcd(num, den) if num.degree > 0 and den.degree > 0
                 else _ONE)
            if g.degree > 0 or den.z[-1] != den.d:
                za, dn = num.z, num.d
                zb, dd = den.z, den.d
                if g.degree > 0:
                    # a monic polynomial's numerator is primitive, so it
                    # divides za and zb exactly in Z[x] (Gauss's lemma)
                    za = zk.zp_divexact(za, g.z)
                    zb = zk.zp_divexact(zb, g.z)
                lead = zb[-1]
                num = Poly.from_z(zk.zp_scale(za, dd), lead * dn)
                den = Poly.from_z(zb, lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero() -> RatFun:
        return RatFun(0)

    @staticmethod
    def one() -> RatFun:
        return RatFun(1)

    @staticmethod
    def x() -> RatFun:
        return RatFun(Poly.x())

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den == _ONE

    def is_strictly_proper(self) -> bool:
        """deg num < deg den (vacuously true for 0)."""
        return self.num.degree < self.den.degree or self.is_zero()

    # -- field operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.den - other.num * self.den,
                      self.den * other.den)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        out = object.__new__(RatFun)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> RatFun:
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("zero to a negative power")
            return RatFun(self.den**(-n), self.num**(-n))
        return RatFun(self.num**n, self.den**n)

    def derivative(self) -> RatFun:
        return RatFun(self.num.derivative() * self.den
                      - self.num * self.den.derivative(),
                      self.den * self.den)

    def eval(self, point) -> Fraction:
        d = self.den.eval(point)
        if d == 0:
            raise ZeroDivisionError("pole at evaluation point")
        return self.num.eval(point) / d

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFun", self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if self.is_poly():
            return format_poly(self.num)
        num = format_poly(self.num)
        den = format_poly(self.den)
        if len(self.num.z) > 1 or "/" in num:
            num = f"({num})"
        if len(self.den.z) > 1 or "/" in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RatFun({str(self)!r})"


def _coerce(value):
    if isinstance(value, RatFun):
        return value
    if isinstance(value, (int, Fraction, Poly)):
        return RatFun(value)
    return NotImplemented


def common_denominator(values) -> Poly:
    """Monic lcm of the denominators of an iterable of RatFun."""
    out = Poly.one()
    for v in values:
        out = poly_lcm(out, v.den)
    return out


def zclear_ratfuns(values):
    """(D, N): integer zpolys with D = s*den and N[i]/D = values[i], for
    den the common denominator of a list of RatFun and s > 0 the least
    integer scale that makes den and every den*values[i] integer.  D has a
    positive leading coefficient and (D, N) no common content in Z[x]."""
    den = common_denominator(values)
    _, z = zclear([den] + [v.num * den.exact_div(v.den) for v in values])
    return z[0], z[1:]


__all__ = ["RatFun", "common_denominator", "zclear_ratfuns"]
