"""Seeded random generation of instances honoring the side conditions.

Generators draw small integer coefficients from ``random.Random(seed)``
streams, resampling until the structural constraints hold (square-free in
y, coprimality, exact degrees, genericity, regularity at infinity).  A
retry cap of 1000 turns an over-constrained size request into an error
instead of a hang.
"""

from __future__ import annotations

import random

from pseudolin.bipoly import BiPoly, bipoly_coprime, squarefree_y
from pseudolin.linalg import RatMatrix
from pseudolin.ore import GEN_DX, OrePoly, infinity_not_irregular
from pseudolin.poly import Poly
from pseudolin.ratfun import RatFun
from pseudolin.relations import PseudoLinearMap

RETRY_CAP = 1000
COEFF_RANGE = 5


class GenerationError(RuntimeError):
    """Raised when the retry cap is exhausted (over-constrained sizes)."""


def _retrying(make, accept, what: str):
    for _ in range(RETRY_CAP):
        value = make()
        if accept(value):
            return value
    raise GenerationError(
        f"could not generate {what} within {RETRY_CAP} attempts")


def rand_int(rng: random.Random, nonzero: bool = False) -> int:
    while True:
        v = rng.randint(-COEFF_RANGE, COEFF_RANGE)
        if v or not nonzero:
            return v


def rand_poly(rng: random.Random, deg: int, exact: bool = False) -> Poly:
    """Random integer polynomial of degree <= deg (== deg when exact)."""
    if deg < 0:
        return Poly()
    coeffs = [rand_int(rng) for _ in range(deg + 1)]
    if exact:
        coeffs[deg] = rand_int(rng, nonzero=True)
    return Poly(coeffs)


def rand_nonzero_poly(rng: random.Random, deg: int) -> Poly:
    return _retrying(lambda: rand_poly(rng, deg),
                     lambda p: not p.is_zero(), "a nonzero polynomial")


def rand_strictly_proper_map(rng: random.Random, n: int,
                             den_deg: int) -> PseudoLinearMap:
    """Random T with a shared monic denominator of the requested degree, so
    the trivial realisation has deg Delta <= n * den_deg."""
    den = rand_poly(rng, den_deg - 1) + Poly.monomial(1, den_deg)
    entries = [RatFun(rand_poly(rng, den_deg - 1), den)
               for _ in range(n * n)]
    return PseudoLinearMap(RatMatrix(n, n, entries))


def rand_vector(rng: random.Random, n: int, deg: int):
    vec = _retrying(
        lambda: [rand_poly(rng, deg) for _ in range(n)],
        lambda v: any(not c.is_zero() for c in v), "a nonzero vector")
    return vec


def rand_ratfun(rng: random.Random, num_deg: int, den_deg: int) -> RatFun:
    return RatFun(rand_poly(rng, num_deg),
                  rand_nonzero_poly(rng, den_deg))


def rand_ratmatrix(rng: random.Random, rows: int, cols: int,
                   num_deg: int = 2, den_deg: int = 2) -> RatMatrix:
    return RatMatrix(rows, cols, [rand_ratfun(rng, num_deg, den_deg)
                                  for _ in range(rows * cols)])


def rand_map(rng: random.Random, n: int, num_deg: int = 2,
             den_deg: int = 2) -> PseudoLinearMap:
    """Random T with independent entries (not necessarily proper)."""
    return PseudoLinearMap(rand_ratmatrix(rng, n, n, num_deg, den_deg))


def rand_bipoly(rng: random.Random, dx: int, dy: int,
                exact: bool = True) -> BiPoly:
    """Random bivariate polynomial; exact forces deg_x = dx and deg_y = dy."""
    def make():
        cols = [rand_poly(rng, dx) for _ in range(dy + 1)]
        return BiPoly(cols)

    def accept(q):
        if q.is_zero():
            return False
        if exact and (q.degree_y != dy or q.degree_x != dx):
            return False
        return True

    return _retrying(make, accept, "a bivariate polynomial")


def rand_hermite_input(rng: random.Random, dx: int, dy: int,
                       generic: bool = False):
    """(p, q) with q square-free in y, gcd(p, q) = 1, deg_y p < dy,
    deg_x p <= dx; with generic=True the telescoper genericity holds."""
    from pseudolin.instances.hermite import genericity_check

    def make():
        q = rand_bipoly(rng, dx, dy)
        p = BiPoly([rand_poly(rng, dx) for _ in range(dy)])
        return p, q

    def accept(pq):
        p, q = pq
        if p.is_zero() or q.degree_y != dy or q.degree_x != dx:
            return False
        if not squarefree_y(q) or not bipoly_coprime(p, q):
            return False
        if generic and not genericity_check(q):
            return False
        return True

    return _retrying(make, accept, "a telescoping input")


def rand_algebraic_input(rng: random.Random, dx: int, dy: int,
                         generic: bool = False) -> BiPoly:
    """Square-free P with exact degrees; generic=True adds the genericity
    condition on the top x-coefficient."""
    from pseudolin.instances.hermite import genericity_check

    def accept(P):
        if P.degree_y != dy or P.degree_x != dx or not squarefree_y(P):
            return False
        if generic and not genericity_check(P):
            return False
        return True

    return _retrying(lambda: rand_bipoly(rng, dx, dy), accept,
                     "an algebraic input")


def rand_operator(rng: random.Random, order: int, deg: int,
                  regular_infinity: bool = False) -> OrePoly:
    """Random operator of the exact order with deg p_r = deg; with
    regular_infinity the coefficients are drawn with
    deg p_j <= deg p_r - (r - j), which forbids an irregular x = infinity."""
    if order < 1:
        raise ValueError("order must be at least 1")

    def make():
        coeffs = []
        for j in range(order):
            cap = deg - (order - j) if regular_infinity else deg
            coeffs.append(rand_poly(rng, cap))
        coeffs.append(rand_poly(rng, deg, exact=True))
        return OrePoly([RatFun(c) for c in coeffs], GEN_DX)

    def accept(L):
        return (not regular_infinity) or infinity_not_irregular(L)

    return _retrying(make, accept, "a differential operator")
