"""The clearing helpers against the per-module copies they replace.

``poly.zclear``, ``poly.zvec_int_content`` and ``ratfun.zclear_ratfuns``
are the one way to take a list of rationals to Z[x].  Each is compared on
seeded lists (zero entries, constants, Fraction coefficients, RatFun
built over non-monic denominators) with an in-test copy of the code it
replaced: ``_zrow``, ``_strip_int_content`` and ``_clear_rows`` (formerly
in ``linalg``) and ``_cleared_z`` (formerly in ``ore``, which cleared an
operator by the product of its distinct denominators).
"""

import random
from fractions import Fraction
from math import gcd, lcm, prod

from pseudolin import _kernel as zk
from pseudolin.poly import Poly, joint_primitive, zclear, zvec_int_content
from pseudolin.ratfun import RatFun, common_denominator, zclear_ratfuns
from test_poly import rand_q_poly


# -- the replaced copies ---------------------------------------------------


def old_zrow(polys):
    s = lcm(*[p.d for p in polys])
    return s, [zk.zp_scale(p.z, s // p.d) for p in polys]


def old_strip_int_content(vec):
    c = 0
    for z in vec:
        c = gcd(c, zk.zp_content(z))
        if c == 1:
            return 1, vec
    if c > 1:
        vec = [[e // c for e in z] for z in vec]
    return c, vec


def old_clear_rows(rows):
    dens = [common_denominator(row) for row in rows]
    scale, zrows = 1, []
    for row, d in zip(rows, dens):
        s, zrow = old_zrow([e.num * d.exact_div(e.den) for e in row])
        scale *= s
        zrows.append(zrow)
    return prod(dens, start=Poly.one()) * scale, zrows


def old_cleared_z(coeffs):
    pairs = []
    scale = 1
    for c in coeffs:
        pairs.append((zk.zp_scale(c.num.z, c.den.d), c.num.d, c.den.z))
        scale = lcm(scale, c.num.d)
    dens = []
    for _, _, zd in pairs:
        if zd != [1] and zd not in dens:
            dens.append(zd)
    out = []
    for p, dn, zd in pairs:
        p = zk.zp_scale(p, scale // dn)
        for d in dens:
            if d != zd:
                p = zk.zp_mul(p, d)
        out.append(p)
    return out


# -- seeded inputs ---------------------------------------------------------


def rand_polys(rng):
    """Poly lists with zero entries, constants and Fraction coefficients."""
    return [rng.choice((Poly(), Poly.const(rng.randint(-5, 5)),
                        rand_q_poly(rng, 4), rand_q_poly(rng, 4)))
            for _ in range(rng.randint(1, 6))]


def rand_nonconstant(rng):
    p = rand_q_poly(rng, 2)
    while p.degree < 1:
        p = rand_q_poly(rng, 2)
    return p


def rand_ratfuns(rng):
    """RatFun lists built over non-monic denominators that share factors
    (p, p^2, p*q, q and 1), with zero and constant entries."""
    p, q = rand_nonconstant(rng), rand_nonconstant(rng)
    dens = [p, p * p, p * q, q, Poly.one()]
    return [RatFun(rand_q_poly(rng, 3), rng.choice(dens)
                   * rng.choice((1, -3, Fraction(5, 2))))
            for _ in range(rng.randint(1, 5))]


def as_ratfun(z, D):
    return RatFun(Poly.from_z(list(z)), Poly.from_z(list(D)))


# -- the comparisons -------------------------------------------------------


def test_zclear_matches_zrow():
    rng = random.Random(130)
    for _ in range(300):
        polys = rand_polys(rng)
        s, zs = zclear(polys)
        assert (s, zs) == old_zrow(polys)
        assert [Poly.from_z(list(z), s) for z in zs] == polys


def test_zvec_int_content_matches_strip():
    rng = random.Random(131)
    for _ in range(300):
        vec = zclear(rand_polys(rng))[1]
        k = rng.choice((1, 1, 6, -4))
        vec = [zk.zp_scale(z, k) for z in vec]
        assert zvec_int_content(vec) == old_strip_int_content(vec)
    assert zvec_int_content([[], []]) == (0, [[], []])


def test_joint_primitive_is_the_cleared_primitive_vector():
    rng = random.Random(132)
    for _ in range(200):
        polys = rand_polys(rng)
        if all(p.is_zero() for p in polys):
            continue
        zs = old_strip_int_content(old_zrow(polys)[1])[1]
        assert joint_primitive(polys) == [Poly.from_z(list(z)) for z in zs]


def test_zclear_ratfuns_matches_clear_rows():
    """Row by row, the helper gives the same values as ``_clear_rows`` and
    rows that are positive integer multiples of its rows: the helper's
    scale also clears the common denominator itself."""
    rng = random.Random(133)
    for _ in range(300):
        row = rand_ratfuns(rng)
        D, N = zclear_ratfuns(row)
        scale, (zrow,) = old_clear_rows([row])
        assert D[-1] > 0
        assert [as_ratfun(z, D) for z in N] == row
        assert [RatFun(Poly.from_z(list(z)), scale) for z in zrow] == row
        k = Poly.from_z(list(D)).exact_div(scale)
        assert k.degree <= 0 and k.lc > 0 and k.lc.denominator == 1
        assert N == [zk.zp_scale(z, int(k.lc)) for z in zrow]
        # (D, N) has no common content in Z[x]
        assert zvec_int_content([D] + N)[0] == 1
        g = D
        for z in N:
            if z:
                g = zk.zp_gcd(g, z)
        assert len(g) == 1


def test_zclear_ratfuns_is_a_positive_multiple_of_cleared_z():
    """The operator clearing of ``ore`` by the product of the distinct
    denominators and the helper's lcm clearing differ by one positive
    factor in Q[x]."""
    rng = random.Random(134)
    lcm_smaller = 0
    for _ in range(300):
        coeffs = rand_ratfuns(rng)
        if all(c.is_zero() for c in coeffs):
            continue
        _, new = zclear_ratfuns(coeffs)
        old = old_cleared_z(coeffs)
        k = next(i for i, z in enumerate(new) if z)
        # new = f*old with f = new[k]/old[k]: cross products agree
        for a, b in zip(new, old):
            assert zk.zp_mul(a, old[k]) == zk.zp_mul(b, new[k])
        assert new[k][-1] * old[k][-1] > 0
        lcm_smaller += len(new[k]) < len(old[k])
    assert lcm_smaller > 20

