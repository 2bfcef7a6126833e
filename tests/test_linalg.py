"""Exact linear algebra: determinants, solving, rank, phi_ell, builders."""

import random
import sys
from math import gcd

import pytest

from pseudolin import _kernel as zk
from pseudolin._kernel import _zkernel_py as kernel
from pseudolin.linalg import (GaussTracker, PolyMatrix, RatMatrix,
                              det_denominator, det_fraction_free,
                              det_rational, invert, kronecker, rank,
                              zvec_content)
from pseudolin.poly import Poly, poly_divides, poly_gcd, zvec_int_content
from pseudolin.ratfun import RatFun
from _oracle import GaussTrackerRef, zp_gcd_ref, zvec_content_ref
from test_poly import rand_poly
from test_ratfun import rand_ratfun

x = Poly.x()


def rand_ratmatrix(rng, n, m=None):
    m = n if m is None else m
    return RatMatrix(n, m, [rand_ratfun(rng) for _ in range(n * m)])


def test_det_examples():
    assert det_fraction_free(PolyMatrix.from_rows([[x, 0], [0, x - 1]])) \
        == x * x - x
    assert det_fraction_free(PolyMatrix.from_rows([[1, 2], [3, 4]])) \
        == Poly([-2])
    # 3x3 Sylvester matrix of (y^2 + x, 2y) matches the resultant oracle
    syl = PolyMatrix.from_rows([[1, 0, x], [2, 0, 0], [0, 2, 0]])
    assert det_fraction_free(syl) == Poly([0, 4])


def test_det_requires_square():
    with pytest.raises(ValueError):
        det_fraction_free(PolyMatrix.zeros(2, 3))


def _cofactor_poly(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = Poly()
    sign = 1
    for j in range(n):
        if not rows[0][j].is_zero():
            sub = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
            acc = acc + rows[0][j] * _cofactor_poly(sub) * sign
        sign = -sign
    return acc


def test_det_matches_cofactor_expansion():
    rng = random.Random(30)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[rand_poly(rng, 2) for _ in range(n)] for _ in range(n)]
        assert det_fraction_free(PolyMatrix.from_rows(rows)) \
            == _cofactor_poly(rows)


def test_rank_examples():
    assert rank(RatMatrix.zeros(2, 3)) == 0
    assert rank(RatMatrix.identity(3)) == 3
    prop = RatMatrix(2, 2, [RatFun(1), RatFun(x), RatFun(x), RatFun(x * x)])
    assert rank(prop) == 1


def test_det_denominator_examples():
    R = RatMatrix(2, 2, [RatFun(1, x), RatFun(1, x - 1),
                         RatFun(1, x * x), RatFun(1, x)])
    expected = (x * x * (x - 1)).monic()
    assert det_denominator(R, 1) == expected
    assert det_denominator(R, 2) == expected
    poly_mat = RatMatrix(2, 2, [RatFun(rand_poly(random.Random(1), 2))
                                for _ in range(4)])
    assert det_denominator(poly_mat, 2) == Poly.one()
    assert det_denominator(R, 0) == Poly.one()


def test_det_denominator_laws():
    rng = random.Random(32)
    trials = 0
    while trials < 25:
        n = rng.randint(1, 2)
        R = rand_ratmatrix(rng, n)
        phis = [det_denominator(R, ell) for ell in range(n + 2)]
        for ell in range(n + 1):
            assert poly_divides(phis[ell], phis[ell + 1])
            assert poly_divides(phis[ell], phis[1] ** ell)
        r = rank(R)
        for ell in range(r, n + 2):
            assert phis[ell] == phis[r]
        trials += 1


def test_det_denominator_sum_product_laws():
    rng = random.Random(33)
    done = 0
    while done < 20:
        n = rng.randint(1, 2)
        R1, R2 = rand_ratmatrix(rng, n), rand_ratmatrix(rng, n)
        S, P = R1.add(R2), R1.matmul(R2)
        for ell in range(1, n + 1):
            bound = det_denominator(R1, ell) * det_denominator(R2, ell)
            assert poly_divides(det_denominator(S, ell), bound)
            assert poly_divides(det_denominator(P, ell), bound)
        if poly_gcd(det_denominator(R1, 1),
                    det_denominator(R2, 1)).degree == 0:
            for ell in range(1, n + 1):
                assert det_denominator(S, ell) == \
                    det_denominator(R1, ell) * det_denominator(R2, ell)
        done += 1


def test_det_denominator_inverse_law():
    rng = random.Random(34)
    done = 0
    while done < 15:
        n = rng.randint(2, 3)
        R = rand_ratmatrix(rng, n)
        det = det_rational(R)
        if det.is_zero():
            continue
        alpha, beta = det.num.monic(), det.den
        lhs = (beta * det_denominator(invert(R), n)).monic()
        rhs = (alpha * det_denominator(R, n)).monic()
        assert lhs == rhs
        done += 1


def test_kronecker_examples():
    I2 = PolyMatrix.identity(2)
    assert kronecker(I2, I2) == PolyMatrix.identity(4)
    B = PolyMatrix.from_rows([[x, 1], [0, x - 1]])
    a = PolyMatrix.from_rows([[x + 1]])
    assert kronecker(a, B) == PolyMatrix.from_rows(
        [[(x + 1) * x, x + 1], [Poly(), (x + 1) * (x - 1)]])
    swap = PolyMatrix.from_rows([[0, 1], [1, 0]])
    K = kronecker(swap, I2)
    assert K.entry(0, 2) == Poly.one() and K.entry(2, 0) == Poly.one()
    assert K.entry(0, 0).is_zero()


def test_kronecker_keeps_the_operand_type():
    A = RatMatrix.from_rows([[RatFun(1, x), 0], [0, 2]])
    B = RatMatrix.from_rows([[x]])
    assert kronecker(A, B) == RatMatrix.from_rows([[1, 0], [0, 2 * x]])
    assert kronecker(PolyMatrix.identity(1), PolyMatrix.identity(2)) \
        == PolyMatrix.identity(2)


def test_invert_roundtrip():
    rng = random.Random(35)
    done = 0
    while done < 10:
        n = rng.randint(1, 3)
        R = rand_ratmatrix(rng, n)
        if det_rational(R).is_zero():
            continue
        assert R.matmul(invert(R)) == RatMatrix.identity(n)
        done += 1


def _rand_zpoly(rng, deg):
    z = [rng.randint(-30, 30) for _ in range(deg + 1)]
    z[-1] = rng.choice((-1, 1)) * rng.randint(1, 30)
    return z


def _zprod(*factors):
    out = [1]
    for f in factors:
        out = zk.zp_mul(out, f)
    return out


def test_normalize_matches_chained_gcd_strip(monkeypatch):
    def chained_strip(vec):
        """Integer content, then the polynomial content as a chain of
        pairwise gcds."""
        c = 0
        for z in vec:
            for e in z:
                c = gcd(c, e)
        if c == 0:
            return vec
        vec = [[e // c for e in z] for z in vec]
        live = [z for z in vec if z]
        g = live[0]
        for z in live[1:]:
            if len(g) == 1:
                break
            g = zp_gcd_ref(g, z)
        if len(g) > 1:
            # the content has a positive leading coefficient, also when
            # it is a single entry's own
            if g[-1] < 0:
                g = [-e for e in g]
            vec = [zk.zp_divexact(z, g) if z else z for z in vec]
        return vec

    rng = random.Random(77)
    real_packed, real_chain = kernel._strip_packed, kernel._strip_chain
    paths = {"packed": 0, "fallback": 0}
    for trial in range(120):
        # a factor planted in some entries, up to its square: the strip
        # must find it as polynomial content
        den = _rand_zpoly(rng, rng.randint(1, 3)) if trial % 3 else None
        g = _rand_zpoly(rng, rng.randint(0, 3))
        c = rng.choice((1, 2, 6))
        vec = []
        for _ in range(rng.randint(1, 7)):
            kind = rng.random()
            if kind < 0.15:
                vec.append([])
            elif kind < 0.2:
                vec.append([rng.randint(1, 9)])   # a constant: no content
            else:
                part = [den] * rng.randint(0, 2) if den else []
                vec.append(_zprod([c * rng.randint(1, 3)], g,
                                  _rand_zpoly(rng, rng.randint(0, 4)),
                                  *part))
        if trial % 5 == 0:
            # vec[1] + 3*vec[2] is a multiple of f although vec[1] is not,
            # so gcd(vec[0], vec[1] + 3*vec[2]) overshoots the content
            f, w = _rand_zpoly(rng, 2), _rand_zpoly(rng, 1)
            v = _rand_zpoly(rng, 3)
            vec = [_zprod(g, f, w),
                   _zprod(g, zk.zp_sub(_zprod(f, w), _zprod([3], v))),
                   _zprod(g, v)]
        want = chained_strip([list(z) for z in vec])
        calls = []

        def spy_packed(vals, nb, t):
            got = real_packed(vals, nb, t)
            if got is None:
                calls.append(1)
            return got

        with monkeypatch.context() as m:
            # a failed certificate at a point, or the chain of gcds
            m.setattr(kernel, "_strip_packed", spy_packed)
            m.setattr(kernel, "_strip_chain",
                      lambda vec: calls.append(1) or real_chain(vec))
            g, got = zvec_content(vec)
        assert got == want
        if calls:
            paths["fallback"] += 1
        elif len(g) > 1:
            paths["packed"] += 1
    # the packed strip finds the content with no polynomial gcd
    assert paths["packed"] >= 30 and paths["fallback"] == 0


class _PlainTracker:
    """GaussTracker.offer without the cofactor step: each reduction forms
    lead*v - head*w in full, and normalization strips integer content,
    full powers of den one exact division at a time, then the polynomial
    content."""

    def __init__(self, width, den):
        self.width = width
        self.den = den
        self.pivots = []

    def _normalize(self, vec):
        c, vec = zvec_int_content(vec)
        if c == 0:
            return vec
        while self.den is not None:
            try:
                vec = [zk.zp_divexact(z, self.den) if z else z for z in vec]
            except ValueError:
                break
        return zvec_content(vec)[1]

    def offer(self, vec):
        vec = self._normalize(list(vec))
        for pr, pvec in self.pivots:
            if vec[pr]:
                head, lead = vec[pr], pvec[pr]
                vec = [zk.zp_sub(zk.zp_mul(v, lead), zk.zp_mul(head, w))
                       for v, w in zip(vec, pvec)]
                vec = self._normalize(vec)
        if any(vec[j] for j in range(self.width)):
            pr = min((j for j in range(self.width) if vec[j]),
                     key=lambda j: len(vec[j]))
            self.pivots.append((pr, vec))
            return None
        return vec[self.width:]


def _tracker_sequence(rng):
    """(den, vectors) with a factor per working slot shared by every
    vector, so pivot leads and later heads have a common factor; with
    zero and constant entries, den factors, and sometimes a last vector
    that is a Z[x]-combination of the others."""
    width = rng.randint(1, 4)
    count = rng.randint(2, width + 1)
    den = _rand_zpoly(rng, rng.randint(1, 2)) if rng.random() < 0.6 else None
    slot = [_rand_zpoly(rng, rng.randint(1, 2)) if rng.random() < 0.8
            else [1] for _ in range(width)]
    vecs = []
    for _ in range(count):
        vec = []
        for j in range(width):
            kind = rng.random()
            if kind < 0.15:
                vec.append([])
            elif kind < 0.25:
                vec.append([rng.choice((-3, -1, 1, 2, 5))])
            else:
                part = [den] * rng.randint(0, 1) if den else []
                vec.append(_zprod(slot[j],
                                  _rand_zpoly(rng, rng.randint(0, 2)),
                                  *part))
        vecs.append(vec)
    if rng.random() < 0.5:
        last = [[] for _ in range(width)]
        for vec in vecs[:-1]:
            r = _rand_zpoly(rng, rng.randint(0, 1))
            last = [zk.zp_add(acc, zk.zp_mul(r, z))
                    for acc, z in zip(last, vec)]
        vecs[-1] = last
    return den, vecs


def test_offer_matches_plain_cross_multiplication(monkeypatch):
    """The cofactor step, the unit-lead step with its deferred strip and
    the dropped den strip change only a Q(x) scalar of each reduced
    vector: the rank, the dependent index and the certificate's direction
    are those of plain cross-multiplication."""
    rng = random.Random(2024)
    real_strip = zk.zvec_poly_content
    cofactor_steps = []

    def spy(vec):
        g, q = real_strip(vec)
        if sys._getframe(1).f_code is GaussTracker.offer.__code__ \
                and len(vec) == 2 and len(g) > 1:
            cofactor_steps.append(len(g) - 1)
        return g, q

    monkeypatch.setattr(zk, "zvec_poly_content", spy)
    dependent = unit_leads = 0
    for _ in range(150):
        den, vecs = _tracker_sequence(rng)
        width, count = len(vecs[0]), len(vecs)
        fast, plain = GaussTracker(width), _PlainTracker(width, den)
        for i, vec in enumerate(vecs):
            aug = vec + [[1] if k == i else [] for k in range(count)]
            c, c2 = fast.offer(aug), plain.offer(aug)
            assert (c is None) == (c2 is None)
            if c is not None:
                break
        assert fast.rank == len(plain.pivots)
        if c is None:
            assert fast.rank == count
            continue
        dependent += 1
        unit_leads += sum(v[pr] == [1] for pr, v in fast.pivots)
        assert fast.rank == i and c[i]
        for j in range(count):
            for k in range(j):
                assert zk.zp_mul(c[j], c2[k]) == zk.zp_mul(c[k], c2[j])
        # the certificate is a relation among the offered vectors
        for s in range(width):
            acc = []
            for j in range(i + 1):
                acc = zk.zp_add(acc, zk.zp_mul(c[j], vecs[j][s]))
            assert acc == []
    assert dependent >= 50 and unit_leads >= 5
    assert len(cofactor_steps) >= 30


def test_zvec_content_strips_a_content_that_is_one_at_an_integer():
    """A planted content c*g with g(1048583) = 1 is found and stripped: the
    values of the entries at that point are coprime, so no evaluation test
    could see g, but the strip takes exact gcds."""
    rng = random.Random(78)
    pt = 1048583
    for _ in range(20):
        # g = (x - pt)*r + 1, so g(pt) = 1
        r = _rand_zpoly(rng, rng.randint(0, 2))
        if r[-1] < 0:
            r = zk.zp_neg(r)
        g = zk.zp_add(zk.zp_mul([-pt, 1], r), [1])
        while True:
            vec = [_rand_zpoly(rng, rng.randint(0, 3))
                   for _ in range(rng.randint(2, 4))]
            if zvec_content(vec)[0] == [1]:
                break
        assert sum(e * pt**i for i, e in enumerate(g)) == 1
        c = rng.choice((1, 3))
        planted = [_zprod([c], g, z) for z in vec]
        assert zvec_content(planted) == (zk.zp_scale(g, c), vec)


def _planted_vector(rng):
    """A zpoly vector with a planted content c*g: zero and constant
    entries, leading coefficients of either sign, sometimes a single
    nonzero entry, and sometimes g = (x+1)^m with cofactors that are
    multiples of (x-1)^m, so that |g| times the cofactor's norm is far
    above the entry's norm."""
    c = rng.choice((1, 1, 2, 6, -3))
    if rng.random() < 0.25:
        m = rng.randint(3, 8)
        g, shared = [1], [1]
        for _ in range(m):
            g, shared = zk.zp_mul(g, [1, 1]), zk.zp_mul(shared, [-1, 1])
    else:
        g, shared = _rand_zpoly(rng, rng.randint(0, 3)), [1]
    vec = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.random()
        if kind < 0.15:
            vec.append([])
        elif kind < 0.2:
            vec.append([rng.choice((-4, -1, 1, 3))])
        else:
            vec.append(_zprod([c], g, shared,
                              _rand_zpoly(rng, rng.randint(0, 3))))
    if rng.random() < 0.15:
        keep = rng.randrange(len(vec))
        vec = [z if j == keep else [] for j, z in enumerate(vec)]
    return vec


def test_packed_strip_matches_the_reference():
    """zvec_content gives the content and the stripped vector of the
    unpacked strip (``_oracle.zvec_content_ref``), the single nonzero
    entry and the sign of each entry included."""
    rng = random.Random(79)
    planted = 0
    for _ in range(300):
        vec = _planted_vector(rng)
        got = zvec_content(vec)
        assert got == zvec_content_ref(vec), vec
        planted += len(got[0]) > 1
    assert planted >= 100


def test_packed_reductions_match_the_reference():
    """GaussTracker keeps the pivots and returns the certificates of the
    tracker whose reductions are formed in Z[x]
    (``_oracle.GaussTrackerRef``), on sequences with shared slot factors,
    zero and constant entries and negated vectors."""
    rng = random.Random(80)
    certificates = 0
    for _ in range(150):
        _, vecs = _tracker_sequence(rng)
        count = len(vecs)
        vecs = [[zk.zp_neg(z) for z in v] if rng.random() < 0.3 else v
                for v in vecs]
        fast, ref = GaussTracker(len(vecs[0])), GaussTrackerRef(len(vecs[0]))
        for i, vec in enumerate(vecs):
            aug = vec + [[1] if k == i else [] for k in range(count)]
            c = fast.offer(aug)
            assert c == ref.offer(aug)
            assert fast.pivots == ref.pivots
            if c is not None:
                certificates += 1
                break
    assert certificates >= 50


def test_a_narrow_point_falls_back_to_the_chain(monkeypatch):
    """At the narrowest point the strip's argument allows -- no room, and
    for a reduction the point sized from lead*v - head*w itself instead of
    from the operands -- the quotients' certificate fails on some planted
    contents.  The strip then retries at a wider point, and when it may
    try one point only, the chain of pairwise gcds runs; either way it
    gives the content and vector of the reference, for the strip and for
    a reduction."""
    monkeypatch.setattr(kernel, "_STRIP_ROOM", 0)
    retries = {"strip": 0, "reduction": 0}
    fallbacks = {"strip": 0, "reduction": 0}
    packed, chain = kernel._strip_packed, kernel._strip_chain

    def spy_packed(vals, nb, vec):
        got = packed(vals, nb, vec)
        if got is None and points > 1:
            retries[kind] += 1
        return got

    def spy_chain(vec):
        fallbacks[kind] += 1
        return chain(vec)

    monkeypatch.setattr(kernel, "_strip_packed", spy_packed)
    monkeypatch.setattr(kernel, "_strip_chain", spy_chain)
    for points in (kernel._STRIP_POINTS, 1):
        monkeypatch.setattr(kernel, "_STRIP_POINTS", points)
        rng = random.Random(81)
        for _ in range(300):
            t = _planted_vector(rng)
            want = zvec_content_ref(t)
            kind = "strip"
            assert zvec_content(t) == want, t
            # t = lead*v - head*w with lead = +-1, and the point sized from
            # the largest coefficient of t, v and w
            lead = [rng.choice((-1, 1))]
            head = [rng.randint(1, 3), rng.randint(-3, 3)]
            w = [zk.zp_trim([rng.randint(-3, 3) for _ in range(3)])
                 for _ in t]
            v = [zk.zp_scale(zk.zp_add(z, zk.zp_mul(head, b)), lead[0])
                 for z, b in zip(t, w)]
            bits = max(max(map(abs, z)).bit_length()
                       for z in t + v + w if z)
            monkeypatch.setattr(kernel, "_cross_bits", lambda *_: bits)
            kind = "reduction"
            g, q = zk.zvec_cross_content(lead, v, head, w)
            c, q = zvec_int_content(q)
            assert ((zk.zp_scale(g, c) if c > 1 else g), q) == want, t
    assert retries["strip"] >= 8 and retries["reduction"] >= 8, retries
    assert fallbacks["strip"] >= 8 and fallbacks["reduction"] >= 8, fallbacks
