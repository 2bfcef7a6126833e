"""Algebraic sanity of the integer-polynomial kernels, and differential
tests of the Kronecker product and the heuristic gcd against in-test
references (schoolbook product, primitive PRS)."""

import random
from math import gcd, lcm

import pytest

from pseudolin import _kernel as zk


def rand_zp(rng, max_deg=8, bound=20):
    deg = rng.randint(-1, max_deg)
    if deg < 0:
        return []
    c = [rng.randint(-bound, bound) for _ in range(deg + 1)]
    c[-1] = rng.randint(1, bound) * rng.choice((-1, 1))
    return c


def test_ring_identities():
    rng = random.Random(101)
    for _ in range(200):
        a, b, c = (rand_zp(rng) for _ in range(3))
        assert zk.zp_add(a, b) == zk.zp_add(b, a)
        assert zk.zp_mul(a, b) == zk.zp_mul(b, a)
        left = zk.zp_mul(a, zk.zp_add(b, c))
        right = zk.zp_add(zk.zp_mul(a, b), zk.zp_mul(a, c))
        assert left == right
        assert zk.zp_sub(zk.zp_add(a, b), b) == a


def test_divexact_and_gcd():
    rng = random.Random(202)
    for _ in range(150):
        a, b = rand_zp(rng), rand_zp(rng)
        if b:
            prod = zk.zp_mul(a, b)
            assert zk.zp_divexact(prod, b) == a
        g = zk.zp_gcd(a, b)
        if a or b:
            assert g and g[-1] > 0
            gg, cont = zk.zp_primitive(g)
            assert cont == 1 and gg == g
            if a:
                assert not any(zk.zp_pseudorem(a, g))
            if b:
                assert not any(zk.zp_pseudorem(b, g))
        else:
            assert g == []


def test_divexact_rejects_inexact():
    with pytest.raises(ValueError):
        zk.zp_divexact([1, 1], [2])   # (x+1)/2 not integral
    with pytest.raises(ValueError):
        zk.zp_divexact([1, 0, 1], [1, 1])
    with pytest.raises(ZeroDivisionError):
        zk.zp_divexact([1], [])


def test_gcd_common_factor():
    rng = random.Random(303)
    for _ in range(60):
        g = rand_zp(rng, 4)
        if not g:
            continue
        a, b = rand_zp(rng, 4), rand_zp(rng, 4)
        ag, bg = zk.zp_mul(a, g), zk.zp_mul(b, g)
        got = zk.zp_gcd(ag, bg)
        if ag or bg:
            gp, _ = zk.zp_primitive(g)
            if gp and gp[-1] < 0:
                gp = [-c for c in gp]
            # gcd(ag, bg) is a multiple of the primitive part of g
            assert not any(zk.zp_pseudorem(got, gp)) or got == []


# -- differential tests -------------------------------------------------------


def _wide_zp(rng, length, bits, zero_frac=0.2):
    """length coefficients of up to bits bits, signed, some zero, nonzero
    leading coefficient."""
    c = [0 if rng.random() < zero_frac
         else rng.choice((-1, 1)) * rng.getrandbits(bits)
         for _ in range(length)]
    c[-1] = rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1)
    return c


def schoolbook(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def test_mul_matches_schoolbook():
    rng = random.Random(505)
    cases = [([], [1, 2]), ([3], []), ([-1], [5]), ([0, 0, 7], [1] * 9),
             ([-(1 << 300)] * 8, [(1 << 300) - 1] * 8)]
    for la in range(1, 71):
        for _ in range(3):
            lb = rng.choice((1, 2, 7, 8, 9, rng.randint(1, 70)))
            bits = rng.choice((0, 1, 7, 8, 31, 64, 65, 300))
            cases.append((_wide_zp(rng, la, bits),
                          _wide_zp(rng, lb, rng.choice((1, bits, 300)))))
    # product coefficients right at the packing width
    for la in (8, 15, 16, 31, 63, 64):
        for t in (7, 8, 9, 31, 32, 33, 61, 62, 63, 64, 65, 301):
            cases.append(([(1 << t) - 1] * la, [1 - (1 << t)] * la))
    for a, b in cases:
        want = schoolbook(a, b)
        assert zk.zp_mul(a, b) == want
        assert zk.zp_mul(b, a) == want


def test_matrix_product_matches_schoolbook():
    """zmat_mul against sums of schoolbook products, on every shape from
    empty to 3 x 4 x 3, with short, long and mixed operands, zero entries,
    an entry whose partners are all zero (the point must still hold it),
    coefficients around the packing width, and sums that cancel."""
    def product(A, B):
        out = []
        for row in A:
            out.append([])
            for j in range(len(B[0]) if B else 0):
                t = []
                for a, brow in zip(row, B):
                    p = schoolbook(a, brow[j])
                    t += [0] * (len(p) - len(t))
                    for i, c in enumerate(p):
                        t[i] += c
                while t and not t[-1]:
                    t.pop()
                out[-1].append(t)
        return out

    def matrix(rng, rows, cols, lengths, bits):
        return [[_wide_zp(rng, rng.choice(lengths), bits)
                 if rng.random() > 0.25 else [] for _ in range(cols)]
                for _ in range(rows)]

    rng = random.Random(515)
    long = [(1 << 300) - 1] * 9
    cases = [([], []), ([], [[[1]]]), ([[]], []), ([[], []], []),
             ([[[1, 2]]], [[[3, 4]]]), ([[[]]], [[long]]),
             # a wide entry facing only zero entries, in A and in B
             ([[long, [1] * 8]], [[[]], [[1] * 8]]),
             ([[[1] * 8, []]], [[[1] * 8], [long]]),
             # sums that cancel to zero, and whose top terms cancel
             ([[long, long]], [[[1] * 9], [[-1] * 9]]),
             ([[[1] * 8, [1] * 8]],
              [[[1] * 7 + [2]], [[5] + [-1] * 6 + [-2]]]),
             ([[[1, 1], [1, -1]]], [[[1, -1]], [[-1, -1]]])]
    for I, K, J in ((1, 4, 1), (1, 1, 3), (3, 1, 1), (4, 1, 2), (2, 3, 2),
                    (3, 4, 3), (3, 6, 1)):
        for lengths in ((1, 3, 7), (8, 20), (1, 2, 9, 30)):
            for bits in (1, 31, 64, 300):
                A = matrix(rng, I, K, lengths, bits)
                B = matrix(rng, K, J, rng.choice(((2, 7), (8, 25), (1, 40))),
                           rng.choice((1, bits, 65)))
                cases += [(A, B), (B, A)] if I == J else [(A, B)]
    # coefficients right at the packing width: 45 (2^t - 1)^2 is close to
    # the bound K * min(len a, len b) * |a| * |b| that sizes the point
    for t in (7, 8, 9, 31, 32, 33, 63, 64, 65, 301):
        big = [(1 << t) - 1] * 15
        cases.append(([[big] * 3, [zk.zp_neg(big)] * 3], [[big]] * 3))
    for A, B in cases:
        assert zk.zmat_mul(A, B) == product(A, B), (A, B)
        if len(A) == 1 and len(B) == 1 and len(B[0]) == 1:
            assert zk.zmat_mul(A, B)[0][0] == zk.zp_mul(A[0][0], B[0][0])


def test_gcd_matches_primitive_prs():
    def primitive(a):
        c = 0
        for x in a:
            c = gcd(c, x)
        return [x // c for x in a] if c else []

    def prs_gcd(a, b):
        a, b = primitive(a), primitive(b)
        while b:
            r = list(a)
            while len(r) >= len(b):
                top = r[-1]
                r = [x * b[-1] for x in r]
                for i, y in enumerate(b):
                    r[len(r) - len(b) + i] -= top * y
                while r and r[-1] == 0:
                    r.pop()
            a, b = b, primitive(r)
        if a and a[-1] < 0:
            a = [-x for x in a]
        return a

    def times(*factors):
        out = [1]
        for f in factors:
            out = [sum(out[k] * f[i - k] for k in range(len(out))
                       if 0 <= i - k < len(f))
                   for i in range(len(out) + len(f) - 1)]
        return out

    rng = random.Random(606)
    cases = [([], []), ([], [0, 4, -6]), ([6], [0, 4]), ([2, 4], [6, 12])]
    for _ in range(40):
        g, u, v = (_wide_zp(rng, rng.randint(1, 6), rng.choice((1, 8, 40)))
                   for _ in range(3))
        cases.append((times(g, u), times(g, v)))                # planted
        cases.append((times(g, g, u), times(g, v, g)))          # repeated
        cases.append((times([-3], g, u), times([10], v)))       # content
        cases.append(([-c for c in times(u, g)], times(v, g)))  # lc < 0
        cases.append((u, v))                                    # often coprime
    # x - 1 and x + m - 1 are coprime, but m is divisible by xi - 1 for every
    # xi = 2^(8k) up to 2^128, and is 0 mod 2^61 - 1: a point sized on x - 1
    # reads gcd(a(xi), b(xi)) = xi - 1 back as x - 1.  The strip sizes its
    # point on m itself, past 2^640, and settles these at its first point;
    # test_values_divisible_at_every_point_reach_the_prs reaches the PRS
    m = lcm(*(2**k - 1 for k in range(8, 129, 8)))
    cases += [([-1, 1], [m - 1, 1]), ([-1, 1], [m * (2**61 - 1) - 1, 1]),
              ([-1, 0, 1], [m - 1, 0, 1]),
              (times([-1, 1], [2, 1]), times([m - 1, 1], [2, 1]))]
    # gcd x - 250: at xi = 256 both values are small multiples of 256 - 250,
    # so xi must exceed twice the coefficients, not just the coefficients
    cases.append((times([-250, 1], [1, 1]), times([-250, 1], [-1, 1])))
    for deg in (100, 130):
        g = _wide_zp(rng, 40, 20)
        u, v = _wide_zp(rng, deg - 39, 20), _wide_zp(rng, deg - 39, 20)
        cases.append((times(g, u), times(g, v)))
        cases.append((u, v))
    for a, b in cases:
        want = prs_gcd(a, b)
        assert zk.zp_gcd(a, b) == want
        assert zk.zp_gcd(b, a) == want


def test_gcd_matches_sympy():
    """zp_gcd is the primitive part, with positive leading coefficient, of
    sympy's gcd over ZZ[x]."""
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("x")

    def to_sympy(a):
        return sympy.Poly(list(reversed(a)) or [0], X, domain=sympy.ZZ)

    def from_sympy(p):
        if p.is_zero:
            return []
        _, p = p.primitive()
        if p.LC() < 0:
            p = -p
        return [int(c) for c in reversed(p.all_coeffs())]

    rng = random.Random(707)
    cases = [([], [0, 4, -6]), ([6], [0, 4]), ([-2, -4], [6, 12])]
    nontrivial = 0
    for k in range(60):
        g = rand_zp(rng, 5)
        if not g:
            g = [rng.choice((-3, 2))]
        u, v = rand_zp(rng, 6), rand_zp(rng, 6)
        a, b = zk.zp_mul(g, u or [1]), zk.zp_mul(g, v or [1])
        if k % 3 == 0:
            a = zk.zp_scale(a, rng.choice((-6, 4, 15)))    # integer content
        if k % 4 == 1:
            b = zk.zp_neg(b)                                # lc < 0
        if k % 5 == 2:
            a = zk.zp_mul(a, g)                             # repeated factor
        cases.append((a, b))
        nontrivial += len(g) > 1
    assert nontrivial >= 40
    for a, b in cases:
        want = from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)))
        assert zk.zp_gcd(a, b) == want
        assert zk.zp_gcd(b, a) == want


# -- the gcd as the two-entry content strip -----------------------------------


def _skewed_gcd_cases(rng):
    """Pairs with a planted common factor where one operand is much larger
    than the other, in degree or in coefficient size (the strip's point is
    sized on the larger one), with zero and constant operands, negative
    leading coefficients and integer contents."""
    cases = [([], []), ([], [0, 4, -6]), ([-6, 0, 9], []), ([6], [0, 4]),
             ([-5], [3]), ([0, 4, -6], [-2]), ([-2, -4], [6, 12]),
             ([0, -3], [0, 0, 6])]
    for k in range(150):
        g = _wide_zp(rng, rng.randint(1, 4), rng.choice((1, 8, 40)))
        small = _wide_zp(rng, rng.randint(1, 3), rng.choice((1, 4)))
        large = _wide_zp(rng, rng.randint(1, 40), rng.choice((1, 60, 200)))
        a, b = zk.zp_mul(g, small), zk.zp_mul(g, large)
        if k % 3 == 0:
            a = zk.zp_scale(a, rng.choice((-6, 4, 15)))    # integer content
        if k % 4 == 1:
            b = zk.zp_neg(b)                                # lc < 0
        if k % 7 == 3:
            b = zk.zp_mul(b, g)                             # repeated factor
        cases.append((a, b) if k % 2 else (b, a))
    return cases


def test_gcd_matches_the_reference_on_skewed_operands():
    """zp_gcd equals the evaluation-and-trial-division GCDHEU it replaced
    (``_oracle.zp_gcd_ref``) and sympy's primitive gcd over ZZ[x]."""
    from _oracle import zp_gcd_ref
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("x")

    def sympy_gcd(a, b):
        p = sympy.gcd(sympy.Poly(list(reversed(a)) or [0], X, domain="ZZ"),
                      sympy.Poly(list(reversed(b)) or [0], X, domain="ZZ"))
        if p.is_zero:
            return []
        _, p = p.primitive()
        if p.LC() < 0:
            p = -p
        return [int(c) for c in reversed(p.all_coeffs())]

    rng = random.Random(808)
    nontrivial = 0
    for a, b in _skewed_gcd_cases(rng):
        want = zp_gcd_ref(a, b)
        assert zk.zp_gcd(a, b) == want, (a, b)
        assert zk.zp_gcd(b, a) == want, (a, b)
        assert sympy_gcd(a, b) == want, (a, b)
        nontrivial += len(want) > 1
    assert nontrivial >= 100


def test_two_entry_strip_gives_the_gcd_and_its_cofactors():
    """For nonzero a and b, zvec_poly_content([a, b]) is zp_gcd(a, b) with
    the exact quotients a/g and b/g, so that no caller divides again."""
    rng = random.Random(809)
    for a, b in _skewed_gcd_cases(rng):
        if not a or not b:
            continue
        g = zk.zp_gcd(a, b)
        assert zk.zvec_poly_content([a, b]) == (
            g, [zk.zp_divexact(a, g), zk.zp_divexact(b, g)]), (a, b)


def test_single_entry_content_has_a_positive_lead():
    """A vector with one nonconstant entry z has the content +-z with a
    positive leading coefficient, as every other content has."""
    assert zk.zvec_poly_content([[], [1, -2], []]) == (
        [-1, 2], [[], [-1], []])
    assert zk.zvec_poly_content([[0, 3]]) == ([0, 3], [[1]])
    assert zk.zvec_poly_content([[-5], []]) == ([1], [[-5], []])


def test_values_divisible_at_every_point_reach_the_prs():
    """x - 2 and b with b(2) = M are coprime, but when M is a multiple of
    xi - 2 at every point xi the strip tries, x - 2 divides b(xi) at each
    of them and the quotients' certificate fails; M is also 0 mod 2^61 - 1,
    the F_p certificate fails too, and the primitive PRS settles the gcd.
    (The m = lcm(2^k - 1) pairs of ``test_gcd_matches_primitive_prs`` no
    longer reach it: their points are sized on m itself.)"""
    from pseudolin._kernel import _zkernel_py as kernel
    nbs, nb = [], kernel._strip_nb(2)
    for _ in range(kernel._STRIP_POINTS):
        nbs.append(nb)
        nb = kernel._wider_nb(nb)
    m = lcm(*((1 << (8 * nb)) - 2 for nb in nbs), 2**61 - 1)
    b = [int(c) for c in reversed(bin(m)[2:])]    # b(2) = m, digits 0, 1
    cases = [([-2, 1], b, [1]),
             (zk.zp_mul([-2, 1], [2, 1]), zk.zp_mul(b, [2, 1]), [2, 1]),
             ([4, -2], zk.zp_scale(b, -3), [1])]
    for a, b, want in cases:
        steps = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "zp_pseudorem",
                       lambda a, b: steps.append(1)
                       or zk.zp_pseudorem(a, b))
            assert zk.zp_gcd(a, b) == want
        assert steps, (a, b)


def _packing_cases(rng, nb):
    """Coefficient lists for width nb: the extremes -(2^(8nb-1) - 1),
    2^(8nb-1) - 1 and -2^(8nb-1), runs of zeros at both ends, and random
    entries of every size up to the width."""
    hi = 1 << (8 * nb - 1)
    cases = [[hi - 1], [-hi], [-(hi - 1)], [0], [0, 0, 0],
             [hi - 1, -(hi - 1), -hi, 0, hi - 1],
             [0, 0, -hi, -1, 1, 0, 0], [0, 0, 0, hi - 1],
             [-hi, 0, 0, 0], [-1] * 5, [-hi] * 4, [hi - 1] * 4]
    for _ in range(20):
        n = rng.randint(1, 12)
        a = [rng.randrange(-hi, hi) >> rng.randrange(8 * nb) for _ in range(n)]
        zeros = [0] * rng.randint(0, 3)
        cases.append(zeros + a + zeros[:rng.randint(0, 3)])
    return cases


def test_pack_matches_the_reference_sum():
    """_pack(a, nb) is sum_i a_i 2^(8*nb*i) at every width from 1 to 24
    bytes, both through ``struct`` (1, 2, 4, 8) and through bytes."""
    from pseudolin._kernel import _zkernel_py as kernel
    rng = random.Random(73)
    for nb in range(1, 25):
        for a in _packing_cases(rng, nb):
            want = sum(c << (8 * nb * i) for i, c in enumerate(a))
            assert kernel._pack(a, nb) == want, (nb, a)


def test_unpack_inverts_the_reference_sum():
    """_unpack(sum_i a_i 2^(8*nb*i), len a, nb) gives a back at every width
    from 1 to 24 bytes, zeros at either end included."""
    from pseudolin._kernel import _zkernel_py as kernel
    rng = random.Random(74)
    for nb in range(1, 25):
        for a in _packing_cases(rng, nb):
            v = sum(c << (8 * nb * i) for i, c in enumerate(a))
            assert kernel._unpack(v, len(a), nb) == a, (nb, a)
            assert kernel._digits(v, nb) == zk.zp_trim(list(a)), (nb, a)


def test_widths_are_rounded_for_struct():
    """Widths up to 8 bytes round up to 1, 2, 4 or 8; wider ones stay, and
    the strip's points only grow."""
    from pseudolin._kernel import _zkernel_py as kernel
    assert [kernel._width(nb) for nb in range(1, 12)] == \
        [1, 2, 4, 4, 8, 8, 8, 8, 9, 10, 11]
    nb = kernel._strip_nb(0)
    for _ in range(8):
        assert kernel._wider_nb(nb) > nb
        nb = kernel._wider_nb(nb)
