"""The minimal-relation solver, realisations, bounds and the Krylov
denominator property."""

import hashlib
import random
import sys
from fractions import Fraction

import pytest

from pseudolin import _kernel as zk
from pseudolin._kernel import _zkernel_py as kernel
from pseudolin.instances import build_lclm, lclm, verify_lclm
from pseudolin import relations
from pseudolin.linalg import RatMatrix, rank, zvec_content
from pseudolin.poly import Poly, poly_divides, poly_gcd
from pseudolin.ratfun import RatFun
from pseudolin.relations import (PseudoLinearMap, Realisation, Relation,
                                 bound_direct, bound_realisation,
                                 krylov_denominator_check,
                                 krylov_matrix, solve_min_relation,
                                 trivial_realisation, vector_degree,
                                 verify_relation, _iterate_step)
from pseudolin.randgen import (rand_map, rand_operator,
                               rand_strictly_proper_map, rand_vector)
from _oracle import (oracle_min_relation, solve_min_relation_plain,
                     theta_apply, theta_iterates)
from test_verifiers import POLY_UNITS, relation_mutants, scaled_relation

x = Poly.x()
one = Poly.one()


def _map(entries, n):
    return PseudoLinearMap(RatMatrix(n, n, entries))


M_1OVERX = _map([RatFun(1, x)], 1)
M_ZERO = _map([RatFun(0)], 1)


def test_theta_apply_examples():
    assert theta_apply(M_1OVERX, [RatFun(1)]) == [RatFun(1, x)]
    assert theta_apply(M_1OVERX, [RatFun(1, x)]) == [RatFun(0)]
    zero2 = _map([RatFun(0)] * 4, 2)
    assert theta_apply(zero2, [RatFun(x), RatFun(x * x)]) \
        == [RatFun(1), RatFun(2 * x)]
    with pytest.raises(ValueError):
        theta_apply(M_1OVERX, [RatFun(1), RatFun(1)])


def test_solve_min_relation_examples():
    rel = solve_min_relation(M_1OVERX, [one])
    assert rel.rho == 1 and rel.eta == (Poly([-1]), x)
    rel0 = solve_min_relation(M_ZERO, [one])
    assert rel0.rho == 1 and rel0.eta == (Poly(), one)
    with pytest.raises(ValueError):
        solve_min_relation(M_1OVERX, [Poly()])


def _relation_digest(rel):
    text = f"{rel.rho}:" + ";".join(",".join(str(c) for c in e.coeffs)
                                    for e in rel.eta)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _content_cases():
    """(name, map, a) whose iterates b_i carry content that the solver
    strips before offering them to GaussTracker."""
    rng = random.Random(60)
    cases = []
    # n = 1: the content of b_i is its whole entry
    for k in range(3):
        cases.append((f"n1-{k}", rand_map(rng, 1), rand_vector(rng, 1, 2)))
    # T = [[0, 0], [1, 0]] on a = (1, 0): theta^2(a) = 0
    cases.append(("vanishing", _map([RatFun(0), RatFun(0), RatFun(1),
                                     RatFun(0)], 2), [one, Poly()]))
    # a nonzero constant entry leaves no polynomial content
    cases.append(("constant-2", rand_map(rng, 2), [Poly.const(3), x * x - 2]))
    cases.append(("constant-3", rand_map(rng, 3),
                  [x + 1, Poly.const(-2), x**3]))
    for k in range(3):
        ops = [rand_operator(rng, 2, 2, regular_infinity=True)
               for _ in range(2)]
        inst = build_lclm(ops)
        cases.append((f"lclm-{k}", inst.map, list(inst.a)))
    return cases


# digests of the relations as computed before iterates were offered
# content-free
CONTENT_CASE_DIGESTS = {
    "n1-0": "eea1745185f1eff6", "n1-1": "be6ccd1f7dda2c2c",
    "n1-2": "6b362ad90e3d539a", "vanishing": "872921ccdfe80976",
    "constant-2": "82f2e915117d1657", "constant-3": "3f0429548246b819",
    "lclm-0": "d4a982e9ba613721", "lclm-1": "78cdb906f4df0147",
    "lclm-2": "651877d80671f6e9",
}


def test_content_free_offers_keep_the_relation():
    for name, pmap, a in _content_cases():
        rel = solve_min_relation(pmap, a)
        assert verify_relation(pmap, a, rel), name
        assert _relation_digest(rel) == CONTENT_CASE_DIGESTS[name], name
    rel = solve_min_relation(*_content_cases()[3][1:])
    assert rel.eta == (Poly(), Poly(), one)


# digests of the relations of three LCLMs of three order-3, degree-3
# operators (the lclm_heavy benchmark shape), as computed before the
# cofactor step in GaussTracker and the Z[x] assembly of the relation
LCLM_HEAVY_DIGESTS = ["4330a708824931d9", "b8fa2e1f4f9f0efe",
                      "4f261d8a45a78db1"]


def test_lclm_heavy_relations_unchanged():
    rng = random.Random(61)
    for want in LCLM_HEAVY_DIGESTS:
        inst = build_lclm([rand_operator(rng, 3, 3, regular_infinity=True)
                           for _ in range(3)])
        rel = solve_min_relation(inst.map, list(inst.a))
        assert rel.rho == 9
        assert _relation_digest(rel) == want


# sha256 over the relations of a relation_mix-shaped pool (seed 5: 30 maps
# rand_map(n, num_deg=2, den_deg=2) with n = 1, 2, 3 in turn, each with a
# degree-2 vector), and over the Krylov columns s = 0..3 of its first six
# maps, as computed before the solver's iterate step and the verifier
# became one matrix product each
RELATION_MIX_DIGEST = "4d23625ca995cd01"
RELATION_MIX_KRYLOV_DIGEST = "8a06bb846885b9eb"


def test_relation_mix_relations_unchanged():
    rng = random.Random(5)
    pool = [(rand_map(rng, 1 + k % 3, num_deg=2, den_deg=2),
             rand_vector(rng, 1 + k % 3, 2)) for k in range(30)]
    rels = hashlib.sha256()
    for pmap, a in pool:
        rel = solve_min_relation(pmap, a)
        assert verify_relation(pmap, a, rel)
        rels.update(_relation_digest(rel).encode())
    assert rels.hexdigest()[:16] == RELATION_MIX_DIGEST
    cols = hashlib.sha256()
    for pmap, a in pool[:6]:
        K = krylov_matrix(pmap, a, [0, 1, 2, 3])
        cols.update(";".join(f"{e.num.coeffs}/{e.den.coeffs}"
                             for e in K.entries).encode())
    assert cols.hexdigest()[:16] == RELATION_MIX_KRYLOV_DIGEST


def test_lclm_heavy_coordinates_are_the_relation(monkeypatch):
    """With den^i/h_i in coordinate slot i the certificate is the relation
    itself: on the lclm_heavy shape every content G_i/h_i is 1 and the
    coordinates equal eta up to sign, so the assembly strips nothing.  A
    slot that carried a den power again would fail the count."""
    seen = []
    assemble = relations._relation_from_certificate

    def spy(coords, contents, slots):
        eta = assemble(coords, contents, slots)
        seen.append(all(c == [1] for c in contents)
                    and (coords == eta or [zk.zp_neg(z) for z in coords]
                         == eta))
        return eta

    monkeypatch.setattr(relations, "_relation_from_certificate", spy)
    rng = random.Random(61)
    for want in LCLM_HEAVY_DIGESTS:
        inst = build_lclm([rand_operator(rng, 3, 3, regular_infinity=True)
                           for _ in range(3)])
        rel = solve_min_relation(inst.map, list(inst.a))
        assert _relation_digest(rel) == want
    assert seen.count(True) == len(LCLM_HEAVY_DIGESTS)


def test_lclm_heavy_strips_are_certified(monkeypatch):
    """On the lclm_heavy shape every content strip -- of the iterates, of
    each reduction in GaussTracker and of its cofactor step -- is settled
    by the packed certificate at its first point: no wider point, no
    chain of pairwise gcds, and the strip divides by no ``zp_divexact``."""
    strip = {kernel._strip.__code__, kernel._strip_packed.__code__,
             kernel._strip_chain.__code__, kernel.zvec_poly_content.__code__,
             kernel.zvec_cross_content.__code__}
    seen = {"chain": 0, "packed": 0, "failed": 0, "strip divisions": 0}
    chain, packed = kernel._strip_chain, kernel._strip_packed
    divexact = kernel.zp_divexact

    def spy_chain(vec):
        seen["chain"] += 1
        return chain(vec)

    def spy_packed(vals, nb, vec):
        seen["packed"] += 1
        got = packed(vals, nb, vec)
        seen["failed"] += got is None
        return got

    def spy_divexact(a, b):
        if sys._getframe(1).f_code in strip:
            seen["strip divisions"] += 1
        return divexact(a, b)

    monkeypatch.setattr(kernel, "_strip_chain", spy_chain)
    monkeypatch.setattr(kernel, "_strip_packed", spy_packed)
    monkeypatch.setattr(kernel, "zp_divexact", spy_divexact)
    rng = random.Random(61)
    for want in LCLM_HEAVY_DIGESTS:
        inst = build_lclm([rand_operator(rng, 3, 3, regular_infinity=True)
                           for _ in range(3)])
        rel = solve_min_relation(inst.map, list(inst.a))
        assert _relation_digest(rel) == want
    assert seen["packed"] >= 50
    assert seen["failed"] == seen["chain"] == 0, seen
    assert seen["strip divisions"] == 0, seen


def _count_strip_points(m):
    """Spies on the content strip: per strip, the points it tried."""
    seen = {"strips": 0, "settled second": 0, "later": 0, "chain": 0}
    strip, packed, chain = (kernel._strip, kernel._strip_packed,
                            kernel._strip_chain)
    points = []

    def spy_strip(vals, nb, vec):
        points.append(0)
        got = strip(vals, nb, vec)
        tried = points.pop()
        seen["strips"] += 1
        seen["settled second"] += tried == 2
        seen["later"] += tried > 2
        return got

    def spy_packed(vals, nb, vec):
        points[-1] += 1
        return packed(vals, nb, vec)

    def spy_chain(vec):
        seen["chain"] += 1
        return chain(vec)

    m.setattr(kernel, "_strip", spy_strip)
    m.setattr(kernel, "_strip_packed", spy_packed)
    m.setattr(kernel, "_strip_chain", spy_chain)
    return seen


def test_first_point_failures_settle_at_the_next_point(monkeypatch):
    """The strips whose certificate fails at the first point -- values
    that share an integer factor near xi, so the quotients' bound fails
    with no polynomial content -- are settled at the next, wider point,
    and the chain of pairwise gcds never runs.  Pinned on the relation_mix
    set-up and shape (seed 5, 90 maps with n = 1, 2, 3 in turn) and on six
    lclm_heavy instances of seed 23, set-up, solve and verification."""
    with monkeypatch.context() as m:
        seen = _count_strip_points(m)
        rng = random.Random(5)
        pool = [(rand_map(rng, 1 + k % 3, num_deg=2, den_deg=2),
                 rand_vector(rng, 1 + k % 3, 2)) for k in range(90)]
        for pmap, a in pool:
            assert verify_relation(pmap, a, solve_min_relation(pmap, a))
    assert seen["strips"] >= 1500
    assert (seen["settled second"], seen["later"], seen["chain"]) \
        == (7, 0, 0), seen
    with monkeypatch.context() as m:
        seen = _count_strip_points(m)
        rng = random.Random(23)
        for _ in range(6):
            inst = build_lclm([rand_operator(rng, 3, 3,
                                             regular_infinity=True)
                               for _ in range(3)])
            assert verify_lclm(inst, lclm(inst))
    assert seen["strips"] >= 400
    assert (seen["settled second"], seen["later"], seen["chain"]) \
        == (6, 0, 0), seen


def test_n1_assembly_takes_no_gcd_that_is_one(monkeypatch):
    """For n = 1 the certificate's coordinates are the offered slots, which
    are coprime to their contents by construction, and the first content
    is the lcm as it stands: a solve takes at most gcd(den, G_1) and one
    lcm step, where it took four gcds.  Each gcd is a two-entry content
    strip; the strip of the relation itself is not one."""
    calls = []
    strip = relations.zvec_content

    def spy(vec):
        if len(vec) == 2 and sys._getframe(1).f_locals.get("eta") is not vec:
            calls.append(1)
        return strip(vec)

    monkeypatch.setattr(relations, "zvec_content", spy)
    rng = random.Random(5)
    for _ in range(30):
        pmap = rand_map(rng, 1, num_deg=2, den_deg=2)
        a = rand_vector(rng, 1, 2)
        rel = solve_min_relation(pmap, a)
        assert rel == oracle_min_relation(pmap, a)
    assert len(calls) <= 60


def _plain_iteration_cases():
    """(map, a): random maps with n = 1..4, a third of the vectors times a
    linear factor that den lacks and a third times a factor of den, then
    the lclm content cases."""
    rng = random.Random(62)
    cases = []
    for k in range(51):
        n = 4 if k >= 48 else 1 + k % 3
        pmap = rand_map(rng, n)
        a = rand_vector(rng, n, 2)
        if k % 3 == 1:
            a = [c * (x + rng.randint(2, 9)) for c in a]
        elif k % 3 == 2:
            a = [c * pmap.T.entries[0].den for c in a]
        cases.append((pmap, a))
    return cases + [(pmap, a) for name, pmap, a in _content_cases()
                    if name.startswith("lclm")]


def test_solver_matches_plain_iteration(monkeypatch):
    """Iterating on content-free x_i gives the relation of the plain
    recurrence on the b_i (``_oracle.solve_min_relation_plain``), through
    both kinds of step: den*g'/g divides, or G goes back into x."""
    steps = {"divides": 0, "foreign": 0}
    log_derivative = relations._log_derivative

    def spy(den_z, g):
        q = log_derivative(den_z, g)
        steps["foreign" if q is None else "divides"] += 1
        return q

    monkeypatch.setattr(relations, "_log_derivative", spy)
    for pmap, a in _plain_iteration_cases():
        rel = solve_min_relation(pmap, a)
        assert rel == solve_min_relation_plain(pmap, a)
    assert steps["divides"] >= 20 and steps["foreign"] >= 15, steps


def test_lclm_iterates_have_content():
    """The lclm cases above exercise the strip: some b_i has a content of
    positive degree, which the integer-evaluation guard cannot skip."""
    degrees = []
    for name, pmap, a in _content_cases():
        if not name.startswith("lclm"):
            continue
        den_z, N_z = pmap.cleared()
        b = [[int(c) for c in p.coeffs] for p in a]
        for i in range(pmap.n):
            g, p = zvec_content(b)
            assert [zk.zp_mul(g, z) for z in p] == b
            degrees.append(len(g) - 1)
            b = _iterate_step(den_z, N_z, b,
                              zk.zp_scale(zk.zp_deriv(den_z), -i))
    assert max(degrees) >= 3 and sum(d > 0 for d in degrees) >= 6


def test_relation_normalization_invariants():
    rng = random.Random(50)
    for _ in range(25):
        n = rng.randint(1, 3)
        pmap = rand_map(rng, n)
        a = rand_vector(rng, n, 2)
        rel = solve_min_relation(pmap, a)
        assert not rel.eta[-1].is_zero()
        # jointly primitive over the integers, no common polynomial factor
        g = Poly()
        content = 0
        for e in rel.eta:
            g = poly_gcd(g, e)
            for f in e.coeffs:
                assert f.denominator == 1
                content = _gcd(content, int(f))
        assert content == 1
        assert g.degree == 0
        assert rel.eta[-1].lc > 0


def _gcd(a, b):
    from math import gcd
    return gcd(a, b)


def test_verify_relation():
    rel = solve_min_relation(M_1OVERX, [one])
    assert verify_relation(M_1OVERX, [one], rel)
    broken = Relation(rel.rho, (rel.eta[0] + 1,) + rel.eta[1:])
    assert not verify_relation(M_1OVERX, [one], broken)
    too_short = Relation(0, (one,))
    assert not verify_relation(M_1OVERX, [one], too_short)


def test_from_cleared_takes_any_pair():
    """``from_cleared`` takes any pair (den, N) with N/den = T: scaled by a
    nonconstant g with a negative lead, the pair of a relation_mix-shaped
    map gives the same relation and the same verdicts, on the relation and
    on its mutants, and ``cleared()`` returns it as given."""
    rng = random.Random(90)
    mutants = 0
    for k in range(30):
        n = 1 + k % 3
        pmap = rand_map(rng, n, num_deg=2, den_deg=2)
        a = rand_vector(rng, n, 2)
        g = ([rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]
             + [-rng.randint(1, 3)])
        den_z, N_z = pmap.cleared()
        pair = (zk.zp_mul(g, den_z),
                [[zk.zp_mul(g, z) for z in row] for row in N_z])
        scaled = PseudoLinearMap.from_cleared(*pair)
        assert all(u is v for u, v in zip(scaled.cleared(), pair))
        assert scaled.T == pmap.T
        rel = solve_min_relation(pmap, a)
        assert solve_min_relation(scaled, a) == rel
        rels = [rel] + relation_mutants(rel)
        if any(not e.is_zero() for e in rel.eta[:-1]):
            rels.append(scaled_relation(rel, rng, rng.choice(POLY_UNITS)))
        verdicts = [verify_relation(pmap, a, r) for r in rels]
        assert verdicts == [verify_relation(scaled, a, r) for r in rels]
        assert verdicts[0] and not any(verdicts[1:])
        mutants += len(rels) - 1
    assert mutants >= 80


def test_minimality_via_rank():
    rng = random.Random(51)
    for _ in range(15):
        n = rng.randint(1, 3)
        pmap = rand_map(rng, n)
        a = rand_vector(rng, n, 2)
        rel = solve_min_relation(pmap, a)
        vecs = theta_iterates(pmap, a, rel.rho + 1)
        K_prev = RatMatrix(n, rel.rho,
                           [vecs[j][i] for i in range(n)
                            for j in range(rel.rho)])
        K_full = RatMatrix(n, rel.rho + 1,
                           [vecs[j][i] for i in range(n)
                            for j in range(rel.rho + 1)])
        assert rank(K_prev) == rel.rho
        assert rank(K_full) == rel.rho


def test_matches_bruteforce_oracle():
    rng = random.Random(52)
    for _ in range(10):
        n = rng.randint(1, 3)
        pmap = rand_map(rng, n)
        a = rand_vector(rng, n, 2)
        rel = solve_min_relation(pmap, a)
        ref = oracle_min_relation(pmap, a)
        assert rel.rho == ref.rho
        assert rel.eta == ref.eta
        assert verify_relation(pmap, a, rel)


def test_trivial_realisation_examples():
    real = trivial_realisation(M_1OVERX)
    assert real.X.entry(0, 0) == one and real.M.entry(0, 0) == x
    assert real.delta == x
    poly_map = _map([RatFun(x + 1)], 1)
    realp = trivial_realisation(poly_map)
    assert realp.delta == one
    diag = _map([RatFun(1, x), RatFun(0), RatFun(0), RatFun(1, x - 1)], 2)
    reald = trivial_realisation(diag)
    assert reald.delta == (x * (x - 1)) ** 2
    assert reald.map.T == diag.T


def test_realisation_validation():
    from pseudolin.linalg import PolyMatrix
    with pytest.raises(ValueError):
        Realisation(PolyMatrix.zeros(1, 1), PolyMatrix.zeros(1, 1),
                    PolyMatrix.zeros(1, 1), PolyMatrix.zeros(1, 1))


def test_is_strictly_proper_examples():
    assert M_1OVERX.T.is_strictly_proper()
    assert not _map([RatFun(x + 1, x)], 1).T.is_strictly_proper()
    # companion matrix in the derivation basis has plain 1 entries
    from pseudolin.linalg import companion
    comp = companion([RatFun(0), RatFun(-1)], RatFun(1))
    assert not comp.is_strictly_proper()


def test_bound_realisation_examples():
    assert bound_realisation(1, 0, 1, 0) == 0
    assert bound_realisation(1, 0, 1, 1) == 1
    assert bound_realisation(2, 1, 2, 2) == 5
    with pytest.raises(ValueError):
        bound_realisation(1, 0, 1, 2)


def test_bound_direct_examples():
    assert bound_direct(1, 0, 1, 0, 0) == (0, 0)
    assert bound_direct(1, 0, 1, 0, 1) == (1, 0)
    assert bound_direct(2, 0, 2, 2, 0) == (0, 6)
    rho, d_a, d, D = 3, 1, 2, 4
    assert bound_direct(rho, d_a, d, D, rho)[1] \
        == rho * d_a + (rho * (rho - 1) // 2) * max(d - 1, D)


def test_realisation_bound_soundness_randomized():
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(1, 3)
        pmap = rand_strictly_proper_map(rng, n, rng.randint(1, 2))
        a = rand_vector(rng, n, 2)
        rel = solve_min_relation(pmap, a)
        real = trivial_realisation(pmap)
        d_a = int(vector_degree(a))
        for i, e in enumerate(rel.eta):
            cap = bound_realisation(rel.rho, d_a, real.delta_degree, i)
            if e.is_zero():
                continue
            assert e.degree <= cap


def test_direct_bound_shape_randomized():
    rng = random.Random(54)
    for _ in range(20):
        n = rng.randint(1, 3)
        pmap = rand_map(rng, n, 2, 2)
        a = rand_vector(rng, n, 2)
        rel = solve_min_relation(pmap, a)
        from pseudolin.ratfun import common_denominator
        den = common_denominator(pmap.T.entries)
        d = int(den.degree)
        D = int(max((e * den).num.degree for e in pmap.T.entries))
        d_a = int(vector_degree(a))
        for i, e in enumerate(rel.eta):
            if e.is_zero():
                continue
            _, p_bound = bound_direct(rel.rho, d_a, d, D, i)
            assert e.degree <= i * d + p_bound


def test_krylov_matrix_and_check_examples():
    K = krylov_matrix(M_1OVERX, [one], [0, 1, 2])
    assert K.entry(0, 0) == RatFun(1)
    assert K.entry(0, 1) == RatFun(1, x)
    assert K.entry(0, 2).is_zero()
    real = trivial_realisation(M_1OVERX)
    assert krylov_denominator_check(M_1OVERX, real, [one], [0, 1, 2], 1)
    # zero T is strictly proper; Delta = 1 forces phi constant
    assert krylov_denominator_check(M_ZERO, trivial_realisation(M_ZERO),
                                    [one], [0, 1, 2], 1)
    # polynomial T is not strictly proper: iterates stay polynomial, so the
    # property still holds, but only through the opt-in probe
    poly_map = _map([RatFun(x)], 1)
    realp = trivial_realisation(poly_map)
    assert krylov_denominator_check(poly_map, realp, [one], [0, 1, 2], 1,
                                    allow_improper=True)
    with pytest.raises(ValueError):
        krylov_denominator_check(_map([RatFun(x + 1, x)], 1),
                                 trivial_realisation(_map([RatFun(x + 1, x)],
                                                          1)),
                                 [one], [0, 1], 1)
    with pytest.raises(ValueError):
        krylov_matrix(M_1OVERX, [one], [2, 1])


def test_krylov_matrix_matches_rational_iterates():
    """Columns from the cleared recurrence equal the RatFun iterates of
    ``_oracle.theta_iterates``, for proper and improper maps and vectors
    with Fraction coefficients."""
    rng = random.Random(56)
    for k in range(60):
        n = 1 + k % 4
        if k % 2:
            pmap = rand_strictly_proper_map(rng, n, rng.randint(1, 2))
        else:
            pmap = rand_map(rng, n)
        a = [c * Fraction(rng.randint(1, 5), rng.randint(1, 7))
             for c in rand_vector(rng, n, 2)]
        s_list = sorted(rng.randint(0, 4) for _ in range(rng.randint(0, 4)))
        vecs = theta_iterates(pmap, a, (max(s_list) if s_list else 0) + 1)
        want = RatMatrix(n, len(s_list), [vecs[s][i] for i in range(n)
                                          for s in s_list])
        assert krylov_matrix(pmap, a, s_list) == want


def test_krylov_check_randomized():
    rng = random.Random(55)
    for _ in range(15):
        n = rng.randint(1, 3)
        pmap = rand_strictly_proper_map(rng, n, rng.randint(1, 2))
        a = rand_vector(rng, n, 2)
        real = trivial_realisation(pmap)
        assert krylov_denominator_check(pmap, real, a, [0, 1, 2, 3], n)


def test_corollary_phi_divides_delta():
    rng = random.Random(56)
    for _ in range(10):
        n = rng.randint(1, 3)
        pmap = rand_strictly_proper_map(rng, n, rng.randint(1, 2))
        real = trivial_realisation(pmap)
        from pseudolin.linalg import det_denominator
        for ell in range(n + 1):
            assert poly_divides(det_denominator(pmap.T, ell), real.delta)
