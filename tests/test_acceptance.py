"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
failure report); stated time budgets are asserted inside the tests.  The
expensive instance sweeps (criteria 5-8) run once in a session fixture and
their degree reports feed criterion 3.
"""

import json
import random
import time

import jsonschema
import pytest

from pseudolin.cli import main
from pseudolin.instances import (algebraic_bound_report, bound_algebraic,
                                 bound_hermite, bound_lclm, bound_symprod,
                                 build_algebraic, build_hermite, build_lclm,
                                 build_symprod, closure_bound_report,
                                 empirical_curve_algebraic,
                                 hermite_bound_report, lclm, operator_degree,
                                 resolvent, symprod, telescoper, verify_lclm,
                                 verify_resolvent, verify_symprod,
                                 verify_telescoper)
from pseudolin.linalg import det_denominator, det_rational, invert
from pseudolin.ore import OrePoly
from pseudolin.poly import Poly, poly_divides, poly_gcd, poly_lcm
from pseudolin.randgen import (rand_algebraic_input, rand_hermite_input,
                               rand_map, rand_operator, rand_ratmatrix,
                               rand_strictly_proper_map, rand_vector)
from pseudolin.ratfun import RatFun
from pseudolin.relations import (bound_realisation, krylov_denominator_check,
                                 solve_min_relation, trivial_realisation,
                                 vector_degree, verify_relation)
from pseudolin.reports import load_schema

from _oracle import oracle_min_relation, right_divide

x = Poly.x()


def _ok(num, msg):
    print(f"ACCEPTANCE {num} PASS: {msg}")


# -- shared instance sweeps (criteria 5-8, reports reused by criterion 3) ----


@pytest.fixture(scope="session")
def instance_suite():
    runs = {"hermite": [], "algebraic": [], "lclm": [], "symprod": []}
    for t in range(50):
        rng = random.Random(5000 + t)
        d = (rng.randint(1, 3), rng.randint(1, 3))
        p, q = rand_hermite_input(rng, d[0], d[1], generic=True)
        inst = build_hermite(p, q)
        L, _ = telescoper(inst)
        runs["hermite"].append((inst, L, hermite_bound_report(inst, L)))
    for t in range(30):
        rng = random.Random(6000 + t)
        d = (rng.randint(2, 3), rng.randint(2, 3))
        P = rand_algebraic_input(rng, d[0], d[1], generic=True)
        inst = build_algebraic(P)
        L = resolvent(inst)
        runs["algebraic"].append((inst, L, algebraic_bound_report(inst, L)))
    for t in range(50):
        rng = random.Random(7000 + t)
        count = rng.choice((2, 3))
        ops = [rand_operator(rng, rng.randint(1, 3), rng.randint(1, 3),
                             regular_infinity=True) for _ in range(count)]
        inst = build_lclm(ops)
        L = lclm(inst)
        runs["lclm"].append((inst, L, closure_bound_report(inst, L)))
    for t in range(30):
        rng = random.Random(8000 + t)
        ops = [rand_operator(rng, rng.randint(1, 2), rng.randint(1, 2),
                             regular_infinity=True) for _ in range(2)]
        inst = build_symprod(ops)
        L = symprod(inst)
        runs["symprod"].append((inst, L, closure_bound_report(inst, L)))
    return runs


def test_criterion_01_exactness_core():
    start = time.perf_counter()
    rng = random.Random(1)
    checked = 0
    while checked < 1000:
        a = _rand_rf(rng)
        b = _rand_rf(rng)
        c = _rand_rf(rng)
        assert (a + b) - b == a
        checked += 1
        if not b.is_zero():
            assert (a * b) / b == a
            checked += 1
        assert a * (b + c) == a * b + a * c
        checked += 1
        pa, pb, pg = (_rand_poly(rng) for _ in range(3))
        g = poly_gcd(pa, pb)
        assert poly_divides(g, pa) and poly_divides(g, pb)
        checked += 1
        if not pg.is_zero() and g.degree == 0 and not pa.is_zero() \
                and not pb.is_zero():
            assert poly_gcd(pa * pg, pb * pg) == pg.monic()
            checked += 1
        if not (pa.is_zero() or pb.is_zero()):
            assert poly_lcm(pa, pb) * g == (pa * pb).monic()
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"exactness core took {elapsed:.1f}s"
    _ok(1, f"{checked} exact arithmetic identities in {elapsed:.1f}s")


def _rand_poly(rng):
    deg = rng.randint(-1, 5)
    if deg < 0:
        return Poly()
    c = [rng.randint(-9, 9) for _ in range(deg + 1)]
    c[-1] = rng.randint(1, 9) * rng.choice((-1, 1))
    return Poly(c)


def _rand_rf(rng):
    den = _rand_poly(rng)
    while den.is_zero():
        den = _rand_poly(rng)
    return RatFun(_rand_poly(rng), den)


def test_criterion_02_solver_vs_oracle():
    start = time.perf_counter()
    for t in range(100):
        rng = random.Random(2000 + t)
        n = rng.randint(1, 3)
        pmap = rand_map(rng, n, num_deg=2, den_deg=2)
        a = rand_vector(rng, n, 2)
        rel = solve_min_relation(pmap, a)
        ref = oracle_min_relation(pmap, a)
        assert rel.rho == ref.rho and rel.eta == ref.eta
        assert verify_relation(pmap, a, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"solver-vs-oracle took {elapsed:.1f}s"
    _ok(2, f"100/100 oracle matches in {elapsed:.1f}s")


def test_criterion_03_realisation_bound_soundness(instance_suite):
    violations = 0
    for t in range(100):
        rng = random.Random(3000 + t)
        n = rng.randint(1, 3)
        den_deg = rng.randint(1, max(1, 6 // n))
        pmap = rand_strictly_proper_map(rng, n, den_deg)
        a = rand_vector(rng, n, 2)
        real = trivial_realisation(pmap)
        assert real.delta_degree <= 6
        rel = solve_min_relation(pmap, a)
        d_a = int(vector_degree(a))
        for i, e in enumerate(rel.eta):
            cap = bound_realisation(rel.rho, d_a, real.delta_degree, i)
            if not e.is_zero() and e.degree > cap:
                violations += 1
    reports = 0
    for kind, entries in instance_suite.items():
        for _, _, rep in entries:
            assert rep.asserted, f"{kind} side condition unexpectedly false"
            if not rep.holds():
                violations += 1
            reports += 1
    assert violations == 0
    _ok(3, f"realisation degree bound holds on 100 trivial + {reports} "
           "instance realisations")


def test_criterion_04_krylov_denominators():
    start = time.perf_counter()
    for t in range(200):
        rng = random.Random(4000 + t)
        n = rng.randint(1, 3)
        den_deg = rng.randint(1, max(1, 4 // n))
        pmap = rand_strictly_proper_map(rng, n, den_deg)
        a = rand_vector(rng, n, 2)
        real = trivial_realisation(pmap)
        assert real.delta_degree <= 4
        sr = rng.randint(1, 4)
        assert krylov_denominator_check(pmap, real, a, list(range(sr + 1)),
                                        n)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"krylov suite took {elapsed:.1f}s"
    _ok(4, f"200/200 krylov denominator checks in {elapsed:.1f}s")


def test_criterion_05_hermite_table(instance_suite):
    by_d = {}
    for inst, L, rep in instance_suite["hermite"]:
        assert 1 <= L.order <= inst.dy
        deg = max(c.num.degree for c in L.coeffs)
        cap = bound_hermite(L.order, inst.dx, inst.dy)
        assert deg <= cap
        assert rep.holds()
        assert verify_telescoper(inst, L)
        if inst.dx == inst.dy:
            by_d.setdefault(inst.dx, []).append(deg)
    # Table-1 envelope: bound(d, d, d)/d^3 decreases toward 2
    ratios = [bound_hermite(d, d, d) / d**3 for d in (1, 2, 3)]
    assert ratios[0] > ratios[1] > ratios[2] and ratios[2] < 2.25
    for d, degs in by_d.items():
        assert max(degs) <= bound_hermite(d, d, d)
    _ok(5, f"50 generic telescopers verified, degrees within bounds "
           f"(envelope ratios {[round(r, 3) for r in ratios]})")


def test_criterion_06_resolvent_bounds(instance_suite):
    recorded = {"within_empirical": 0, "square": 0}
    for inst, L, rep in instance_suite["algebraic"]:
        assert 1 <= L.order <= inst.dy
        deg = max(c.num.degree for c in L.coeffs)
        assert deg <= bound_algebraic(L.order, inst.dx, inst.dy)
        assert rep.holds()
        assert verify_resolvent(inst, L)
        if inst.dx == inst.dy:
            recorded["square"] += 1
            if deg <= empirical_curve_algebraic(inst.dx):
                recorded["within_empirical"] += 1
    _ok(6, f"30 resolvents verified within the proven bound; empirical "
           f"curve held on {recorded['within_empirical']}/"
           f"{recorded['square']} square-degree draws (recorded only)")


def test_criterion_07_lclm(instance_suite):
    for inst, L, rep in instance_suite["lclm"]:
        orders = [op.order for op in inst.operators]
        assert 1 <= L.order <= sum(orders)
        assert verify_lclm(inst, L)
        for op in inst.operators:
            assert right_divide(L, op)[1].is_zero()
        d = max(operator_degree(op) for op in inst.operators)
        deg = max(c.num.degree for c in L.coeffs)
        assert deg <= bound_lclm(L.order, orders, d)
        assert rep.holds()
    # closed forms
    xd1, xd2 = OrePoly([-1, RatFun(x)]), OrePoly([-2, RatFun(x)])
    cauchy = OrePoly([2, RatFun(-2 * x), RatFun(x * x)])
    assert lclm(build_lclm([xd1, xd2])) == cauchy
    assert lclm(build_lclm([OrePoly([-1, 1]), OrePoly([1, 1])])) \
        == OrePoly([-1, 0, 1])
    assert lclm(build_lclm([cauchy, cauchy])) == cauchy
    _ok(7, "50 LCLMs right-divisible by every input, degrees within "
           "bounds, closed forms exact")


def test_criterion_08_symprod(instance_suite):
    for inst, L, rep in instance_suite["symprod"]:
        orders = [op.order for op in inst.operators]
        degs = [operator_degree(op) for op in inst.operators]
        assert 1 <= L.order <= orders[0] * orders[1]
        assert verify_symprod(inst, L)
        deg = max(c.num.degree for c in L.coeffs)
        assert deg <= bound_symprod(L.order, orders, degs)
        assert rep.holds()
    xd1, xd2 = OrePoly([-1, RatFun(x)]), OrePoly([-2, RatFun(x)])
    cauchy = OrePoly([2, RatFun(-2 * x), RatFun(x * x)])
    assert symprod(build_symprod([xd1, xd2])) == OrePoly([-3, RatFun(x)])
    assert symprod(build_symprod([OrePoly([-1, 1]), OrePoly([-1, 1])])) \
        == OrePoly([-2, 1])
    assert symprod(build_symprod([xd1, cauchy])) \
        == OrePoly([6, RatFun(-4 * x), RatFun(x * x)])
    _ok(8, "30 symmetric products verified exactly in the tensor module, "
           "degrees within bounds, closed forms exact")


def test_criterion_09_determinantal_denominator_laws(instance_suite):
    violations = 0
    for t in range(200):
        rng = random.Random(9000 + t)
        n = rng.randint(1, 2)
        R1 = rand_ratmatrix(rng, n, n, 1, 2)
        R2 = rand_ratmatrix(rng, n, n, 1, 2)
        S, P = R1.add(R2), R1.matmul(R2)
        for ell in range(1, n + 1):
            cap = det_denominator(R1, ell) * det_denominator(R2, ell)
            if not poly_divides(det_denominator(S, ell), cap):
                violations += 1
            if not poly_divides(det_denominator(P, ell), cap):
                violations += 1
        if poly_gcd(det_denominator(R1, 1),
                    det_denominator(R2, 1)).degree == 0:
            for ell in range(1, n + 1):
                if det_denominator(S, ell) != \
                        det_denominator(R1, ell) * det_denominator(R2, ell):
                    violations += 1
        det = det_rational(R1)
        if not det.is_zero():
            lhs = (det.den * det_denominator(invert(R1), n)).monic()
            rhs = (det.num.monic() * det_denominator(R1, n)).monic()
            if lhs != rhs:
                violations += 1
    # phi_ell(T) divides Delta on instance realisations (small dimensions)
    sampled = 0
    for kind in ("hermite", "algebraic", "lclm", "symprod"):
        for inst, _, _ in instance_suite[kind]:
            n = inst.map.T.rows
            if n > 4 or sampled >= 8:
                continue
            real = inst.realisation
            for ell in range(n + 1):
                if not poly_divides(det_denominator(inst.map.T, ell),
                                    real.delta):
                    violations += 1
            sampled += 1
    assert violations == 0
    assert sampled >= 4
    _ok(9, f"200 matrices satisfy the sum/product/inverse laws; "
           f"phi_ell | Delta on {sampled} instance realisations")


def test_criterion_10_cli(tmp_path, capsys):
    assert main(["telescoper", "--f", "1/(y^2+x)"]) == 0
    out = capsys.readouterr().out
    assert "telescoper: 2*x*Dx + 1" in out and "verified: true" in out
    assert main(["lclm", "--op", "x*Dx-1", "--op", "x*Dx-2"]) == 0
    out = capsys.readouterr().out
    assert "lclm: x^2*Dx^2 - 2*x*Dx + 2" in out
    assert main(["check-props", "--prop", "krylov-denominator", "--trials",
                 "20", "--n", "2", "--delta", "3", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "20/20 pass" in out
    # schema validation and determinism under a fixed seed
    schema = load_schema()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["symprod", "--op", "x*Dx-1", "--op", "x*Dx-2", "--seed", "3"]
    assert main(argv + ["--json", str(p1)]) == 0
    assert main(argv + ["--json", str(p2)]) == 0
    capsys.readouterr()
    a, b = json.loads(p1.read_text()), json.loads(p2.read_text())
    jsonschema.validate(a, schema)
    a.pop("wall_ms"), b.pop("wall_ms")
    assert a == b
    _ok(10, "CLI golden outputs, schema validation and deterministic "
            "reruns")
