"""Command-line front end.

Subcommands: one per reduction (telescoper, resolvent, lclm, symprod), a
degree-bound sweep (bounds-table) and the property-test harness
(check-props).  Every run prints a human-readable summary, optionally
writes a JSON report (--json) and, for bounds-table, a CSV (--csv).

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from math import prod

from pseudolin.bipoly import format_bipoly, resultant_y
from pseudolin.exprparse import (MAX_BIVARIATE_DEGREE, MAX_CLOSURE_DIMENSION,
                                 MAX_DIMENSION, MAX_KRYLOV_DEGREE,
                                 MAX_KRYLOV_EXPONENT, MAX_OPERATOR_DEGREE,
                                 MAX_OPERATOR_ORDER, MAX_TRIALS, ParseError,
                                 SemanticError,
                                 format_operator, format_ratfun2, parse)
from pseudolin.instances import (algebraic_bound_report, build_algebraic,
                                 build_hermite, build_lclm, build_symprod,
                                 certificate_fraction, certificate_matches,
                                 closure_bound_report, hermite_bound_report,
                                 lclm, resolvent, symprod, telescoper,
                                 verify_lclm, verify_resolvent,
                                 verify_symprod, verify_telescoper)
from pseudolin.linalg import det_denominator, det_rational, invert
from pseudolin.ore import infinity_not_irregular
from pseudolin.poly import poly_divides, poly_gcd
from pseudolin.randgen import (GenerationError, rand_hermite_input, rand_map,
                               rand_operator, rand_ratmatrix,
                               rand_strictly_proper_map, rand_vector)
from pseudolin.relations import krylov_denominator_check, trivial_realisation
from pseudolin.reports import Report, bound_rows, write_csv

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2


def _int_in_range(low: int, high=None):
    """argparse type for an int flag in [low, high] (no upper end when
    ``high`` is None)."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"must be at most {high}, got {value}")
        return value
    return convert


# counts, dimensions, bivariate degrees and operator orders must be at
# least 1; operator degrees, the Krylov degree target and the largest
# iterate exponent may be 0.  Every size flag is capped (see exprparse),
# because the cost grows steeply with each.
_trials = _int_in_range(1, MAX_TRIALS)
_bivariate_degree = _int_in_range(1, MAX_BIVARIATE_DEGREE)
_operator_degree = _int_in_range(0, MAX_OPERATOR_DEGREE)
_order = _int_in_range(1, MAX_OPERATOR_ORDER)
_dimension = _int_in_range(1, MAX_DIMENSION)
_krylov_degree = _int_in_range(0, MAX_KRYLOV_DEGREE)
_krylov_exponent = _int_in_range(0, MAX_KRYLOV_EXPONENT)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pseudolin",
        description="Minimal relations of pseudo-linear maps: telescopers, "
                    "differential resolvents, LCLMs and symmetric products "
                    "with executable degree bounds.")
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("telescoper",
                       help="minimal telescoper of a rational f(x, y)")
    t.add_argument("--f", required=True,
                   help='integrand, e.g. "1/(y^2 + x)"')
    t.add_argument("--certificate", action="store_true",
                   help="also compute and check the certificate h")
    t.add_argument("--json", metavar="PATH")

    r = sub.add_parser("resolvent",
                       help="differential resolvent of P(x, y)")
    r.add_argument("--poly", required=True,
                   help='bivariate polynomial, e.g. "y^2 - x"')
    r.add_argument("--json", metavar="PATH")

    for name, helptext in (("lclm", "least common left multiple"),
                           ("symprod", "symmetric product")):
        c = sub.add_parser(name, help=helptext)
        c.add_argument("--op", action="append", required=True,
                       metavar="EXPR", help='operator, e.g. "x*Dx - 1" '
                       "(repeatable)")
        c.add_argument("--seed", type=int, default=0,
                       help="ignored: the verification is deterministic")
        c.add_argument("--json", metavar="PATH")

    b = sub.add_parser("bounds-table",
                       help="observed degrees vs predicted bounds, all four "
                            "instances")
    b.add_argument("--trials", type=_trials, default=5)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--dx", type=_bivariate_degree, default=2)
    b.add_argument("--dy", type=_bivariate_degree, default=2)
    b.add_argument("--order", type=_order, default=2)
    b.add_argument("--degree", type=_operator_degree, default=2)
    b.add_argument("--generic", action="store_true",
                   help="resample until the genericity condition holds")
    b.add_argument("--regular-infinity", action="store_true",
                   help="draw operators with no irregular singularity at "
                        "infinity")
    b.add_argument("--csv", metavar="PATH")
    b.add_argument("--json", metavar="PATH")

    p = sub.add_parser("check-props",
                       help="randomized property suites")
    p.add_argument("--prop", required=True,
                   choices=["krylov-denominator", "det-den-laws",
                            "lemma2-delta", "bounds"])
    p.add_argument("--trials", type=_trials, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=_dimension, default=2,
                   help="matrix dimension")
    p.add_argument("--delta", type=_krylov_degree, default=3,
                   help="target degree of det M for the trivial realisation")
    p.add_argument("--sr", type=_krylov_exponent, default=3,
                   help="largest iterate exponent s_r")
    p.add_argument("--dx", type=_bivariate_degree, default=2)
    p.add_argument("--dy", type=_bivariate_degree, default=2)
    p.add_argument("--order", type=_order, default=2)
    p.add_argument("--degree", type=_operator_degree, default=2)
    p.add_argument("--allow-improper", action="store_true",
                   help="probe the conjectural case without strict "
                        "properness (never asserted by the test suite)")
    p.add_argument("--json", metavar="PATH")
    return ap


def _emit(report: Report, json_path):
    if json_path:
        report.write_json(json_path)


def _operator_summary(name: str, L) -> str:
    """The result L as it stands: every command's result is already in
    the form of ``ore.normalize_primitive``."""
    deg = max(c.num.degree for c in L.coeffs)
    return (f"{name}: {format_operator(L)}\n"
            f"order: {L.order}  degree: {deg}")


def _cmd_telescoper(args) -> int:
    start = time.perf_counter()
    p, q = parse(args.f, "ratfun2")
    inst = build_hermite(p, q)
    L, cert = telescoper(inst, want_certificate=args.certificate)
    ok = verify_telescoper(inst, L)
    method = "hermite-reduction"
    if args.certificate:
        ok = ok and certificate_matches(inst, L, cert)
        method = "hermite-reduction+certificate"
    report_b = hermite_bound_report(inst, L)
    print(_operator_summary("telescoper", L))
    print(f"f: {format_ratfun2(p, q)}")
    print(f"genericity: {'true' if report_b.asserted else 'false'}")
    if args.certificate:
        H, D, J = certificate_fraction(cert, inst.q)
        print(f"certificate: ({format_bipoly(H)})/(({D})*q^{J})")
    print(f"verified: {'true' if ok else 'false'}")
    wall = (time.perf_counter() - start) * 1000
    _emit(Report("telescoper", {"f": args.f, "dx": inst.dx, "dy": inst.dy,
                                "generic": report_b.asserted},
                 L, report_b, method, ok, None, wall), args.json)
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_resolvent(args) -> int:
    start = time.perf_counter()
    P = parse(args.poly, "bipoly")
    inst = build_algebraic(P)
    L = resolvent(inst)
    ok = verify_resolvent(inst, L)
    report_b = algebraic_bound_report(inst, L)
    print(_operator_summary("resolvent", L))
    print(f"P: {format_bipoly(P)}")
    print(f"genericity: {'true' if report_b.asserted else 'false'}")
    print(f"verified: {'true' if ok else 'false'}")
    wall = (time.perf_counter() - start) * 1000
    _emit(Report("resolvent", {"poly": args.poly, "dx": inst.dx,
                               "dy": inst.dy, "generic": report_b.asserted},
                 L, report_b, "cockle-recursion", ok, None, wall), args.json)
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_closure(args, kind: str) -> int:
    start = time.perf_counter()
    ops = [parse(text, "operator") for text in args.op]
    # the zero operator (order -inf) is left for the build to reject
    orders = [max(Li.order, 0) for Li in ops]
    dim = sum(orders) if kind == "lclm" else prod(orders)
    if dim > MAX_CLOSURE_DIMENSION:
        raise ValueError(f"{kind} dimension {dim} exceeds the cap of "
                         f"{MAX_CLOSURE_DIMENSION}")
    if kind == "lclm":
        inst = build_lclm(ops)
        L = lclm(inst)
        ok = verify_lclm(inst, L)
        method = "right-division"
    else:
        inst = build_symprod(ops)
        L = symprod(inst)
        ok = verify_symprod(inst, L)
        method = "tensor-relation"
    report_b = closure_bound_report(inst, L)
    print(_operator_summary(kind, L))
    regular = all(infinity_not_irregular(Li) for Li in ops)
    print(f"regular-infinity: {'true' if regular else 'false'}")
    print(f"verified: {'true' if ok else 'false'}")
    wall = (time.perf_counter() - start) * 1000
    _emit(Report(kind, {"op": list(args.op), "orders": orders,
                        "regular_infinity": regular},
                 L, report_b, method, ok, None, wall), args.json)
    return EXIT_OK if ok else EXIT_VERIFY


def _instance_report(kind: str, seed: int, args):
    """Build one random instance of the kind and report bounds + verdicts."""
    rng = random.Random(seed)
    if kind == "hermite":
        p, q = rand_hermite_input(rng, args.dx, args.dy,
                                  generic=args.generic)
        inst = build_hermite(p, q)
        L, _ = telescoper(inst)
        ok = verify_telescoper(inst, L)
        return hermite_bound_report(inst, L), ok, f"dx={args.dx};dy={args.dy}"
    if kind == "algebraic":
        from pseudolin.randgen import rand_algebraic_input
        P = rand_algebraic_input(rng, args.dx, args.dy, generic=args.generic)
        inst = build_algebraic(P)
        L = resolvent(inst)
        ok = verify_resolvent(inst, L)
        return (algebraic_bound_report(inst, L), ok,
                f"dx={args.dx};dy={args.dy}")
    regular = getattr(args, "regular_infinity", False)
    ops = [rand_operator(rng, rng.randint(1, args.order), args.degree,
                         regular_infinity=regular) for _ in range(2)]
    if kind == "lclm":
        inst = build_lclm(ops)
        L = lclm(inst)
        ok = verify_lclm(inst, L)
    else:
        inst = build_symprod(ops)
        L = symprod(inst)
        ok = verify_symprod(inst, L)
    return (closure_bound_report(inst, L), ok,
            f"order<={args.order};degree={args.degree}")


def _cmd_bounds_table(args) -> int:
    start = time.perf_counter()
    rows = []
    all_ok = True
    print(f"{'instance':<10} {'params':<22} {'rho':>3} {'max-deg':>7} "
          f"{'bound':>6} {'asserted':>8} {'ok':>4}")
    for kind in ("hermite", "algebraic", "lclm", "symprod"):
        for t in range(args.trials):
            rep, ok, params = _instance_report(kind, args.seed + t, args)
            holds = rep.holds() if rep.asserted else True
            all_ok = all_ok and ok and holds
            obs = max((o for o in rep.observed if o is not None), default=0)
            print(f"{kind:<10} {params:<22} {rep.rho:>3} {obs:>7} "
                  f"{max(rep.bounds):>6} {str(rep.asserted).lower():>8} "
                  f"{str(ok and holds).lower():>4}")
            rows.extend(bound_rows(rep, params))
    if args.csv:
        write_csv(args.csv, rows)
    wall = (time.perf_counter() - start) * 1000
    _emit(Report("bounds-table",
                 {"trials": args.trials, "dx": args.dx, "dy": args.dy,
                  "order": args.order, "degree": args.degree,
                  "generic": args.generic,
                  "regular_infinity": args.regular_infinity},
                 None, None, "bounds-table", all_ok, args.seed, wall,
                 extra={"rows": rows}), args.json)
    return EXIT_OK if all_ok else EXIT_VERIFY


# -- property suites ------------------------------------------------------------


def prop_krylov_denominator(trials: int, seed: int, n: int, delta: int,
                            sr: int, allow_improper: bool = False) -> int:
    """Count how many random instances satisfy phi_ell(K) | Delta^(s_r)."""
    passed = 0
    den_deg = max(1, delta // n)
    for t in range(trials):
        rng = random.Random(seed + t)
        if allow_improper:
            pmap = rand_map(rng, n, num_deg=den_deg + 1, den_deg=den_deg)
        else:
            pmap = rand_strictly_proper_map(rng, n, den_deg)
        a = rand_vector(rng, n, 2)
        real = trivial_realisation(pmap)
        if krylov_denominator_check(pmap, real, a, list(range(sr + 1)), n,
                                    allow_improper=allow_improper):
            passed += 1
    return passed


def prop_det_den_laws(trials: int, seed: int, n: int) -> int:
    """Sum/product divisibility, sum equality under coprime phi_1, the
    inverse identity and the phi_ell chain laws."""
    passed = 0
    for t in range(trials):
        rng = random.Random(seed + t)
        R1 = rand_ratmatrix(rng, n, n, 1, 2)
        R2 = rand_ratmatrix(rng, n, n, 1, 2)
        ok = True
        phis1 = [det_denominator(R1, ell) for ell in range(n + 1)]
        phis2 = [det_denominator(R2, ell) for ell in range(n + 1)]
        # phi_ell | phi_{ell+1} and phi_ell | phi_1^ell
        for ell in range(n):
            ok = ok and poly_divides(phis1[ell], phis1[ell + 1])
        for ell in range(n + 1):
            ok = ok and poly_divides(phis1[ell], phis1[1] ** ell)
        S = R1.add(R2)
        P = R1.matmul(R2)
        for ell in range(1, n + 1):
            prod_phi = phis1[ell] * phis2[ell]
            ok = ok and poly_divides(det_denominator(S, ell), prod_phi)
            ok = ok and poly_divides(det_denominator(P, ell), prod_phi)
        if poly_gcd(phis1[1], phis2[1]).degree == 0:
            for ell in range(1, n + 1):
                ok = ok and det_denominator(S, ell) == phis1[ell] * phis2[ell]
        # inverse law on the nonsingular draws
        det = det_rational(R1)
        if not det.is_zero():
            alpha, beta = det.num.monic(), det.den
            lhs = beta * det_denominator(invert(R1), n)
            rhs = alpha * det_denominator(R1, n)
            ok = ok and lhs.monic() == rhs.monic()
        if ok:
            passed += 1
    return passed


def prop_lemma2_delta(trials: int, seed: int, dx: int, dy: int) -> int:
    """det M of the telescoping realisation equals lc_y(q) res_y(q, q_y)
    up to sign."""
    passed = 0
    for t in range(trials):
        rng = random.Random(seed + t)
        p, q = rand_hermite_input(rng, dx, dy)
        inst = build_hermite(p, q)
        target = q.lc_y * resultant_y(q, q.deriv("y"))
        if inst.realisation.delta in (target, -target):
            passed += 1
    return passed


def prop_bounds(trials: int, seed: int, args) -> int:
    """Observed degrees stay within the instance bounds when the side
    conditions hold (genericity, regularity at infinity)."""
    passed = 0
    for t in range(trials):
        ok = True
        for kind in ("hermite", "algebraic", "lclm", "symprod"):
            rep, verified, _ = _instance_report(kind, seed + t, args)
            ok = ok and verified
            if rep.asserted:
                ok = ok and rep.holds()
                obs = max((o for o in rep.observed if o is not None),
                          default=0)
                ok = ok and (rep.global_bound is None
                             or obs <= rep.global_bound)
        if ok:
            passed += 1
    return passed


class _BoundArgs:
    def __init__(self, dx, dy, order, degree):
        self.dx = dx
        self.dy = dy
        self.order = order
        self.degree = degree
        self.generic = True
        self.regular_infinity = True


def _cmd_check_props(args) -> int:
    start = time.perf_counter()
    if args.prop == "krylov-denominator":
        passed = prop_krylov_denominator(args.trials, args.seed, args.n,
                                         args.delta, args.sr,
                                         args.allow_improper)
    elif args.prop == "det-den-laws":
        passed = prop_det_den_laws(args.trials, args.seed, args.n)
    elif args.prop == "lemma2-delta":
        passed = prop_lemma2_delta(args.trials, args.seed, args.dx, args.dy)
    else:
        passed = prop_bounds(args.trials, args.seed,
                             _BoundArgs(args.dx, args.dy, args.order,
                                        args.degree))
    print(f"{passed}/{args.trials} pass")
    ok = passed == args.trials
    wall = (time.perf_counter() - start) * 1000
    _emit(Report("check-props",
                 {"prop": args.prop, "trials": args.trials, "n": args.n,
                  "delta": args.delta, "sr": args.sr,
                  "allow_improper": args.allow_improper},
                 None, None, args.prop, ok, args.seed, wall), args.json)
    return EXIT_OK if ok else EXIT_VERIFY


_PARSER = None


def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every
    later one.  parse_args keeps no state between calls: each starts from
    a fresh namespace, and ``append`` options start from a new list."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    return _PARSER


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "telescoper":
            return _cmd_telescoper(args)
        if args.command == "resolvent":
            return _cmd_resolvent(args)
        if args.command in ("lclm", "symprod"):
            return _cmd_closure(args, args.command)
        if args.command == "bounds-table":
            return _cmd_bounds_table(args)
        return _cmd_check_props(args)
    except (ParseError, SemanticError, GenerationError, ValueError,
            ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
