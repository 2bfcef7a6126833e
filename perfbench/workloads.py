"""The benchmark's workloads.

Each workload turns a seed into a pool of inputs (set-up), runs one
instance at a time (``call``, the timed part) and checks the outcome with
an independent verifier (``check``, untimed).  Pools are laid out in fixed
cycles -- one instance of each kind and size class per cycle -- so the
mix of cheap and expensive instances is the same for every seed and only
the random coefficients change; the run ends on a cycle boundary.

``call`` looks the package functions up through their modules at call
time, so a traced pass sees the tracer's wrappers.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout


def _mod(name: str):
    return sys.modules[name]


class RelationMix:
    """Criterion-02 maps: rand_map(n, num_deg=2, den_deg=2) with n = 1, 2, 3
    in turn and a degree-2 vector; solve_min_relation then verify_relation.
    Stresses Fraction arithmetic in Poly/RatFun and zp_gcd, with little
    elimination work."""

    name = "relation_mix"
    cycle = 3
    # instances/s the pool is sized for, above the rate the package reaches
    # on a 2-core Xeon; the loop wraps around a pool the program outruns
    nominal_rate = 8.0

    def make_pool(self, seed: int, size: int):
        from pseudolin.randgen import rand_map, rand_vector
        rng = random.Random(seed)
        pool = []
        for k in range(size):
            n = 1 + k % 3
            pool.append((rand_map(rng, n, num_deg=2, den_deg=2),
                         rand_vector(rng, n, 2)))
        return pool

    def call(self, item):
        relations = _mod("pseudolin.relations")
        pmap, a = item
        rel = relations.solve_min_relation(pmap, a)
        return rel, relations.verify_relation(pmap, a, rel)

    def check(self, item, result) -> bool:
        rel, verified = result
        pmap, _ = item
        return (verified is True and 0 <= rel.rho <= pmap.n
                and not rel.eta[rel.rho].is_zero())


class LclmHeavy:
    """LCLM of three order-3, degree-3 operators regular at infinity:
    build_lclm, lclm, verify_lclm.  The heaviest acceptance shape; its time
    is in GaussTracker and the Z[x] kernel."""

    name = "lclm_heavy"
    cycle = 1
    nominal_rate = 1.0

    def make_pool(self, seed: int, size: int):
        from pseudolin.randgen import rand_operator
        rng = random.Random(seed)
        return [[rand_operator(rng, 3, 3, regular_infinity=True)
                 for _ in range(3)] for _ in range(size)]

    def call(self, item):
        instances = _mod("pseudolin.instances")
        inst = instances.build_lclm(item)
        L = instances.lclm(inst)
        return L, instances.verify_lclm(inst, L)

    def check(self, item, result) -> bool:
        L, verified = result
        return verified is True and 3 <= L.order <= 9


# (dx, dy) size classes, visited in turn within each kind
TELESCOPER_DIMS = [(dx, dy) for dx in (1, 2, 3) for dy in (1, 2, 3)]
RESOLVENT_DIMS = [(dx, dy) for dx in (2, 3) for dy in (2, 3)]


class CliMix:
    """One telescoper, resolvent, symprod and lclm CLI call per cycle, on
    inputs printed by the exprparse formatters; pseudolin.cli.main runs
    in-process with its output captured.  Exercises exprparse, reports and
    cli, and the bipoly path through the independent verifiers.
    Expressions go in as ``--op=EXPR`` so that a leading minus sign is not
    read as an option."""

    name = "cli_mix"
    cycle = 4
    nominal_rate = 7.0

    def __init__(self, work_dir: str):
        import jsonschema
        from pseudolin.reports import load_schema
        self.report_path = os.path.join(work_dir, "report.json")
        self.validator = jsonschema.Draft7Validator(load_schema())

    def make_pool(self, seed: int, size: int):
        from pseudolin.bipoly import format_bipoly
        from pseudolin.exprparse import format_operator, format_ratfun2
        from pseudolin.randgen import (rand_algebraic_input,
                                       rand_hermite_input, rand_operator)
        rng = random.Random(seed)
        pool = []
        for k in range(size):
            cycle_no, kind_no = divmod(k, self.cycle)
            if kind_no == 0:
                dx, dy = TELESCOPER_DIMS[cycle_no % len(TELESCOPER_DIMS)]
                p, q = rand_hermite_input(rng, dx, dy, generic=True)
                pool.append(("telescoper",
                             ["telescoper", "--f=" + format_ratfun2(p, q)]))
            elif kind_no == 1:
                dx, dy = RESOLVENT_DIMS[cycle_no % len(RESOLVENT_DIMS)]
                P = rand_algebraic_input(rng, dx, dy, generic=True)
                pool.append(("resolvent",
                             ["resolvent", "--poly=" + format_bipoly(P)]))
            else:
                kind = "symprod" if kind_no == 2 else "lclm"
                argv = [kind]
                for _ in range(2):
                    L = rand_operator(rng, rng.randint(1, 2),
                                      rng.randint(1, 2), regular_infinity=True)
                    argv.append("--op=" + format_operator(L))
                pool.append((kind, argv + ["--seed", str(cycle_no)]))
        return pool

    def call(self, item):
        cli = _mod("pseudolin.cli")
        _, argv = item
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(out):
            try:
                code = cli.main(argv + ["--json", self.report_path])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def check(self, item, result) -> bool:
        kind, _ = item
        code, out = result
        try:
            with open(self.report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            os.remove(self.report_path)
        except (OSError, ValueError):
            return False
        return (code == 0 and "verified: true" in out
                and self.validator.is_valid(report)
                and report["command"] == kind
                and report["verification"]["ok"] is True)


def workload(name: str, work_dir: str):
    if name == RelationMix.name:
        return RelationMix()
    if name == LclmHeavy.name:
        return LclmHeavy()
    if name == CliMix.name:
        return CliMix(work_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (RelationMix.name, LclmHeavy.name, CliMix.name)
