"""Golden-file CLI behavior: dispatch, JSON schema, determinism, CSV."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time

import jsonschema
import pytest

import pseudolin
from pseudolin.cli import main
from pseudolin.reports import CSV_HEADER, load_schema


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_telescoper_golden(capsys):
    code, out = run_cli(capsys, "telescoper", "--f", "1/(y^2+x)")
    assert code == 0
    assert "telescoper: 2*x*Dx + 1" in out
    assert "verified: true" in out


def test_telescoper_certificate_dy3(capsys):
    code, out = run_cli(capsys, "telescoper", "--f=1/(x*y^3+y+x^2)",
                        "--certificate")
    assert code == 0
    assert "verified: true" in out
    assert "certificate: (" in out and "*q^2" in out


def test_lclm_golden(capsys):
    code, out = run_cli(capsys, "lclm", "--op", "x*Dx-1", "--op", "x*Dx-2")
    assert code == 0
    assert "lclm: x^2*Dx^2 - 2*x*Dx + 2" in out
    assert "verified: true" in out


def test_check_props_golden(capsys):
    code, out = run_cli(capsys, "check-props", "--prop", "krylov-denominator",
                        "--trials", "10", "--n", "2", "--delta", "3",
                        "--seed", "7")
    assert code == 0
    assert "10/10 pass" in out


def test_resolvent_and_symprod(capsys):
    code, out = run_cli(capsys, "resolvent", "--poly", "y^2-x")
    assert code == 0 and "resolvent: 2*x*Dx - 1" in out
    code, out = run_cli(capsys, "symprod", "--op", "x*Dx-1",
                        "--op", "x*Dx-2")
    assert code == 0 and "symprod: x*Dx - 3" in out


def test_allow_improper_probe_runs(capsys):
    # opt-in probe of the conjectural case: must run, never asserted here
    code, out = run_cli(capsys, "check-props", "--prop",
                        "krylov-denominator", "--trials", "3", "--n", "2",
                        "--delta", "2", "--seed", "1", "--allow-improper")
    assert code in (0, 1)
    assert "/3 pass" in out


def test_lemma2_and_bounds_props(capsys):
    code, out = run_cli(capsys, "check-props", "--prop", "lemma2-delta",
                        "--trials", "4", "--dx", "2", "--dy", "2",
                        "--seed", "2")
    assert code == 0 and "4/4 pass" in out
    code, out = run_cli(capsys, "check-props", "--prop", "bounds",
                        "--trials", "2", "--seed", "4")
    assert code == 0 and "2/2 pass" in out


def test_input_errors_exit_2(capsys):
    assert run_cli(capsys, "telescoper", "--f", "1/((")[0] == 2
    assert run_cli(capsys, "lclm", "--op", "y*Dx", "--op", "Dx")[0] == 2
    assert run_cli(capsys, "telescoper", "--f", "1/(y-1)^2")[0] == 2


@pytest.mark.parametrize("argv", [
    ["lclm", "--op", "x^100000000*Dx-1", "--op", "Dx-1"],
    ["telescoper", "--f", "1/(x^99999999+y)"],
])
def test_huge_exponent_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "exponent above the cap of 1000" in captured.err
    assert captured.out == ""


def test_deep_nesting_exit_2(capsys):
    """Parentheses nested 300 deep used to raise a RecursionError out of
    ``main``; now the parser rejects them with a positioned error."""
    f = "1/(" + "(" * 300 + "x" + ")" * 300 + "+y^2)"
    code = main(["telescoper", "--f=" + f])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: syntax error at position 102: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["telescoper", "--f=1/(" + "+".join(["x"] * 1000) + "+y^2)"],
    ["resolvent", "--poly=y^2-" + "-".join(["x"] * 1000)],
    ["lclm", "--op=" + "+".join(["x*Dx"] * 1000), "--op=Dx-1"],
    ["lclm", "--op=Dx-" + "/".join(["x"] * 1000), "--op=Dx-1"],
    ["telescoper", "--f=" + "*".join(["x"] * 1000) + "/(x+y^2)"],
], ids=["sum", "difference", "operator-sum", "quotient", "product"])
def test_flat_chains_exit_cleanly(capsys, argv):
    """Flat chains of 1000 terms or factors used to raise a RecursionError
    out of the evaluators; they are folded in loops now."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert "Traceback" not in err


def test_operator_order_cap_exit_2(capsys):
    # Dx^200 is rejected before it is expanded
    argv = ["lclm", "--op", "x^1000*Dx-1", "--op", "Dx^200-x"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert ("semantic error at position 2: operator order 200 above the cap "
            "of 4") in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["check-props", "--prop", "krylov-denominator", "--n", "0"],
    ["check-props", "--prop", "det-den-laws", "--trials", "0"],
    ["bounds-table", "--trials", "-1"],
])
def test_nonpositive_counts_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be at least 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["check-props", "--prop", "bounds", "--trials", "1", "--delta", "-2"],
     "argument --delta: must be at least 0"),
    (["check-props", "--prop", "krylov-denominator", "--trials", "1",
      "--sr", "-1"], "argument --sr: must be at least 0"),
    (["bounds-table", "--order", "0"], "argument --order: must be at least 1"),
    (["bounds-table", "--dx", "-1"], "argument --dx: must be at least 1"),
    (["bounds-table", "--trials", "1", "--order", "40"],
     "argument --order: must be at most 4, got 40"),
    (["check-props", "--prop", "krylov-denominator", "--trials", "1",
      "--n", "50"], "argument --n: must be at most 4, got 50"),
    # the size caps of exprparse (MAX_BIVARIATE_DEGREE and the rest)
    (["bounds-table", "--trials", "1", "--dx", "5", "--dy", "5"],
     "argument --dx: must be at most 4, got 5"),
    (["check-props", "--prop", "lemma2-delta", "--trials", "1", "--dy", "5"],
     "argument --dy: must be at most 4, got 5"),
    (["bounds-table", "--trials", "1", "--order", "4", "--degree", "6"],
     "argument --degree: must be at most 3, got 6"),
    (["check-props", "--prop", "krylov-denominator", "--trials", "1",
      "--sr", "200", "--delta", "20"],
     "argument --sr: must be at most 4, got 200"),
    (["check-props", "--prop", "krylov-denominator", "--trials", "1",
      "--delta", "8"], "argument --delta: must be at most 7, got 8"),
    (["check-props", "--prop", "bounds", "--trials", "1001"],
     "argument --trials: must be at most 1000, got 1001"),
    (["bounds-table", "--trials", "100000000"],
     "argument --trials: must be at most 1000, got 100000000"),
])
def test_out_of_range_flags_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "randrange" not in captured.err
    assert "attempts" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["symprod", "--op=Dx^3-x", "--op=Dx^3-1", "--op=Dx^3-x^2"],
     "error: symprod dimension 27 exceeds the cap of 16\n"),
    (["lclm"] + ["--op=Dx^4-x"] * 5,
     "error: lclm dimension 20 exceeds the cap of 16\n"),
    (["symprod", "--op=0", "--op=0"],
     "error: operators must be nonzero of order >= 1 in Dx\n"),
])
def test_closure_dimension_cap_exit_2(argv, message, capsys):
    """A closure above MAX_CLOSURE_DIMENSION exits 2 before any build; the
    zero operator, of order -inf, is rejected by the build instead."""
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


def test_symprod_at_the_dimension_cap(tmp_path, capsys):
    code, out = run_cli(capsys, "symprod", "--op=Dx^4-1", "--op=Dx^4-1",
                        "--json", str(tmp_path / "r.json"))
    assert code == 0 and "verified: true" in out
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["params"]["orders"] == [4, 4]
    assert report["verification"]["method"] == "tensor-relation"
    assert report["seed"] is None


def test_json_report_validates(tmp_path, capsys):
    schema = load_schema()
    for argv in (
        ["telescoper", "--f", "1/(y^2+x)", "--certificate"],
        ["resolvent", "--poly", "y^2-x"],
        ["lclm", "--op", "x*Dx-1", "--op", "x*Dx-2"],
        ["symprod", "--op", "x*Dx-1", "--op", "x*Dx-2", "--seed", "5"],
        ["check-props", "--prop", "det-den-laws", "--trials", "3",
         "--n", "2"],
        ["bounds-table", "--trials", "1", "--seed", "3"],
    ):
        path = tmp_path / "report.json"
        code = main(argv + ["--json", str(path)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(path.read_text())
        jsonschema.validate(payload, schema)
        assert payload["command"] == argv[0]
        if payload["operator"] is not None and payload["bounds"] is not None:
            order = payload["operator"]["order"]
            assert len(payload["operator"]["coeffs"]) == order + 1
            assert len(payload["bounds"]["per_i"]) == order + 1


def test_operator_payload_matches_output(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, out = run_cli(capsys, "lclm", "--op", "x*Dx-1", "--op", "x*Dx-2",
                        "--json", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["operator"]["order"] == 2
    assert payload["operator"]["coeffs"] == [[2], [0, -2], [0, 0, 1]]
    assert payload["verification"]["ok"] is True


def test_deterministic_rerun(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["check-props", "--prop", "krylov-denominator", "--trials", "5",
            "--n", "2", "--delta", "3", "--seed", "11"]
    assert main(argv + ["--json", str(p1)]) == 0
    assert main(argv + ["--json", str(p2)]) == 0
    capsys.readouterr()
    a = json.loads(p1.read_text())
    b = json.loads(p2.read_text())
    a.pop("wall_ms"), b.pop("wall_ms")
    assert a == b


def test_bounds_table_csv(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out = run_cli(capsys, "bounds-table", "--trials", "1", "--seed",
                        "2", "--csv", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) > 4
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 7
        assert fields[0] in ("hermite", "algebraic", "lclm", "symprod")
        assert fields[6] in ("true", "false")
        if fields[3] and fields[5]:
            assert int(fields[5]) == int(fields[4]) - int(fields[3])
            if fields[6] == "true":
                assert int(fields[5]) >= 0   # no negative slack when asserted


HASH_ORDER_CASES = [
    ["telescoper", "--f=(x*y+1)/(y^3-x*y+2)", "--certificate"],
    ["resolvent", "--poly=y^3+x*y-x^2"],
    ["lclm", "--op=x*Dx^2-Dx+x", "--op=(x+1)*Dx-2", "--seed", "3"],
    ["symprod", "--op=x*Dx^2-Dx+x", "--op=(x+1)*Dx-2", "--seed", "3"],
]


def _run_with_hash_seed(argv, hash_seed, report):
    src = os.path.dirname(os.path.dirname(os.path.abspath(pseudolin.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "pseudolin", *argv, "--json", str(report)],
        capture_output=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr.decode()
    # the wall time is the one field that may differ between runs
    text = re.sub(rb'"wall_ms": [-+0-9.eE]+', b'"wall_ms": 0',
                  report.read_bytes())
    return proc.stdout, text


@pytest.mark.parametrize("argv", HASH_ORDER_CASES,
                         ids=[case[0] for case in HASH_ORDER_CASES])
def test_output_independent_of_hash_seed(tmp_path, argv):
    """Printed output and the JSON report do not depend on the order of
    set or dict iteration over hashed objects (Poly, RatFun, BiPoly,
    strings): two interpreters with different PYTHONHASHSEED values give
    the same bytes."""
    out0, rep0 = _run_with_hash_seed(argv, 0, tmp_path / "a.json")
    out1, rep1 = _run_with_hash_seed(argv, 12345, tmp_path / "b.json")
    assert b"verified: true" in out0
    assert out0 == out1
    assert rep0 == rep1


def test_repeated_main_calls_match_fresh_runs(tmp_path, capsys):
    """The parser is built once and reused: two main() calls in a row give
    the same output and report as two fresh interpreters, so no ``--op``
    list of the first call leaks into the second."""
    cases = [["lclm", "--op=x*Dx-1", "--op=x*Dx^2-2", "--seed", "1"],
             ["symprod", "--op=(x+1)*Dx-2", "--op=Dx^2-x", "--seed", "4"]]
    for k, argv in enumerate(cases):
        report = tmp_path / f"in{k}.json"
        assert main(argv + ["--json", str(report)]) == 0
        out = capsys.readouterr().out.encode()
        text = re.sub(rb'"wall_ms": [-+0-9.eE]+', b'"wall_ms": 0',
                      report.read_bytes())
        fresh = _run_with_hash_seed(argv, 0, tmp_path / f"fresh{k}.json")
        assert (out, text) == fresh


# -- seeded golden outputs ----------------------------------------------------


def _seeded_calls(seed, per_kind):
    """(command, argv) for per_kind telescoper, resolvent, symprod and lclm
    calls each, in turn: the inputs are drawn by ``randgen`` and printed by
    the ``exprparse`` formatters, telescopers over the (dx, dy) classes
    (1..3, 1..3) and resolvents over (2..3, 2..3) in turn, closures of two
    operators of order and degree 1 or 2."""
    import random

    from pseudolin.bipoly import format_bipoly
    from pseudolin.exprparse import format_operator, format_ratfun2
    from pseudolin.randgen import (rand_algebraic_input, rand_hermite_input,
                                   rand_operator)
    tele = [(dx, dy) for dx in (1, 2, 3) for dy in (1, 2, 3)]
    resolv = [(dx, dy) for dx in (2, 3) for dy in (2, 3)]
    rng = random.Random(seed)
    calls = []
    for k in range(per_kind):
        dx, dy = tele[k % len(tele)]
        p, q = rand_hermite_input(rng, dx, dy, generic=True)
        calls.append(("telescoper",
                      ["telescoper", "--f=" + format_ratfun2(p, q)]))
        dx, dy = resolv[k % len(resolv)]
        P = rand_algebraic_input(rng, dx, dy, generic=True)
        calls.append(("resolvent",
                      ["resolvent", "--poly=" + format_bipoly(P)]))
        for kind in ("symprod", "lclm"):
            argv = [kind]
            for _ in range(2):
                L = rand_operator(rng, rng.randint(1, 2), rng.randint(1, 2),
                                  regular_infinity=True)
                argv.append("--op=" + format_operator(L))
            calls.append((kind, argv + ["--seed", str(k)]))
    return calls


# sha256 per command over exit code, stdout and the JSON report with its
# wall time zeroed, for the 40 calls of _seeded_calls(5, 10)
SEEDED_CLI_DIGESTS = {
    "telescoper":
        "9a10738cd0a4307178f39b895e3b4fa8a04828d433633368ed8356f4f897535f",
    "resolvent":
        "ee1d762995572b8d27ece57e5c954bb4ba14eefa262123541e037af83fdba147",
    "symprod":
        "b7f814bb1b0cf1a3ec403743b8e03707e5bc9eb4f5b5f22f5e180b6569d46133",
    "lclm":
        "4563a4e72adce176779116cb2a85807b4fa4b44dfd176901b7903fc4078068f9",
}


def test_seeded_cli_outputs_unchanged(tmp_path, capsys):
    """Printed output and JSON reports of 40 seeded CLI calls, 10 per
    command, are those pinned in SEEDED_CLI_DIGESTS."""
    report = tmp_path / "report.json"
    digests = {}
    for kind, argv in _seeded_calls(5, 10):
        code = main(argv + ["--json", str(report)])
        out = capsys.readouterr().out.encode()
        text = re.sub(rb'"wall_ms": [-+0-9.eE]+', b'"wall_ms": 0',
                      report.read_bytes())
        h = digests.setdefault(kind, hashlib.sha256())
        h.update(b"%d\n%s\n%s\n" % (code, out, text))
    assert {k: h.hexdigest() for k, h in digests.items()} \
        == SEEDED_CLI_DIGESTS


def test_results_are_printed_in_primitive_form():
    """The results of telescoper, resolvent (dy = 1 included), lclm and
    symprod are their own ``normalize_primitive``, so the CLI prints them
    as they are."""
    import random

    from pseudolin.instances import (build_algebraic, build_hermite,
                                     build_lclm, build_symprod, lclm,
                                     resolvent, symprod, telescoper)
    from pseudolin.ore import normalize_primitive
    from pseudolin.randgen import (rand_algebraic_input, rand_hermite_input,
                                   rand_operator)
    rng = random.Random(90)
    results = []
    for dx, dy in [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3)]:
        results.append(telescoper(build_hermite(
            *rand_hermite_input(rng, dx, dy, generic=True)))[0])
    for dx, dy in [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]:
        results.append(resolvent(build_algebraic(
            rand_algebraic_input(rng, dx, dy, generic=True))))
    for _ in range(5):
        ops = [rand_operator(rng, rng.randint(1, 2), rng.randint(1, 2),
                             regular_infinity=True) for _ in range(2)]
        results.append(lclm(build_lclm(ops)))
        results.append(symprod(build_symprod(ops)))
    for L in results:
        assert L == normalize_primitive(L), L
