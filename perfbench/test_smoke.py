"""Smoke tests for the benchmark.

Every workload runs at a tiny size under two seeds, untraced and traced,
and must print every metric BENCHMARK.json names, with its unit.  The
tracer must leave the package exactly as it found it, the same seed must
give the same inputs, and without the package source the benchmark must
fail without printing a result.

    python -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _run(cwd, workload, seed, trace, seconds="0.2"):
    return subprocess.run(
        BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, seed, trace):
    proc = _run(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCH["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        assert values["trace.coverage_frac"] >= 0.9
    else:
        assert all(v > 0 for v in values.values())
    assert '"git_sha"' in proc.stdout and f'"seed": {seed}' in proc.stdout


def _bindings():
    from layers import _package_modules
    out = {}
    for m in _package_modules():
        for name, obj in vars(m).items():
            out[(m.__name__, name)] = obj
            if isinstance(obj, type):
                for attr, raw in vars(obj).items():
                    out[(m.__name__, name, attr)] = raw
    return out


def test_tracer_restores_every_binding():
    import pseudolin.cli  # noqa: F401  (loads every layer)
    from layers import Tracer
    from pseudolin import poly, ratfun
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert poly.poly_gcd is not before[("pseudolin.poly", "poly_gcd")]
        assert ratfun.poly_gcd is poly.poly_gcd
        r = ratfun.RatFun(poly.Poly([0, 0, 1]), poly.Poly([0, 1]))
        assert r.num == poly.Poly([0, 1])
    finally:
        tracer.remove()
    Tracer.assert_clean()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    metrics = tracer.layer_metrics()
    assert metrics["ratfun.init.calls"][0] == 1
    assert metrics["poly.gcd.calls"][0] >= 1


def test_same_seed_same_inputs():
    from workloads import CliMix, LclmHeavy
    cli = CliMix(str(ROOT))
    assert cli.make_pool(5, 8) == cli.make_pool(5, 8)
    assert cli.make_pool(5, 8) != cli.make_pool(6, 8)
    lclm = LclmHeavy()
    assert lclm.make_pool(5, 2) == lclm.make_pool(5, 2)


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run(tmp_path, WORKLOADS[0], 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
