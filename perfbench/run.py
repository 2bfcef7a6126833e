"""pseudolin benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  One process, one
thread, closed loop: each instance starts when the previous one has
finished and been checked.

``--trace 0`` measures for ``--seconds`` seconds and prints the end-to-end
metrics.  ``--trace 1`` runs half the time untraced, then the same
instances again under the layer tracer (see ``layers.py``), then the
kernel probes, and prints the per-layer metrics.  Either way the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment and a readable summary.  The exit code is 0 only when every
instance passed its verifier.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layers import Tracer, kernel_probes
from workloads import WORKLOADS, workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = Path(__file__).resolve().parent / ".work"

# set-up runs this many times in all: once here, the rest in fresh
# interpreters so each one pays the full import
SETUP_RUNS = 5


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it and exit")
    return ap.parse_args(argv)


def _pool_size(wl, seconds: float) -> int:
    """Whole cycles enough for the run at the workload's nominal rate; the
    loop wraps around the pool if the program outruns it."""
    cycles = max(1, math.ceil(seconds * wl.nominal_rate / wl.cycle))
    return cycles * wl.cycle


def setup(args):
    """Import the package from the checkout and build the seeded pool."""
    t0 = time.perf_counter()
    package = importlib.import_module("pseudolin")
    importlib.import_module("pseudolin.cli")
    where = Path(package.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"imported pseudolin from {where}, not from "
                           f"this checkout's src/")
    wl = workload(args.workload, str(WORK_DIR))
    pool = wl.make_pool(args.seed, _pool_size(wl, args.seconds))
    return wl, pool, time.perf_counter() - t0


def _child_setup_s(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_loop(wl, pool, seconds=None, count=None):
    """Closed loop over the pool: until `seconds` have passed and a cycle is
    complete, or for exactly `count` instances.  Returns per-instance
    seconds (failed ones included), the failure count and the wall time."""
    times, failed = [], 0
    start = time.perf_counter()
    k = 0
    while True:
        item = pool[k % len(pool)]
        t0 = time.perf_counter()
        try:
            result = wl.call(item)
        except Exception:
            times.append(time.perf_counter() - t0)
            ok = False
            traceback.print_exc(file=sys.stderr)
        else:
            times.append(time.perf_counter() - t0)
            ok = wl.check(item, result)
        if not ok:
            failed += 1
            print(f"perfbench: instance {k} failed its check",
                  file=sys.stderr)
        k += 1
        if count is not None:
            if k >= count:
                break
        elif k % wl.cycle == 0 and time.perf_counter() - start >= seconds:
            break
    return times, failed, time.perf_counter() - start


def _git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> dict:
    return {"python": platform.python_version(),
            "backend": sys.modules["pseudolin"].BACKEND,
            "git_sha": _git_sha(ROOT),
            "nproc": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def end_to_end(args, wl, pool, setup_samples):
    times, failed, wall = run_loop(wl, pool, seconds=args.seconds)
    ms = [t * 1000 for t in times]
    p50 = statistics.median(ms)
    p90 = (statistics.quantiles(ms, n=10, method="inclusive")[-1]
           if len(ms) > 1 else ms[0])
    beyond = sum(1 for t in ms if t > p90)
    metrics = {
        "instance_ms.p50": (p50, "ms"),
        "instance_ms.p90": (p90, "ms"),
        "instances_per_s": ((len(times) - failed) / wall, "1/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    print(f"perfbench {args.workload}: {len(times)} instances in "
          f"{wall:.2f} s, {failed} failed (failed_frac "
          f"{failed / len(times):.4f}); p50 {p50:.2f} ms, p90 {p90:.2f} ms "
          f"with {beyond} samples beyond it; "
          f"{metrics['instances_per_s'][0]:.3f} instances/s; set-up "
          f"{metrics['setup_s'][0]:.3f} s (median of {len(setup_samples)}); "
          f"peak RSS {metrics['peak_rss_mb'][0]:.1f} MB")
    return metrics, len(times), failed


def per_layer(args, wl, pool):
    plain, failed_plain, _ = run_loop(wl, pool, seconds=args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced, failed_traced, _ = run_loop(wl, pool, count=len(plain))
    finally:
        tracer.remove()
    Tracer.assert_clean()
    missing = tracer.missing_groups()
    if missing:
        print("perfbench: named functions not found: " + ", ".join(missing),
              file=sys.stderr)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = (sum(traced) / sum(plain) - 1,
                                      "fraction")
    metrics["trace.coverage_frac"] = (tracer.covered_s / sum(traced),
                                      "fraction")
    metrics.update(kernel_probes(sys.modules["pseudolin._kernel"], args.seed))
    print(f"perfbench {args.workload} traced: {len(plain)} instances "
          f"untraced {sum(plain):.2f} s, traced {sum(traced):.2f} s; "
          f"coverage {metrics['trace.coverage_frac'][0]:.3f}")
    return (metrics, len(plain) + len(traced),
            failed_plain + failed_traced)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "pseudolin" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'pseudolin'}; run "
              f"from the root of a pseudolin checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl, pool, setup_s = setup(args)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    WORK_DIR.mkdir(exist_ok=True)
    try:
        print("perfbench env " + json.dumps(_environment(args),
                                            sort_keys=True))
        gc.collect()
        gc.freeze()  # keep the pool out of the collector's scans
        if args.trace:
            metrics, attempted, failed = per_layer(args, wl, pool)
        else:
            samples = [setup_s] + [_child_setup_s(args)
                                   for _ in range(SETUP_RUNS - 1)]
            metrics, attempted, failed = end_to_end(args, wl, pool, samples)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
