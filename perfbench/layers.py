"""Outside-in layer tracer and kernel probes for the benchmark.

The tracer wraps the public functions and methods of each pseudolin layer
from the outside: every ``pseudolin.*`` module attribute bound to a wrapped
function is rebound to its wrapper, and class methods are replaced on the
class.  A stack of child-time accumulators turns wall time into self time
per function.  ``remove()`` puts every original back and
``assert_clean()`` proves that no wrapper is left behind.

Nothing in the package is changed on disk; the tracer only exists while a
traced pass runs.
"""

from __future__ import annotations

import functools
import inspect
import random
import statistics
import sys
import time

# Module-name prefix -> layer.  A module belongs to the first prefix it
# equals or extends; modules matching none (randgen, __main__) are not
# traced, because the benchmark only calls them during set-up.
LAYER_PREFIXES = (
    ("pseudolin._kernel", "kernel"),
    ("pseudolin.poly", "poly"),
    ("pseudolin.ratfun", "ratfun"),
    ("pseudolin.bipoly", "bipoly"),
    ("pseudolin.linalg", "linalg"),
    ("pseudolin.relations", "relations"),
    ("pseudolin.ore", "ore"),
    ("pseudolin.instances", "instances"),
    ("pseudolin.exprparse", "exprparse"),
    ("pseudolin.reports", "reports"),
    ("pseudolin.cli", "cli"),
)
LAYERS = tuple(layer for _, layer in LAYER_PREFIXES)

# Dunder methods that do arithmetic or construction.  Comparison, hashing
# and printing dunders stay unwrapped: they are cheap and called so often
# that wrapping them would mostly measure the wrapper.
WRAPPED_DUNDERS = frozenset({
    "__init__", "__post_init__", "__add__", "__radd__", "__sub__",
    "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__", "__divmod__",
    "__floordiv__", "__mod__", "__truediv__", "__rtruediv__",
})

# Named function groups reported on their own: metric prefix -> keys.
GROUPS = {
    "kernel.zp_mul": ("kernel:zp_mul",),
    "kernel.zp_divexact": ("kernel:zp_divexact",),
    "kernel.zp_gcd": ("kernel:zp_gcd",),
    "poly.divmod": ("poly:Poly.__divmod__", "poly:Poly.exact_div",
                    "poly:Poly.__floordiv__", "poly:Poly.__mod__"),
    "poly.mul": ("poly:Poly.__mul__",),
    "poly.gcd": ("poly:poly_gcd",),
    "ratfun.init": ("ratfun:RatFun.__init__",),
    "bipoly.pseudo_divmod": ("bipoly:bipoly_pseudo_divmod",),
    "linalg.offer": ("linalg:GaussTracker.offer",),
    "linalg.solve_rational": ("linalg:solve_rational",),
    "linalg.det_fraction_free": ("linalg:det_fraction_free",),
    "relations.solve": ("relations:solve_min_relation",),
    "relations.verify": ("relations:verify_relation",),
    "ore.right_divide": ("ore:right_divide",),
    "ore.series": ("ore:series_mul", "ore:series_solution",
                   "ore:series_apply"),
    "instances.build": ("instances:build_hermite", "instances:build_algebraic",
                        "instances:build_lclm", "instances:build_symprod"),
    "instances.solve": ("instances:telescoper", "instances:resolvent",
                        "instances:lclm", "instances:symprod"),
    "instances.verify": ("instances:verify_telescoper",
                         "instances:verify_resolvent",
                         "instances:verify_lclm", "instances:verify_symprod"),
}


# Group metrics: "<group>.calls", "<group>.self_s" or, for the inclusive
# time of a stage, "<group>.s".
GROUP_FIELDS = {"calls": 0, "self_s": 1, "s": 2}
GROUP_METRICS = (
    "kernel.zp_mul.calls", "kernel.zp_mul.self_s", "kernel.zp_divexact.self_s",
    "kernel.zp_gcd.calls", "kernel.zp_gcd.self_s", "poly.divmod.self_s",
    "poly.mul.self_s", "poly.gcd.calls", "ratfun.init.calls",
    "ratfun.init.self_s", "bipoly.pseudo_divmod.calls",
    "bipoly.pseudo_divmod.self_s", "linalg.offer.calls", "linalg.offer.self_s",
    "linalg.solve_rational.self_s", "linalg.det_fraction_free.self_s",
    "relations.solve.s", "relations.verify.s", "ore.right_divide.self_s",
    "ore.series.self_s", "instances.build.s", "instances.solve.s",
    "instances.verify.s",
)

# Functions in a group also record inclusive time and successful calls.
NAMED = frozenset(key for keys in GROUPS.values() for key in keys)


def layer_of(module_name: str):
    for prefix, layer in LAYER_PREFIXES:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return layer
    return None


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "pseudolin"
                                  or name.startswith("pseudolin."))]


class Tracer:
    """Wraps the layers' functions and methods and accumulates, per
    function, [calls, self seconds, inclusive seconds, successful calls]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        # coefficient products and the largest coefficient seen by zp_mul,
        # zp_gcd results of positive degree, and sum of (rho + 1) per solve
        self.counts = {"coeff_products": 0, "max_coeff_bits": 0,
                       "gcd_nontrivial": 0, "iterates": 0}
        self._stack = [0.0]
        self._undo: list[tuple[object, str, object]] = []
        self._hooks = {"kernel:zp_mul": self._on_mul,
                       "kernel:zp_gcd": self._on_gcd,
                       "relations:solve_min_relation": self._on_solve}

    # -- hooks run after a successful call --------------------------------

    def _on_mul(self, args, result):
        a, b = args[0], args[1]
        self.counts["coeff_products"] += len(a) * len(b)
        if a and b:
            bits = max(max(a), -min(a), max(b), -min(b)).bit_length()
            if bits > self.counts["max_coeff_bits"]:
                self.counts["max_coeff_bits"] = bits

    def _on_gcd(self, args, result):
        if len(result) > 1:
            self.counts["gcd_nontrivial"] += 1

    def _on_solve(self, args, result):
        self.counts["iterates"] += result.rho + 1

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, key: str):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        if key in NAMED:
            hook = self._hooks.get(key)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stat[0] += 1
                    stat[1] += dt - stack.pop()
                    stat[2] += dt
                    stack[-1] += dt
                stat[3] += 1
                if hook is not None:
                    hook(args, result)
                return result
        else:
            # the bare minimum for the many small functions: calls, self
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stat[0] += 1
                    stat[1] += dt - stack.pop()
                    stack[-1] += dt

        wrapper._perfbench_wrapper = True
        return wrapper

    def install(self):
        modules = _package_modules()
        # a private function imported by another module is a layer entry
        # point too (exprparse imports bipoly._normalize_bipoly)
        bound_in = {}
        for m in modules:
            for obj in vars(m).values():
                if inspect.isroutine(obj):
                    bound_in.setdefault(id(obj), set()).add(m.__name__)
        functions, classes = {}, {}
        for m in modules:
            layer = layer_of(m.__name__)
            if layer is None:
                continue
            for name, obj in list(vars(m).items()):
                if getattr(obj, "__module__", None) != m.__name__:
                    continue
                if isinstance(obj, type):
                    classes[id(obj)] = (obj, layer)
                elif inspect.isroutine(obj) and (
                        not name.startswith("_")
                        or bound_in.get(id(obj), set()) - {m.__name__}):
                    functions[id(obj)] = (obj, f"{layer}:{name}")
        for cls, layer in classes.values():
            self._wrap_class(cls, layer)
        for fn, key in functions.values():
            wrapper = self._wrap(fn, key)
            for m in modules:
                for name, obj in list(vars(m).items()):
                    if obj is fn:
                        setattr(m, name, wrapper)
                        self._undo.append((m, name, fn))

    def _wrap_class(self, cls, layer: str):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in WRAPPED_DUNDERS:
                continue
            key = f"{layer}:{cls.__qualname__}.{name}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, key))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, key))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, key)
            else:
                continue
            setattr(cls, name, new)
            self._undo.append((cls, name, raw))

    def remove(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    @staticmethod
    def assert_clean():
        """Raise when any package module or class still holds a wrapper."""
        left = []
        for m in _package_modules():
            for name, obj in vars(m).items():
                if getattr(obj, "_perfbench_wrapper", False):
                    left.append(f"{m.__name__}.{name}")
                if isinstance(obj, type):
                    for attr, raw in vars(obj).items():
                        fn = getattr(raw, "__func__", raw)
                        if getattr(fn, "_perfbench_wrapper", False):
                            left.append(f"{obj.__qualname__}.{attr}")
        if left:
            raise RuntimeError("tracer wrappers left installed: "
                               + ", ".join(sorted(set(left))))

    # -- results ----------------------------------------------------------

    @property
    def covered_s(self) -> float:
        """Wall time spent inside any wrapped function."""
        return self._stack[0]

    def missing_groups(self):
        """Named functions the tracer did not find (renamed or removed)."""
        return sorted(NAMED - set(self.stats))

    def _group(self, prefix: str):
        calls = self_s = incl = ok = 0
        for key in GROUPS[prefix]:
            c, s, i, k = self.stats.get(key, (0, 0.0, 0.0, 0))
            calls, self_s, incl, ok = calls + c, self_s + s, incl + i, ok + k
        return calls, self_s, incl, ok

    def layer_metrics(self) -> dict:
        """Per-layer metric name -> (value, unit)."""
        out = {}
        for layer in LAYERS:
            calls = self_s = 0
            for key, (c, s, _, _) in self.stats.items():
                if key.split(":", 1)[0] == layer:
                    calls, self_s = calls + c, self_s + s
            out[f"{layer}.calls"] = (calls, "count")
            out[f"{layer}.self_s"] = (self_s, "s")
        for name in GROUP_METRICS:
            group, _, field = name.rpartition(".")
            value = self._group(group)[GROUP_FIELDS[field]]
            out[name] = (value, "count" if field == "calls" else "s")
        div = self._group("kernel.zp_divexact")
        gcd = self._group("kernel.zp_gcd")
        out["kernel.zp_divexact.failed"] = (div[0] - div[3], "count")
        out["kernel.zp_gcd.nontrivial_frac"] = (
            self.counts["gcd_nontrivial"] / gcd[3] if gcd[3] else 0.0,
            "fraction")
        out["kernel.zp_mul.coeff_products"] = (
            self.counts["coeff_products"], "count")
        out["kernel.max_coeff_bits"] = (self.counts["max_coeff_bits"], "bits")
        out["relations.iterates"] = (self.counts["iterates"], "count")
        return out


# -- kernel probes --------------------------------------------------------

PROBE_DEGREES = (10, 150, 600)


def _rand_zpoly(rng, deg, bits):
    """Degree-deg integer polynomial with signed bits-wide coefficients and
    a positive leading coefficient."""
    return ([rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(deg)]
            + [rng.getrandbits(bits) + 1])


def _per_call_us(fn, args, batches=5, min_batch_s=0.002):
    """Median over batches of the mean time per call, in microseconds."""
    def batch(reps):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(*args)
        return time.perf_counter() - t0

    reps = 1
    while (first := batch(reps)) < min_batch_s:
        reps *= 4
    samples = [first] + [batch(reps) for _ in range(batches - 1)]
    return statistics.median(samples) / reps * 1e6


def kernel_probes(zk, seed: int) -> dict:
    """zp_mul, zp_divexact and zp_gcd timed on seeded operands of degree
    10, 150 and 600: 32-bit coefficients for the product and quotient, a
    common factor of a third of the degree for the gcd."""
    rng = random.Random(seed)
    out = {}
    for d in PROBE_DEGREES:
        a, b = _rand_zpoly(rng, d, 32), _rand_zpoly(rng, d, 32)
        prod = zk.zp_mul(a, b)
        g = _rand_zpoly(rng, d // 3, 16)
        u = zk.zp_mul(_rand_zpoly(rng, d - d // 3, 16), g)
        v = zk.zp_mul(_rand_zpoly(rng, d - d // 3, 16), g)
        if zk.zp_divexact(prod, a) != b:
            raise RuntimeError(f"zp_divexact probe at degree {d} is wrong")
        if len(zk.zp_gcd(u, v)) < len(g):
            raise RuntimeError(f"zp_gcd probe at degree {d} lost a factor")
        out[f"kernel.probe.zp_mul.d{d}_us"] = (
            _per_call_us(zk.zp_mul, (a, b)), "us")
        out[f"kernel.probe.zp_divexact.d{d}_us"] = (
            _per_call_us(zk.zp_divexact, (prod, a)), "us")
        out[f"kernel.probe.zp_gcd.d{d}_us"] = (
            _per_call_us(zk.zp_gcd, (u, v)), "us")
    return out
