"""Outside-in tracing of the package's layers.

The tracer wraps public functions of the ``monogenic`` modules from outside:
it rebinds each function in every ``monogenic.*`` module that holds it by
name, and wraps methods on their class.  ``uninstall`` puts every original
back.  A timed wrapper records a span (name, start, end, parent span, request
id) in flat in-memory arrays; the spans are only turned into metrics when the
run ends.  A layer's self time is its span's duration minus the durations of
its direct child spans.

Two hot entry points, ``blade_product`` and ``CliffordNumber`` construction,
are counted but not timed: timing them would cost more than the work they do.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import Counter

#: module -> functions (``Class.method`` for methods) that get a timed span
TIMED = {
    "clifford": ("cl_mul",),
    "multiindex": ("enumerate_up_to",),
    "fueter": ("FueterCache.value",),
    "sampling": ("sphere_points",),
    "series": ("series_eval", "ck_mul_left", "series_derivative", "max_modulus"),
    "growth": (
        "weighted_norm_ln",
        "k_q",
        "ProximateOrder.ln_gq",
        "ProximateOrder.ln_phi_at_ln_t",
        "ProximateOrder.ln_weight_peak",
    ),
    "operators": ("op_apply", "op_to_hom", "hom_to_op"),
    "serialize": (
        "read_file",
        "write_file",
        "obj_to_series",
        "obj_to_operator",
        "obj_to_homtable",
        "obj_to_clifford",
        "obj_to_log_norms",
        "series_to_obj",
        "operator_to_obj",
        "homtable_to_obj",
        "clifford_to_obj",
        "log_norms_to_obj",
    ),
    "cli": ("main",),
}

#: module -> callables that are only counted; ``Class`` counts constructions
COUNTED = {
    "clifford": ("blade_product", "CliffordNumber"),
    "fueter": ("FueterCache",),
}

MARK = "__bench_traced__"


def _scale_key(po) -> tuple:
    return (po.family, po.rho, po.a)


class Tracer:
    """Span recorder plus counters; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, M, clock=time.perf_counter):
        self.M = M
        self.clock = clock
        self.request = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def timed(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` record counts outside the span."""
        nid = self.name_id(name)
        clock, stack = self.clock, self._stack
        s_name, s_parent, s_req = self.span_name, self.span_parent, self.span_request
        s_start, s_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_req.append(self.request)
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    def note(self, name: str, key) -> None:
        """Count a call and remember its arguments, for a distinct ratio."""
        self.counts[name] += 1
        self.distinct.setdefault(name, set()).add(key)

    # -- installing ----------------------------------------------------------

    def _hooks(self, qualified: str):
        counts = self.counts
        if qualified == "clifford.cl_mul":
            def fill(args, kwargs):
                a, b = args
                counts["blade_fill.sum"] += (len(a._coeffs) + len(b._coeffs)) / (1 << a.dim)
                counts["blade_fill.operands"] += 2
            return fill, None
        if qualified == "growth.weighted_norm_ln":
            signature = inspect.signature(self.M.growth.weighted_norm_ln)

            def unsampled(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if bound.arguments["samples"] == 0:
                    counts["growth.weighted_norm_ln.unsampled_calls"] += 1
            return unsampled, None
        if qualified in ("growth.ProximateOrder.ln_gq", "growth.ProximateOrder.ln_phi_at_ln_t"):
            return lambda args, kwargs: self.note(qualified, (_scale_key(args[0]), args[1])), None
        if qualified == "sampling.sphere_points":
            def points(args, kwargs, result):
                counts["sampling.sphere_points.points"] += len(result)
            return None, points
        if qualified == "serialize.read_file":
            def read(args, kwargs):
                counts["serialize.bytes_read"] += os.path.getsize(args[0])
            return read, None
        if qualified == "serialize.write_file":
            def written(args, kwargs, result):
                counts["serialize.bytes_written"] += os.path.getsize(args[0])
            return None, written
        return None, None

    def _rebind(self, original, replacement) -> None:
        """Replace ``original`` wherever a ``monogenic`` module holds it."""
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _wrap_method(self, cls, method: str, replacement) -> None:
        self._restore.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, replacement)

    def install(self) -> None:
        """Wrap every function of TIMED and COUNTED in the package's modules."""
        M = self.M
        for short, names in TIMED.items():
            module = getattr(M, short)
            for name in names:
                qualified = f"{short}.{name}"
                before, after = self._hooks(qualified)
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(module, cls_name)
                    fn = cls.__dict__[method]
                    self._wrap_method(cls, method, self.timed(qualified, fn, before, after))
                else:
                    fn = getattr(module, name)
                    self._rebind(fn, self.timed(qualified, fn, before, after))
        for short, names in COUNTED.items():
            module = getattr(M, short)
            for name in names:
                qualified = f"{short}.{name}"
                obj = getattr(module, name)
                if isinstance(obj, type):
                    self._wrap_method(obj, "__init__", self.counted(qualified, obj.__dict__["__init__"]))
                else:
                    self._rebind(obj, self.counted(qualified, obj))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- derived metrics -----------------------------------------------------

    def derive(self) -> tuple[dict[str, dict[str, float]], Counter]:
        """Per span name: calls, total and self seconds, and memo hits of
        ``FueterCache.value``; plus the sampled lower-side seconds of
        ``weighted_norm_ln`` by request id."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child_time = [0.0] * n
        has_cl_mul_child = bytearray(n)
        lower = Counter()
        cl_mul = self._name_ids.get("clifford.cl_mul", -1)
        wnl = self._name_ids.get("growth.weighted_norm_ln", -1)
        lower_ids = {
            self._name_ids.get("series.series_eval", -2),
            self._name_ids.get("sampling.sphere_points", -2),
        }
        names, parents, reqs = self.span_name, self.span_parent, self.span_request
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_time[p] += dur[i]
                if names[i] == cl_mul:
                    has_cl_mul_child[p] = 1
                if names[p] == wnl and names[i] in lower_ids:
                    lower[reqs[i]] += dur[i]
        table: dict[str, dict[str, float]] = {}
        value = self._name_ids.get("fueter.FueterCache.value", -1)
        for i in range(n):
            row = table.setdefault(
                self.names[names[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0}
            )
            row["calls"] += 1
            row["self_s"] += dur[i] - child_time[i]
            if parents[i] < 0 or names[parents[i]] != names[i]:
                row["total_s"] += dur[i]
            if names[i] == value and not has_cl_mul_child[i]:
                row["hits"] += 1
        return table, lower

    def metrics(self, requests: list[tuple[str, str, float]]) -> dict[str, float]:
        """Per-layer metrics.  ``requests`` lists (kind, label, traced seconds)
        in request-id order."""
        table, lower = self.derive()
        row = lambda name: table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0})
        out: dict[str, float] = {}

        def calls_self(name: str, what=("calls", "self_s")) -> None:
            for key in what:
                out[f"{name}.{key}"] = row(name)[key]

        calls_self("clifford.cl_mul")
        for name in ("clifford.blade_product", "clifford.CliffordNumber", "fueter.FueterCache"):
            out[f"{name}.calls"] = self.counts[name]
        operands = self.counts["blade_fill.operands"]
        out["clifford.blade_fill"] = self.counts["blade_fill.sum"] / operands if operands else 0.0
        calls_self("fueter.FueterCache.value")
        calls = row("fueter.FueterCache.value")["calls"]
        out["fueter.FueterCache.value.hit_ratio"] = (
            row("fueter.FueterCache.value")["hits"] / calls if calls else 0.0
        )
        for name in ("series_eval", "ck_mul_left", "series_derivative", "max_modulus"):
            calls_self(f"series.{name}")
        calls_self("growth.weighted_norm_ln")
        out["growth.weighted_norm_ln.lower_s"] = sum(lower.values())
        out["growth.weighted_norm_ln.unsampled_calls"] = self.counts[
            "growth.weighted_norm_ln.unsampled_calls"
        ]
        n3 = [i for i, (kind, _, _) in enumerate(requests) if kind == "verify_n3"]
        n3_s = sum(requests[i][2] for i in n3)
        out["growth.weighted_norm_ln.lower_share_n3"] = (
            sum(lower[i] for i in n3) / n3_s if n3_s else 0.0
        )
        for name in ("ln_gq", "ln_phi_at_ln_t"):
            full = f"growth.ProximateOrder.{name}"
            calls_self(full, ("calls", "self_s") if name == "ln_phi_at_ln_t" else ("calls",))
            seen = len(self.distinct.get(full, ()))
            out[f"{full}.distinct_ratio"] = seen / self.counts[full] if self.counts[full] else 0.0
        calls_self("growth.ProximateOrder.ln_weight_peak")
        calls_self("growth.k_q")
        calls_self("sampling.sphere_points")
        out["sampling.sphere_points.points"] = self.counts["sampling.sphere_points.points"]
        for name in ("op_apply", "op_to_hom", "hom_to_op"):
            calls_self(f"operators.{name}")
        calls_self("multiindex.enumerate_up_to")
        out["serialize.read_file.self_s"] = row("serialize.read_file")["self_s"]
        out["serialize.write_file.self_s"] = row("serialize.write_file")["self_s"]
        serialize = [name for name in self.names if name.startswith("serialize.")]
        out["serialize.decode_s"] = sum(
            row(name)["self_s"] for name in serialize if name.startswith("serialize.obj_to_")
        )
        out["serialize.encode_s"] = sum(
            row(name)["self_s"] for name in serialize if name.endswith("_to_obj")
        )
        out["serialize.bytes_read"] = self.counts["serialize.bytes_read"]
        out["serialize.bytes_written"] = self.counts["serialize.bytes_written"]
        out["cli.main.self_s"] = row("cli.main")["self_s"]
        return out


def package_modules() -> list:
    """The loaded ``monogenic`` package and its submodules."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "monogenic" or name.startswith("monogenic."))
    ]


def is_traced() -> list[str]:
    """Names of package attributes that are still tracer wrappers."""
    found = []
    for module in package_modules():
        short = module.__name__.removeprefix("monogenic.")
        for attr, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{short}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for method, fn in vars(value).items():
                    if getattr(fn, MARK, False):
                        found.append(f"{short}.{attr}.{method}")
    return found
