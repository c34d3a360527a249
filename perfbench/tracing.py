"""Per-layer spans for the traced run, installed from outside the program.

Each wrapped public function records a span (layer, start, end, parent).
A wrapper replaces the function in every ``picard_lod`` module namespace
that holds it, because ``picard_pde`` and ``linear_series`` import
``funcspace`` names directly.  The tracer's own bookkeeping (hashing inputs
for the reuse counters, recording spans) is kept off a virtual clock, so
self times measure the program and not the tracer.

Self time of a span is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import hashlib
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

COMMAND_LAYER = "cli.command"

# layer -> (module, function name or names); "Class.method" patches the class
LAYERS = {
    "cli.load_problem": ("cli", "load_problem"),
    "cli.command": ("cli", ("cmd_solve", "cmd_certify", "cmd_series")),
    "expr.eval_expr": ("expr", "eval_expr"),
    "expr.symbolic_partial": ("expr", "symbolic_partial"),
    "funcspace.interpolate": ("funcspace", "interpolate"),
    "funcspace.from_values": ("funcspace", "from_values"),
    "funcspace.partial_derivative": ("funcspace", "partial_derivative"),
    "funcspace.iterated_time_integral": ("funcspace", "iterated_time_integral"),
    "funcspace.SepFunc.eval_grid": ("funcspace", "SepFunc.eval_grid"),
    "funcspace.graded_norms_upto": ("funcspace", "graded_norms_upto"),
    "funcspace.ball_check": ("funcspace", "ball_check"),
    "funcspace.sepfunc": ("funcspace", "SepFunc.__post_init__"),
    "graded_core.series_verdict": ("graded_core", "series_verdict"),
    "picard_pde.initial_polynomial": ("picard_pde", "initial_polynomial"),
    "picard_pde.eval_G": ("picard_pde", "eval_G"),
    "picard_pde.apply_P": ("picard_pde", "apply_P"),
    "picard_pde.estimate_lipschitz": ("picard_pde", "estimate_lipschitz"),
    "picard_pde.certify_weissinger": ("picard_pde", "certify_weissinger"),
    "picard_pde.residual": ("picard_pde", "residual"),
    "picard_pde.solve": ("picard_pde", "solve"),
    "linear_series.series_solution": ("linear_series", "series_solution"),
    "linear_series.mu_eta_recursions": ("linear_series", "mu_eta_recursions"),
    "linear_series.increment_bound_log": ("linear_series", "increment_bound_log"),
}

# reported metrics per layer: which of calls / self_s / total_s
REPORTED = {
    "cli.command": ("self_s",),
    "funcspace.sepfunc": ("self_s",),
    "picard_pde.solve": ("self_s", "total_s"),
    "picard_pde.estimate_lipschitz": ("calls", "self_s", "total_s"),
    "picard_pde.certify_weissinger": ("calls", "self_s", "total_s"),
    "linear_series.series_solution": ("calls", "self_s", "total_s"),
}

# extra counters: metric name -> unit; values are per operation
COUNTERS = {
    "expr.eval_expr.points": "count",
    "funcspace.from_values.coeffs": "count",
    "funcspace.partial_derivative.repeat_share": "ratio",
    "funcspace.SepFunc.eval_grid.points": "count",
    "funcspace.SepFunc.eval_grid.operator_reuse": "ratio",
    "funcspace.graded_norms_upto.derivatives": "count",
    "funcspace.sepfunc.created": "count",
    "funcspace.sepfunc.bytes_copied": "bytes",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        for kind in REPORTED.get(layer, ("calls", "self_s")):
            units[f"{layer}.{kind}"] = "count" if kind == "calls" else "s"
    units.update(COUNTERS)
    units["trace.op_s"] = "s"
    units["trace.attributed_share"] = "ratio"
    return units


def _digest(arr) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).digest()


class Tracer:
    """Spans and counters of one operation at a time."""

    def __init__(self) -> None:
        self.overhead = 0.0
        self.begin_op()

    def now(self) -> float:
        return perf_counter() - self.overhead

    def begin_op(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.seen: set = set()
        self.op_start = self.now()

    def end_op(self) -> dict[str, float]:
        """Per-layer metrics of the operation that just ended."""
        op_s = self.now() - self.op_start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (layer, start, end, parent) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += (end - start) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != layer:
                p = self.spans[p][3]
            if p < 0:  # outermost span of its layer
                total_s[layer] += end - start
        out = {}
        for layer in LAYERS:
            for kind in REPORTED.get(layer, ("calls", "self_s")):
                src = {"calls": calls, "self_s": self_s, "total_s": total_s}[kind]
                out[f"{layer}.{kind}"] = float(src[layer])
        c = self.counts
        for name in COUNTERS:
            out[name] = float(c[name])
        pd_calls = calls["funcspace.partial_derivative"]
        out["funcspace.partial_derivative.repeat_share"] = (
            c["pd_repeats"] / pd_calls if pd_calls else 0.0
        )
        eg_calls = calls["funcspace.SepFunc.eval_grid"]
        out["funcspace.SepFunc.eval_grid.operator_reuse"] = (
            c["grid_repeats"] / eg_calls if eg_calls else 0.0
        )
        below = sum(v for layer, v in self_s.items() if layer != COMMAND_LAYER)
        out["trace.op_s"] = op_s
        out["trace.attributed_share"] = below / op_s if op_s > 0 else 0.0
        return out

    def seen_before(self, key) -> bool:
        if key in self.seen:
            return True
        self.seen.add(key)
        return False

    def wrap(self, layer: str, fn, pre=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            if pre is not None:
                pre(tracer, *args, **kwargs)
            idx = len(tracer.spans)
            span = [layer, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            start = perf_counter()
            tracer.overhead += start - t_in
            span[1] = start - tracer.overhead
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                span[2] = end - tracer.overhead
            if post is not None:
                post(tracer, result, *args, **kwargs)
            tracer.overhead += perf_counter() - end
            return result

        return wrapper


# -- counters -------------------------------------------------------------


def _pre_partial_derivative(tr: Tracer, f, beta, *a, **k) -> None:
    coeffs = f.coeffs
    key = ("pd", coeffs.shape, _digest(coeffs), f.domain, tuple(int(b) for b in beta))
    if tr.seen_before(key):
        tr.counts["pd_repeats"] += 1


def _pre_eval_grid(tr: Tracer, self, t_pts, x_grids=(), *a, **k) -> None:
    key = ("grid", self.coeffs.shape[1:], self.domain, _digest(t_pts),
           tuple(_digest(g) for g in x_grids))
    if tr.seen_before(key):
        tr.counts["grid_repeats"] += 1


def _post_eval_grid(tr: Tracer, result, *a, **k) -> None:
    tr.counts["funcspace.SepFunc.eval_grid.points"] += result.size


def _post_eval_expr(tr: Tracer, result, *a, **k) -> None:
    tr.counts["expr.eval_expr.points"] += getattr(result, "size", 1)


def _post_from_values(tr: Tracer, result, *a, **k) -> None:
    tr.counts["funcspace.from_values.coeffs"] += result.coeffs.size


def _pre_graded_norms(tr: Tracer, f, k_max, *a, p=None, **k) -> None:
    p_eff = f.p if p is None else p
    s = f.domain.s
    tr.counts["funcspace.graded_norms_upto.derivatives"] += sum(
        math.comb(k_max - g + s, s) for g in range(min(p_eff, k_max) + 1)
    )


def _post_sepfunc(tr: Tracer, result, self, *a, **k) -> None:
    tr.counts["funcspace.sepfunc.created"] += 1
    tr.counts["funcspace.sepfunc.bytes_copied"] += self.coeffs.nbytes


HOOKS = {
    "funcspace.partial_derivative": (_pre_partial_derivative, None),
    "funcspace.SepFunc.eval_grid": (_pre_eval_grid, _post_eval_grid),
    "expr.eval_expr": (None, _post_eval_expr),
    "funcspace.from_values": (None, _post_from_values),
    "funcspace.graded_norms_upto": (_pre_graded_norms, None),
    "funcspace.sepfunc": (None, _post_sepfunc),
}


def install() -> Tracer:
    """Wrap every layer's functions in all loaded picard_lod modules."""
    import picard_lod.cli  # noqa: F401  (loads every module that holds a layer)

    tracer = Tracer()
    modules = [m for name, m in sys.modules.items()
               if name == "picard_lod" or name.startswith("picard_lod.")]
    for layer, (mod_name, attrs) in LAYERS.items():
        home = sys.modules[f"picard_lod.{mod_name}"]
        pre, post = HOOKS.get(layer, (None, None))
        for attr in (attrs,) if isinstance(attrs, str) else attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, tracer.wrap(layer, getattr(cls, meth), pre, post))
                continue
            original = getattr(home, attr)
            wrapper = tracer.wrap(layer, original, pre, post)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
    return tracer


def summarize(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over the measured operations of each per-layer metric."""
    return {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
