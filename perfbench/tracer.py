"""Span tracing of gamelcp's public functions, from outside the package.

``Tracer.installed()`` replaces every module attribute inside ``gamelcp``
that names one of the functions in ``TRACED`` with a timing wrapper, and
puts the originals back on exit.  Each call records a span: name, layer,
start, end, parent span, operation id and a work count taken from the
call's result (IPM trace length, Lemke pivots, VI iterations, SI rounds,
minors scanned).  ``layer_metrics`` turns the spans of one pass into the
per-layer numbers the benchmark reports.

``span_cost_s`` measures what one wrapped call adds, so the tracing
overhead of a pass is its span count times that cost.  Differencing a
traced and an untraced pass cannot resolve it: on a shared VM two passes
of the same work differ by 10% or more, and the wrappers add well under 1%.

Only names from the modules' public surface are wrapped, so the package
can change its private helpers without touching this file.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

LAYERS = (
    "cli",
    "game",
    "lcp",
    "lcp_solvers",
    "solvers",
    "conditioning",
    "hard_instances",
    "bench",
)


def _ipm_iters(args, result, exc):
    trace = result[2] if exc is None else getattr(exc, "context", {}).get("trace")
    return 0 if trace is None else len(trace)


def _minors_scanned(args, result, exc):
    # the scan visits subsets in bitmask order 1 .. 2^n - 1 and stops at the
    # first failing one, so the failing subset's mask is the number scanned
    if exc is not None:
        return 0
    if result.ok:
        return 2 ** len(args[0]) - 1
    return sum(1 << i for i in result.failing_subset)


def _iterations(args, result, exc):
    return 0 if exc is not None else int(result.iterations)


def _pivots(args, result, exc):
    return 0 if exc is not None else int(result[2])


# module -> {function name: work count of one call (None: no count)}
TRACED = {
    "cli": {"main": None},
    "game": {"load_game": None, "value_vector": None, "is_optimal": None},
    "lcp": {"to_lcp": None, "recover": None},
    "lcp_solvers": {
        "solve_potential_reduction": _ipm_iters,
        "solve_pivoting": _pivots,
    },
    "solvers": {"value_iteration": _iterations, "strategy_iteration": _iterations},
    "conditioning": {
        "certify": None,
        "estimate_kappa": None,
        "estimate_theta": None,
        "smallest_eigenvalue_sym": None,
        "pmatrix_check_minors": _minors_scanned,
        "pmatrix_witness_check": None,
    },
    "hard_instances": {"build_hard_instance": None},
    "bench": {"run_bench": None, "write_bench_csv": None, "render_loglog_svg": None},
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "count", "failed")

    def __init__(self, name, layer, start, parent, op):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.count = 0
        self.failed = False


class Tracer:
    """Collects spans in memory; ``op`` is set by the caller per operation."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []

    def _wrap(self, layer, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, layer, time.perf_counter(), parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                span.failed = True
                if count is not None:
                    span.count = count(args, None, exc)
                raise
            finally:
                self._stack.pop()
            span.end = time.perf_counter()
            if count is not None:
                span.count = count(args, result, None)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers into every gamelcp module for the duration."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "gamelcp" or name.startswith("gamelcp.")
        ]
        saved = []
        for layer, functions in TRACED.items():
            home = sys.modules[f"gamelcp.{layer}"]
            for name, count in functions.items():
                fn = getattr(home, name)
                wrapper = self._wrap(layer, name, fn, count)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is fn]:
                        saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def _noop(*args, **kwargs):
    return None


def span_cost_s(calls=20_000, repeats=5):
    """Extra seconds per call that a wrapper adds (best of ``repeats``)."""
    tracer = Tracer()
    wrapped = tracer._wrap("bench", "noop", _noop, None)
    best = float("inf")
    for _ in range(repeats):
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            _noop(1)
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped(1)
        best = min(best, (time.perf_counter() - start - plain) / calls)
    return max(best, 0.0)


def layer_metrics(spans, busy_s):
    """Per-layer metrics of one traced pass.

    Times are milliseconds summed over the pass; ``_ms`` of a function is
    its inclusive span time, ``self`` times subtract the child spans, and
    ``<layer>.self_share`` is a layer's self time over ``busy_s``, the wall
    time of the traced pass.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.end - span.start

    total_ms = {}
    calls = {}
    counts = {}
    failures = {}
    self_ms = dict.fromkeys(LAYERS, 0.0)
    fn_self_ms = {}
    lcp_ops = {}
    for span, kids in zip(spans, child_s):
        dur = span.end - span.start
        total_ms[span.name] = total_ms.get(span.name, 0.0) + dur * 1e3
        calls[span.name] = calls.get(span.name, 0) + 1
        counts[span.name] = counts.get(span.name, 0) + span.count
        failures[span.name] = failures.get(span.name, 0) + int(span.failed)
        self_ms[span.layer] += (dur - kids) * 1e3
        fn_self_ms[span.name] = fn_self_ms.get(span.name, 0.0) + (dur - kids) * 1e3
        if span.name == "to_lcp":
            lcp_ops[span.op] = lcp_ops.get(span.op, 0) + 1

    def ms(name):
        return total_ms.get(name, 0.0)

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    out = {
        "cli.self_ms": (self_ms["cli"], "ms"),
        "game.load_game_ms": (ms("load_game"), "ms"),
        "game.value_vector_ms": (ms("value_vector"), "ms"),
        "game.value_vector_calls": (calls.get("value_vector", 0), "count"),
        "game.is_optimal_ms": (ms("is_optimal"), "ms"),
        "lcp.to_lcp_ms": (ms("to_lcp"), "ms"),
        "lcp.to_lcp_calls_per_op": (
            per(sum(lcp_ops.values()), len(lcp_ops)),
            "count/op",
        ),
        "lcp.recover_ms": (ms("recover"), "ms"),
    }
    for key, name in (("ipm", "solve_potential_reduction"), ("pivot", "solve_pivoting")):
        out[f"lcp_solvers.{key}_ms"] = (ms(name), "ms")
    ipm_iters = counts.get("solve_potential_reduction", 0)
    pivots = counts.get("solve_pivoting", 0)
    out["lcp_solvers.ipm_iters"] = (ipm_iters, "count")
    out["lcp_solvers.ipm_ms_per_iter"] = (per(ms("solve_potential_reduction"), ipm_iters), "ms")
    out["lcp_solvers.ipm_failures"] = (failures.get("solve_potential_reduction", 0), "count")
    out["lcp_solvers.pivots"] = (pivots, "count")
    out["lcp_solvers.pivot_ms_per_pivot"] = (per(ms("solve_pivoting"), pivots), "ms")
    for key, name, unit in (
        ("vi", "value_iteration", "iters"),
        ("si", "strategy_iteration", "rounds"),
    ):
        work = counts.get(name, 0)
        out[f"solvers.{key}_ms"] = (ms(name), "ms")
        out[f"solvers.{key}_{unit}"] = (work, "count")
        out[f"solvers.{key}_ms_per_{unit[:-1]}"] = (per(ms(name), work), "ms")
    scanned = counts.get("pmatrix_check_minors", 0)
    out.update(
        {
            "conditioning.estimate_kappa_ms": (ms("estimate_kappa"), "ms"),
            "conditioning.estimate_theta_ms": (ms("estimate_theta"), "ms"),
            "conditioning.eig_ms": (ms("smallest_eigenvalue_sym"), "ms"),
            "conditioning.minors_ms": (ms("pmatrix_check_minors"), "ms"),
            "conditioning.minors_scanned": (scanned, "count"),
            "conditioning.minors_us_per_minor": (
                per(ms("pmatrix_check_minors"), scanned, 1e3),
                "us",
            ),
            "conditioning.witness_ms": (ms("pmatrix_witness_check"), "ms"),
            "conditioning.witness_checks": (calls.get("pmatrix_witness_check", 0), "count"),
            "conditioning.certify_self_ms": (fn_self_ms.get("certify", 0.0), "ms"),
            "hard_instances.build_ms": (ms("build_hard_instance"), "ms"),
            "bench.cell_self_ms": (fn_self_ms.get("run_bench", 0.0), "ms"),
            "bench.write_ms": (ms("write_bench_csv") + ms("render_loglog_svg"), "ms"),
        }
    )
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (per(self_ms[layer], busy_s * 1e3), "fraction")
    return out
