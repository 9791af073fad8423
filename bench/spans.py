"""Outside-in span recorder for the rankvar package, and per-op layer metrics.

:class:`Tracer` wraps every public function of the layer modules by
replacing each ``rankvar.*`` module attribute bound to that function object.
Callers bind names with ``from .transport import solve_coupling``, so
patching only the defining module would miss them.  :meth:`Tracer.restore`
puts every original attribute back.  Spans live in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "rankvar"
# The package modules, one layer each.
LAYERS = (
    "grid",
    "transport",
    "scores",
    "var_algebra",
    "rank_tests",
    "gaussian_tests",
    "order_id",
    "simulation",
)


@dataclass
class Span:
    """One call into a layer.  ``info`` holds values read off its result."""

    id: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0
    error: bool = False
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _test_info(args, kwargs, out) -> dict:
    meta = out.meta
    return {"n": meta["n"], "d": meta["d"], "M": meta["M"] or 0}


def _operators_info(args, kwargs, ops) -> dict:
    nbytes = ops.M.nbytes + ops.P.nbytes + ops.Q.nbytes + ops.T.nbytes
    return {"effective_lags": ops.effective_lags, "bytes": nbytes}


def _identify_info(args, kwargs, trace) -> dict:
    return {"steps": len(trace.steps)}


def _grid_scores_info(sig):
    def info(args, kwargs, out) -> dict:
        bound = sig.bind(*args, **kwargs).arguments
        return {"key": [id(bound["grid"]), bound["spec"].kind, bound["which"]]}

    return info


class Tracer:
    """Records a span for each call into a public layer function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)

    def _wrap(self, name: str, fn):
        note = {
            "rank_tests.test_order": _test_info,
            "rank_tests.test_specified": _test_info,
            "var_algebra.build_operator_matrices": _operators_info,
            "order_id.identify_order": _identify_info,
        }.get(name)
        if name == "scores.grid_scores":
            note = _grid_scores_info(inspect.signature(fn))
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, self.op, stack[-1] if stack else None, 0.0)
            spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.info = note(args, kwargs, out)
            return out

        traced.__wrapped_original__ = fn
        return traced

    def install(self) -> None:
        """Bind every package attribute that names a traced function to its wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def root(self, op: str):
        """Context manager: a root span named ``op`` that parents the op's spans."""
        return _Root(self, op)


class _Root:
    def __init__(self, tracer: Tracer, op: str):
        self.tracer, self.op_name = tracer, op

    def __enter__(self) -> Span:
        t = self.tracer
        t.op = self.op_name
        self.span = Span(len(t.spans), "op", self.op_name, None, time.perf_counter())
        t.spans.append(self.span)
        t._stack.append(self.span.id)
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.span.end = time.perf_counter()
        self.span.error = exc_type is not None
        self.tracer._stack.pop()
        return False


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


# Metrics that count work or are computed from array shapes: they repeat
# exactly for the same op, which the traced run checks.
EXACT = (
    "transport.calls",
    "transport.errors",
    "scores.grid_scores.calls",
    "scores.chisq_quantile.calls",
    "scores.errors",
    "scores.grid_scores.distinct_ratio",
    "var_algebra.operators.calls",
    "var_algebra.errors",
    "var_algebra.effective_lags",
    "var_algebra.operator_bytes",
    "rank_tests.errors",
    "rank_tests.upsilon.calls",
    "rank_tests.upsilon.couplings",
    "rank_tests.perm_stats",
    "rank_tests.perm_flops",
    "gaussian_tests.calls",
    "order_id.steps",
)

TIMED = (
    "transport.self_s",
    "transport.share",
    "scores.self_s",
    "var_algebra.self_s",
    "rank_tests.self_s",
    "rank_tests.share",
    "rank_tests.upsilon.self_s",
    "rank_tests.upsilon.total_s",
    "gaussian_tests.self_s",
    "order_id.self_s",
    "simulation.dgp_s",
    "simulation.self_s",
)


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one op from its spans; the root span is named "op"."""
    root = next(s for s in spans if s.name == "op")
    wall = root.end - root.start
    self_t = self_times(spans)
    by_id = {s.id: s for s in spans}

    def under(s: Span, name: str) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name == name:
                return True
            p = by_id[p].parent
        return False

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    layer_errors = dict.fromkeys(LAYERS, 0)
    for s in spans:
        if s.layer in layer_self:
            layer_self[s.layer] += self_t[s.id]
            layer_calls[s.layer] += 1
            layer_errors[s.layer] += s.error

    grid_scores = named("scores.grid_scores")
    operators = named("var_algebra.build_operator_matrices")
    upsilon = named("rank_tests.estimate_upsilon")
    tests = [
        s
        for s in spans
        if s.name in ("rank_tests.test_order", "rank_tests.test_specified")
        and not s.error
        and not under(s, "rank_tests.test_order")
    ]
    perm_stats = perm_flops = 0
    for t in tests:
        # The test's own lag horizon: its first operator build outside Upsilon.
        lags = next(
            o.info["effective_lags"]
            for o in operators
            if o.start >= t.start and o.end <= t.end and not o.error
            and not under(o, "rank_tests.estimate_upsilon")
        )
        n, d, m = t.info["n"], t.info["d"], t.info["M"]
        perm_stats += m
        # 2 M d^2 sum_{i=1..L} (n - i): the permuted lag cross-products.
        perm_flops += 2 * m * d * d * (lags * n - lags * (lags + 1) // 2)
    ok_ops = [o for o in operators if not o.error]

    return {
        "transport.calls": layer_calls["transport"],
        "transport.errors": layer_errors["transport"],
        "transport.self_s": layer_self["transport"],
        "transport.share": layer_self["transport"] / wall,
        "scores.grid_scores.calls": len(grid_scores),
        "scores.chisq_quantile.calls": len(named("scores.chisq_quantile")),
        "scores.self_s": layer_self["scores"],
        "scores.errors": layer_errors["scores"],
        "scores.grid_scores.distinct_ratio": (
            len({tuple(s.info["key"]) for s in grid_scores if s.info}) / len(grid_scores)
            if grid_scores
            else 0.0
        ),
        "var_algebra.operators.calls": len(operators),
        "var_algebra.self_s": layer_self["var_algebra"],
        "var_algebra.errors": layer_errors["var_algebra"],
        "var_algebra.effective_lags": (
            statistics.fmean(o.info["effective_lags"] for o in ok_ops) if ok_ops else 0.0
        ),
        "var_algebra.operator_bytes": sum(o.info["bytes"] for o in ok_ops),
        "rank_tests.self_s": layer_self["rank_tests"],
        "rank_tests.share": layer_self["rank_tests"] / wall,
        "rank_tests.errors": layer_errors["rank_tests"],
        "rank_tests.upsilon.calls": len(upsilon),
        "rank_tests.upsilon.self_s": sum(self_t[s.id] for s in upsilon),
        "rank_tests.upsilon.total_s": sum(s.end - s.start for s in upsilon),
        "rank_tests.upsilon.couplings": sum(
            1
            for s in named("transport.solve_coupling")
            if under(s, "rank_tests.estimate_upsilon")
        ),
        "rank_tests.perm_stats": perm_stats,
        "rank_tests.perm_flops": perm_flops,
        "gaussian_tests.calls": layer_calls["gaussian_tests"],
        "gaussian_tests.self_s": layer_self["gaussian_tests"],
        "order_id.steps": sum(s.info.get("steps", 0) for s in named("order_id.identify_order")),
        "order_id.self_s": layer_self["order_id"],
        "simulation.dgp_s": sum(
            s.end - s.start
            for s in spans
            if s.name in ("var_algebra.simulate_var", "simulation.sample_innovations")
        ),
        "simulation.self_s": layer_self["simulation"],
    }
