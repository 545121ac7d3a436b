"""Span tracing for the benchmark's traced run.

The traced run wraps the public function at every layer boundary of
``repro`` (the table ``LAYERS`` below) so that each call records a span:
name, start, end, the span that caused it, and the op it belongs to.  The
wrappers are installed from these benchmark files only for the traced phase
and removed afterwards; the untraced run executes the unmodified program.

Ops are identified per thread.  A client thread binds its op explicitly; the
service's HTTP handler thread learns it from the ``request_id`` of the JSON
document it decodes, and a service worker thread from the ``request_id`` of
the request it hands to ``run_request_cached``.  Spans are kept in memory and
written out by :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    id: int
    parent: int | None
    op: str | None
    name: str
    thread: int
    start: float
    end: float
    self_s: float


@dataclass(frozen=True)
class Layer:
    """One wrapped call site: span name, defining module, attribute path."""

    span: str
    module: str
    attr: str
    observe: Callable[["Tracer", str | None, tuple, dict, Any], None] | None = None
    bind: Callable[[tuple, dict], str | None] | None = None
    enter: Callable[["Tracer", tuple, dict], None] | None = None


# -- observers: counters recorded where the work happens -------------------


def _obs_formulation(tracer, op, args, kwargs, result):
    tracer.count(op, "lp.vars", result.num_variables)
    tracer.count(op, "lp.nnz", result.stats.num_nonzeros)


def _obs_gap_build(tracer, op, args, kwargs, result):
    tracer.count(op, "core.gap.edges", result.network.num_edges)


def _obs_gap_solve(tracer, op, args, kwargs, result):
    tracer.count(op, "core.gap.boxes_served", result.boxes_served)
    tracer.count(op, "core.gap.boxes_total", result.boxes_total)


def _obs_path_round(tracer, op, args, kwargs, result):
    sets = kwargs.get("entangled_sets")
    tracer.count(op, "core.path_rounding.entangled_sets", len(sets or ()))


def _obs_partition(tracer, op, args, kwargs, result):
    tracer.count(op, "scale.shards", result.num_shards)


def _obs_stitch(tracer, op, args, kwargs, result):
    tracer.count(op, "scale.stitch.moved", result[1].assignments_moved)


def _obs_incremental(tracer, op, args, kwargs, result):
    meta = result.metadata
    dirty = meta.get("incremental_dirty_shards", 0)
    tracer.count(op, "incremental.dirty_shards", dirty)
    tracer.count(
        op, "incremental.shards", dirty + meta.get("incremental_clean_shards", 0)
    )


def _obs_cache_get(tracer, op, args, kwargs, result):
    namespace = args[1] if len(args) > 1 else kwargs.get("namespace")
    tracer.count(op, f"serve.cache.gets.{namespace}", 1)
    if result is not None:
        tracer.count(op, f"serve.cache.hits.{namespace}", 1)


def _obs_compile(tracer, op, args, kwargs, result):
    tracer.count(op, "simulation.paths", int(result.demand_num_paths.sum()))


def _obs_monte_carlo(tracer, op, args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    config = args[2] if len(args) > 2 else kwargs.get("config")
    tracer.count(
        op,
        "simulation.packet_trials",
        problem.num_demands * config.trials * config.num_packets,
    )


def _enter_execute(tracer, args, kwargs):
    tracer.event("execute", _bind_request(args, kwargs))


# -- op binders: how a service thread learns which op it is working for ----


def _bind_request(args, kwargs):
    request = args[0] if args else kwargs.get("request")
    return getattr(request, "request_id", None)


LAYERS: tuple[Layer, ...] = (
    Layer("lp.formulate", "repro.core.formulation", "build_sparse_formulation",
          _obs_formulation),
    Layer("lp.solve", "repro.core.formulation", "SparseOverlayFormulation.solve"),
    Layer("core.rounding.draw", "repro.core.rounding", "round_solution"),
    Layer("core.rounding.audit", "repro.core.rounding", "audit_rounding"),
    Layer("core.gap.build", "repro.core.gap", "build_gap_network", _obs_gap_build),
    Layer("core.gap.solve", "repro.core.gap", "solve_gap", _obs_gap_solve),
    Layer("core.path_rounding", "repro.core.path_rounding", "path_round",
          _obs_path_round),
    Layer("core.repair", "repro.core.algorithm", "repair_weight_shortfalls"),
    Layer("analysis.audit", "repro.analysis.audit", "audit_solution"),
    Layer("scale.partition", "repro.scale.partition", "build_partition",
          _obs_partition),
    Layer("scale.design", "repro.scale.pipeline", "design_sharded"),
    Layer("scale.stitch", "repro.scale.stitch", "stitch_solutions", _obs_stitch),
    Layer("scale.stitch", "repro.scale.stitch", "stitch_assignments", _obs_stitch),
    Layer("incremental.update", "repro.incremental.engine", "design_incremental",
          _obs_incremental),
    Layer("serve.codec", "repro.api.types", "request_from_dict"),
    Layer("serve.codec", "repro.api.types", "result_to_dict"),
    Layer("serve.codec", "repro.api.types", "result_from_dict"),
    Layer("serve.digest", "repro.serve.cache", "request_digest"),
    Layer("serve.digest", "repro.core.serialization", "problem_digest"),
    Layer("serve.cache.get", "repro.serve.cache", "ArtifactCache.get", _obs_cache_get),
    Layer("serve.cache.put", "repro.serve.cache", "ArtifactCache.put"),
    Layer("serve.execute", "repro.serve.execute", "run_request_cached",
          bind=_bind_request, enter=_enter_execute),
    Layer("simulation.realize", "repro.simulation.scenarios", "realize_scenario"),
    Layer("simulation.compile", "repro.simulation.montecarlo", "compile_path_table",
          _obs_compile),
    Layer("simulation.mc", "repro.simulation.montecarlo", "run_monte_carlo",
          _obs_monte_carlo),
)

#: Span names in report order (a span may wrap several functions).
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(layer.span for layer in LAYERS))

#: Cache namespaces whose hit ratios are reported.
CACHE_NAMESPACES = ("result", "plan", "formulation", "lp")

#: Spans whose self time is fitted against instance size on design-internet.
EXPONENT_SPANS = ("lp.solve", "core.rounding.audit", "core.gap.solve", "analysis.audit")

#: Packages imported before wrapping so every alias of a wrapped function
#: (``from x import f`` copies) already exists and gets replaced too.
_PACKAGES = (
    "repro.api",
    "repro.serve",
    "repro.scale.pipeline",
    "repro.incremental",
    "repro.simulation",
)


class _Frame:
    __slots__ = ("id", "parent", "name", "start", "child_s")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.child_s = 0.0


class _JsonProxy:
    """Stands in for the ``json`` module inside ``repro.serve.service``.

    The HTTP handler encodes and decodes request and result documents there;
    both calls are ``serve.codec`` work.  Decoding also tells the handler
    thread which op it serves, from the document's ``request_id``.
    """

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def loads(self, *args, **kwargs):
        with self._tracer.span("serve.codec"):
            document = json.loads(*args, **kwargs)
            if isinstance(document, dict) and document.get("request_id"):
                self._tracer.bind_thread(document["request_id"])
        return document

    def dumps(self, *args, **kwargs):
        with self._tracer.span("serve.codec"):
            return json.dumps(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """In-memory span recorder plus the wrapper installer."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str | None, dict[str, float]] = {}
        self.events: dict[str, dict[str, float]] = {"submit": {}, "execute": {}}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- op binding --------------------------------------------------------

    def current_op(self) -> str | None:
        return getattr(self._local, "op", None)

    def bind_thread(self, op: str | None) -> None:
        self._local.op = op

    @contextmanager
    def op(self, op_id: str):
        previous = self.current_op()
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = previous

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1].id if stack else None
        frame = _Frame(next(self._ids), parent, name, time.perf_counter())
        stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame.start
            if stack:
                stack[-1].child_s += duration
            self.spans.append(
                Span(
                    id=frame.id,
                    parent=frame.parent,
                    op=self.current_op(),
                    name=name,
                    thread=threading.get_ident(),
                    start=frame.start,
                    end=end,
                    self_s=duration - frame.child_s,
                )
            )

    def count(self, op: str | None, name: str, value: float) -> None:
        with self._lock:
            counters = self.counters.setdefault(op, {})
            counters[name] = counters.get(name, 0.0) + value

    def event(self, kind: str, request_id: str | None) -> None:
        if request_id is not None:
            self.events[kind].setdefault(request_id, time.perf_counter())

    # -- installation ------------------------------------------------------

    def _wrap(self, layer: Layer, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rebound = False
            if layer.bind is not None and tracer.current_op() is None:
                op = layer.bind(args, kwargs)
                if op is not None:
                    tracer._local.op = op
                    rebound = True
            try:
                if layer.enter is not None:
                    layer.enter(tracer, args, kwargs)
                with tracer.span(layer.span):
                    result = original(*args, **kwargs)
                if layer.observe is not None:
                    layer.observe(tracer, tracer.current_op(), args, kwargs, result)
                return result
            finally:
                if rebound:
                    tracer._local.op = None

        return wrapper

    def _wrap_submit(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def submit(service, request):
            ticket = original(service, request)
            tracer.event("submit", ticket.request_id)
            return ticket

        return submit

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Replace every call site of every layer function with a wrapper."""
        for package in _PACKAGES:
            importlib.import_module(package)
        for layer in LAYERS:
            module = importlib.import_module(layer.module)
            if "." in layer.attr:
                class_name, method = layer.attr.split(".")
                owner = getattr(module, class_name)
                self._patch(owner, method, self._wrap(layer, owner.__dict__[method]))
                continue
            original = getattr(module, layer.attr)
            wrapper = self._wrap(layer, original)
            for name, loaded in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")) or loaded is None:
                    continue
                aliases = [
                    key for key, value in vars(loaded).items() if value is original
                ]
                for key in aliases:
                    self._patch(loaded, key, wrapper)
        service = importlib.import_module("repro.serve.service")
        self._patch(service, "json", _JsonProxy(self))
        self._patch(
            service.DesignService,
            "submit",
            self._wrap_submit(service.DesignService.__dict__["submit"]),
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": [vars(span) for span in self.spans],
                    "counters": {str(op): c for op, c in self.counters.items()},
                },
                handle,
            )


def _slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x); 0 with under two sizes."""
    logs = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(logs) < 2:
        return 0.0
    xs, ys = zip(*logs)
    return statistics.linear_regression(xs, ys).slope


def layer_metrics(
    tracer: Tracer, ops: list, untraced_p50: float, traced_p50: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced ops: ``{name: (value, unit)}``."""
    op_ids = {op.op_id for op in ops}
    wall = sum(op.seconds for op in ops) or 1.0
    n_ops = max(1, len(ops))
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    by_size: dict[str, dict[int, float]] = {name: {} for name in EXPONENT_SPANS}
    sinks_of = {op.op_id: op.sinks for op in ops}
    for span in tracer.spans:
        if span.op not in op_ids:
            continue
        calls[span.name] += 1
        self_s[span.name] += span.self_s
        if span.name in by_size:
            size = sinks_of[span.op]
            by_size[span.name][size] = by_size[span.name].get(size, 0.0) + span.self_s
    totals: dict[str, float] = {}
    for op, counters in tracer.counters.items():
        if op in op_ids:
            for name, value in counters.items():
                totals[name] = totals.get(name, 0.0) + value

    def total(name: str) -> float:
        return totals.get(name, 0.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name] / n_ops, "count")
        metrics[f"{name}.self_s"] = (self_s[name] / n_ops, "s")
        metrics[f"{name}.share"] = (self_s[name] / wall, "fraction")

    metrics["lp.vars"] = (ratio(total("lp.vars"), calls["lp.formulate"]), "count")
    metrics["lp.nnz"] = (ratio(total("lp.nnz"), calls["lp.formulate"]), "count")
    designs = calls["core.gap.solve"] + calls["core.path_rounding"]
    metrics["core.rounding.accept_ratio"] = (
        ratio(designs, calls["core.rounding.draw"]), "ratio")
    metrics["core.gap.edges"] = (
        ratio(total("core.gap.edges"), calls["core.gap.build"]), "count")
    metrics["core.gap.served_ratio"] = (
        ratio(total("core.gap.boxes_served"), total("core.gap.boxes_total")), "ratio")
    metrics["core.path_rounding.entangled_sets"] = (
        ratio(total("core.path_rounding.entangled_sets"), calls["core.path_rounding"]),
        "count")
    metrics["scale.shards"] = (
        ratio(total("scale.shards"), calls["scale.partition"]), "count")
    metrics["scale.stitch.moved"] = (
        ratio(total("scale.stitch.moved"), calls["scale.stitch"]), "count")
    metrics["incremental.dirty_ratio"] = (
        ratio(total("incremental.dirty_shards"), total("incremental.shards")), "ratio")
    for namespace in CACHE_NAMESPACES:
        metrics[f"serve.cache.hit_ratio.{namespace}"] = (
            ratio(total(f"serve.cache.hits.{namespace}"),
                  total(f"serve.cache.gets.{namespace}")),
            "ratio",
        )
    waits = [
        max(0.0, entered - tracer.events["submit"][request_id])
        for request_id, entered in tracer.events["execute"].items()
        if request_id in op_ids and request_id in tracer.events["submit"]
    ]
    metrics["serve.queue_wait_s"] = (ratio(sum(waits), len(waits)), "s")
    metrics["simulation.paths"] = (
        ratio(total("simulation.paths"), calls["simulation.compile"]), "count")
    metrics["simulation.packet_trials"] = (
        total("simulation.packet_trials") / n_ops, "count")

    for name in EXPONENT_SPANS:
        sizes = sorted(by_size[name])
        ops_per_size = {
            size: sum(1 for op in ops if op.sinks == size) for size in sizes
        }
        points = [(size, by_size[name][size] / ops_per_size[size]) for size in sizes]
        metrics[f"{name}.exponent"] = (_slope(points), "slope")

    metrics["trace.overhead"] = (
        ratio(traced_p50, untraced_p50) - 1.0 if untraced_p50 else 0.0, "ratio")
    metrics["trace.unattributed_share"] = (
        1.0 - sum(self_s.values()) / wall, "fraction")
    return metrics


def bypass_violations(workload: str, metrics: dict[str, tuple[float, str]]) -> list[str]:
    """The layer-map assertions: spans that must not run on a workload."""
    def calls(prefix: str) -> float:
        return sum(
            value for name, (value, _unit) in metrics.items()
            if name.startswith(prefix) and name.endswith(".calls")
        )

    rules = []
    if workload == "design-audit":
        rules.append(("core.gap.solve", calls("core.gap.solve.")))
    if workload == "design-internet":
        rules.append(("core.path_rounding", calls("core.path_rounding.")))
    if workload != "design-audit":
        rules.append(("simulation.*", calls("simulation.")))
    if workload in ("design-internet", "design-audit"):
        for prefix in ("serve.", "scale.", "incremental."):
            rules.append((prefix + "*", calls(prefix)))
    return [
        f"{name} ran {value:g} calls/op on {workload}" for name, value in rules if value
    ]
