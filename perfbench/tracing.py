"""Outside-in tracing: wrappers around each layer's entry points.

The benchmark never edits the program.  In a traced run
:meth:`Tracer.install` replaces each entry point listed in
:data:`LAYER_TARGETS` -- in the module or class where its *caller* looks
the name up -- with a wrapper that records one span per call, and
:meth:`Tracer.remove` puts every original back.

A span is ``{"span", "name", "start_ns", "end_ns", "parent", "tag",
"thread", "data"}``: the parent is the innermost open span of the same
thread or asyncio task (a context variable), the tag is the request, pass
or instance being worked on (the served request id inside the server),
and ``data`` holds the counters a wrapper read around the call (store
decode counts, shard queue wait, plan hit counts).  Garbage-collector
pauses are spans too (``python.gc``).  Spans stay in memory until
:meth:`Tracer.write_jsonl`.

Self time of a span is its duration minus the time of its direct
children; :func:`layer_table` sums it per span name.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
import dataclasses
import functools
import gc
import importlib
import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: ``(module, attribute path, span name)`` for every entry point wrapped
#: with a plain span.  A name imported into several caller modules is
#: patched in each of them.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.scenarios.spec", "ScenarioSpec.materialize", "scenarios.materialize"),
    ("repro.scenarios.spec", "ScenarioSpec.from_payload", "scenarios.spec_decode"),
    ("repro.engine.service", "spec_alias_key", "fingerprint.spec_alias"),
    ("repro.engine.async_service", "spec_alias_key", "fingerprint.spec_alias"),
    ("repro.engine.store", "solution_from_payload", "fingerprint.payload_decode"),
    ("repro.engine.store", "solution_to_payload", "fingerprint.payload_encode"),
    ("repro.engine.core", "analyze_dag", "structure.analyze"),
    ("repro.engine.batch", "analyze_dag", "structure.analyze"),
    ("repro.engine.portfolio", "analyze_dag", "structure.analyze"),
    ("repro.engine.batch", "CachedLPBackend.solve_min_makespan", "lp.solve"),
    ("repro.engine.batch", "CachedLPBackend.solve_min_resource", "lp.solve"),
    ("repro.core.bicriteria", "round_lp_solution", "rounding"),
    ("repro.core.kway_approx", "round_lp_solution", "rounding"),
    ("repro.core.binary_approx", "round_lp_solution", "rounding"),
    ("repro.engine.core", "certify_solution", "certify"),
    ("repro.engine.solvers", "sp_exact_min_makespan", "sp_dp"),
    ("repro.engine.solvers", "sp_exact_min_resource", "sp_dp"),
    ("repro.core.minflow", "min_flow_with_lower_bounds", "minflow"),
    ("repro.core.exact", "min_flow_with_lower_bounds", "minflow"),
    ("repro.core.bicriteria", "min_flow_with_lower_bounds", "minflow"),
    ("repro.core.kway_approx", "min_flow_with_lower_bounds", "minflow"),
    ("repro.core.binary_approx", "min_flow_with_lower_bounds", "minflow"),
    ("repro.core.arcdag", "ArcDAG.topological_vertices", "arcdag.topological_vertices"),
    ("repro.hardness.verify", "exact_min_makespan_arcs", "exact.branch_bound"),
    ("repro.core.exact", "exact_min_makespan_arcs", "exact.branch_bound"),
    ("repro.core.exact", "exact_min_resource_arcs", "exact.branch_bound"),
    ("repro.engine.solvers", "exact_min_makespan", "exact.enumeration"),
    ("repro.engine.solvers", "exact_min_resource", "exact.enumeration"),
    ("repro.hardness.verify", "build_partition_dag", "hardness.build"),
    ("repro.hardness.verify", "build_theorem41_dag", "hardness.build"),
    ("repro.hardness.partition", "PartitionInstance.solve_brute_force",
     "hardness.brute_force"),
    ("repro.hardness.sat", "OneInThreeSatInstance.solve_brute_force",
     "hardness.brute_force"),
    ("repro.engine.service", "write_manifest", "service.manifest"),
    ("repro.engine.async_service", "AsyncSweepService.submit_specs",
     "async.submit_specs"),
)

#: Spans the benchmark opens itself around each measured unit; they are
#: roots, not layers, and their self time is what no layer explains.
BENCH_PREFIX = "bench."


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Tracer:
    """Span recorder plus the patch set that feeds it (see module docstring)."""

    def __init__(self) -> None:
        #: ``[id, name, start_ns, end_ns, parent, tag, thread, data]`` lists.
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=0)
        self._tag: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_tag", default=None)
        self._patches: List[Tuple[Any, str, Any]] = []
        self._gc_span: Optional[list] = None

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> Tuple[list, contextvars.Token]:
        record = [next(self._ids), name, time.perf_counter_ns(), 0,
                  self._current.get(), self._tag.get(), threading.get_ident(),
                  None]
        self.spans.append(record)
        return record, self._current.set(record[0])

    def _close(self, record: list, token: contextvars.Token) -> None:
        record[3] = time.perf_counter_ns()
        self._current.reset(token)

    @contextlib.contextmanager
    def span(self, name: str, tag: Any = None) -> Iterator[list]:
        """Open a span around a block (the benchmark's own roots)."""
        tag_token = self._tag.set(tag)
        record, token = self._open(name)
        try:
            yield record
        finally:
            self._close(record, token)
            self._tag.reset(tag_token)

    def wrap(self, func: Callable, name: str,
             observe: Optional[Callable[..., Dict[str, float]]] = None) -> Callable:
        """A wrapper recording one ``name`` span per call of ``func``.

        ``observe(args, before, result)`` -- with ``before`` whatever
        ``observe(args)`` returned ahead of the call -- fills the span's
        ``data``.
        """
        tracer = self
        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                record, token = tracer._open(name)
                try:
                    return await func(*args, **kwargs)
                finally:
                    tracer._close(record, token)
            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            before = observe(args) if observe is not None else None
            record, token = tracer._open(name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer._close(record, token)
                if observe is not None:
                    record[7] = observe(args, before, result)
        return wrapper

    # -- patching -------------------------------------------------------
    def _patch(self, owner: Any, attr: str, make: Callable) -> None:
        raw = owner.__dict__[attr]
        self._patches.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install(self) -> "Tracer":
        """Patch every layer entry point, the solver registry and gc."""
        from repro.engine import registry
        from repro.engine.portfolio import Portfolio
        from repro.engine.store import SolutionStore
        from repro.serve import SweepServer

        for module_name, path, name in LAYER_TARGETS:
            owner, attr = _resolve(module_name, path)
            self._patch(owner, attr, lambda func, name=name: self.wrap(func, name))
        for module_name in ("repro.engine.service", "repro.engine.async_service"):
            self._patch(importlib.import_module(module_name), "build_sweep_plan",
                        lambda func: self.wrap(func, "plan.build", _plan_counts))
        self._patch(SolutionStore, "get_reports_many",
                    lambda func: self.wrap(func, "store.get_reports_many",
                                           _store_counts))
        self._patch(SolutionStore, "put_many",
                    lambda func: self.wrap(func, "store.put_many", _store_counts))
        self._patch(Portfolio, "spec_shard_task", self._timed_shard_task)
        self._patch(SweepServer, "_serve_request", self._tagged_request)
        # Solvers are looked up in the registry at dispatch time, so each
        # registered spec is swapped for one whose ``run`` is wrapped.
        for solver_id, spec in list(registry._REGISTRY.items()):
            self._patches.append((registry._REGISTRY, solver_id, spec))
            registry._REGISTRY[solver_id] = dataclasses.replace(
                spec, run=self.wrap(spec.run, f"core.solve.{solver_id}"))
        gc.callbacks.append(self._gc_callback)
        return self

    def remove(self) -> None:
        """Restore every patched name (in reverse order) and unhook gc."""
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def _tagged_request(self, func: Callable) -> Callable:
        """The served-request root span; tags its subtree with the id.

        ``SweepServer._serve_request`` is the server's per-request dispatch
        point; it has no public counterpart.
        """
        traced = self.wrap(func, "serve.request")

        @functools.wraps(func)
        async def serve_request(server, request, send):
            token = self._tag.set(str(request.get("id")))
            try:
                return await traced(server, request, send)
            finally:
                self._tag.reset(token)
        return serve_request

    def _timed_shard_task(self, func: Callable) -> Callable:
        """Shard execution, with how long each shard waited for a worker."""
        tracer = self

        @functools.wraps(func)
        def spec_shard_task(portfolio, *args, **kwargs):
            task, task_args = func(portfolio, *args, **kwargs)
            submitted = time.perf_counter_ns()

            def run(*call_args):
                record, token = tracer._open("portfolio.shard")
                record[7] = {"wait_ms": (record[2] - submitted) / 1e6}
                try:
                    return task(*call_args)
                finally:
                    tracer._close(record, token)
            return run, task_args
        return spec_shard_task

    def _gc_callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_span = [next(self._ids), "python.gc", time.perf_counter_ns(),
                             0, self._current.get(), self._tag.get(),
                             threading.get_ident(), None]
        elif self._gc_span is not None:
            self._gc_span[3] = time.perf_counter_ns()
            self.spans.append(self._gc_span)
            self._gc_span = None

    # -- output ---------------------------------------------------------
    def records(self) -> List[dict]:
        """The finished spans as dicts (the JSONL record shape)."""
        return [{"span": s[0], "name": s[1], "start_ns": s[2], "end_ns": s[3],
                 "parent": s[4], "tag": s[5], "thread": s[6], "data": s[7]}
                for s in self.spans if s[3]]

    def write_jsonl(self, path: str) -> None:
        """Every finished span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")


def _store_counts(args: tuple, before: Any = None, result: Any = None):
    """Store decode/hit/parse counters, read before and after a call."""
    store = args[0]
    now = (store.payload_decodes, store.hits, store.full_shard_parses)
    if before is None:
        return now
    return {"decodes": now[0] - before[0], "hits": now[1] - before[1],
            "parses": now[2] - before[2]}


def _plan_counts(args: tuple, before: Any = None, result: Any = None):
    """Cells planned and cells the store answered, from the returned plan."""
    if result is None:
        return None
    return {"planned": len(result.cells), "hits": len(result.done)}


def read_jsonl(path: str) -> List[dict]:
    """Inverse of :meth:`Tracer.write_jsonl`."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def within_roots(spans: Iterable[dict]) -> List[dict]:
    """The spans that lie inside one of the benchmark's root spans.

    Roots are the ``bench.*`` spans around each measured unit; work the
    benchmark does between units (clearing caches, collecting garbage,
    checking answers) is dropped, in every thread.
    """
    spans = list(spans)
    windows = sorted((span["start_ns"], span["end_ns"]) for span in spans
                     if span["name"].startswith(BENCH_PREFIX))
    starts = [start for start, _ in windows]
    kept = []
    for span in spans:
        index = bisect.bisect_right(starts, span["start_ns"]) - 1
        if index >= 0 and span["end_ns"] <= windows[index][1]:
            kept.append(span)
    return kept


def self_times(spans: Iterable[dict]) -> Dict[int, float]:
    """``{span id: self time in ms}`` (duration minus direct children)."""
    spans = list(spans)
    child_ns: Dict[int, int] = {}
    for span in spans:
        if span["parent"]:
            child_ns[span["parent"]] = (child_ns.get(span["parent"], 0)
                                        + span["end_ns"] - span["start_ns"])
    return {span["span"]: (span["end_ns"] - span["start_ns"]
                           - child_ns.get(span["span"], 0)) / 1e6
            for span in spans}


def layer_table(spans: Iterable[dict]) -> Dict[str, Dict[str, float]]:
    """``{span name: {"calls", "self_ms", <summed data fields>}}``."""
    spans = list(spans)
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span["name"], {"calls": 0, "self_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += selfs[span["span"]]
        for key, value in (span.get("data") or {}).items():
            row[key] = row.get(key, 0) + value
    return table
