"""Batched solve kernels: shared LP skeletons across sweep shards.

Scenario sweeps funnel millions of requests through
:class:`~repro.engine.service.SweepService` into shards whose scenarios
overwhelmingly share one DAG and differ only in the budget / makespan
target.  The per-scenario cost of the LP-based solver family used to be
dominated by work that is a function of the DAG alone: rebuilding the
relaxed arcs, index maps and sparse constraint matrices for every scenario.
This module eliminates that work:

* :func:`get_lp_skeleton` -- a process-wide cache of
  :class:`~repro.core.lp.LPModelSkeleton` objects, keyed by arc-DAG content
  fingerprint (:func:`~repro.engine.fingerprint.arcdag_fingerprint`) with
  an object-identity fast path in front (the memoized two-tuple expansion
  hands every scenario of a group the *same* arc-DAG object, so the hot
  path does no hashing at all);
* :data:`CACHED_LP_BACKEND` -- the ``lp_backend`` implementation the engine
  injects into every registered LP pipeline (bi-criteria, k-way, binary),
  so each LP solve is an RHS swap on a prebuilt model;
* :func:`solve_lp_batch` -- the batched entry point
  :func:`~repro.engine.portfolio.Portfolio` shard workers dispatch to:
  group a shard's scenarios by DAG fingerprint inside the worker process,
  run the memoized structure probe once per group, and drive the group's
  scenarios consecutively so the skeleton and transform caches stay hot.

Work elimination is observable on machine-independent counters
(:func:`batch_kernel_info`): a same-DAG budget sweep of N scenarios
performs 1 skeleton build and N solves instead of N of each --
``benchmarks/bench_batched_lp.py`` asserts exactly that.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.arcdag import ArcDAG
from repro.core.lp import LPModelSkeleton, LPSolution, lp_kernel_counters, \
    reset_lp_kernel_counters
from repro.engine.cache import LRUCache
from repro.engine.fingerprint import arcdag_fingerprint
from repro.engine.structure import analyze_dag, structure_cache_info

__all__ = [
    "get_lp_skeleton",
    "CachedLPBackend",
    "CACHED_LP_BACKEND",
    "solve_lp_batch",
    "batch_kernel_info",
    "clear_lp_skeleton_cache",
]

#: Content-addressed skeleton cache: ``arc-DAG fingerprint -> skeleton``.
_SKELETON_CACHE = LRUCache(maxsize=64)

#: Identity fast path: ``id(arc_dag) -> (arc_dag, skeleton, mutation
#: count)``.  Entries hold the arc DAG strongly so a cached id cannot be
#: recycled while the entry lives; the ``is`` + mutation-count checks guard
#: eviction races and in-place edits (arc DAGs from the Section 2 / 3.1
#: transforms are never edited, but a hand-built one could be).
_ID_CACHE = LRUCache(maxsize=128)


def get_lp_skeleton(arc_dag: ArcDAG) -> LPModelSkeleton:
    """The (cached) prebuilt LP model for ``arc_dag``.

    Two tiers: an object-identity fast path (no hashing -- the in-process
    hot path, since the engine's memoized expansion reuses one arc-DAG
    object per structure) and a content-fingerprint LRU behind it (so the
    same workload rebuilt from its generator, or unpickled into a portfolio
    worker, still shares one model).
    """
    mutations = arc_dag.mutations
    hit = _ID_CACHE.get(id(arc_dag))
    if hit is not None and hit[0] is arc_dag and hit[2] == mutations:
        return hit[1]
    key = arcdag_fingerprint(arc_dag)
    skeleton = _SKELETON_CACHE.get(key)
    if skeleton is None:
        skeleton = LPModelSkeleton(arc_dag)
        _SKELETON_CACHE.put(key, skeleton)
    _ID_CACHE.put(id(arc_dag), (arc_dag, skeleton, mutations))
    return skeleton


class CachedLPBackend:
    """``lp_backend`` implementation backed by :func:`get_lp_skeleton`.

    Injected by :mod:`repro.engine.solvers` into every registered LP
    pipeline.  Each solve is one RHS patch and one HiGHS call on the cached
    skeleton (:meth:`~repro.core.lp.LPModelSkeleton.solve_min_makespan` /
    :meth:`~repro.core.lp.LPModelSkeleton.solve_min_resource`), so results
    are bit-for-bit those of the one-shot
    :func:`~repro.core.lp.solve_min_makespan_lp` /
    :func:`~repro.core.lp.solve_min_resource_lp`.
    """

    def solve_min_makespan(self, arc_dag: ArcDAG, budget: float) -> LPSolution:
        return get_lp_skeleton(arc_dag).solve_min_makespan(budget)

    def solve_min_resource(self, arc_dag: ArcDAG, target_makespan: float) -> LPSolution:
        return get_lp_skeleton(arc_dag).solve_min_resource(target_makespan)


#: The shared backend instance the engine passes to LP-based solvers.
CACHED_LP_BACKEND = CachedLPBackend()


def solve_lp_batch(problems: Sequence[Any], method: str = "auto",
                   limits: Optional[Any] = None,
                   options: Optional[Dict[str, Any]] = None,
                   validate: bool = True) -> List[Tuple[Optional[Any], Optional[str]]]:
    """Solve a shard of scenarios through the engine, batched by DAG.

    The shard's scenarios are grouped by DAG content fingerprint inside the
    calling (worker) process; each group pays for normalization, the
    structure probe and -- via :data:`CACHED_LP_BACKEND` -- the LP skeleton
    *once*, and its scenarios are solved consecutively so every per-DAG
    cache stays hot.  Returns one ``(report, error_text)`` pair per
    scenario, in input order: per-scenario failures are captured as text
    instead of aborting the shard (the
    :meth:`~repro.engine.portfolio.Portfolio.map` shard contract).

    Results are identical to calling :func:`repro.engine.core.solve` per
    scenario -- including the :class:`~repro.engine.core.SolveReport`
    certificates and cache interplay -- because each scenario still goes
    through ``solve()``; only the redundant per-scenario work is gone.
    """
    from repro.engine.core import SolveLimits, normalize_problem, solve

    limits = limits if limits is not None else SolveLimits()
    options = dict(options or {})

    # Normalization failures are per-scenario errors (identical to what a
    # direct solve() would raise), never a shard abort.
    normalized: List[Optional[Any]] = []
    results: List[Tuple[Optional[Any], Optional[str]]] = []
    for problem in problems:
        try:
            normalized.append(normalize_problem(problem))
            results.append((None, None))
        except Exception as exc:  # noqa: BLE001 - reported per scenario
            normalized.append(None)
            results.append((None, f"{type(exc).__name__}: {exc}"))

    # Group scenario indices by DAG: first by object identity (free), then
    # by the content fingerprint the structure probe computes, so pickled
    # shard copies of one workload land in one group.  A DAG whose probe
    # fails (e.g. a cycle) falls back to ungrouped solving, where solve()
    # reports the same failure per scenario instead of losing the shard.
    by_object: Dict[int, List[int]] = {}
    for index, problem in enumerate(normalized):
        if problem is not None:
            by_object.setdefault(id(problem.dag), []).append(index)
    groups: Dict[str, List[int]] = {}
    ungrouped: List[int] = []
    for indices in by_object.values():
        try:
            structure = analyze_dag(normalized[indices[0]].dag)
        except Exception:  # noqa: BLE001 - solve() re-raises it per scenario
            ungrouped.extend(indices)
            continue
        groups.setdefault(structure.fingerprint, []).extend(indices)

    for indices in list(groups.values()) + [ungrouped]:
        for index in sorted(indices):
            try:
                results[index] = (solve(normalized[index], method=method,
                                        limits=limits, validate=validate,
                                        **options), None)
            except Exception as exc:  # noqa: BLE001 - reported per scenario
                results[index] = (None, f"{type(exc).__name__}: {exc}")
    return results


def clear_lp_skeleton_cache() -> None:
    """Drop every cached LP skeleton and zero the LP kernel counters."""
    _SKELETON_CACHE.clear()
    _ID_CACHE.clear()
    reset_lp_kernel_counters()


def batch_kernel_info() -> Dict[str, Any]:
    """Machine-independent work counters of the batched kernel layer.

    Keys: ``skeletons`` (content-cache size + hit/miss counts),
    ``skeleton_identity`` (identity fast-path counts), ``lp`` (skeleton
    builds vs. HiGHS solves, :func:`~repro.core.lp.lp_kernel_counters`) and
    ``structure`` (probe cache + identity fast-path counts).  Benchmarks
    gate on these instead of wall-clock times.
    """
    return {
        "skeletons": _SKELETON_CACHE.info(),
        "skeleton_identity": _ID_CACHE.info(),
        "lp": lp_kernel_counters(),
        "structure": structure_cache_info(),
    }
