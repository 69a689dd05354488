"""Exact pseudo-polynomial algorithm for series-parallel DAGs (Section 3.4).

A two-terminal series-parallel DAG can be represented by a rooted binary
*decomposition tree* whose leaves are the jobs and whose internal nodes are
series ("s") or parallel ("p") compositions.  With a resource budget ``B``
and reuse over paths, the optimal makespan obeys the recurrence of
Section 3.4:

* leaf ``j``:             ``T(j, λ) = t_j(λ)``
* series node:            ``T(v, λ) = T(v1, λ) + T(v2, λ)``
  (the same λ units flow through both halves -- reuse over the path),
* parallel node:          ``T(v, λ) = min_{0<=i<=λ} max(T(v1, i), T(v2, λ-i))``
  (the λ units split between the two branches).

The dynamic program runs in ``O(m B^2)`` time (``O(m B)`` with the monotone
two-pointer merge implemented here, since every table is non-increasing).

The module provides:

* :class:`SPLeaf` / :class:`SPSeries` / :class:`SPParallel` -- decomposition
  tree nodes, with :meth:`~SPNode.to_dag` building the corresponding
  :class:`~repro.core.dag.TradeoffDAG`;
* :func:`sp_min_makespan_table` -- the DP table ``λ -> optimal makespan``;
* :func:`sp_exact_min_makespan` / :func:`sp_exact_min_resource` -- solution
  objects including the per-job allocation recovered from the DP;
* :func:`decompose_series_parallel` -- recognition of two-terminal
  series-parallel structure by repeated series/parallel reductions of the
  activity-on-arc form (returns ``None`` for non-SP DAGs).
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.dag import TradeoffDAG
from repro.core.duration import ConstantDuration, DurationFunction
from repro.core.problem import TradeoffSolution
from repro.utils.validation import check_non_negative, require

__all__ = [
    "SPNode",
    "SPLeaf",
    "SPSeries",
    "SPParallel",
    "series",
    "parallel",
    "sp_min_makespan_table",
    "sp_exact_min_makespan",
    "sp_exact_min_resource",
    "decompose_series_parallel",
]


# ----------------------------------------------------------------------
# decomposition trees
# ----------------------------------------------------------------------
class SPNode(ABC):
    """A node of a series-parallel decomposition tree."""

    @abstractmethod
    def leaves(self) -> List["SPLeaf"]:
        """All leaves (jobs) below this node, left to right."""

    @abstractmethod
    def size(self) -> int:
        """Number of tree nodes below (and including) this node."""

    def job_names(self) -> List[Hashable]:
        return [leaf.name for leaf in self.leaves()]

    def to_dag(self) -> TradeoffDAG:
        """Build the :class:`TradeoffDAG` realised by this decomposition.

        Series composition concatenates the two sub-DAGs (the sink of the
        first feeds the source of the second); parallel composition runs the
        two sub-DAGs between a shared zero-duration fork and join vertex.
        """
        dag = TradeoffDAG()
        counter = itertools.count()

        def build(node: "SPNode") -> Tuple[Hashable, Hashable]:
            if isinstance(node, SPLeaf):
                dag.add_job(node.name, node.duration)
                return node.name, node.name
            assert isinstance(node, (SPSeries, SPParallel))
            lo1, hi1 = build(node.left)
            lo2, hi2 = build(node.right)
            if isinstance(node, SPSeries):
                dag.add_edge(hi1, lo2)
                return lo1, hi2
            fork = f"__fork_{next(counter)}"
            join = f"__join_{next(counter)}"
            dag.add_job(fork, ConstantDuration(0.0))
            dag.add_job(join, ConstantDuration(0.0))
            dag.add_edge(fork, lo1)
            dag.add_edge(fork, lo2)
            dag.add_edge(hi1, join)
            dag.add_edge(hi2, join)
            return fork, join

        build(self)
        return dag.ensure_single_source_sink()


@dataclass(frozen=True)
class SPLeaf(SPNode):
    """A single job with a duration function."""

    name: Hashable
    duration: DurationFunction

    def leaves(self) -> List["SPLeaf"]:
        return [self]

    def size(self) -> int:
        return 1


@dataclass(frozen=True)
class SPSeries(SPNode):
    """Series composition: ``left`` entirely precedes ``right``."""

    left: SPNode
    right: SPNode

    def leaves(self) -> List[SPLeaf]:
        return self.left.leaves() + self.right.leaves()

    def size(self) -> int:
        return 1 + self.left.size() + self.right.size()


@dataclass(frozen=True)
class SPParallel(SPNode):
    """Parallel composition: ``left`` and ``right`` are independent."""

    left: SPNode
    right: SPNode

    def leaves(self) -> List[SPLeaf]:
        return self.left.leaves() + self.right.leaves()

    def size(self) -> int:
        return 1 + self.left.size() + self.right.size()


def series(*nodes: SPNode) -> SPNode:
    """Left-deep series composition of several nodes."""
    require(len(nodes) >= 1, "series() needs at least one node")
    result = nodes[0]
    for node in nodes[1:]:
        result = SPSeries(result, node)
    return result


def parallel(*nodes: SPNode) -> SPNode:
    """Left-deep parallel composition of several nodes."""
    require(len(nodes) >= 1, "parallel() needs at least one node")
    result = nodes[0]
    for node in nodes[1:]:
        result = SPParallel(result, node)
    return result


# ----------------------------------------------------------------------
# the dynamic program
# ----------------------------------------------------------------------
def _leaf_table_scalar(leaf: SPLeaf, budget: int) -> np.ndarray:
    """Reference scalar kernel: one ``duration()`` call per resource level."""
    return np.array([leaf.duration.duration(r) for r in range(budget + 1)], dtype=float)


def _leaf_table(leaf: SPLeaf, budget: int) -> np.ndarray:
    """``T(leaf, λ)`` for ``λ = 0 .. budget`` in one vectorized evaluation.

    Every duration family exposes its canonical breakpoint list (a
    non-increasing step function), so evaluating the whole λ-range is a
    single ``searchsorted`` of ``0..budget`` into the breakpoint resources:
    ``duration(λ)`` is the time of the last breakpoint at resource ``<= λ``.
    Bit-for-bit identical to :func:`_leaf_table_scalar` (the values are
    picked from the same stored floats).
    """
    tuples = leaf.duration.tuples()
    breakpoints = np.array([r for r, _t in tuples], dtype=float)
    times = np.array([t for _r, t in tuples], dtype=float)
    idx = np.searchsorted(breakpoints, np.arange(budget + 1), side="right") - 1
    return times[idx]


def _parallel_merge_scalar(t1: np.ndarray, t2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reference scalar kernel for the (min, max) merge: one λ per iteration."""
    budget = len(t1) - 1
    merged = np.empty(budget + 1, dtype=float)
    split = np.zeros(budget + 1, dtype=int)
    for lam in range(budget + 1):
        left = t1[: lam + 1]
        right = t2[lam::-1]
        values = np.maximum(left, right)
        idx = int(np.argmin(values))
        merged[lam] = values[idx]
        split[lam] = idx
    return merged, split


#: Rows (λ values) reduced per chunk by the vectorized parallel merge; bounds
#: the transient ``chunk x (budget+1)`` matrix to a few megabytes at the
#: engine's largest DP budget while keeping the reduction fully in numpy.
_MERGE_CHUNK_ROWS = 256


def _parallel_merge(t1: np.ndarray, t2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """min-max merge of two non-increasing tables, vectorized over λ.

    ``merged[λ] = min_i max(t1[i], t2[λ-i])`` is the minimum over the λ-th
    anti-diagonal of the outer-max matrix of the two tables.  Instead of the
    historical per-λ Python loop (O(B²) interpreter iterations), the merge
    views every anti-diagonal as one row of a sliding window over the
    reversed (and +inf-padded) right table and reduces whole chunks of rows
    with a single ``np.maximum`` + ``argmin``.  The +inf padding marks the
    ``i > λ`` cells, which can never win the argmin unless the whole row is
    infinite -- in which case index 0 is returned, exactly like the scalar
    kernel.  Returns the merged table and, for each λ, the amount given to
    the left child by one optimal split (used to recover allocations);
    both match :func:`_parallel_merge_scalar` bit for bit, tie-breaking
    (first minimal index) included.
    """
    budget = len(t1) - 1
    n = budget + 1
    # t2pad[budget - λ + i] == t2[λ - i] for i <= λ, +inf beyond.
    t2pad = np.concatenate([t2[::-1], np.full(budget, np.inf)])
    windows = np.lib.stride_tricks.sliding_window_view(t2pad, n)
    merged = np.empty(n, dtype=float)
    split = np.zeros(n, dtype=int)
    for start in range(0, n, _MERGE_CHUNK_ROWS):
        stop = min(start + _MERGE_CHUNK_ROWS, n)
        # Row λ of the reduction is windows[budget - λ]; slicing the window
        # view keeps everything zero-copy until the chunk's maximum.
        block = np.maximum(t1[np.newaxis, :],
                           windows[budget - stop + 1: budget - start + 1][::-1])
        idx = np.argmin(block, axis=1)
        merged[start:stop] = block[np.arange(stop - start), idx]
        split[start:stop] = idx
    return merged, split


def sp_min_makespan_table(tree: SPNode, budget: int) -> np.ndarray:
    """Return the DP table ``T(root, λ)`` for ``λ = 0 .. budget``.

    The table is non-increasing in λ; ``T(root, budget)`` is the optimal
    makespan of the series-parallel instance with budget ``budget`` and
    resource reuse over paths.
    """
    require(isinstance(budget, int) and budget >= 0, "budget must be a non-negative integer")
    table, _ = _solve_tables(tree, budget)
    return table[id(tree)]


def _solve_tables(tree: SPNode, budget: int) -> Tuple[Dict[int, np.ndarray],
                                                      Dict[int, np.ndarray]]:
    tables: Dict[int, np.ndarray] = {}
    splits: Dict[int, np.ndarray] = {}

    def solve(node: SPNode) -> np.ndarray:
        if id(node) in tables:
            return tables[id(node)]
        if isinstance(node, SPLeaf):
            t = _leaf_table(node, budget)
        elif isinstance(node, SPSeries):
            t = solve(node.left) + solve(node.right)
        else:
            t1, t2 = solve(node.left), solve(node.right)
            t, split = _parallel_merge(t1, t2)
            splits[id(node)] = split
        tables[id(node)] = t
        return t

    solve(tree)
    return tables, splits


def _recover_allocation(tree: SPNode, budget: int,
                        tables: Dict[int, np.ndarray],
                        splits: Dict[int, np.ndarray]) -> Dict[Hashable, int]:
    allocation: Dict[Hashable, int] = {}

    def walk(node: SPNode, lam: int) -> None:
        if isinstance(node, SPLeaf):
            # the job can use every unit flowing through its branch
            allocation[node.name] = lam
            return
        if isinstance(node, SPSeries):
            walk(node.left, lam)
            walk(node.right, lam)
            return
        split = int(splits[id(node)][lam])
        walk(node.left, split)
        walk(node.right, lam - split)

    walk(tree, budget)
    return allocation


def sp_exact_min_makespan(tree: SPNode, budget: int) -> TradeoffSolution:
    """Exact minimum makespan of a series-parallel instance (Section 3.4).

    Returns a :class:`~repro.core.problem.TradeoffSolution` whose
    ``allocation`` maps every job to the resource flowing through its branch
    in one optimal split, and whose ``budget_used`` is the smallest budget
    achieving the same makespan (found by scanning the DP table).
    """
    require(isinstance(budget, int) and budget >= 0, "budget must be a non-negative integer")
    tables, splits = _solve_tables(tree, budget)
    table = tables[id(tree)]
    optimum = float(table[budget])
    # smallest budget achieving the optimum
    needed = int(np.argmax(table <= optimum + 1e-12))
    allocation = _recover_allocation(tree, needed, tables, splits) if needed <= budget else {}
    return TradeoffSolution(
        makespan=optimum,
        budget_used=float(needed),
        allocation={k: float(v) for k, v in allocation.items()},
        algorithm="series-parallel-dp",
        lower_bound=optimum,
        metadata={"budget": budget, "table": table},
    )


def sp_exact_min_resource(tree: SPNode, target_makespan: float,
                          budget_cap: Optional[int] = None) -> TradeoffSolution:
    """Exact minimum-resource solution: the smallest λ with ``T(root, λ) <= target``.

    ``budget_cap`` bounds the search (defaults to the sum of every job's
    largest useful breakpoint, which always suffices when the target is
    achievable at all).
    """
    check_non_negative(target_makespan, "target_makespan")
    if budget_cap is None:
        budget_cap = int(sum(leaf.duration.max_useful_resource() for leaf in tree.leaves()))
    tables, splits = _solve_tables(tree, budget_cap)
    table = tables[id(tree)]
    feasible = np.nonzero(table <= target_makespan + 1e-12)[0]
    if len(feasible) == 0:
        return TradeoffSolution(makespan=math.inf, budget_used=math.inf,
                                algorithm="series-parallel-dp-minresource",
                                metadata={"status": "infeasible", "target": target_makespan})
    needed = int(feasible[0])
    allocation = _recover_allocation(tree, needed, tables, splits)
    return TradeoffSolution(
        makespan=float(table[needed]),
        budget_used=float(needed),
        allocation={k: float(v) for k, v in allocation.items()},
        algorithm="series-parallel-dp-minresource",
        resource_lower_bound=float(needed),
        metadata={"target_makespan": target_makespan, "budget_cap": budget_cap},
    )


# ----------------------------------------------------------------------
# recognition / decomposition
# ----------------------------------------------------------------------
def decompose_series_parallel(dag: TradeoffDAG) -> Optional[SPNode]:
    """Try to recognise ``dag`` as a two-terminal series-parallel DAG.

    The DAG is first converted to its activity-on-arc form (each job becomes
    an arc carrying an :class:`SPLeaf`); then series reductions (internal
    vertex with in-degree 1 and out-degree 1) and parallel reductions (two
    arcs with identical endpoints) are applied until no rule fires.  If a
    single source-to-sink arc remains its accumulated tree is returned,
    otherwise ``None``.

    Zero-duration structural leaves (fork/join vertices and dummy arcs) are
    kept in the tree -- they do not change the DP since their duration is
    identically zero.
    """
    dag = dag.ensure_single_source_sink()
    dag.validate()

    # Build an arc multigraph where every job is an arc tail->head carrying a tree.
    arcs: List[Tuple[Hashable, Hashable, SPNode]] = []
    for job in dag.jobs:
        arcs.append((("in", job), ("out", job), SPLeaf(job, dag.duration_function(job))))
    for (u, v) in dag.edges:
        arcs.append((("out", u), ("in", v),
                     SPLeaf(("dummy", u, v), ConstantDuration(0.0))))
    source, sink = ("in", dag.source), ("out", dag.sink)

    changed = True
    while changed and len(arcs) > 1:
        changed = False
        # parallel reduction
        seen: Dict[Tuple[Hashable, Hashable], int] = {}
        for idx, (u, v, tree) in enumerate(arcs):
            key = (u, v)
            if key in seen:
                j = seen[key]
                arcs[j] = (u, v, SPParallel(arcs[j][2], tree))
                del arcs[idx]
                changed = True
                break
            seen[key] = idx
        if changed:
            continue
        # series reduction.  A candidate has out-degree 1, so it is a key of
        # ``outdeg``; trying them in that dict's (first-appearance) order
        # keeps the tree's shape, and the DP's tie-breaks, off the hash seed.
        indeg: Dict[Hashable, List[int]] = {}
        outdeg: Dict[Hashable, List[int]] = {}
        for idx, (u, v, tree) in enumerate(arcs):
            outdeg.setdefault(u, []).append(idx)
            indeg.setdefault(v, []).append(idx)
        for vertex, outs in outdeg.items():
            if vertex in (source, sink):
                continue
            ins = indeg.get(vertex, [])
            if len(ins) == 1 and len(outs) == 1 and ins[0] != outs[0]:
                i, o = ins[0], outs[0]
                u, _, t1 = arcs[i]
                _, w, t2 = arcs[o]
                merged = (u, w, SPSeries(t1, t2))
                arcs = [a for idx, a in enumerate(arcs) if idx not in (i, o)]
                arcs.append(merged)
                changed = True
                break

    if len(arcs) == 1 and arcs[0][0] == source and arcs[0][1] == sink:
        return arcs[0][2]
    return None
