"""Activity-on-arc DAGs and the transformations of Sections 2 and 3.1.

The LP-based approximation algorithms operate on DAGs whose *arcs* carry the
jobs (and duration functions) while vertices represent events.  Two
transformations take the user-facing activity-on-node DAG there:

1. ``node_to_arc_dag`` (Section 2, last paragraph): every job ``v`` becomes
   an arc ``(a_v, b_v)`` carrying its duration function, and every precedence
   edge ``(u, v)`` becomes a zero-duration dummy arc ``(b_u, a_v)``.
2. ``expand_to_two_tuples`` (Section 3.1, Figure 6): every job arc with
   ``l >= 2`` resource-time tuples is replaced by ``l`` parallel two-arc
   chains, each carrying at most two tuples, such that resource allocations
   map canonically back and forth (Lemma 3.1).

Both directions of the canonical mapping are provided so that the integral
flow produced by the rounding + min-flow pipeline can be reported as a
per-job resource allocation on the original DAG.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from repro.core.dag import TradeoffDAG
from repro.core.duration import ZERO_DURATION, DurationFunction, GeneralStepDuration
from repro.utils.ordering import topological_order
from repro.utils.validation import ValidationError, require

__all__ = [
    "Arc",
    "ArcDAG",
    "NodeToArcMapping",
    "node_to_arc_dag",
    "ChainPiece",
    "TwoTupleExpansion",
    "expand_to_two_tuples",
    "section33_binary_tuples",
]

Vertex = Hashable


@dataclass(frozen=True)
class Arc:
    """A single activity (or dummy precedence) on an arc.

    Attributes
    ----------
    arc_id:
        Unique identifier within the owning :class:`ArcDAG`.
    tail, head:
        The event vertices the arc connects (``tail -> head``).
    duration:
        The arc's duration function; dummy arcs share ``ZERO_DURATION``.
    is_dummy:
        ``True`` for pure-precedence arcs introduced by the transformations.
    label:
        Free-form provenance label (e.g. the originating job name).
    """

    arc_id: str
    tail: Vertex
    head: Vertex
    duration: DurationFunction
    is_dummy: bool = False
    label: Optional[Hashable] = None

    @property
    def is_two_tuple(self) -> bool:
        """Whether the arc carries exactly two resource-time tuples."""
        return self.duration.num_tuples() == 2

    @property
    def base_time(self) -> float:
        """Duration with no resource, ``t(0)``."""
        return self.duration.base_duration

    @property
    def full_resource(self) -> float:
        """Resource level of the last breakpoint (``r_e`` for two-tuple arcs)."""
        return self.duration.max_useful_resource()


class ArcDAG:
    """DAG with activities on arcs and a unique source / sink vertex."""

    def __init__(self, source: Vertex = "s", sink: Vertex = "t") -> None:
        self.source: Vertex = source
        self.sink: Vertex = sink
        self._vertices: Dict[Vertex, None] = {source: None, sink: None}
        self._arcs: Dict[str, Arc] = {}
        self._out: Dict[Vertex, List[str]] = {source: [], sink: []}
        self._in: Dict[Vertex, List[str]] = {source: [], sink: []}
        self._counter = itertools.count()
        self._mutations = 0
        self._validated_at = -1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> Vertex:
        """Add an event vertex (idempotent)."""
        if v not in self._vertices:
            self._vertices[v] = None
            self._out[v] = []
            self._in[v] = []
            self._mutations += 1
        return v

    def add_arc(
        self,
        tail: Vertex,
        head: Vertex,
        duration: Optional[DurationFunction] = None,
        *,
        is_dummy: bool = False,
        label: Optional[Hashable] = None,
        arc_id: Optional[str] = None,
    ) -> Arc:
        """Add an arc ``tail -> head`` carrying ``duration``.

        ``duration`` defaults to the shared ``ZERO_DURATION``; pass
        ``is_dummy=True`` for arcs that exist purely to encode precedence.
        """
        require(tail != head, "self-loop arcs are not allowed")
        self.add_vertex(tail)
        self.add_vertex(head)
        if duration is None:
            duration = ZERO_DURATION
        if arc_id is None:
            arc_id = f"a{next(self._counter)}"
        if arc_id in self._arcs:
            raise ValidationError(f"duplicate arc id {arc_id!r}")
        arc = Arc(arc_id, tail, head, duration, is_dummy, label)
        self._arcs[arc_id] = arc
        self._out[tail].append(arc_id)
        self._in[head].append(arc_id)
        self._mutations += 1
        return arc

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def mutations(self) -> int:
        """How many changes :meth:`add_vertex` and :meth:`add_arc` have made;
        caches keyed on this object compare it."""
        return self._mutations

    @property
    def vertices(self) -> List[Vertex]:
        return list(self._vertices)

    @property
    def arcs(self) -> List[Arc]:
        return list(self._arcs.values())

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_arcs(self) -> int:
        return len(self._arcs)

    def arc(self, arc_id: str) -> Arc:
        return self._arcs[arc_id]

    def out_arcs(self, v: Vertex) -> List[Arc]:
        return [self._arcs[a] for a in self._out.get(v, [])]

    def in_arcs(self, v: Vertex) -> List[Arc]:
        return [self._arcs[a] for a in self._in.get(v, [])]

    def job_arcs(self) -> List[Arc]:
        """All non-dummy arcs (the actual activities)."""
        return [a for a in self._arcs.values() if not a.is_dummy]

    def two_tuple_arcs(self) -> List[Arc]:
        """Non-dummy arcs with exactly two resource-time tuples."""
        return [a for a in self.job_arcs() if a.is_two_tuple]

    def vertex_edges(self) -> List[Tuple[Vertex, Vertex]]:
        """The underlying vertex adjacency (one entry per arc)."""
        return [(a.tail, a.head) for a in self._arcs.values()]

    def topological_vertices(self) -> List[Vertex]:
        """Topological order of the event vertices (raises on cycles)."""
        return topological_order(self.vertices, self.vertex_edges())

    def validate(self) -> None:
        """Check acyclicity, terminal degrees and duration-function validity.

        Returns at once when the DAG has not changed since its checks last
        passed.
        """
        if self._validated_at == self._mutations:
            return
        self.topological_vertices()
        require(not self._in[self.source], "source vertex must have no incoming arcs")
        require(not self._out[self.sink], "sink vertex must have no outgoing arcs")
        for arc in self._arcs.values():
            arc.duration.validate()
        for v in self._vertices:
            if v in (self.source, self.sink):
                continue
            require(self._in[v], f"internal vertex {v!r} has no incoming arc")
            require(self._out[v], f"internal vertex {v!r} has no outgoing arc")
        self._validated_at = self._mutations

    def total_finite_base_time(self) -> float:
        """Sum of the finite ``t(0)`` values over all arcs.

        Used to pick the "big M" substitute for infinite durations inside
        the LP relaxation.
        """
        total = 0.0
        for arc in self._arcs.values():
            if not math.isinf(arc.base_time):
                total += arc.base_time
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArcDAG(vertices={self.num_vertices}, arcs={self.num_arcs})"


# ----------------------------------------------------------------------
# Transformation 1: activity on node -> activity on arc (Section 2)
# ----------------------------------------------------------------------
@dataclass
class NodeToArcMapping:
    """Bookkeeping for :func:`node_to_arc_dag`.

    Attributes
    ----------
    job_arc:
        ``job name -> arc id`` of the arc carrying that job's duration.
    dummy_arcs:
        arc ids of the pure-precedence arcs added for the original edges.
    """

    job_arc: Dict[Hashable, str] = field(default_factory=dict)
    dummy_arcs: List[str] = field(default_factory=list)

    def job_of_arc(self, arc_id: str) -> Optional[Hashable]:
        for job, aid in self.job_arc.items():
            if aid == arc_id:
                return job
        return None


def node_to_arc_dag(dag: TradeoffDAG) -> Tuple[ArcDAG, NodeToArcMapping]:
    """Transform an activity-on-node DAG into an activity-on-arc DAG.

    Every job ``v`` becomes the arc ``("in", v) -> ("out", v)`` carrying
    ``v``'s duration function; every precedence edge ``(u, v)`` becomes the
    dummy arc ``("out", u) -> ("in", v)``.  The arc DAG's source / sink are
    the "in" vertex of the unique source job and the "out" vertex of the
    unique sink job.
    """
    dag = dag.ensure_single_source_sink()
    dag.validate()
    src_job, sink_job = dag.source, dag.sink
    arc_dag = ArcDAG(source=("in", src_job), sink=("out", sink_job))
    mapping = NodeToArcMapping()
    for job in dag.jobs:
        arc = arc_dag.add_arc(
            ("in", job), ("out", job), dag.duration_function(job), label=job,
            arc_id=f"job::{job!r}",
        )
        mapping.job_arc[job] = arc.arc_id
    for u, v in dag.edges:
        arc = arc_dag.add_arc(
            ("out", u), ("in", v), ZERO_DURATION, is_dummy=True,
            label=(u, v), arc_id=f"prec::{u!r}->{v!r}",
        )
        mapping.dummy_arcs.append(arc.arc_id)
    arc_dag.validate()
    return arc_dag, mapping


# ----------------------------------------------------------------------
# Transformation 2: at most two tuples per arc (Section 3.1, Figure 6)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChainPiece:
    """One of the ``l_j`` parallel chains created for a multi-tuple job arc.

    Attributes
    ----------
    job_arc_id:
        Arc id of the chain's *job* arc ``(u, u_i)`` in the expanded DAG.
    tail_dummy_id:
        Arc id of the chain's zero-duration arc ``(u_i, v)``.
    time_without:
        ``t_j(r_{j,i})`` -- the duration of this chain piece if it receives
        no resource.
    resource_gap:
        ``r_{j,i+1} - r_{j,i}`` -- the resource that buys this piece down to
        duration 0; ``None`` for the last chain (which has a single tuple and
        cannot be improved).
    tuple_index:
        Index ``i`` (0-based) into the original arc's tuple list.
    """

    job_arc_id: str
    tail_dummy_id: str
    time_without: float
    resource_gap: Optional[float]
    tuple_index: int


@dataclass
class TwoTupleExpansion:
    """Result of :func:`expand_to_two_tuples` with the canonical mapping back.

    Attributes
    ----------
    arc_dag:
        The expanded DAG ``D''`` in which every non-dummy arc has at most
        two resource-time tuples.
    chains:
        ``original arc id -> list of ChainPiece`` for arcs that were
        expanded.  Arcs with a single tuple (and dummy arcs) are carried
        over unchanged and identified by :attr:`passthrough`.
    passthrough:
        ``original arc id -> arc id in the expanded DAG`` for unexpanded arcs.
    """

    arc_dag: ArcDAG
    chains: Dict[str, List[ChainPiece]] = field(default_factory=dict)
    passthrough: Dict[str, str] = field(default_factory=dict)

    # -- canonical mapping back (Lemma 3.1) -----------------------------
    def original_resource(self, original_arc_id: str, flow: Mapping[str, float]) -> float:
        """Total resource attributed to the original arc under ``flow``.

        The canonical mapping sums, over the parallel chains, the amount of
        resource *usefully* consumed by each chain (capped at the chain's
        resource gap); flow merely passing through contributes nothing.
        """
        if original_arc_id in self.passthrough:
            return 0.0
        total = 0.0
        for piece in self.chains[original_arc_id]:
            f = flow.get(piece.job_arc_id, 0.0)
            if piece.resource_gap is None:
                continue
            total += min(f, piece.resource_gap)
        return total

    def original_duration(self, original_arc_id: str, flow: Mapping[str, float]) -> float:
        """Duration of the original job given the chain flows (max over chains)."""
        dag = self.arc_dag
        if original_arc_id in self.passthrough:
            arc = dag.arc(self.passthrough[original_arc_id])
            return arc.duration.duration(flow.get(arc.arc_id, 0.0))
        worst = 0.0
        for piece in self.chains[original_arc_id]:
            arc = dag.arc(piece.job_arc_id)
            worst = max(worst, arc.duration.duration(flow.get(piece.job_arc_id, 0.0)))
        return worst

    def all_original_arc_ids(self) -> List[str]:
        return list(self.chains) + list(self.passthrough)


def _two_tuple_fn(time_without: float, resource_gap: Optional[float]) -> DurationFunction:
    if resource_gap is None or time_without == 0:
        return GeneralStepDuration([(0.0, time_without)])
    return GeneralStepDuration([(0.0, time_without), (resource_gap, 0.0)])


def expand_to_two_tuples(arc_dag: ArcDAG) -> TwoTupleExpansion:
    """Expand every multi-tuple job arc into parallel two-tuple chains.

    This is the Figure 6 transformation: a job ``j`` on arc ``(u, v)`` with
    tuples ``<r_1, t_1>, ..., <r_l, t_l>`` (``r_1 = 0``) becomes ``l``
    parallel chains ``u -> u_i -> v``; chain ``i < l`` can be finished in
    ``t_i`` time with no resource or in 0 time with ``r_{i+1} - r_i``
    resource, and chain ``l`` always takes ``t_l``.  Completing job ``j`` in
    time ``t_i`` therefore costs exactly ``r_i`` resource in total across the
    chains, preserving optimal values (Lemma 3.1).
    """
    out = ArcDAG(source=arc_dag.source, sink=arc_dag.sink)
    for v in arc_dag.vertices:
        out.add_vertex(v)
    expansion = TwoTupleExpansion(arc_dag=out)
    for arc in arc_dag.arcs:
        tuples = arc.duration.tuples()
        if arc.is_dummy or len(tuples) < 2:
            # Dummy precedence arcs and constant-duration jobs are carried over
            # unchanged.  Improvable jobs (two or more tuples) are always
            # expanded, so that the final single-tuple chain provides the
            # uncapacitated parallel route the LP needs for resources that are
            # merely passing through on their way to later jobs (Section 3.1).
            new = out.add_arc(arc.tail, arc.head, arc.duration,
                              is_dummy=arc.is_dummy, label=arc.label,
                              arc_id=f"{arc.arc_id}::keep")
            expansion.passthrough[arc.arc_id] = new.arc_id
            continue
        pieces: List[ChainPiece] = []
        for i, (r_i, t_i) in enumerate(tuples):
            mid = ("chain", arc.arc_id, i)
            out.add_vertex(mid)
            if i + 1 < len(tuples):
                gap: Optional[float] = tuples[i + 1][0] - r_i
            else:
                gap = None
            job_arc = out.add_arc(
                arc.tail, mid, _two_tuple_fn(t_i, gap),
                label=(arc.label, "chain", i), arc_id=f"{arc.arc_id}::chain{i}",
            )
            dummy = out.add_arc(
                mid, arc.head, ZERO_DURATION, is_dummy=True,
                label=(arc.label, "chain-out", i), arc_id=f"{arc.arc_id}::chainout{i}",
            )
            pieces.append(ChainPiece(job_arc.arc_id, dummy.arc_id, t_i, gap, i))
        expansion.chains[arc.arc_id] = pieces
    out.validate()
    return expansion


def section33_binary_tuples(base_work: int) -> List[Tuple[float, float]]:
    """The Section 3.3 tuple list for a recursive-binary job of work ``x``.

    Section 3.3 analyses the expansion of Figure 7, whose tuple list keeps a
    (non-improving) breakpoint at resource 1:
    ``{<0, x>, <1, x>, <2, t_1>, ..., <2^k, t_k>}`` with
    ``t_j = ceil(x / 2^j) + j + 1``.  This helper returns that exact list
    (used by the improved rounding analysis and its tests); the canonical
    :class:`~repro.core.duration.RecursiveBinarySplitDuration` drops the
    redundant ``<1, x>`` entry.
    """
    from repro.core.duration import recursive_binary_height_bound

    x = base_work
    k = recursive_binary_height_bound(x)
    tuples: List[Tuple[float, float]] = [(0.0, float(x)), (1.0, float(x))]
    for j in range(1, k + 1):
        tuples.append((float(2 ** j), float(math.ceil(x / 2 ** j) + j + 1)))
    return tuples
