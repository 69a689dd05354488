"""Activity-on-node tradeoff DAGs (Section 2, "Preliminaries").

The optimisation problems of the paper are posed on a DAG ``D = (V, E)``
whose vertices are jobs carrying non-increasing duration functions and whose
edges are precedence constraints.  Resources are routed along source-to-sink
paths; the resource available to a job equals the amount of flow passing
through its vertex, and every unit of flow can be reused by every job on its
path (Question 1.3).

:class:`TradeoffDAG` is the user-facing representation.  The approximation
algorithms of Section 3 first convert it to an activity-on-arc DAG
(:mod:`repro.core.arcdag`), but exact solvers, baselines and the data-race
substrate work directly on this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from repro.core.duration import ConstantDuration, DurationFunction
from repro.utils.ordering import topological_order
from repro.utils.validation import ValidationError, check_non_negative, require

__all__ = ["TradeoffDAG", "MakespanResult"]

Node = Hashable


@dataclass(frozen=True)
class MakespanResult:
    """Makespan of a DAG under a particular per-job resource assignment.

    Attributes
    ----------
    makespan:
        Length of the longest source-to-sink path, where each job
        contributes ``t_v(r_v)``.
    critical_path:
        One maximising path (list of job names from source to sink).
    completion_times:
        ``job -> earliest completion time`` under the unbounded-processor
        model of Observation 1.1.
    """

    makespan: float
    critical_path: Tuple[Node, ...]
    completion_times: Mapping[Node, float] = field(default_factory=dict)


class TradeoffDAG:
    """A DAG of jobs with per-job duration functions.

    Jobs are added with :meth:`add_job`, precedence constraints with
    :meth:`add_edge`.  The paper assumes (w.l.o.g.) a unique source and a
    unique sink; :meth:`ensure_single_source_sink` adds zero-duration virtual
    terminals when the modelled workload has several.

    Examples
    --------
    Build the six-node running example of Figure 4 (work = in-degree) and
    compute its makespan with no extra resources::

        dag = TradeoffDAG()
        ...
        dag.makespan({}).makespan
    """

    #: Names used for automatically inserted virtual terminals.
    VIRTUAL_SOURCE = "__source__"
    VIRTUAL_SINK = "__sink__"

    def __init__(self) -> None:
        self._durations: Dict[Node, DurationFunction] = {}
        self._succ: Dict[Node, List[Node]] = {}
        self._pred: Dict[Node, List[Node]] = {}
        self._mutations = 0
        self._validated_at = -1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_job(self, name: Node, duration: Optional[DurationFunction] = None) -> Node:
        """Add a job named ``name`` with the given duration function.

        ``duration`` defaults to ``ConstantDuration(0)`` which is the right
        choice for structural vertices (sources, sinks, join points).
        Re-adding an existing job replaces its duration function.
        """
        if duration is None:
            duration = ConstantDuration(0.0)
        require(isinstance(duration, DurationFunction),
                f"duration for job {name!r} must be a DurationFunction")
        self._durations[name] = duration
        self._succ.setdefault(name, [])
        self._pred.setdefault(name, [])
        self._mutations += 1
        return name

    def add_edge(self, u: Node, v: Node) -> None:
        """Add the precedence constraint ``u -> v`` (u must finish before v starts)."""
        require(u in self._durations, f"unknown job {u!r}; add_job it first")
        require(v in self._durations, f"unknown job {v!r}; add_job it first")
        require(u != v, "self-loops are not allowed in a DAG")
        if v not in self._succ[u]:
            self._succ[u].append(v)
            self._pred[v].append(u)
            self._mutations += 1

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the precedence constraint ``u -> v`` if present."""
        if u in self._succ and v in self._succ[u]:
            self._succ[u].remove(v)
            self._pred[v].remove(u)
            self._mutations += 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def mutations(self) -> int:
        """How many changes :meth:`add_job`, :meth:`add_edge` and
        :meth:`remove_edge` have made; caches keyed on this object compare it."""
        return self._mutations

    @property
    def jobs(self) -> List[Node]:
        """All job names, in insertion order."""
        return list(self._durations)

    @property
    def num_jobs(self) -> int:
        return len(self._durations)

    @property
    def num_edges(self) -> int:
        return sum(len(vs) for vs in self._succ.values())

    @property
    def edges(self) -> List[Tuple[Node, Node]]:
        return [(u, v) for u, vs in self._succ.items() for v in vs]

    def duration_function(self, job: Node) -> DurationFunction:
        """Return the duration function attached to ``job``."""
        return self._durations[job]

    def successors(self, job: Node) -> List[Node]:
        return list(self._succ[job])

    def predecessors(self, job: Node) -> List[Node]:
        return list(self._pred[job])

    def in_degree(self, job: Node) -> int:
        return len(self._pred[job])

    def out_degree(self, job: Node) -> int:
        return len(self._succ[job])

    def sources(self) -> List[Node]:
        """Jobs with in-degree 0."""
        return [n for n in self._durations if not self._pred[n]]

    def sinks(self) -> List[Node]:
        """Jobs with out-degree 0."""
        return [n for n in self._durations if not self._succ[n]]

    @property
    def source(self) -> Node:
        """The unique source; raises if there is not exactly one."""
        srcs = self.sources()
        require(len(srcs) == 1, f"expected a unique source, found {len(srcs)}")
        return srcs[0]

    @property
    def sink(self) -> Node:
        """The unique sink; raises if there is not exactly one."""
        snks = self.sinks()
        require(len(snks) == 1, f"expected a unique sink, found {len(snks)}")
        return snks[0]

    def topological_order(self) -> List[Node]:
        """A topological order of the jobs (raises on cycles)."""
        return topological_order(self.jobs, self.edges)

    def validate(self) -> None:
        """Check acyclicity, duration-function validity and terminal uniqueness.

        Returns at once when the DAG has not changed since its checks last
        passed (duration functions are immutable, see :meth:`copy`).
        """
        if self._validated_at == self._mutations:
            return
        self.topological_order()
        for job, fn in self._durations.items():
            try:
                fn.validate()
            except ValidationError as exc:
                raise ValidationError(f"job {job!r}: {exc}") from exc
        require(len(self.sources()) >= 1, "DAG has no source")
        require(len(self.sinks()) >= 1, "DAG has no sink")
        self._validated_at = self._mutations

    def ensure_single_source_sink(self) -> "TradeoffDAG":
        """Return a DAG with unique source/sink, adding virtual terminals if needed.

        The returned object is ``self`` when the terminals are already
        unique; otherwise it is a shallow copy with zero-duration jobs
        :data:`VIRTUAL_SOURCE` / :data:`VIRTUAL_SINK` connected to every
        original source / sink.
        """
        srcs, snks = self.sources(), self.sinks()
        if len(srcs) == 1 and len(snks) == 1:
            return self
        dag = self.copy()
        if len(srcs) > 1:
            dag.add_job(self.VIRTUAL_SOURCE, ConstantDuration(0.0))
            for s in srcs:
                dag.add_edge(self.VIRTUAL_SOURCE, s)
        if len(snks) > 1:
            dag.add_job(self.VIRTUAL_SINK, ConstantDuration(0.0))
            for t in snks:
                dag.add_edge(t, self.VIRTUAL_SINK)
        return dag

    def copy(self) -> "TradeoffDAG":
        """Return a structural copy sharing the (immutable) duration functions."""
        dag = TradeoffDAG()
        for job, fn in self._durations.items():
            dag.add_job(job, fn)
        for u, v in self.edges:
            dag.add_edge(u, v)
        return dag

    # ------------------------------------------------------------------
    # makespan evaluation
    # ------------------------------------------------------------------
    def makespan(self, resources: Optional[Mapping[Node, float]] = None) -> MakespanResult:
        """Makespan under a per-job resource assignment.

        Parameters
        ----------
        resources:
            ``job -> units of resource available to that job``.  Jobs absent
            from the mapping receive 0 units.  This is the *allocation view*
            of a solution; consistency of the allocation with a source-to-
            sink resource flow is checked elsewhere
            (:func:`repro.core.flow.node_allocation_is_routable`).

        Returns
        -------
        MakespanResult
        """
        resources = dict(resources or {})
        for job, r in resources.items():
            require(job in self._durations, f"resource assigned to unknown job {job!r}")
            check_non_negative(r, f"resource for job {job!r}")

        def node_weight(v: Node) -> float:
            return self._durations[v].duration(resources.get(v, 0.0))

        order = self.topological_order()
        completion: Dict[Node, float] = {}
        best_pred: Dict[Node, Optional[Node]] = {}
        for v in order:
            if self._pred[v]:
                chosen: Optional[Node] = max(self._pred[v], key=lambda u: completion[u])
                start = completion[chosen]
            else:
                chosen = None
                start = 0.0
            completion[v] = start + node_weight(v)
            best_pred[v] = chosen
        if not completion:
            return MakespanResult(0.0, (), {})
        # Tie-break towards the latest node in topological order so the
        # reported critical path ends at the sink when several nodes share the
        # maximum completion time (e.g. zero-duration join vertices).
        end_node = max(reversed(order), key=lambda n: completion[n])
        path: List[Node] = [end_node]
        while best_pred[path[-1]] is not None:
            path.append(best_pred[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        return MakespanResult(completion[end_node], tuple(path), completion)

    def makespan_value(self, resources: Optional[Mapping[Node, float]] = None) -> float:
        """Shorthand for ``self.makespan(resources).makespan``."""
        return self.makespan(resources).makespan

    def critical_path_no_resources(self) -> Tuple[Node, ...]:
        """The critical path when no extra resource is used anywhere."""
        return self.makespan({}).critical_path

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` with ``duration`` node attributes."""
        import networkx as nx

        g = nx.DiGraph()
        for job, fn in self._durations.items():
            g.add_node(job, duration=fn)
        g.add_edges_from(self.edges)
        return g

    @classmethod
    def from_networkx(cls, graph) -> "TradeoffDAG":
        """Build from a :class:`networkx.DiGraph` whose nodes carry ``duration`` attributes."""
        dag = cls()
        for node, data in graph.nodes(data=True):
            dag.add_job(node, data.get("duration"))
        for u, v in graph.edges():
            dag.add_edge(u, v)
        return dag

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TradeoffDAG(jobs={self.num_jobs}, edges={self.num_edges})"
