"""A self-contained Dinic maximum-flow implementation.

The rounding step of the bi-criteria algorithm (Section 3.1) finishes with a
*minimum flow with lower bounds* computation, which we reduce to two maximum
flow computations (:mod:`repro.core.minflow`).  This module provides the
underlying max-flow solver: Dinic's blocking-flow algorithm on an adjacency
list with explicit reverse arcs, which is exact for integer capacities and
well-behaved for the float capacities produced by the LP pipeline.

The implementation is deliberately dependency-free (no ``networkx``) so that
it can be unit- and property-tested in isolation and reused by the hardness
verifiers.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Sequence

__all__ = ["DinicMaxFlow", "INFINITY"]

#: Capacity value treated as "unbounded".
INFINITY = float("inf")


class _Edge:
    __slots__ = ("to", "cap", "rev", "is_reverse")

    def __init__(self, to: int, cap: float, rev: int, is_reverse: bool):
        self.to = to
        self.cap = cap
        self.rev = rev
        self.is_reverse = is_reverse


class DinicMaxFlow:
    """Dinic's algorithm over an explicitly-built residual network.

    Vertices may be arbitrary hashable objects; they are interned to integer
    indices on first use.  Edges are added with :meth:`add_edge`, which
    returns a handle that can later be queried for the flow pushed through
    that edge (:meth:`flow_on`) or for its remaining residual capacity
    (:meth:`residual_capacity`).

    The residual network persists across calls to :meth:`max_flow`, which is
    exactly what the min-flow-with-lower-bounds reduction requires (it runs
    a second max-flow on the residual graph left by the first); :meth:`reset`
    empties it again for another solve on the same layout.
    """

    def __init__(self) -> None:
        self._index: Dict[Hashable, int] = {}
        self._names: List[Hashable] = []
        self._graph: List[List[_Edge]] = []
        # per handle: the forward edge, its reverse edge and its capacity
        self._forward: List[_Edge] = []
        self._backward: List[_Edge] = []
        self._capacity: List[float] = []

    # ------------------------------------------------------------------
    # graph construction
    # ------------------------------------------------------------------
    def vertex(self, name: Hashable) -> int:
        """Intern ``name`` and return its integer index."""
        if name not in self._index:
            self._index[name] = len(self._names)
            self._names.append(name)
            self._graph.append([])
        return self._index[name]

    @property
    def num_vertices(self) -> int:
        return len(self._names)

    def add_edge(self, u: Hashable, v: Hashable, capacity: float) -> int:
        """Add a directed edge ``u -> v`` with the given capacity.

        Returns a handle usable with :meth:`flow_on` / :meth:`residual_capacity`
        / :meth:`set_capacity`.
        """
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        ui, vi = self.vertex(u), self.vertex(v)
        fwd = _Edge(vi, capacity, len(self._graph[vi]), False)
        bwd = _Edge(ui, 0.0, len(self._graph[ui]), True)
        self._graph[ui].append(fwd)
        self._graph[vi].append(bwd)
        self._forward.append(fwd)
        self._backward.append(bwd)
        self._capacity.append(capacity)
        return len(self._capacity) - 1

    def reset(self, capacities: Sequence[float]) -> None:
        """Empty every edge and give it a new capacity, one per handle in order.

        The vertices, the edges and their order in the adjacency lists stay
        as they were, so a network laid out once can be solved again and
        again; an edge of capacity 0 is never traversed.
        """
        if len(capacities) != len(self._capacity):
            raise ValueError(f"expected {len(self._capacity)} capacities, got {len(capacities)}")
        if capacities and min(capacities) < 0:
            raise ValueError(f"capacity must be non-negative, got {min(capacities)}")
        for fwd, bwd, capacity in zip(self._forward, self._backward, capacities):
            fwd.cap = capacity
            bwd.cap = 0.0
        self._capacity[:] = capacities

    def flow_on(self, handle: int) -> float:
        """Flow currently pushed through the edge identified by ``handle``."""
        cap = self._capacity[handle]
        if math.isinf(cap):
            # flow equals the reverse edge's residual capacity
            return self._backward[handle].cap
        return cap - self._forward[handle].cap

    def residual_capacity(self, handle: int) -> float:
        """Remaining forward residual capacity of the edge."""
        return self._forward[handle].cap

    def set_capacity(self, handle: int, capacity: float) -> None:
        """Reset the *residual* forward capacity of an edge (used to disable arcs)."""
        self._forward[handle].cap = capacity

    def disable_edge(self, handle: int) -> None:
        """Remove an edge from further consideration (zero both residual directions)."""
        self._forward[handle].cap = 0.0
        self._backward[handle].cap = 0.0

    # ------------------------------------------------------------------
    # Dinic
    # ------------------------------------------------------------------
    def _bfs_levels(self, s: int, t: int) -> Optional[List[int]]:
        """BFS distances from ``s`` over residual edges, or ``None`` if ``t`` is cut off.

        The search stops as soon as ``t`` is labelled: every vertex closer
        to ``s`` than ``t`` is labelled by then, and the vertices it leaves
        unlabelled could only be dead ends of the blocking-flow search.
        """
        level = [-1] * self.num_vertices
        level[s] = 0
        queue = [s]
        graph = self._graph
        for u in queue:  # first in, first out: the loop reaches what it appends
            deeper = level[u] + 1
            for edge in graph[u]:
                if edge.cap > 1e-12 and level[edge.to] < 0:
                    level[edge.to] = deeper
                    if edge.to == t:
                        return level
                    queue.append(edge.to)
        return None

    def _blocking_flow(self, s: int, t: int, level: List[int], total: float,
                       limit: float) -> float:
        """Push augmenting paths of the level graph until none is left.

        Returns ``total`` plus what was pushed, stopping early at ``limit``.
        A depth-first search with an explicit stack, so a path may be as
        long as the network.  ``it[u]`` is ``u``'s current-arc pointer: the
        search resumes there, skips edges that are saturated or do not go
        one level deeper, and moves past an edge only once everything
        behind it is a dead end (or it would carry a negligible amount into
        ``t``).  After an augmentation the search resumes below the first
        edge of the path that is still open, where a search restarted from
        ``s`` would get back to.  It pushes the same paths, in the same
        order, as the textbook recursion restarted from ``s`` for every path.
        """
        graph = self._graph
        it = [0] * self.num_vertices
        vertices = [s]
        edges: List[_Edge] = []
        u = s
        while True:
            adjacency = graph[u]
            i = it[u]
            deeper = level[u] + 1
            size = len(adjacency)
            while i < size:
                edge = adjacency[i]
                if edge.cap > 1e-12 and level[edge.to] == deeper:
                    break
                i += 1
            it[u] = i
            if i == size:
                # dead end: retreat and move the parent past the edge into u
                if not edges:
                    return total
                vertices.pop()
                edges.pop()
                u = vertices[-1]
                it[u] += 1
                continue
            if edge.to != t:
                vertices.append(edge.to)
                edges.append(edge)
                u = edge.to
                continue
            edges.append(edge)
            amount = limit - total
            for edge in edges:
                if edge.cap < amount:
                    amount = edge.cap
            if amount <= 1e-12:
                edges.pop()
                it[u] += 1
                continue
            for edge in edges:
                edge.cap -= amount
                graph[edge.to][edge.rev].cap += amount
            total += amount
            if total >= limit:
                return total
            saturated = next((k for k, edge in enumerate(edges) if edge.cap <= 1e-12),
                             len(edges) - 1)
            del edges[saturated:]
            del vertices[saturated + 1:]
            u = vertices[-1]

    def max_flow(self, source: Hashable, sink: Hashable, limit: float = INFINITY) -> float:
        """Push as much flow as possible from ``source`` to ``sink``.

        Parameters
        ----------
        source, sink:
            Vertex names (interned on demand).
        limit:
            Optional cap on the amount of flow to push.

        Returns
        -------
        float
            The amount of flow pushed by *this call* (the residual network is
            updated in place, so repeated calls return incremental amounts).
        """
        s, t = self.vertex(source), self.vertex(sink)
        if s == t:
            return 0.0
        total = 0.0
        while total < limit:
            level = self._bfs_levels(s, t)
            if level is None:
                break
            total = self._blocking_flow(s, t, level, total, limit)
        return total

    def flows(self) -> List[float]:
        """Flow currently pushed through every edge, in handle order."""
        return [backward.cap if math.isinf(cap) else cap - forward.cap
                for forward, backward, cap in zip(self._forward, self._backward, self._capacity)]
