"""One-shot structure detection for tradeoff instances.

Every solver family has preconditions: the exhaustive solver needs a small
breakpoint product, the series-parallel DP needs an SP decomposition and an
integral budget, the Theorem 3.9 / 3.10 repairs need k-way / recursive-
binary duration functions.  Before the engine dispatches, it probes the
instance *once* and records everything the ``can_solve`` predicates and the
solvers themselves need:

* job/edge counts and the exhaustive-search combination count;
* the duration-function families present (``constant`` / ``general`` /
  ``binary`` / ``kway``);
* chain / series-parallel shape (the SP probe keeps the decomposition tree
  so the DP does not re-derive it);
* memoized activity-on-arc conversion and two-tuple expansion (the shared
  front half of every LP-based pipeline).

Probes are cached by DAG fingerprint, so sweeping many budgets over the
same DAG pays for SP recognition and the arc transforms once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.arcdag import ArcDAG, NodeToArcMapping, TwoTupleExpansion, \
    expand_to_two_tuples, node_to_arc_dag
from repro.core.dag import TradeoffDAG
from repro.core.duration import ConstantDuration, GeneralStepDuration, \
    KWaySplitDuration, RecursiveBinarySplitDuration
from repro.core.series_parallel import SPNode, decompose_series_parallel
from repro.engine.cache import LRUCache
from repro.engine.fingerprint import dag_fingerprint

__all__ = ["ProblemStructure", "analyze_dag", "clear_structure_cache", "structure_cache_info"]

#: Instances larger than this skip the (quadratic) series-parallel probe.
SP_PROBE_JOB_LIMIT = 600

#: The combination count is capped here; anything above is "not exact-able".
COMBINATION_CAP = 10 ** 12


def _duration_family(fn) -> str:
    if isinstance(fn, ConstantDuration):
        return "constant"
    if isinstance(fn, RecursiveBinarySplitDuration):
        return "binary"
    if isinstance(fn, KWaySplitDuration):
        return "kway"
    if isinstance(fn, GeneralStepDuration):
        return "general"
    return "general"


@dataclass
class ProblemStructure:
    """Everything the dispatcher knows about one DAG (see module docstring)."""

    fingerprint: str
    num_jobs: int
    num_edges: int
    duration_families: frozenset
    max_breakpoints: int
    exact_combinations: int
    integral_breakpoints: bool
    is_chain: bool
    sp_tree: Optional[SPNode]
    sp_probe_skipped: bool
    #: The normalized (single source/sink) DAG every probe and solver sees.
    dag: TradeoffDAG = field(repr=False, default=None)

    _arc_form: Optional[Tuple[ArcDAG, NodeToArcMapping]] = field(
        default=None, repr=False, compare=False)
    _expansion: Optional[TwoTupleExpansion] = field(default=None, repr=False, compare=False)

    @property
    def is_series_parallel(self) -> bool:
        return self.sp_tree is not None

    def improvable_families(self) -> frozenset:
        """Duration families excluding structural constants."""
        return frozenset(f for f in self.duration_families if f != "constant")

    def arc_form(self) -> Tuple[ArcDAG, NodeToArcMapping]:
        """The memoized activity-on-arc conversion (Section 2 transformation)."""
        if self._arc_form is None:
            self._arc_form = node_to_arc_dag(self.dag)
        return self._arc_form

    def expansion(self) -> TwoTupleExpansion:
        """The memoized two-tuple expansion (Section 3.1, Figure 6)."""
        if self._expansion is None:
            arc_dag, _ = self.arc_form()
            self._expansion = expand_to_two_tuples(arc_dag)
        return self._expansion

    def summary(self) -> dict:
        """A plain-dict view embedded into :class:`~repro.engine.core.SolveReport`."""
        return {
            "fingerprint": self.fingerprint,
            "num_jobs": self.num_jobs,
            "num_edges": self.num_edges,
            "duration_families": sorted(self.duration_families),
            "max_breakpoints": self.max_breakpoints,
            "exact_combinations": self.exact_combinations,
            "integral_breakpoints": self.integral_breakpoints,
            "is_chain": self.is_chain,
            "is_series_parallel": self.is_series_parallel,
            "sp_probe_skipped": self.sp_probe_skipped,
        }


def _probe(dag: TradeoffDAG, digest: str) -> ProblemStructure:
    families = set()
    combinations = 1
    max_breakpoints = 1
    integral = True
    for job in dag.jobs:
        fn = dag.duration_function(job)
        families.add(_duration_family(fn))
        n = fn.num_tuples()
        max_breakpoints = max(max_breakpoints, n)
        if combinations < COMBINATION_CAP:
            combinations = min(combinations * n, COMBINATION_CAP)
        if integral:
            integral = all(float(r).is_integer() for r, _t in fn.tuples())

    is_chain = all(dag.in_degree(j) <= 1 and dag.out_degree(j) <= 1 for j in dag.jobs)

    sp_probe_skipped = dag.num_jobs > SP_PROBE_JOB_LIMIT
    sp_tree = None if sp_probe_skipped else decompose_series_parallel(dag)

    return ProblemStructure(
        fingerprint=digest,
        num_jobs=dag.num_jobs,
        num_edges=dag.num_edges,
        duration_families=frozenset(families),
        max_breakpoints=max_breakpoints,
        exact_combinations=combinations,
        integral_breakpoints=integral,
        is_chain=is_chain,
        sp_tree=sp_tree,
        sp_probe_skipped=sp_probe_skipped,
        dag=dag,
    )


#: Content tier: ``fingerprint -> (structure, its DAG's mutation count)``.
_CACHE = LRUCache(maxsize=128)

#: Identity fast path: ``id(dag) -> (dag, structure, mutation count)``.  Keyed by object
#: identity so the per-scenario calls of a batched shard (every scenario in
#: a group shares one normalized DAG object) skip re-normalization,
#: re-validation and re-hashing entirely.  Entries hold the DAG strongly,
#: so a cached id cannot be recycled by a different object while the entry
#: lives; the ``is`` check below guards evict-then-recycle races.
_ID_CACHE = LRUCache(maxsize=256)

#: How many fingerprint computations the identity fast path skipped.
_PROBE_COUNTERS = {"identity_hits": 0, "probe_runs": 0}


def analyze_dag(dag: TradeoffDAG) -> ProblemStructure:
    """Probe (or fetch the memoized probe of) a DAG's structure.

    The DAG is normalized with
    :meth:`~repro.core.dag.TradeoffDAG.ensure_single_source_sink` first, so
    the recorded :attr:`ProblemStructure.dag` -- the one every registered
    solver runs on -- always has unique terminals.  Two memoization tiers
    apply: an identity fast path for the exact same DAG object (no hashing
    at all -- the batched-shard hot path) and the content-fingerprint LRU
    behind it.
    """
    hit = _ID_CACHE.get(id(dag))
    if hit is not None and hit[0] is dag and hit[2] == dag.mutations:
        _PROBE_COUNTERS["identity_hits"] += 1
        return hit[1]
    original = dag
    dag = dag.ensure_single_source_sink()
    dag.validate()
    digest = dag_fingerprint(dag)
    entry = _CACHE.get(digest)
    # A cached probe whose DAG was edited since describes other content.
    if entry is None or entry[0].dag.mutations != entry[1]:
        entry = (_probe(dag, digest), dag.mutations)
        _PROBE_COUNTERS["probe_runs"] += 1
        _CACHE.put(digest, entry)
    structure = entry[0]
    # Entries carry the DAG's mutation count seen at probe time: a DAG
    # edited in place (add_job / add_edge / remove_edge) falls back to the
    # content path, which re-fingerprints.
    _ID_CACHE.put(id(original), (original, structure, original.mutations))
    if structure.dag is not original:
        # Solvers re-enter analyze_dag with the *normalized* DAG the probe
        # recorded; map that object too so the re-entry is an identity hit.
        _ID_CACHE.put(id(structure.dag),
                      (structure.dag, structure, structure.dag.mutations))
    return structure


def clear_structure_cache() -> None:
    """Drop every memoized structure probe (used by tests and sweeps)."""
    _CACHE.clear()
    _ID_CACHE.clear()
    for key in _PROBE_COUNTERS:
        _PROBE_COUNTERS[key] = 0


def structure_cache_info() -> dict:
    """Hit/miss statistics of the structure cache.

    The fingerprint LRU's counters stay at the top level (back-compat);
    ``identity_hits`` counts calls served by the object-identity fast path
    (no normalization / validation / hashing performed at all) and
    ``probe_runs`` counts actual structure probes executed.
    """
    info = _CACHE.info()
    info["identity_hits"] = _PROBE_COUNTERS["identity_hits"]
    info["probe_runs"] = _PROBE_COUNTERS["probe_runs"]
    return info
