"""Linear-programming relaxation of the resource-time tradeoff problem.

This module implements LP (6)-(10) of Section 3.1: after the activity-on-arc
and two-tuple transformations, every job arc either has two resource-time
tuples ``{<0, t(0)>, <r_e, 0>}`` or a single tuple ``{<0, t(0)>}``.  The LP
relaxes the two-tuple arcs to the linear duration

    ``t_e(f) = t_e(0) * (1 - f / r_e)``   for ``f in [0, r_e]``

(the straight line through the two tuples), keeps single-tuple arcs at their
constant duration, models resource reuse over paths as a source-to-sink flow
with conservation at every internal vertex, and bounds the source outflow by
the budget ``B``.

Two objectives are supported, matching the two problems of Section 2:

* **min-makespan** -- minimise ``T_t`` subject to the budget (LP 6-10);
* **min-resource** -- minimise the source outflow subject to ``T_t <= T``.

The solver is HiGHS, called through SciPy's HiGHS wrapper with exactly the
arrays and options ``scipy.optimize.linprog(method="highs")`` would hand it,
so every answer is bit-for-bit the one ``linprog`` returns.  The wrapper is
private SciPy API: its import and signature are probed once per process,
on the first solve, and a process whose probe fails solves through
``linprog`` itself (counted as ``linprog_fallbacks``).  Infinite base
durations (used by the hardness gadgets) are replaced by a "big M"
exceeding the sum of all finite durations, which preserves optima for every
instance in which a finite-makespan solution exists.

**Batched solves.**  Everything about the LP except the budget / makespan
target is a function of the arc DAG alone: the relaxed arcs, the
variable-index maps, the column-wise constraint matrix, the row and column
bounds and both cost vectors.  :class:`LPModelSkeleton` precomputes all of
it once; each :meth:`~LPModelSkeleton.solve_min_makespan` /
:meth:`~LPModelSkeleton.solve_min_resource` call then only patches the RHS
of the budget row (or the sink's upper bound) on a copy before handing the
model to HiGHS.  The one-shot :func:`solve_min_makespan_lp` /
:func:`solve_min_resource_lp` entry points build a fresh skeleton per call;
sweeps over the same DAG should reuse one skeleton -- the engine's
batching layer (:mod:`repro.engine.batch`) caches skeletons per arc-DAG
fingerprint.  :func:`lp_kernel_counters` exposes machine-independent work
counters (skeleton builds vs. solves, simplex iterations) so benchmarks
can assert the elimination.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_matrix

from repro.core.arcdag import Arc, ArcDAG
from repro.utils.validation import check_non_negative, require

__all__ = ["LPSolution", "RelaxedArc", "LPModelSkeleton", "build_relaxed_arcs",
           "solve_min_makespan_lp", "solve_min_resource_lp", "linear_relaxed_duration",
           "lp_kernel_counters", "reset_lp_kernel_counters"]


#: Machine-independent work counters for the LP kernel: ``skeleton_builds``
#: counts full model constructions (relaxed arcs + index maps + HiGHS
#: arrays), ``skeleton_solves`` counts HiGHS invocations,
#: ``linprog_fallbacks`` the subset that went through ``linprog`` because
#: SciPy's private HiGHS wrapper failed its probe, and
#: ``simplex_iterations`` the simplex iterations HiGHS reported.  A budget
#: sweep that reuses one skeleton performs 1 build and N solves; the
#: per-scenario rebuild path performs N of each.
_KERNEL_COUNTERS: Dict[str, int] = {
    "skeleton_builds": 0,
    "skeleton_solves": 0,
    "linprog_fallbacks": 0,
    "simplex_iterations": 0,
}


def lp_kernel_counters() -> Dict[str, int]:
    """A snapshot of the LP kernel's work counters (see ``_KERNEL_COUNTERS``)."""
    return dict(_KERNEL_COUNTERS)


def reset_lp_kernel_counters() -> None:
    """Zero the LP kernel work counters (used by benchmarks and tests)."""
    for key in _KERNEL_COUNTERS:
        _KERNEL_COUNTERS[key] = 0


# ----------------------------------------------------------------------
# SciPy's HiGHS wrapper, called the way linprog(method="highs") calls it
# ----------------------------------------------------------------------
#: The wrapper's parameters and ``_linprog_highs``'s defaults this module
#: reproduces; a SciPy whose private API differs fails the probe.
_WRAPPER_PARAMS = ("c", "indptr", "indices", "data", "lhs", "rhs", "lb", "ub",
                   "integrality", "options")
_LINPROG_HIGHS_DEFAULTS = {
    "time_limit": None, "presolve": True, "disp": False, "maxiter": None,
    "dual_feasibility_tolerance": None, "primal_feasibility_tolerance": None,
    "ipm_optimality_tolerance": None, "simplex_dual_edge_weight_strategy": None,
    "mip_rel_gap": None, "mip_max_nodes": None,
}
_CHECK_RESULT_PARAMS = ("x", "fun", "status", "slack", "con", "bounds", "tol",
                        "message", "integrality")
#: ``linprog``'s default ``tol``, which it hands ``_check_result``.
_LINPROG_TOL = 1e-9
_NO_INTEGRALITY = np.empty(0, dtype=np.uint8)


class _DirectHighs(NamedTuple):
    """What a direct call needs from SciPy's private ``_linprog_highs``."""

    wrapper: Any
    to_scipy_status: Any
    check_result: Any
    options: Dict[str, Any]


#: ``None`` = not probed yet, ``False`` = probed and unusable.
_DIRECT: Any = None


def _probe_direct_highs() -> _DirectHighs:
    """Import SciPy's HiGHS wrapper and check it is the API this module mirrors.

    Raises when a name is missing, a signature or default differs, or
    SciPy's ``kHighsInf`` is not ``inf`` (the skeleton writes ``inf`` where
    ``linprog`` writes ``kHighsInf``).
    """
    from scipy.optimize import _linprog_highs as highs
    from scipy.optimize._linprog_util import _check_result

    def params(fn: Any) -> Tuple[str, ...]:
        return tuple(inspect.signature(fn).parameters)

    defaults = {name: p.default
                for name, p in inspect.signature(highs._linprog_highs).parameters.items()
                if p.default is not inspect.Parameter.empty}
    if (params(highs._highs_wrapper) != _WRAPPER_PARAMS
            or defaults != _LINPROG_HIGHS_DEFAULTS
            or params(_check_result) != _CHECK_RESULT_PARAMS
            or highs.kHighsInf != math.inf):
        raise ImportError("SciPy's private HiGHS API differs from the one mirrored")
    # The option dict _linprog_highs builds from its defaults.
    options = {
        "presolve": True,
        "sense": highs.ObjSense.kMinimize,
        "solver": None,
        "time_limit": None,
        "highs_debug_level": highs.HighsDebugLevel.kHighsDebugLevelNone,
        "dual_feasibility_tolerance": None,
        "ipm_optimality_tolerance": None,
        "log_to_console": False,
        "mip_max_nodes": None,
        "output_flag": False,
        "primal_feasibility_tolerance": None,
        "simplex_dual_edge_weight_strategy": None,
        "simplex_strategy": highs.s_c.SimplexStrategy.kSimplexStrategyDual,
        "ipm_iteration_limit": None,
        "simplex_iteration_limit": None,
        "mip_rel_gap": None,
    }
    return _DirectHighs(highs._highs_wrapper, highs._highs_to_scipy_status_message,
                        _check_result, options)


def _direct_highs() -> Optional[_DirectHighs]:
    """The probed direct call, or ``None`` when this process uses ``linprog``."""
    global _DIRECT
    if _DIRECT is None:
        try:
            _DIRECT = _probe_direct_highs()
        except (ImportError, AttributeError, TypeError, ValueError):
            _DIRECT = False  # counted per solve as linprog_fallbacks
    return _DIRECT or None


@dataclass(frozen=True)
class RelaxedArc:
    """Per-arc data used by the LP: base time, full resource and big-M substitution."""

    arc: Arc
    base_time: float
    full_resource: float
    capped: bool  # True when f_e is bounded above by full_resource (two-tuple arcs)


def _big_m(arc_dag: ArcDAG) -> float:
    finite = arc_dag.total_finite_base_time()
    return max(finite * 4.0 + 16.0, 1024.0)


def build_relaxed_arcs(arc_dag: ArcDAG) -> Dict[str, RelaxedArc]:
    """Compute the relaxed (linearised) view of every arc.

    Arcs must carry at most two resource-time tuples (run
    :func:`repro.core.arcdag.expand_to_two_tuples` first); a ``ValueError``
    is raised otherwise.
    """
    big_m = _big_m(arc_dag)
    relaxed: Dict[str, RelaxedArc] = {}
    for arc in arc_dag.arcs:
        tuples = arc.duration.tuples()
        require(len(tuples) <= 2,
                f"arc {arc.arc_id} has {len(tuples)} tuples; expand_to_two_tuples first")
        t0 = tuples[0][1]
        if math.isinf(t0):
            t0 = big_m
        if len(tuples) == 2:
            # Relaxation interpolates linearly between <0, t(0)> and
            # <r_full, t(r_full)>; the canonical two-tuple form has
            # t(r_full) == 0 but a non-zero improved duration is supported.
            r_full = tuples[1][0]
            relaxed[arc.arc_id] = RelaxedArc(arc, t0, r_full, True)
        else:
            relaxed[arc.arc_id] = RelaxedArc(arc, t0, 0.0, False)
    return relaxed


def linear_relaxed_duration(relaxed: RelaxedArc, flow: float) -> float:
    """The LP's linearised duration of an arc carrying ``flow`` resource.

    Two-tuple arcs interpolate linearly between ``<0, t(0)>`` and
    ``<r_e, t(r_e)>``; other arcs are constant.
    """
    arc = relaxed.arc
    t0 = relaxed.base_time
    if not relaxed.capped or relaxed.full_resource <= 0:
        return t0
    t_full = arc.duration.tuples()[1][1]
    frac = min(max(flow / relaxed.full_resource, 0.0), 1.0)
    return t0 + (t_full - t0) * frac


@dataclass
class LPSolution:
    """Solution of the relaxed problem.

    Attributes
    ----------
    status:
        ``"optimal"`` or ``"infeasible"`` (other scipy statuses raise).
    objective:
        Objective value (makespan for min-makespan, budget for min-resource).
    flows:
        ``arc id -> fractional flow``.
    times:
        ``vertex -> event time`` in the relaxed schedule.
    makespan:
        Event time of the sink vertex.
    budget_used:
        Source outflow in the relaxed solution.
    relaxed_arcs:
        The per-arc relaxation data (handy for rounding).
    """

    status: str
    objective: float
    flows: Dict[str, float] = field(default_factory=dict)
    times: Dict[Hashable, float] = field(default_factory=dict)
    makespan: float = 0.0
    budget_used: float = 0.0
    relaxed_arcs: Dict[str, RelaxedArc] = field(default_factory=dict)

    def relaxed_duration(self, arc_id: str) -> float:
        """Linearised duration of ``arc_id`` under this solution's flow."""
        return linear_relaxed_duration(self.relaxed_arcs[arc_id], self.flows.get(arc_id, 0.0))


class _HighsModel(NamedTuple):
    """One objective's LP as ``linprog`` hands it to HiGHS.

    ``[A_ub; A_eq]`` column-wise (``indptr``/``indices``/``data``, rows
    ascending within a column) with its row bounds ``row_lower <= A x <=
    row_upper``; the first ``n_ub`` rows are the inequalities.
    """

    cost: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    n_ub: int


_Triplets = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _highs_model(cost: np.ndarray, ub_blocks: List[_Triplets], eq: _Triplets,
                 ub_rhs: List[float], n_eq: int) -> _HighsModel:
    """The model whose inequalities are the ``(rows, cols, values)`` triplet
    blocks ``ub_blocks`` (RHS ``ub_rhs``), followed by the ``n_eq``
    conservation rows ``eq`` (numbered from 0)."""
    n_ub = len(ub_rhs)
    rows = np.concatenate([b[0] for b in ub_blocks] + [eq[0] + n_ub])
    cols = np.concatenate([b[1] for b in ub_blocks] + [eq[1]])
    values = np.concatenate([b[2] for b in ub_blocks] + [eq[2]])
    # Column-major, rows ascending within a column, int32 indices: the CSC
    # form linprog's csc_array conversion produces.
    order = np.lexsort((rows, cols))
    indptr = np.zeros(len(cost) + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=len(cost)), out=indptr[1:])
    row_lower = np.concatenate((np.full(n_ub, -math.inf), np.zeros(n_eq)))
    row_upper = np.concatenate((np.array(ub_rhs, dtype=float), np.zeros(n_eq)))
    return _HighsModel(cost, indptr, rows[order].astype(np.int32), values[order],
                       row_lower, row_upper, n_ub)


class LPModelSkeleton:
    """The scenario-independent half of LP (6)-(10), built once per arc DAG.

    The skeleton validates the DAG and precomputes:

    * the relaxed arcs (:func:`build_relaxed_arcs`),
    * the variable-index maps (one flow variable per arc, one event-time
      variable per vertex),
    * per objective, the column-wise ``[A_ub; A_eq]`` matrix -- precedence
      rows (constraint 7), for min-makespan the budget row (constraint 9)
      last among them, then the flow-conservation rows (constraint 8) --
      with its row bounds and cost vector,
    * the column bounds (per-arc flow caps, source pinned at time 0).

    Per-scenario work is then limited to patching the budget row's RHS
    (min-makespan) or the sink's upper bound (min-resource) on a copy and
    calling HiGHS.  The arrays are exactly, dtypes included, what
    ``linprog(method="highs")`` hands SciPy's HiGHS wrapper for this LP, so
    a skeleton solve is bit-for-bit a ``linprog`` solve.

    Skeletons assume the arc DAG is not mutated afterwards (arc DAGs
    produced by the Section 2 / 3.1 transformations never are); the
    engine's batching layer caches them per content fingerprint.
    """

    def __init__(self, arc_dag: ArcDAG):
        arc_dag.validate()
        self.arc_dag = arc_dag
        self.relaxed: Dict[str, RelaxedArc] = build_relaxed_arcs(arc_dag)
        arcs = arc_dag.arcs
        vertices = arc_dag.vertices
        m = len(arcs)
        self.arc_index: Dict[str, int] = {a.arc_id: i for i, a in enumerate(arcs)}
        self.vertex_index: Dict[Hashable, int] = {v: m + j
                                                  for j, v in enumerate(vertices)}
        self.n_vars: int = m + len(vertices)
        self._arc_ids: List[str] = [a.arc_id for a in arcs]
        self._vertices = vertices
        source, sink = arc_dag.source, arc_dag.sink
        self.source_arc_indices: List[int] = [
            self.arc_index[a.arc_id] for a in arc_dag.out_arcs(source)]
        self._sink_var: int = self.vertex_index[sink]

        # Precedence (constraint 7): the relaxed duration of arc e is
        # t0 - slope * f_e, so  T_tail - T_head - slope * f_e <= -t0 .
        # Column bounds: per-arc flow caps, the source pinned at time 0.
        prec_rhs: List[float] = []
        sloped: List[int] = []
        neg_slopes: List[float] = []
        upper: List[float] = []
        for i, arc in enumerate(arcs):
            rel = self.relaxed[arc.arc_id]
            t0 = rel.base_time
            prec_rhs.append(-t0)
            upper.append(rel.full_resource if rel.capped else math.inf)
            if rel.capped and rel.full_resource > 0:
                t_full = arc.duration.tuples()[1][1]
                sloped.append(i)
                neg_slopes.append(-((t0 - t_full) / rel.full_resource))
        upper.extend(0.0 if v == source else math.inf for v in vertices)
        self._col_lower: np.ndarray = np.zeros(self.n_vars)
        self._col_upper: np.ndarray = np.array(upper, dtype=float)

        vertex_col = self.vertex_index
        arc_rows = np.arange(m)
        tails = np.array([vertex_col[a.tail] for a in arcs], dtype=np.intp)
        heads = np.array([vertex_col[a.head] for a in arcs], dtype=np.intp)
        prec = (np.concatenate((arc_rows, arc_rows, sloped)).astype(np.intp),
                np.concatenate((tails, heads, sloped)).astype(np.intp),
                np.concatenate((np.ones(m), np.full(m, -1.0), neg_slopes)))

        # Flow conservation at internal vertices (constraint 8): +1 for
        # each out-arc, -1 for each in-arc, one row per internal vertex.
        conservation_row = np.full(self.n_vars, -1, dtype=np.intp)
        internal = [vertex_col[v] for v in vertices if v != source and v != sink]
        conservation_row[internal] = np.arange(len(internal))
        out_rows, in_rows = conservation_row[tails], conservation_row[heads]
        out_mask, in_mask = out_rows >= 0, in_rows >= 0
        eq = (np.concatenate((out_rows[out_mask], in_rows[in_mask])),
              np.concatenate((arc_rows[out_mask], arc_rows[in_mask])),
              np.concatenate((np.ones(int(out_mask.sum())),
                              np.full(int(in_mask.sum()), -1.0))))

        c_makespan = np.zeros(self.n_vars)
        c_makespan[self._sink_var] = 1.0
        c_resource = np.zeros(self.n_vars)
        c_resource[self.source_arc_indices] = 1.0
        budget_cols = np.array(self.source_arc_indices, dtype=np.intp)
        budget = (np.full(len(budget_cols), m, dtype=np.intp), budget_cols,
                  np.ones(len(budget_cols)))
        # min-makespan appends the budget row (constraint 9) last among the
        # inequalities, so only its RHS entry changes between scenarios.
        self._budget_row: int = m
        self._makespan_model = _highs_model(c_makespan, [prec, budget], eq,
                                            prec_rhs + [0.0], len(internal))
        self._resource_model = _highs_model(c_resource, [prec], eq, prec_rhs,
                                            len(internal))

        _KERNEL_COUNTERS["skeleton_builds"] += 1

    # ------------------------------------------------------------------
    # per-scenario solves (RHS patch + HiGHS call only)
    # ------------------------------------------------------------------
    def solve_min_makespan(self, budget: float) -> LPSolution:
        """Solve LP (6)-(10) for one budget, reusing the prebuilt model."""
        check_non_negative(budget, "budget")
        model = self._makespan_model
        row_upper = model.row_upper.copy()
        row_upper[self._budget_row] = float(budget)
        return self._solve(model, row_upper, self._col_upper)

    def solve_min_resource(self, target_makespan: float) -> LPSolution:
        """Solve the min-resource variant for one target, reusing the model."""
        check_non_negative(target_makespan, "target_makespan")
        col_upper = self._col_upper.copy()
        col_upper[self._sink_var] = float(target_makespan)
        model = self._resource_model
        return self._solve(model, model.row_upper, col_upper)

    def _solve(self, model: _HighsModel, row_upper: np.ndarray,
               col_upper: np.ndarray) -> LPSolution:
        """One HiGHS solve of ``model`` with the patched bounds.

        Maps HiGHS's answer to a status exactly as ``linprog`` does:
        SciPy's status mapping, then its ``_check_result``, so an optimum
        that violates a bound or constraint beyond ``linprog``'s tolerance
        fails here as it would there.
        """
        _KERNEL_COUNTERS["skeleton_solves"] += 1
        direct = _direct_highs()
        bounds = np.column_stack((self._col_lower, col_upper))
        if direct is None:
            _KERNEL_COUNTERS["linprog_fallbacks"] += 1
            matrix = csc_matrix((model.data, model.indices, model.indptr),
                                shape=(len(row_upper), self.n_vars))
            n_ub = model.n_ub
            res = linprog(model.cost, A_ub=matrix[:n_ub], b_ub=row_upper[:n_ub],
                          A_eq=matrix[n_ub:], b_eq=row_upper[n_ub:],
                          bounds=bounds, method="highs")
            status, message, fun, x, nit = res.status, res.message, res.fun, res.x, res.nit
        else:
            out = direct.wrapper(model.cost, model.indptr, model.indices, model.data,
                                 model.row_lower, row_upper, self._col_lower,
                                 col_upper, _NO_INTEGRALITY, direct.options)
            status, message = direct.to_scipy_status(out.get("status"),
                                                     out.get("message"))
            slack = con = None
            if "slack" in out:
                slack = np.array(out["slack"][:model.n_ub])
                con = np.array(out["slack"][model.n_ub:])
            x, fun = out["x"], out.get("fun")
            status, message = direct.check_result(x, fun, status, slack, con, bounds,
                                                  _LINPROG_TOL, message, None)
            nit = out.get("simplex_nit", 0) or out.get("ipm_nit", 0)
        _KERNEL_COUNTERS["simplex_iterations"] += max(int(nit), 0)
        if status == 2:
            return LPSolution(status="infeasible", objective=math.inf,
                              relaxed_arcs=self.relaxed)
        if status != 0:  # pragma: no cover - defensive
            raise RuntimeError(f"LP solver failed: {message}")
        values = np.asarray(x, dtype=float).tolist()
        flows = {arc_id: max(value, 0.0) for arc_id, value in zip(self._arc_ids, values)}
        times = dict(zip(self._vertices, values[len(self._arc_ids):]))
        budget_used = float(sum(flows[self._arc_ids[i]] for i in self.source_arc_indices))
        return LPSolution(
            status="optimal",
            objective=float(fun),
            flows=flows,
            times=times,
            makespan=times[self.arc_dag.sink],
            budget_used=budget_used,
            relaxed_arcs=self.relaxed,
        )


def solve_min_makespan_lp(arc_dag: ArcDAG, budget: float) -> LPSolution:
    """Solve LP (6)-(10): minimise the sink event time under a resource budget.

    Builds a fresh :class:`LPModelSkeleton` per call; sweeps over the same
    DAG should hold on to one skeleton (or go through
    :mod:`repro.engine.batch`, which caches them per fingerprint).
    """
    check_non_negative(budget, "budget")
    return LPModelSkeleton(arc_dag).solve_min_makespan(budget)


def solve_min_resource_lp(arc_dag: ArcDAG, target_makespan: float) -> LPSolution:
    """Solve the min-resource variant: minimise source outflow with ``T_t <= target``."""
    check_non_negative(target_makespan, "target_makespan")
    return LPModelSkeleton(arc_dag).solve_min_resource(target_makespan)
