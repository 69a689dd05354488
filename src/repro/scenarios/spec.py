"""Declarative scenario specs and lazy grids.

A :class:`ScenarioSpec` is the JSON-serializable record
``(generator, params, seed, objective, budget_rule)`` -- everything needed
to rebuild one experiment scenario from identifiers alone.  Registered
generators (:mod:`repro.scenarios.registry`) are deterministic in their
parameters and seed, so a spec *is* its problem instance: two equal specs
materialize into content-identical DAGs in any process, which is what lets
the serving layers deduplicate and consult caches **before** any DAG
exists (see :func:`repro.engine.fingerprint.spec_fingerprint`).

A :class:`ScenarioGrid` is the cross-product form: generator entries whose
parameters may carry :class:`Axis` value lists, a seed axis and a budget-
rule axis.  :meth:`ScenarioGrid.expand` is a **lazy iterator** of specs in
a deterministic order with deterministic per-cell seeds -- a 10k-cell grid
is 10k tiny records, never 10k DAGs; materialization happens inside
whichever worker ends up solving a cell.

Budget rules make the problem parameter declarative too:

* ``("const", v)`` -- parameter is ``v``;
* ``("makespan-factor", f)`` -- ``f`` times the zero-resource makespan of
  the built DAG (computed at materialization);
* ``("per-job", v)`` -- ``v`` times the number of non-constant jobs.

Module-level counters (:func:`materialization_info`) count actual DAG
builds, the machine-independent metric the scenario-grid benchmark gates
on ("a warm spec-native sweep builds zero DAGs for store-hit cells").
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple, Union

from repro.core.dag import TradeoffDAG
from repro.core.problem import MinMakespanProblem, MinResourceProblem
from repro.scenarios.registry import get_generator
from repro.utils.validation import ValidationError, require

__all__ = [
    "Axis",
    "ScenarioSpec",
    "ScenarioGrid",
    "GridDiff",
    "grid_diff",
    "BUDGET_RULE_NAMES",
    "OBJECTIVES",
    "normalize_budget_rule",
    "derive_cell_seed",
    "materialization_info",
    "reset_materialization_counters",
]

#: Objective identifiers (mirroring the solver registry's constants; kept
#: as literals so the scenario layer stays below the engine).
OBJECTIVES = ("min_makespan", "min_resource")

#: Declarative budget-rule names understood by :func:`normalize_budget_rule`.
BUDGET_RULE_NAMES = ("const", "makespan-factor", "per-job")

#: The fields of a spec payload (:meth:`ScenarioSpec.to_payload`).
_PAYLOAD_FIELDS = frozenset(("generator", "params", "seed", "objective",
                             "budget_rule"))

#: DAG-build accounting; see :func:`materialization_info`.
_COUNTERS = {"dag_builds": 0, "materializations": 0}


def materialization_info() -> Dict[str, int]:
    """Copy of the module's DAG-build counters.

    ``dag_builds`` counts :meth:`ScenarioSpec.build_dag` calls (every one
    constructs a DAG -- specs deliberately do not memoize, a grid's cells
    must not accumulate in memory); ``materializations`` counts full
    :meth:`ScenarioSpec.materialize` calls.
    """
    return dict(_COUNTERS)


def reset_materialization_counters() -> None:
    """Zero the DAG-build counters (benchmarks and tests)."""
    for key in _COUNTERS:
        _COUNTERS[key] = 0


def normalize_budget_rule(rule: Sequence[Any]) -> Tuple[str, float]:
    """Validate a budget rule; returns the canonical ``(name, value)``.

    Runs once per decoded spec, so each error message is formatted only
    when its check fails.
    """
    if not (isinstance(rule, (tuple, list)) and len(rule) == 2):
        raise ValidationError(
            f"budget_rule must be a (name, value) pair, got {rule!r}")
    name, value = rule
    if name not in BUDGET_RULE_NAMES:
        raise ValidationError(f"unknown budget rule {name!r}; known: "
                              f"{list(BUDGET_RULE_NAMES)}")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(
            f"budget rule {name!r} needs a numeric value, got {value!r}")
    if not value >= 0:
        raise ValidationError(f"budget rule {name!r} needs a non-negative value")
    return (str(name), float(value))


#: The encoder behind :func:`_canonical_json`, built once: cell digests
#: are taken for every decoded spec.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False,
                                      separators=(",", ":"))


def _canonical_json(payload: Any) -> str:
    """The stable JSON form hashed by cell digests (sorted keys, no NaN)."""
    return _CANONICAL_ENCODER.encode(payload)


def derive_cell_seed(base_seed: int, token: str) -> int:
    """A deterministic, process-stable seed for one grid cell.

    Hash-derived (sha256, never Python's randomized ``hash()``), so the
    same ``(base_seed, cell)`` pair yields the same seed in every process
    and on every platform -- the property the cross-process expansion
    tests pin down.
    """
    digest = hashlib.sha256(f"{base_seed}|{token}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario cell (see module docstring).

    ``params`` are canonicalised against the generator's schema on
    construction (defaults filled, sequences as lists, key-sorted), so
    equality and :meth:`cell_digest` see one canonical form regardless of
    how the spec was written.
    """

    generator: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    objective: str = "min_makespan"
    budget_rule: Tuple[str, float] = ("const", 0.0)

    def __post_init__(self) -> None:
        # Every error message below is formatted only when its check fails:
        # the serving layers construct one spec per decoded wire cell.
        spec = get_generator(self.generator)
        object.__setattr__(self, "params", spec.validate_params(self.params))
        seed = self.seed
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ValidationError(
                f"seed must be a non-negative int, got {seed!r}")
        if self.objective not in OBJECTIVES:
            raise ValidationError(f"unknown objective {self.objective!r}; "
                                  f"known: {list(OBJECTIVES)}")
        object.__setattr__(self, "budget_rule",
                           normalize_budget_rule(self.budget_rule))

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """The spec as a plain-JSON dict (the wire and manifest form)."""
        return {
            "generator": self.generator,
            "params": dict(self.params),
            "seed": self.seed,
            "objective": self.objective,
            "budget_rule": list(self.budget_rule),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_payload` (raises ``ValidationError``)."""
        if not isinstance(payload, abc.Mapping):
            raise ValidationError("scenario spec payload must be an object")
        if not _PAYLOAD_FIELDS.issuperset(payload):
            raise ValidationError(
                f"scenario spec payload has unknown fields "
                f"{sorted(set(payload) - _PAYLOAD_FIELDS)}")
        generator = payload.get("generator")
        if not isinstance(generator, str):
            raise ValidationError(
                "scenario spec payload needs a string 'generator'")
        return cls(
            generator=generator,
            params=payload.get("params") or {},
            seed=payload.get("seed", 0),
            objective=payload.get("objective", "min_makespan"),
            budget_rule=tuple(payload.get("budget_rule", ("const", 0.0))),
        )

    def canonical_json(self) -> str:
        """The canonical JSON string :meth:`cell_digest` hashes."""
        return _canonical_json(self.to_payload())

    def cell_digest(self) -> str:
        """Content hash of the spec itself (no DAG involved).

        Two specs describing the same cell share this digest in every
        process; it keys the pre-materialization dedup and the
        spec-to-request-key aliases (see
        :func:`repro.engine.fingerprint.spec_alias_key`).  Computed once
        per spec object: a spec is frozen, so its digest cannot change.
        """
        digest = self.__dict__.get("_cell_digest")
        if digest is None:
            digest = hashlib.sha256(self.canonical_json().encode()).hexdigest()
            object.__setattr__(self, "_cell_digest", digest)
        return digest

    # ------------------------------------------------------------------
    # materialization (the only place a DAG is built)
    # ------------------------------------------------------------------
    def build_dag(self) -> TradeoffDAG:
        """Build this cell's DAG (counted; deliberately not memoized)."""
        _COUNTERS["dag_builds"] += 1
        return get_generator(self.generator).build_dag(self.params, self.seed)

    def parameter_for(self, dag: TradeoffDAG) -> float:
        """Apply the budget rule to a built DAG (budget / target makespan)."""
        name, value = self.budget_rule
        if name == "const":
            return value
        if name == "makespan-factor":
            return value * dag.makespan_value({})
        improvable = sum(1 for job in dag.jobs
                         if dag.duration_function(job).num_tuples() > 1)
        return value * max(1, improvable)

    def materialize(self) -> Union[MinMakespanProblem, MinResourceProblem]:
        """Build the cell's ready-to-solve problem (DAG + parameter)."""
        _COUNTERS["materializations"] += 1
        dag = self.build_dag()
        parameter = self.parameter_for(dag)
        if self.objective == "min_makespan":
            return MinMakespanProblem(dag, parameter)
        return MinResourceProblem(dag, parameter)


class Axis:
    """Marks a grid parameter value as an expansion axis.

    ``params={"width": Axis([4, 8])}`` expands into one cell per value;
    a plain list stays a single (sequence-valued) parameter -- the marker
    keeps sequence parameters like ``chain`` lengths unambiguous.  Wire
    form: ``{"__axis__": [...]}``.
    """

    __slots__ = ("values",)

    def __init__(self, values: Sequence[Any]):
        values = list(values)
        require(len(values) >= 1, "an Axis needs at least one value")
        self.values = values

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Axis({self.values!r})"

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Axis) and self.values == other.values


def _axis_to_payload(value: Any) -> Any:
    if isinstance(value, Axis):
        return {"__axis__": list(value.values)}
    return value


def _axis_from_payload(value: Any) -> Any:
    if (isinstance(value, Mapping) and set(value) == {"__axis__"}):
        return Axis(list(value["__axis__"]))
    return value


@dataclass(frozen=True)
class ScenarioGrid:
    """A cross-product of scenario cells, expanded lazily.

    Attributes
    ----------
    generators:
        Generator entries: each ``{"generator": id, "params": {...}}``
        where parameter values may be :class:`Axis` lists (a bare string
        entry means the generator with schema defaults).
    seeds:
        Either an explicit seed axis (a sequence of ints -- every cell is
        produced once per seed) or a single int *base seed*: each cell
        then gets its own :func:`derive_cell_seed` value, deterministic
        across processes.
    budget_rules:
        Budget-rule axis (see :func:`normalize_budget_rule`).
    objective:
        ``"min_makespan"`` or ``"min_resource"`` for every cell.
    """

    generators: Tuple[Any, ...]
    seeds: Union[int, Tuple[int, ...]] = (0,)
    budget_rules: Tuple[Tuple[str, float], ...] = (("const", 0.0),)
    objective: str = "min_makespan"

    def __post_init__(self) -> None:
        entries = []
        require(len(tuple(self.generators)) >= 1,
                "a ScenarioGrid needs at least one generator entry")
        for entry in self.generators:
            if isinstance(entry, str):
                entry = {"generator": entry}
            require(isinstance(entry, Mapping) and "generator" in entry,
                    f"generator entries must be ids or mappings with a "
                    f"'generator' key, got {entry!r}")
            unknown = set(entry) - {"generator", "params"}
            require(not unknown, f"generator entry has unknown fields "
                                 f"{sorted(unknown)}")
            get_generator(entry["generator"])  # fail fast on unknown ids
            entries.append({"generator": entry["generator"],
                            "params": dict(entry.get("params") or {})})
        object.__setattr__(self, "generators", tuple(entries))
        if not isinstance(self.seeds, int):
            seeds = tuple(self.seeds)
            require(len(seeds) >= 1, "the seed axis needs at least one seed")
            object.__setattr__(self, "seeds", seeds)
        require(self.objective in OBJECTIVES,
                f"unknown objective {self.objective!r}")
        rules = tuple(normalize_budget_rule(rule)
                      for rule in self.budget_rules)
        require(len(rules) >= 1, "budget_rules needs at least one rule")
        object.__setattr__(self, "budget_rules", rules)

    # ------------------------------------------------------------------
    def _entry_cells(self, entry: Mapping[str, Any]) -> Iterator[Dict[str, Any]]:
        """Cross product over the Axis-valued params of one entry."""
        params = entry["params"]
        axis_names = sorted(name for name, value in params.items()
                            if isinstance(value, Axis))
        fixed = {name: value for name, value in params.items()
                 if not isinstance(value, Axis)}
        if not axis_names:
            yield dict(fixed)
            return
        for combo in itertools.product(
                *(params[name].values for name in axis_names)):
            cell = dict(fixed)
            cell.update(zip(axis_names, combo))
            yield cell

    def expand(self) -> Iterator[ScenarioSpec]:
        """Lazily yield every cell's :class:`ScenarioSpec`.

        Order is deterministic: generator entries in declaration order,
        their Axis params in sorted-name order (values in declaration
        order), then the seed axis, then the budget-rule axis.  With an
        int base seed, per-cell seeds come from :func:`derive_cell_seed`
        over the cell's *canonical* (schema-defaulted, key-sorted)
        content -- identical across processes, and independent of whether
        default parameter values were spelled out.

        Unseeded generators get seed 0 for every cell, deliberately
        collapsing the seed axis into content-identical specs (distinct
        seeds could not vary the instance and would only split the cache
        key space); the duplicates deduplicate downstream, and a sweep's
        ``unique`` stat reports the true cell count.
        """
        derived = isinstance(self.seeds, int)
        seed_axis: Sequence[int] = ((0,) if derived else self.seeds)
        for entry in self.generators:
            generator = get_generator(entry["generator"])
            for params in self._entry_cells(entry):
                canonical = generator.validate_params(params)
                for seed in seed_axis:
                    for rule in self.budget_rules:
                        if derived:
                            token = _canonical_json(
                                {"generator": entry["generator"],
                                 "params": canonical,
                                 "budget_rule": list(rule),
                                 "objective": self.objective})
                            seed = derive_cell_seed(self.seeds, token)
                        if not generator.seeded:
                            seed = 0
                        yield ScenarioSpec(
                            generator=entry["generator"], params=canonical,
                            seed=seed, objective=self.objective,
                            budget_rule=rule)

    def size(self) -> int:
        """Number of cells :meth:`expand` will yield (no DAGs built)."""
        total = 0
        per_seed = 1 if isinstance(self.seeds, int) else len(self.seeds)
        for entry in self.generators:
            cells = 1
            for value in entry["params"].values():
                if isinstance(value, Axis):
                    cells *= len(value.values)
            total += cells * per_seed * len(self.budget_rules)
        return total

    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """The grid as a plain-JSON dict (the ``sweep_spec`` wire form)."""
        return {
            "generators": [
                {"generator": entry["generator"],
                 "params": {name: _axis_to_payload(value)
                            for name, value in entry["params"].items()}}
                for entry in self.generators
            ],
            "seeds": (self.seeds if isinstance(self.seeds, int)
                      else list(self.seeds)),
            "budget_rules": [list(rule) for rule in self.budget_rules],
            "objective": self.objective,
        }

    def cells_by_digest(self) -> Dict[str, ScenarioSpec]:
        """``{cell_digest: spec}`` over the expansion, first occurrence wins.

        Duplicate digests (an unseeded generator collapsing the seed
        axis) appear once -- this is the grid's *unique cell* view, the
        unit :func:`grid_diff` and the sweep planner reason about.  No
        DAG is built.
        """
        cells: Dict[str, ScenarioSpec] = {}
        for spec in self.expand():
            cells.setdefault(spec.cell_digest(), spec)
        return cells

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ScenarioGrid":
        """Inverse of :meth:`to_payload` (raises ``ValidationError``)."""
        require(isinstance(payload, Mapping), "grid payload must be an object")
        unknown = set(payload) - {"generators", "seeds", "budget_rules",
                                  "objective"}
        require(not unknown,
                f"grid payload has unknown fields {sorted(unknown)}")
        generators_payload = payload.get("generators")
        require(isinstance(generators_payload, (list, tuple)),
                "grid payload needs a 'generators' list")
        generators: List[Dict[str, Any]] = []
        for entry in generators_payload:
            if isinstance(entry, str):
                generators.append({"generator": entry, "params": {}})
                continue
            require(isinstance(entry, Mapping),
                    f"generator entries must be objects, got {entry!r}")
            generators.append({
                "generator": entry.get("generator"),
                "params": {name: _axis_from_payload(value)
                           for name, value in
                           (entry.get("params") or {}).items()},
            })
        seeds = payload.get("seeds", (0,))
        return cls(
            generators=tuple(generators),
            seeds=seeds if isinstance(seeds, int) else tuple(seeds),
            budget_rules=tuple(tuple(rule) for rule in
                               payload.get("budget_rules", (("const", 0.0),))),
            objective=payload.get("objective", "min_makespan"),
        )


@dataclass(frozen=True)
class GridDiff:
    """The cell-level difference between two grids (see :func:`grid_diff`).

    ``gained`` and ``shared`` carry the *new* grid's spec for each
    digest, ``lost`` the old grid's -- all in their grid's deterministic
    expansion order, one entry per unique digest.
    """

    gained: Tuple[ScenarioSpec, ...]
    lost: Tuple[ScenarioSpec, ...]
    shared: Tuple[ScenarioSpec, ...]

    @property
    def is_empty(self) -> bool:
        """True when the grids describe identical cell sets."""
        return not self.gained and not self.lost

    def counts(self) -> Dict[str, int]:
        """``{"gained": n, "lost": n, "shared": n}``."""
        return {"gained": len(self.gained), "lost": len(self.lost),
                "shared": len(self.shared)}


def grid_diff(old: Union[ScenarioGrid, Sequence[ScenarioSpec]],
              new: Union[ScenarioGrid, Sequence[ScenarioSpec]]) -> GridDiff:
    """Cells gained / lost / shared between two grids, by cell digest.

    Pure spec-level set arithmetic: grids expand into tiny spec records
    and compare by :meth:`ScenarioSpec.cell_digest`, so diffing two
    10k-cell grids builds **zero DAGs**.  An edited grid resubmitted to
    the sweep layer therefore knows, before any store lookup, which
    cells are genuinely new work (``gained``) and which it can expect
    the cache tiers to answer (``shared``).  Accepts grids or plain
    spec sequences.

    >>> from repro.scenarios import Axis, ScenarioGrid, grid_diff
    >>> def widths(*values):
    ...     return ScenarioGrid(
    ...         generators=({"generator": "fork-join",
    ...                      "params": {"width": Axis(list(values)),
    ...                                 "work": 4}},),
    ...         budget_rules=(("const", 2.0),))
    >>> diff = grid_diff(widths(2, 3), widths(3, 4))
    >>> (len(diff.gained), len(diff.lost), len(diff.shared))
    (1, 1, 1)
    >>> diff.gained[0].params["width"], diff.lost[0].params["width"]
    (4, 2)
    >>> grid_diff(widths(2, 3), widths(2, 3)).is_empty
    True
    """
    old_cells = _unique_cells(old)
    new_cells = _unique_cells(new)
    return GridDiff(
        gained=tuple(spec for digest, spec in new_cells.items()
                     if digest not in old_cells),
        lost=tuple(spec for digest, spec in old_cells.items()
                   if digest not in new_cells),
        shared=tuple(spec for digest, spec in new_cells.items()
                     if digest in old_cells),
    )


def _unique_cells(grid: Union[ScenarioGrid, Sequence[ScenarioSpec]]
                  ) -> Dict[str, ScenarioSpec]:
    if isinstance(grid, ScenarioGrid):
        return grid.cells_by_digest()
    cells: Dict[str, ScenarioSpec] = {}
    for spec in grid:
        require(isinstance(spec, ScenarioSpec),
                f"grid_diff wants grids or ScenarioSpec sequences, "
                f"got {type(spec).__name__}")
        cells.setdefault(spec.cell_digest(), spec)
    return cells
