"""Incremental sweep planning: classify cells before any shard is formed.

The sweep services historically resolved each unique cell against the
store one key at a time, and sized shards from a static pool-width
heuristic that never looked at what the store had already answered.
This module is the planning tier that replaces both:

* :func:`build_sweep_plan` takes a sweep's unique cells -- ``(alias,
  spec)`` pairs, the pre-materialization dedup, or ``(request key,
  problem)`` pairs, a materialized cell being the degenerate cell whose
  identity is its request key -- and classifies **every** cell in one
  batched pass over prewarmed memory, the spec-key memo and the store
  (:meth:`SolutionStore.get_raw_many
  <repro.engine.store.SolutionStore.get_raw_many>`, which hands over
  the stored report bytes without decoding them) into

  - ``memory-hit`` -- the report sits in the tier-1 LRU, installed there
    by the asking service's resize prewarm
    (:func:`~repro.engine.core.cached_solution`);
  - ``store-hit`` -- the request fingerprint was known (memoized
    in-process, or the cell is materialized) and the store holds the
    report;
  - ``alias-hit`` -- the fingerprint came from the persistent
    ``{"alias_of": ...}`` entry a previous process wrote; still zero DAG
    builds;
  - ``manifest-done`` -- a resume manifest marked the cell completed
    *and* the store still holds the report (the store stays the source
    of truth: a manifest entry whose report was lost re-pends);
  - ``pending`` -- genuinely new work, the only cells a shard (or the
    cluster wire) should ever carry.

* :func:`recommend_shard_size` picks the shard size from the *plan*
  (pending-cell count, measured hit rate, cluster runner count) instead
  of the submitted batch size, so a warm 10k-cell grid with three cold
  cells forms three one-cell shards instead of pool-width monsters.

It is the one place a batch is classified:
:class:`~repro.engine.service.SweepService`,
:class:`~repro.engine.async_service.AsyncSweepService` and the cluster
router's local plan all call it.  No DAG is ever materialized here:
classification runs on spec content
(:meth:`~repro.scenarios.spec.ScenarioSpec.cell_digest`), the spec-key
memo (:func:`~repro.engine.fingerprint.alias_fingerprint`) and store
payloads.  Pair with :func:`repro.scenarios.grid_diff` to know the
gained/lost cells of an edited grid before even planning it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.engine.core import cached_solution
from repro.engine.fingerprint import alias_fingerprint, record_alias_fingerprint
from repro.engine.store import report_from_bytes
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "CELL_ALIAS_HIT",
    "CELL_MANIFEST_DONE",
    "CELL_MEMORY_HIT",
    "CELL_PENDING",
    "CELL_STORE_HIT",
    "PlannedCell",
    "SweepPlan",
    "build_sweep_plan",
    "recommend_shard_size",
]

#: Cell classifications, in the order the tiers are consulted.
CELL_MEMORY_HIT = "memory-hit"
CELL_STORE_HIT = "store-hit"
CELL_ALIAS_HIT = "alias-hit"
CELL_MANIFEST_DONE = "manifest-done"
CELL_PENDING = "pending"


@dataclass
class PlannedCell:
    """One unique cell's classification (see :func:`build_sweep_plan`).

    A materialized cell is the degenerate case: no alias, no spec, and its
    :attr:`identity` is its request key.
    """

    #: Pre-materialization dedup identity (``spec_alias_key``); ``None``
    #: for a materialized cell.
    alias: Optional[str]
    #: The declarative cell itself (``None`` for a materialized cell).
    spec: Any
    #: Content digest of the spec (``spec.cell_digest()``; ``""`` for a
    #: materialized cell).
    digest: str
    #: One of the ``CELL_*`` constants.
    status: str
    #: Resolved request fingerprint (``None`` for never-seen cells).
    key: Optional[str] = None
    #: The store's report bytes for store-answered cells (``None``
    #: otherwise), as :meth:`~repro.engine.store.SolutionStore.get_raw_many`
    #: returns them.
    payload: Optional[bytes] = field(default=None, repr=False)
    #: The materialized problem (materialized cells only).
    problem: Any = field(default=None, repr=False)
    _report: Any = field(default=None, init=False, repr=False, compare=False)

    @property
    def identity(self) -> str:
        """What dedups, claims and checkpoints the cell: its alias, else
        (materialized) its request key."""
        return self.alias if self.alias is not None else self.key

    @property
    def done(self) -> bool:
        """Answered without solving (any non-pending status)."""
        return self.status != CELL_PENDING

    @property
    def report(self) -> Any:
        """The answering report: a memory hit's, else decoded from
        :attr:`payload` on first access."""
        if self._report is None and self.payload is not None:
            self._report = report_from_bytes(self.payload)
        return self._report


@dataclass
class SweepPlan:
    """A classified sweep: what the caches answer, what actually runs.

    ``cells`` holds one :class:`PlannedCell` per unique cell in
    submission order.  The plan is *advice plus evidence*: the services
    hand over the carried report bytes for done cells and shard only
    :attr:`pending`; the cluster router ships only :attr:`pending` over
    the wire.
    """

    cells: List[PlannedCell] = field(default_factory=list)
    method: str = "auto"

    # ------------------------------------------------------------------
    @property
    def pending(self) -> List[PlannedCell]:
        """Cells that need a solver, in submission order."""
        return [cell for cell in self.cells if cell.status == CELL_PENDING]

    @property
    def done(self) -> List[PlannedCell]:
        """Cells the caches answered, in submission order."""
        return [cell for cell in self.cells if cell.done]

    def count(self, status: str) -> int:
        return sum(1 for cell in self.cells if cell.status == status)

    @property
    def hit_rate(self) -> float:
        """Fraction of unique cells answered without solving."""
        return len(self.done) / len(self.cells) if self.cells else 0.0

    def shard_size(self, worker_count: int, *, oversubscription: int = 4,
                   runner_count: int = 1) -> int:
        """Adaptive shard size for this plan's pending cells."""
        return recommend_shard_size(
            len(self.pending), worker_count,
            oversubscription=oversubscription,
            runner_count=runner_count, hit_rate=self.hit_rate)

    def counts(self) -> Dict[str, int]:
        """Classification histogram plus totals (for logs and metrics)."""
        return {
            "cells": len(self.cells),
            "memory_hit": self.count(CELL_MEMORY_HIT),
            "store_hit": self.count(CELL_STORE_HIT),
            "alias_hit": self.count(CELL_ALIAS_HIT),
            "manifest_done": self.count(CELL_MANIFEST_DONE),
            "pending": len(self.pending),
        }

    def summary(self) -> str:
        counts = self.counts()
        return (f"{counts['cells']} cells: {counts['memory_hit']} memory-hit, "
                f"{counts['store_hit']} store-hit, "
                f"{counts['alias_hit']} alias-hit, "
                f"{counts['manifest_done']} manifest-done, "
                f"{counts['pending']} pending "
                f"({self.hit_rate:.0%} answered)")


def recommend_shard_size(pending: int, worker_count: int, *,
                         oversubscription: int = 4, runner_count: int = 1,
                         hit_rate: float = 0.0) -> int:
    """Shard size from the plan, not the submitted batch size.

    Three inputs replace the static pool-width heuristic:

    * only **pending** cells count -- cache-answered cells never reach a
      shard, so they must not inflate shard sizes either;
    * ``runner_count`` spreads the fan-out across every cluster runner's
      pool, not just the local one;
    * the measured ``hit_rate`` biases warm sweeps toward finer shards:
      a mostly-answered sweep is latency-bound, and its few cold cells
      should spread across the whole pool instead of queueing behind one
      straggler shard.

    With ``hit_rate=0`` and ``runner_count=1`` this reproduces the
    historical :meth:`Portfolio.shard_plan
    <repro.engine.portfolio.Portfolio.shard_plan>` sizing exactly, so
    cold sweeps keep their pinned shard counts.
    """
    if pending <= 0:
        return 1
    lanes = max(1, worker_count) * max(1, runner_count)
    # hit_rate scales oversubscription up smoothly, capped at 16x so a
    # 100%-warm plan cannot divide by zero.
    effective = max(1.0, oversubscription / max(1.0 - hit_rate, 1.0 / 16.0))
    return max(1, math.ceil(pending / (lanes * effective)))


def build_sweep_plan(cells: Sequence[Tuple[str, Any]], method: str = "auto", *,
                     store: Any = None,
                     limits: Any = None,
                     validate: bool = True,
                     manifest_done: Optional[Iterable[str]] = None,
                     prewarm_tag: Optional[str] = None,
                     **options: Any) -> SweepPlan:
    """Classify a sweep's unique cells in one batched pass.

    Parameters
    ----------
    cells:
        One pair per unique cell in submission order: ``(alias, spec)``
        for a :class:`~repro.scenarios.spec.ScenarioSpec` (the services'
        pre-materialization dedup), ``(request key, problem)`` for a
        materialized problem.
    store:
        The :class:`~repro.engine.store.SolutionStore` to consult; with
        ``None`` every cell no memory tier answers is simply pending.
    manifest_done:
        Tokens a resume manifest recorded as completed.  Any of a cell's
        identities may match -- its alias, its resolved request
        fingerprint or its cell digest -- which is what lets v2
        (digest-keyed) and legacy v1 (request-keyed) manifests both
        drive resume.
    prewarm_tag:
        The asking service's prewarm mark: a cell whose report
        :func:`~repro.engine.core.warm_solution_cache` installed under
        it is a ``memory-hit`` and skips the store.
    method / limits / validate / options:
        The sweep's solve context (part of every fingerprint).

    Cells resolved through a persistent alias entry are recorded into
    the in-process spec-key memo as a side effect -- the next sweep in
    this process skips the store round-trip for them.
    """
    marked: Set[str] = set(manifest_done or ())
    planned: List[PlannedCell] = []
    for identity, item in cells:
        if isinstance(item, ScenarioSpec):
            planned.append(PlannedCell(alias=identity, spec=item,
                                       digest=item.cell_digest(),
                                       status=CELL_PENDING,
                                       key=alias_fingerprint(identity)))
        else:
            planned.append(PlannedCell(alias=None, spec=None, digest="",
                                       status=CELL_PENDING, key=identity,
                                       problem=item))

    probing = planned
    if prewarm_tag:
        probing = []
        for cell in planned:
            report = (cached_solution(cell.key, prewarm_tag)
                      if cell.key is not None else None)
            if report is None:
                probing.append(cell)
                continue
            cell.status = CELL_MEMORY_HIT
            cell._report = report

    if store is not None and probing:
        # One batched pass: cells with a known fingerprint probe it
        # directly, the rest probe their alias entry (followed to its
        # target inside the store, still batched per shard).
        probes = [cell.key if cell.key is not None else cell.alias
                  for cell in probing]
        resolved = store.get_raw_many(probes)
        for cell, probe in zip(probing, probes):
            true_key, payload = resolved.get(probe, (None, None))
            via_alias = cell.key is None and true_key is not None
            if via_alias:
                cell.key = true_key
                record_alias_fingerprint(cell.identity, true_key)
            if payload is None:
                continue
            cell.payload = payload
            if marked and not marked.isdisjoint(
                    (cell.alias, cell.digest, cell.key or "")):
                cell.status = CELL_MANIFEST_DONE
            elif via_alias:
                cell.status = CELL_ALIAS_HIT
            else:
                cell.status = CELL_STORE_HIT

    return SweepPlan(cells=planned, method=method)
