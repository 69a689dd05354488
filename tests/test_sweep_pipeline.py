"""One sweep pipeline: every front answers the same batch the same way.

One mixed batch -- two cells already in the store, pending cells, in-batch
duplicates of both kinds and one cell whose solve fails -- goes through
every front the engine has:

* :meth:`SweepService.run` with specs, with the materialized problems and
  with the :class:`~repro.scenarios.spec.ScenarioGrid` itself;
* :meth:`AsyncSweepService.submit_specs` and :meth:`AsyncSweepService.submit`;
* a store-aware router (:class:`~repro.cluster.RouterServer` over a
  :class:`~repro.cluster.ClusterClient` planning against the shared store).

All of them share one planner and one shard executor, so every slot must
come back with the same key, source, report and error, and every path
must count the same store hits, computations, failures and avoided
duplicate solves.  Each path starts from its own copy of one store.
"""

from __future__ import annotations

import asyncio
import json
import shutil

import pytest

from repro.cluster import ClusterClient, LocalCluster, RouterServer
from repro.engine import (
    AsyncSweepService,
    Portfolio,
    SweepService,
    clear_caches,
    set_solution_store,
)
from repro.engine.store import SolutionStore, report_to_payload
from repro.scenarios import Axis, ScenarioGrid
from repro.serve import request_metrics, request_sweep_spec

#: The dynamic program needs a series-parallel DAG, so the layered-random
#: cell fails its solve on every path (after materializing: its key is known).
METHOD = "series-parallel-dp"

GRID = ScenarioGrid(
    generators=(
        {"generator": "fork-join",
         "params": {"width": Axis([2, 3, 3, 4, 4, 5]), "work": 8}},
        {"generator": "layered-random",
         "params": {"num_layers": 3, "jobs_per_layer": 2}},
    ),
    budget_rules=(("const", 2.0),),
)
SPECS = list(GRID.expand())
#: Cells the store already holds when each path starts (widths 2 and 3).
STORED = SPECS[:2]

EXPECTED_SOURCES = ["store", "store", "store", "computed", "computed",
                    "computed", "failed"]
EXPECTED_COUNTS = {"store_hits": 2, "computed": 2, "failed": 1,
                   "dup_solves_avoided": 0}


@pytest.fixture(autouse=True)
def _fresh_engine():
    clear_caches()
    set_solution_store(None)
    yield
    clear_caches()
    set_solution_store(None)


def run_async(coro, timeout: float = 120.0):
    async def _bounded():
        return await asyncio.wait_for(coro, timeout)
    return asyncio.run(_bounded())


def _portfolio() -> Portfolio:
    return Portfolio(executor="thread", max_workers=2)


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("template") / "store")
    with SweepService(store=root, portfolio=_portfolio()) as service:
        assert service.run(STORED, METHOD).stats.computed == len(STORED)
    return root


@pytest.fixture
def store_root(template, tmp_path):
    """A private copy of the template store, with cold in-process caches."""
    clear_caches()
    root = str(tmp_path / "store")
    shutil.copytree(template, root)
    return root


def _report_text(report_payload):
    if report_payload is None:
        return None
    report = dict(report_payload)
    report.pop("wall_time")
    return json.dumps(report, sort_keys=True)


def _slot(result):
    """``(key, source, report, error)`` of one in-process result."""
    if result.payload is not None:
        report = json.loads(result.payload)
    elif result.report is not None:
        report = report_to_payload(result.report, result.key)
    else:
        report = None
    return result.key, result.source, _report_text(report), result.error


def _counts(stats):
    return {name: getattr(stats, name) for name in EXPECTED_COUNTS}


def _sync(store_root, scenarios):
    with SweepService(store=store_root, portfolio=_portfolio()) as service:
        report = service.run(scenarios, METHOD)
    return [_slot(r) for r in report.results], _counts(report.stats)


def _async(store_root, submit_specs):
    async def body():
        async with AsyncSweepService(store=store_root,
                                     portfolio=_portfolio()) as service:
            if submit_specs:
                ticket = await service.submit_specs(SPECS, METHOD)
            else:
                ticket = await service.submit(
                    [spec.materialize() for spec in SPECS], METHOD)
            results = await ticket.results()
            await service.drain()
            return [_slot(r) for r in results], _counts(service.stats)
    return run_async(body())


def _router(store_root, sock):
    async def body():
        async with LocalCluster(2, store_root=store_root) as cluster:
            client = ClusterClient(cluster.addresses(),
                                   store=SolutionStore(store_root))
            async with RouterServer(client, unix_socket=sock):
                lines = await request_sweep_spec(SPECS, unix_socket=sock,
                                                 method=METHOD)
                metrics = await request_metrics(unix_socket=sock)
        return lines, metrics

    lines, metrics = run_async(body())
    slots = [(line["key"], line["source"], _report_text(line["report"]),
              line["error"]) for line in lines]
    counts = {name: metrics["service"][name] for name in EXPECTED_COUNTS}
    # The router answers store-held cells itself (no runner sees them):
    # one store hit per planned-local cell, not per slot.
    counts["store_hits"] += len({line["cell"] for line in lines
                                 if line["runner"] is None})
    assert metrics["router"]["planned_local"] == EXPECTED_SOURCES.count("store")
    return slots, counts


PATHS = {
    "sync-specs": lambda root, tmp: _sync(root, SPECS),
    "sync-problems": lambda root, tmp: _sync(
        root, [spec.materialize() for spec in SPECS]),
    "sync-grid": lambda root, tmp: _sync(root, GRID),
    "async-submit-specs": lambda root, tmp: _async(root, submit_specs=True),
    "async-submit": lambda root, tmp: _async(root, submit_specs=False),
    "router": lambda root, tmp: _router(root, str(tmp / "router.sock")),
}


@pytest.fixture(scope="module")
def reference(template, tmp_path_factory):
    """The answer of the sync spec path, which every path must equal."""
    clear_caches()
    root = str(tmp_path_factory.mktemp("reference") / "store")
    shutil.copytree(template, root)
    slots, counts = _sync(root, SPECS)
    clear_caches()
    return slots, counts


def test_reference_batch_has_every_kind_of_slot(reference):
    slots, counts = reference
    assert [source for _, source, _, _ in slots] == EXPECTED_SOURCES
    assert counts == EXPECTED_COUNTS
    keys = [key for key, _, _, _ in slots]
    assert keys[1] == keys[2] and keys[3] == keys[4]   # in-batch duplicates
    assert len(set(keys)) == 5
    failed = slots[-1]
    assert failed[2] is None and "series-parallel" in failed[3]
    assert all(error is None for _, _, _, error in slots[:-1])


@pytest.mark.parametrize("path", sorted(PATHS))
def test_every_front_answers_the_batch_identically(path, reference,
                                                   store_root, tmp_path):
    slots, counts = PATHS[path](store_root, tmp_path)
    expected_slots, expected_counts = reference
    for index, (got, want) in enumerate(zip(slots, expected_slots)):
        assert got == want, f"{path}: slot {index} differs"
    assert len(slots) == len(expected_slots)
    assert counts == expected_counts
