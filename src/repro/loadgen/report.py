"""Load-run reports: SLO percentiles, dedup accounting, reconciliation.

A :class:`LoadReport` is the single artifact of one load run.  It folds
together three views of the same traffic and *checks them against each
other*:

* **client-side** -- per-request outcomes from the load client: latency
  percentiles (p50/p95/p99, nearest-rank), ok/failed/rejected counts,
  chaos-fault outcomes, stream-integrity violations;
* **schedule-side** -- what the seeded schedule predicted: request
  count, unique cells, expected dedup ratio;
* **server-side** -- the ``metrics`` op polled before and after the run:
  deltas of the service counters (requests/deduped/store_hits/computed/
  failed/cancelled/prewarm_hits), wire-layer :class:`~repro.serve.ServerStats`,
  the persistent store's counters and, behind a store-aware router, the
  cells its plan answered itself (``planned_local``).

:meth:`LoadReport.reconcile` is the consistency gate: the three views
must agree request-for-request (client accepted == server requests
delta; server tiers sum to the delta; rejections match) or the run is
reporting fiction.  :meth:`LoadReport.machine_independent` is the flat
metric dict the benchmark gates on -- counts and ratios only, never
wall-clock numbers, in the ``tools/compare_bench.py`` artifact format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, TYPE_CHECKING

from repro.loadgen.arrivals import ArrivalSchedule
from repro.utils.validation import require

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (client <-> report)
    from repro.loadgen.client import RequestOutcome

__all__ = ["LoadReport", "build_report", "percentile", "render_report"]

#: Service counters whose before/after delta the report tracks.
SERVICE_COUNTERS = ("requests", "batches", "deduped", "store_hits",
                    "computed", "failed", "cancelled", "shards",
                    "prewarm_hits")
#: Router counters (``ClusterStats``) the report tracks; a single server
#: has none, so they read 0.
ROUTER_COUNTERS = ("planned_local",)
#: Wire-layer counters (``ServerStats``) the report tracks.
SERVER_COUNTERS = ("connections", "requests", "protocol_errors",
                   "oversized_lines", "rejections", "slow_reader_drops")
#: Latency quantiles every report carries (percent).
QUANTILES = (50.0, 95.0, 99.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of ``samples``.

    Nearest-rank (not interpolated) so every reported quantile is an
    actually observed latency -- the convention SLOs are written against.
    Empty input returns ``nan``.
    """
    require(0.0 <= q <= 100.0, "percentile q must be in [0, 100]")
    if not samples:
        return math.nan
    ordered = sorted(samples)
    if q == 0.0:
        return ordered[0]
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


@dataclass
class LoadReport:
    """Everything one load run produced (see module docstring)."""

    #: Schedule identity: process/seed/rate/skew/num_cells/count/signature.
    schedule: Dict[str, Any]
    #: Client-side outcome counts (sweeps only; chaos kept separately).
    counts: Dict[str, int]
    #: Latency milliseconds over delivered sweeps: p50/p95/p99/mean/max.
    latency_ms: Dict[str, float]
    #: Client-observed answer sources (``computed``/``store``/... counts).
    sources: Dict[str, int]
    #: Per-fault-kind ``{"injected": n, "ok": n}`` for chaos arrivals.
    chaos: Dict[str, Dict[str, int]]
    #: Service/server/store counter deltas (after - before).
    server_delta: Dict[str, Any]
    #: Full ``metrics`` snapshot polled after the run.
    snapshot: Dict[str, Any]
    #: Client wall-clock seconds for the whole replay.
    wall_s: float
    #: Problems :func:`build_report` already spotted (stream integrity).
    anomalies: List[str] = field(default_factory=list)

    # -- derived, machine-independent ----------------------------------
    @property
    def dedup_ratio(self) -> float:
        """Observed request dedup: 1 - unique cells / accepted sweeps."""
        accepted = self.counts["accepted"]
        if accepted == 0:
            return 0.0
        return 1.0 - self.schedule["unique_cells"] / accepted

    @property
    def shared_hits(self) -> int:
        """Slots answered without a solve of their own: deduplicated in
        flight, store hits and prewarmed-memory hits on the runners, plus
        the slots a store-aware router answered itself (``planned_local``;
        0 on a single server)."""
        service = self.server_delta["service"]
        planned_local = self.server_delta.get("router", {}).get("planned_local", 0)
        return int(service["deduped"] + service["store_hits"]
                   + service.get("prewarm_hits", 0) + planned_local)

    @property
    def cells_solved(self) -> int:
        """Fresh solves the run caused (service ``computed`` delta)."""
        return int(self.server_delta["service"]["computed"])

    @property
    def cells_per_request(self) -> float:
        """Fresh solves per accepted request -- the dedup win, inverted."""
        accepted = self.counts["accepted"]
        return self.cells_solved / accepted if accepted else 0.0

    def reconcile(self) -> List[str]:
        """Cross-check client accounting against server counters.

        Returns discrepancy descriptions (empty == the run reconciles).
        ``accepted`` counts every sweep the server took on: delivered +
        solve-failed sweeps plus chaos disconnects (their sweeps run to
        completion server-side even though nobody reads the answer).
        Rejected and wire-fault arrivals never reach the service.  Behind
        a store-aware router, the slots its plan answered from the shared
        store (``planned_local``) never reach a runner either, so they
        count on the server's side next to the runners' ``requests``.
        """
        problems = list(self.anomalies)
        service = self.server_delta["service"]
        server = self.server_delta["server"]
        planned_local = self.server_delta.get("router", {}).get("planned_local", 0)
        accepted = (self.counts["accepted"]
                    + self.chaos.get("chaos-disconnect", {}).get("injected", 0))
        if service["requests"] + planned_local != accepted:
            problems.append(
                f"server accepted {service['requests']} sweep slots "
                f"(+{planned_local} planned by the router) but the client "
                f"accounts for {accepted}")
        tier_sum = (service["deduped"] + service["store_hits"]
                    + service["computed"] + service["failed"]
                    + service["cancelled"] + service.get("prewarm_hits", 0))
        if tier_sum != service["requests"]:
            problems.append(
                f"service tiers sum to {tier_sum} != requests delta "
                f"{service['requests']} "
                f"(deduped={service['deduped']} store_hits="
                f"{service['store_hits']} computed={service['computed']} "
                f"failed={service['failed']} cancelled={service['cancelled']} "
                f"prewarm_hits={service.get('prewarm_hits', 0)})")
        if server["rejections"] != self.counts["rejected"]:
            problems.append(
                f"server counted {server['rejections']} rejections, client "
                f"saw {self.counts['rejected']}")
        if self.counts["errors"]:
            problems.append(
                f"{self.counts['errors']} sweep request(s) ended in "
                f"client-side errors (timeouts / lost connections)")
        return problems

    def machine_independent(self) -> Dict[str, Any]:
        """Flat, gateable metrics -- no wall-clock values anywhere.

        This is the dict ``benchmarks/bench_serve_load.py`` writes as its
        ``--json`` artifact body, compared by ``tools/compare_bench.py``.
        """
        return {
            "schedule_signature": self.schedule["signature"],
            "requests": self.counts["requests"],
            "accepted": self.counts["accepted"],
            "delivered": self.counts["ok"],
            "rejected": self.counts["rejected"],
            "unique_cells": self.schedule["unique_cells"],
            "dedup_ratio": round(self.dedup_ratio, 6),
            "cells_solved": self.cells_solved,
            "cells_per_request": round(self.cells_per_request, 6),
            "shared_hits": self.shared_hits,
            "protocol_errors": int(
                self.server_delta["server"]["protocol_errors"]),
            "reconciled": not self.reconcile(),
        }

    # -- serialization -------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe dict; round-trips through :meth:`from_payload`."""
        return {
            "report_schema": 1,
            "schedule": self.schedule,
            "counts": self.counts,
            "latency_ms": self.latency_ms,
            "sources": self.sources,
            "chaos": self.chaos,
            "server_delta": self.server_delta,
            "snapshot": self.snapshot,
            "wall_s": self.wall_s,
            "anomalies": list(self.anomalies),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "LoadReport":
        require(payload.get("report_schema") == 1,
                f"unsupported report schema {payload.get('report_schema')!r}")
        return cls(schedule=payload["schedule"], counts=payload["counts"],
                   latency_ms=payload["latency_ms"],
                   sources=payload["sources"], chaos=payload["chaos"],
                   server_delta=payload["server_delta"],
                   snapshot=payload["snapshot"], wall_s=payload["wall_s"],
                   anomalies=list(payload.get("anomalies", [])))

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# report construction
# ---------------------------------------------------------------------------

def _counter_delta(before: Dict[str, Any], after: Dict[str, Any],
                   names: Sequence[str]) -> Dict[str, int]:
    return {name: int(after.get(name, 0)) - int(before.get(name, 0))
            for name in names}


def build_report(schedule: ArrivalSchedule,
                 outcomes: Sequence["RequestOutcome"],
                 metrics_before: Dict[str, Any],
                 metrics_after: Dict[str, Any],
                 wall_s: float) -> LoadReport:
    """Fold outcomes + metrics snapshots into one :class:`LoadReport`."""
    sweeps = [o for o in outcomes if o.kind == "sweep"]
    faults = [o for o in outcomes if o.kind != "sweep"]
    ok = [o for o in sweeps if o.ok]
    rejected = [o for o in sweeps if o.rejected]
    failed = [o for o in sweeps if not o.ok and not o.rejected
              and o.source is not None]
    errors = [o for o in sweeps if not o.ok and not o.rejected
              and o.source is None]
    counts = {
        "requests": len(sweeps),
        "ok": len(ok),
        "failed": len(failed),
        "rejected": len(rejected),
        "errors": len(errors),
        "accepted": len(ok) + len(failed),
        "chaos": len(faults),
    }
    latencies = sorted(o.latency_s * 1000.0 for o in ok)
    latency_ms = {f"p{q:g}": round(percentile(latencies, q), 3)
                  for q in QUANTILES}
    latency_ms["mean"] = (round(sum(latencies) / len(latencies), 3)
                          if latencies else math.nan)
    latency_ms["max"] = round(latencies[-1], 3) if latencies else math.nan
    sources: Dict[str, int] = {}
    for outcome in ok:
        source = outcome.source or "unknown"
        sources[source] = sources.get(source, 0) + 1
    chaos: Dict[str, Dict[str, int]] = {}
    for outcome in faults:
        bucket = chaos.setdefault(outcome.kind, {"injected": 0, "ok": 0})
        bucket["injected"] += 1
        bucket["ok"] += int(outcome.ok)
    anomalies = [f"request {o.index} (cell {o.cell}): {o.error}"
                 for o in errors]
    anomalies.extend(f"fault {o.index} ({o.kind}): {o.error}"
                     for o in faults if not o.ok)
    server_delta = {
        "service": _counter_delta(metrics_before["service"],
                                  metrics_after["service"],
                                  SERVICE_COUNTERS),
        "server": _counter_delta(metrics_before["server"],
                                 metrics_after["server"], SERVER_COUNTERS),
        "router": _counter_delta(metrics_before.get("router") or {},
                                 metrics_after.get("router") or {},
                                 ROUTER_COUNTERS),
        "store": (_counter_delta(metrics_before["store"],
                                 metrics_after["store"],
                                 ("hits", "misses", "writes"))
                  if metrics_before.get("store") is not None
                  and metrics_after.get("store") is not None else None),
    }
    return LoadReport(
        schedule={
            "process": schedule.process, "seed": schedule.seed,
            "rate": schedule.rate, "skew": schedule.skew,
            "num_cells": schedule.num_cells, "count": len(schedule),
            "unique_cells": schedule.unique_cells(),
            "duration_s": round(schedule.duration(), 6),
            "signature": schedule.signature(),
        },
        counts=counts, latency_ms=latency_ms, sources=sources, chaos=chaos,
        server_delta=server_delta, snapshot=metrics_after, wall_s=wall_s,
        anomalies=anomalies)


def render_report(report: LoadReport) -> str:
    """Human-readable report text for the CLI."""
    from repro.analysis.report import format_table

    sched = report.schedule
    lines = [
        f"load run: {sched['count']} requests, process={sched['process']} "
        f"rate={sched['rate']}/s skew={sched['skew']} "
        f"cells={sched['num_cells']} seed={sched['seed']}",
        f"schedule signature: {sched['signature'][:16]}...  "
        f"wall: {report.wall_s:.2f}s",
        "",
        format_table(
            ["outcome", "count"],
            [[name, report.counts[name]]
             for name in ("requests", "ok", "failed", "rejected", "errors",
                          "chaos")]),
        "",
        format_table(
            ["latency (ms)", "value"],
            [[name, report.latency_ms[name]]
             for name in ("p50", "p95", "p99", "mean", "max")]),
        "",
        format_table(
            ["traffic metric", "value"],
            [["dedup ratio", round(report.dedup_ratio, 4)],
             ["unique cells", sched["unique_cells"]],
             ["cells solved (server)", report.cells_solved],
             ["cells per request", round(report.cells_per_request, 4)],
             ["shared hits (dedup+store+memory+router)", report.shared_hits],
             ["rejections (server)",
              report.server_delta["server"]["rejections"]],
             ["protocol errors (server)",
              report.server_delta["server"]["protocol_errors"]]]),
    ]
    if report.chaos:
        lines.extend(["", format_table(
            ["chaos fault", "injected", "survived"],
            [[kind, bucket["injected"], bucket["ok"]]
             for kind, bucket in sorted(report.chaos.items())])])
    problems = report.reconcile()
    lines.append("")
    if problems:
        lines.append("RECONCILIATION FAILED:")
        lines.extend(f"  - {problem}" for problem in problems)
    else:
        lines.append("reconciliation: client and server accounting agree")
    return "\n".join(lines)
