#!/usr/bin/env python
"""Alternating parent/change perfbench pairs, with a verdict per metric.

A performance change is judged on pairs of ``perfbench/run.py`` runs:
one of a parent revision, one of the working tree, alternating which
side goes first, so that slow drift in the host hits both sides alike.
This tool runs the pairs and applies the rule of ``BENCHMARK.json`` to
them.

Set-up: the parent's ``src/`` (``git archive REV src``) and a copy of the
working tree's ``src/`` each go into a temporary checkout beside copies of
the working tree's ``perfbench/`` and ``BENCHMARK.json``, so both sides
run identical benchmark code.  Pair ``i`` (from 1) runs the parent first
when ``i`` is odd.  The tool stops at the first run that exits non-zero
or reports ``failed > 0``.

Output: every run's end-to-end values, then per metric each side's
median, quartiles and the change's win count (pairs where the change
beat its parent run), and a verdict:

* the ``--claim`` metric is **met** when the change wins at least 0.9 of
  the pairs and its median beats the parent's by more than the parent's
  interquartile range;
* every other metric is **within bound** (the change's median is worse
  than the parent's by at most the metric's ``bound``, relative),
  **worse**, or **unresolved**: the parent's spread (interquartile range
  over median) is wider than the bound and not every change run beats
  every parent run, so a difference of the bound's size cannot be told
  from noise.

Usage::

    python tools/perf_pairs.py --parent HEAD~1 --workload warm-wire \\
        --seed 1 --pairs 10 --claim throughput_per_s [--workdir DIR] \\
        [--write-trajectory BENCH_<n>.json]

Each run lasts ``BENCHMARK.json``'s ``run_seconds``.  ``--write-trajectory``
merges the per-metric table, labelled with the machine (platform, CPU
count, Python, NumPy and SciPy versions), into that JSON file under
``perf_pairs.<workload>.<seed>``; whatever else the file holds (such as
``tools/compare_bench.py --write-trajectory``'s entry) is kept.

Exit code: 0 when every run passed, no metric is worse and the claim (if
any) is met; 1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Share of pairs the change must win for a claimed gain.
CLAIM_WIN_SHARE = 0.9

Pair = Tuple[Dict[str, float], Dict[str, float]]


# ---------------------------------------------------------------------------
# statistics and verdicts (pure; tested without running a benchmark)
# ---------------------------------------------------------------------------

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values`` (inclusive method)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _better(a: float, b: float, better: str) -> bool:
    """Is ``a`` strictly better than ``b``?"""
    return a > b if better == "higher" else a < b


def summarize(pairs: Sequence[Pair], metric: Dict[str, Any],
              claim: bool = False) -> Dict[str, Any]:
    """Medians, quartiles, wins and the verdict of one end-to-end metric.

    ``pairs`` holds ``(parent values, change values)`` per pair;
    ``metric`` is the metric's ``BENCHMARK.json`` entry (``name``,
    ``better``, ``bound``).
    """
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    parent = [p[name] for p, _c in pairs]
    change = [c[name] for _p, c in pairs]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(_better(c[name], p[name], better) for p, c in pairs)
    iqr = p_q3 - p_q1
    gap = (c_med - p_med) if better == "higher" else (p_med - c_med)
    # Relative worsening of the change's median (negative: an improvement).
    worse_by = (-gap / abs(p_med)) if p_med else (0.0 if gap >= 0 else float("inf"))
    spread = iqr / abs(p_med) if p_med else 0.0
    dominates = all(_better(c, p, better) for c in change for p in parent)
    if claim:
        met = wins >= CLAIM_WIN_SHARE * len(pairs) and gap > iqr
        verdict = "met" if met else "not met"
    elif spread > bound and not dominates:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "within bound"
    return {"name": name, "better": better, "bound": bound,
            "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
            "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
            "wins": wins, "pairs": len(pairs), "parent_iqr": iqr,
            "parent_spread": spread, "median_gap": gap,
            "relative_change": (c_med - p_med) / p_med if p_med else 0.0,
            "verdict": verdict}


def verdicts(pairs: Sequence[Pair], metrics: Sequence[Dict[str, Any]],
             claim: Optional[str] = None) -> List[Dict[str, Any]]:
    """:func:`summarize` for every end-to-end metric of ``BENCHMARK.json``."""
    return [summarize(pairs, metric, claim=metric["name"] == claim)
            for metric in metrics]


def passed(summaries: Sequence[Dict[str, Any]]) -> bool:
    """No metric worse or unresolved, and any claim met."""
    return all(s["verdict"] in ("within bound", "met") for s in summaries)


def machine_label() -> Dict[str, Any]:
    """The host and toolchain a measurement was taken with."""
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "absent"
    return {"platform": platform.platform(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def write_trajectory(path: str, workload: str, seed: int, parent: str,
                     summaries: Sequence[Dict[str, Any]],
                     machine: Dict[str, Any]) -> None:
    """Merge one workload's per-metric table into the JSON file at ``path``."""
    entry: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
    table = entry.setdefault("perf_pairs", {}).setdefault(workload, {})
    table[str(seed)] = {
        "parent": parent, "machine": machine,
        "pairs": summaries[0]["pairs"] if summaries else 0,
        "metrics": {s["name"]: {key: s[key] for key in (
            "better", "parent", "change", "wins", "relative_change", "verdict")}
            for s in summaries},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# running the pairs
# ---------------------------------------------------------------------------

def _copy_bench(dest: str) -> None:
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), dest)


def prepare(parent_rev: str, workdir: str) -> Tuple[str, str]:
    """The parent and change checkouts under ``workdir``."""
    parent, change = os.path.join(workdir, "parent"), os.path.join(workdir, "change")
    for side in (parent, change):
        os.makedirs(side)
        _copy_bench(side)
    archive = subprocess.run(["git", "archive", "--format=tar", parent_rev, "src"],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # The "data" filter (where this Python has it) refuses absolute
        # paths and links out of the tree.
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(parent, **safe)
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(change, "src"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return parent, change


def run_once(checkout: str, workload: str, seed: int,
             seconds: float) -> Tuple[Optional[Dict[str, Any]], str]:
    """One untraced perfbench run: ``(result line or None, problem)``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if proc.returncode != 0 or result is None:
        tail = (proc.stderr.strip().splitlines() or lines or [""])[-1]
        return result, f"exit code {proc.returncode}: {tail}"
    if result.get("failed", 0) > 0:
        return result, f"{result['failed']} failed operations"
    return result, ""


def run_pairs(parent: str, change: str, workload: str, seed: int, pairs: int,
              seconds: float) -> Tuple[List[Pair], str]:
    """Alternate the runs, printing each; ``(complete pairs, stop reason)``."""
    complete: List[Pair] = []
    for index in range(1, pairs + 1):
        order = [("parent", parent), ("change", change)]
        if index % 2 == 0:
            order.reverse()
        values: Dict[str, Dict[str, float]] = {}
        for side, checkout in order:
            result, problem = run_once(checkout, workload, seed, seconds)
            metrics = {name: entry["value"]
                       for name, entry in ((result or {}).get("metrics") or {}).items()}
            print(f"pair {index} {side:<6} " + "  ".join(
                f"{name} {value:.6g}" for name, value in metrics.items())
                + (f"  STOP: {problem}" if problem else ""), flush=True)
            if problem:
                return complete, f"pair {index} {side}: {problem}"
            values[side] = metrics
        complete.append((values["parent"], values["change"]))
    return complete, ""


def render(summaries: Sequence[Dict[str, Any]]) -> str:
    rows = [f"{'metric':<18} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
            f"{'wins':>6} {'change':>8}  verdict"]
    for s in summaries:
        p, c = s["parent"], s["change"]
        rows.append(
            f"{s['name']:<18} {p['q1']:>9.4g} {p['median']:>9.4g} {p['q3']:>9.4g}  "
            f"{c['q1']:>9.4g} {c['median']:>9.4g} {c['q3']:>9.4g}  "
            f"{s['wins']:>2}/{s['pairs']:<3} {s['relative_change']:>+7.1%}  "
            f"{s['verdict']}")
    return "\n".join(rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="tools/perf_pairs.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--claim", default=None,
                        help="end-to-end metric the change claims to improve")
    parser.add_argument("--workdir", default=None,
                        help="where the two checkouts go (default: a temp dir)")
    parser.add_argument("--write-trajectory", default=None, metavar="PATH",
                        help="merge the per-metric table into this JSON file")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    metrics = bench["end_to_end"]
    if args.claim is not None and args.claim not in {m["name"] for m in metrics}:
        parser.error(f"--claim {args.claim!r} is no end-to-end metric of BENCHMARK.json")
    seconds = bench["run_seconds"]

    if args.workdir:
        os.makedirs(args.workdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perf-pairs-", dir=args.workdir)
    try:
        parent, change = prepare(args.parent, workdir)
        pairs, stopped = run_pairs(parent, change, args.workload,
                                   args.seed, args.pairs, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summaries = verdicts(pairs, metrics, args.claim) if pairs else []
    print(f"\n{args.workload} seed {args.seed}: {len(pairs)} complete pairs "
          f"of {seconds:g} s (parent {args.parent})")
    if summaries:
        print(render(summaries))
        if args.write_trajectory:
            parent_id = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT,
                                       capture_output=True, text=True).stdout.strip()
            write_trajectory(args.write_trajectory, args.workload, args.seed,
                             parent_id or args.parent, summaries, machine_label())
            print(f"merged into {args.write_trajectory}")
    if stopped:
        print(f"stopped: {stopped}")
    return 0 if pairs and not stopped and passed(summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
