"""Stable fingerprints for DAGs, problems and solve requests, plus the
stable (JSON-safe) serialization of solutions that the persistent store
writes to disk.

Repeated scenario sweeps re-solve near-identical instances; the engine keys
its memoized structure probes and its solution cache on a content hash of
the instance rather than on object identity, so rebuilding a workload from
its generator (or unpickling it in a portfolio worker) still hits the cache.

The fingerprint covers everything a solver can observe: job names, the
canonical resource-time breakpoints of every duration function, and the
edge list.  Job insertion order is *not* part of the fingerprint -- two
DAGs with the same jobs, durations and edges hash identically regardless of
construction order.

Three fingerprint granularities build on each other:

* :func:`dag_fingerprint` -- the DAG's content (keys the structure cache);
* :func:`problem_fingerprint` -- DAG + objective + budget/target (identifies
  a problem instance);
* :func:`request_fingerprint` -- problem + method + limits + options +
  validation flag (identifies a *solve request*; keys both the in-memory
  LRU and the on-disk :class:`~repro.engine.store.SolutionStore`).

A fourth entry point serves the declarative scenario layer
(:mod:`repro.scenarios`): :func:`spec_fingerprint` resolves a
:class:`~repro.scenarios.spec.ScenarioSpec` to the *same* request
fingerprint its materialized problem would get.  Registered generators are
deterministic, so the mapping ``spec -> request fingerprint`` is a pure
function; it is resolved by materializing **at most once per process** and
memoized by the spec's content digest.  :func:`spec_alias_key` names the
persistent form of that memo: serving layers store
``{"alias_of": <request fingerprint>}`` under it, so a *warm* spec sweep
resolves store keys without building a single DAG
(:func:`cached_spec_fingerprint` + the alias is the no-DAG lookup path).

:func:`solution_to_payload` / :func:`solution_from_payload` round-trip a
:class:`~repro.core.problem.TradeoffSolution` through plain JSON types; see
``docs/caching.md`` for the stability guarantees this gives the store.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import json
from typing import Any, Dict, Optional, Tuple

from repro.core.dag import TradeoffDAG
from repro.core.problem import TradeoffSolution
from repro.engine.cache import LRUCache

__all__ = [
    "dag_fingerprint",
    "arcdag_fingerprint",
    "problem_fingerprint",
    "request_fingerprint",
    "spec_fingerprint",
    "cached_spec_fingerprint",
    "record_spec_fingerprint",
    "alias_fingerprint",
    "record_alias_fingerprint",
    "spec_alias_key",
    "clear_spec_key_cache",
    "solution_to_payload",
    "solution_from_payload",
    "decode_payload_value",
    "UnserializableSolutionError",
]


class UnserializableSolutionError(ValueError):
    """A solution cannot be round-tripped through the stable JSON encoding.

    Raised by :func:`solution_to_payload` when an allocation key is not a
    Python literal (so it would not survive a disk round trip) or when a
    metadata value has no JSON representation.  The store treats this as
    "do not persist", never as a failure of the solve itself.
    """


def _job_token(dag: TradeoffDAG, job) -> str:
    tuples = dag.duration_function(job).tuples()
    return f"{job!r}:{tuples!r}"


def dag_fingerprint(dag: TradeoffDAG) -> str:
    """Return a stable hex digest identifying ``dag`` by content.

    Two structurally identical DAGs (same job names, same canonical duration
    breakpoints, same edges) produce the same fingerprint, independent of
    the order in which jobs and edges were added.
    """
    hasher = hashlib.sha256()
    for token in sorted(_job_token(dag, job) for job in dag.jobs):
        hasher.update(token.encode())
        hasher.update(b"\x00")
    hasher.update(b"|edges|")
    for edge in sorted(f"{u!r}->{v!r}" for u, v in dag.edges):
        hasher.update(edge.encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


def arcdag_fingerprint(arc_dag) -> str:
    """Return a stable hex digest identifying an :class:`~repro.core.arcdag.ArcDAG`.

    Covers everything the LP kernel can observe: source/sink, and for every
    arc its id, endpoints, canonical duration breakpoints and dummy flag.
    Keys the engine's :class:`~repro.core.lp.LPModelSkeleton` cache
    (:mod:`repro.engine.batch`), so two structurally identical expanded DAGs
    -- e.g. the same workload rebuilt from its generator in another process
    -- share one prebuilt LP model.
    """
    hasher = hashlib.sha256()
    hasher.update(f"{arc_dag.source!r}->{arc_dag.sink!r}".encode())
    for token in sorted(
            f"{arc.arc_id}|{arc.tail!r}->{arc.head!r}|"
            f"{arc.duration.tuples()!r}|{arc.is_dummy}"
            for arc in arc_dag.arcs):
        hasher.update(token.encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


def problem_fingerprint(dag: TradeoffDAG, objective: str, parameter: float,
                        dag_digest: Optional[str] = None) -> str:
    """Fingerprint of a (dag, objective, budget-or-target) problem instance.

    ``dag_digest`` lets callers that already hold a :func:`dag_fingerprint`
    skip rehashing the DAG.
    """
    digest = dag_digest if dag_digest is not None else dag_fingerprint(dag)
    hasher = hashlib.sha256()
    hasher.update(digest.encode())
    hasher.update(f"|{objective}|{parameter!r}".encode())
    return hasher.hexdigest()


def request_fingerprint(problem_digest: str, method: str, limits_key: Tuple,
                        options_key: Tuple, validate: bool) -> str:
    """Fingerprint of one full solve request (the two-tier cache key).

    Extends a :func:`problem_fingerprint` with everything else that can
    change the answer: the requested ``method`` (``"auto"`` is part of the
    key -- auto-dispatch on a grown registry may legitimately answer
    differently), the :meth:`~repro.engine.core.SolveLimits.cache_key`
    tuple, the sorted options tuple and the ``validate`` flag.  The digest
    is what the in-memory LRU and the persistent store agree on, so a
    report computed in one process is a hit in every other.
    """
    hasher = hashlib.sha256()
    hasher.update(problem_digest.encode())
    hasher.update(f"|{method}|{limits_key!r}|{options_key!r}|{validate!r}".encode())
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# spec fingerprints (the declarative scenario layer's key resolution)
# ---------------------------------------------------------------------------

#: ``spec alias key -> request fingerprint``.  The alias key
#: (:func:`spec_alias_key`) is pure spec content (no DAG); the value is the
#: materialized problem's request fingerprint, learned by materializing
#: once or seeded from a worker / store alias via
#: :func:`record_alias_fingerprint`.
_SPEC_KEY_CACHE = LRUCache(maxsize=4096)


@functools.lru_cache(maxsize=1)
def _default_limits_key() -> str:
    """The limits key of a ``limits=None`` token: ``SolveLimits()``'s."""
    from repro.engine.core import SolveLimits

    return SolveLimits().key_repr


def _spec_request_token(spec: Any, method: str, limits: Any, validate: bool,
                        options: Dict[str, Any]) -> str:
    """The no-DAG identity of one spec-native solve request.

    Built once per cell on the serving hot path, so the error message is
    formatted only when the options cannot be keyed.
    """
    options_key: Tuple = ()
    if options:
        from repro.engine.core import _options_key

        options_key = _options_key(dict(options))
        if options_key and options_key[0] == "__uncacheable__":
            from repro.utils.validation import ValidationError

            raise ValidationError(
                "spec-native requests need content-keyable options; pass "
                "only literal option values (str/int/float/bool/None and "
                f"lists/tuples thereof) -- got {sorted(options)}")
    limits_key = limits.key_repr if limits is not None else _default_limits_key()
    return (f"{spec.cell_digest()}|{method}|{limits_key}|"
            f"{options_key!r}|{validate!r}")


def spec_fingerprint(spec: Any, method: str = "auto", *,
                     limits: Any = None, validate: bool = True,
                     **options: Any) -> str:
    """The request fingerprint ``materialize(spec)`` would be keyed under.

    Equal to ``request_key(spec.materialize(), method, ...)`` by
    construction -- generators are deterministic, so the mapping is
    resolved once (materializing the spec on first sight in this process)
    and memoized by spec content thereafter.  Serving layers avoid even
    the first materialization via :func:`cached_spec_fingerprint` plus the
    persistent :func:`spec_alias_key` entries they write.
    """
    alias = spec_alias_key(spec, method, limits=limits, validate=validate,
                           **options)
    key = _SPEC_KEY_CACHE.get(alias)
    if key is not None:
        return key
    from repro.engine.core import request_key

    key = request_key(spec.materialize(), method, limits=limits,
                      validate=validate, **options)
    _SPEC_KEY_CACHE.put(alias, key)
    return key


def cached_spec_fingerprint(spec: Any, method: str = "auto", *,
                            limits: Any = None, validate: bool = True,
                            **options: Any) -> Optional[str]:
    """The memoized :func:`spec_fingerprint`, or ``None`` -- never builds
    a DAG."""
    return alias_fingerprint(spec_alias_key(spec, method, limits=limits,
                                            validate=validate, **options))


def record_spec_fingerprint(spec: Any, key: str, method: str = "auto", *,
                            limits: Any = None, validate: bool = True,
                            **options: Any) -> None:
    """Seed the spec-key memo with an externally learned fingerprint.

    Called with the request fingerprint a worker (which did materialize
    the spec) or a persistent alias entry reported, so subsequent
    :func:`cached_spec_fingerprint` calls resolve without a DAG build in
    this process either.
    """
    record_alias_fingerprint(spec_alias_key(spec, method, limits=limits,
                                            validate=validate, **options), key)


def alias_fingerprint(alias: str) -> Optional[str]:
    """The memoized request fingerprint of the cell with ``alias`` (a
    :func:`spec_alias_key`), or ``None``."""
    return _SPEC_KEY_CACHE.get(alias)


def record_alias_fingerprint(alias: str, key: str) -> None:
    """Memoize ``alias -> key``: the form the serving layers use, since
    they already hold each cell's alias (a worker or a persistent alias
    entry reported the fingerprint)."""
    _SPEC_KEY_CACHE.put(alias, key)


def spec_alias_key(spec: Any, method: str = "auto", *,
                   limits: Any = None, validate: bool = True,
                   **options: Any) -> str:
    """Store key of the persistent ``spec -> request fingerprint`` alias.

    Distinct from the request fingerprint itself (aliases carry
    ``{"alias_of": ...}`` payloads, not reports) but just as stable:
    pure spec content, no DAG.  Also the pre-materialization dedup key of
    the spec-native sweep paths, and the key of the spec-key memo.
    """
    token = _spec_request_token(spec, method, limits, validate, options)
    return hashlib.sha256(f"spec-alias|{token}".encode()).hexdigest()


def clear_spec_key_cache() -> None:
    """Drop the in-process spec-to-request-key memo (tests, sweeps)."""
    _SPEC_KEY_CACHE.clear()


def _encode_key(key: Any) -> str:
    """Encode an allocation key as a ``repr`` that literal-evals back."""
    text = repr(key)
    try:
        round_tripped = ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise UnserializableSolutionError(
            f"allocation key {text} is not a Python literal") from exc
    if round_tripped != key:
        raise UnserializableSolutionError(
            f"allocation key {text} does not survive a repr round trip")
    return text


def _jsonify(value: Any, context: str) -> Any:
    """Coerce ``value`` to plain JSON types (tuples become lists)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # json rejects NaN/Infinity in strict mode; encode them as strings
        # understood by _unjsonify.
        if value != value or value in (float("inf"), float("-inf")):
            return {"__float__": repr(value)}
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonify(v, context) for v in value]
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise UnserializableSolutionError(
                    f"{context}: non-string dict key {k!r}")
            out[k] = _jsonify(v, context)
        # A user dict that happens to have exactly the shape of one of the
        # decoder's sentinels would be misread on load; escape it.
        if set(out) in ({"__float__"}, {"__escaped__"}):
            return {"__escaped__": out}
        return out
    # numpy arrays expose .tolist(), numpy scalars .item(); anything else
    # is rejected.
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return _jsonify(tolist(), context)
    item = getattr(value, "item", None)
    if callable(item):
        return _jsonify(item(), context)
    raise UnserializableSolutionError(
        f"{context}: value {value!r} of type {type(value).__name__} "
        f"has no stable JSON form")


def _unjsonify(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"__float__"}:
            return float(value["__float__"])  # 'inf' / '-inf' / 'nan'
        if set(value) == {"__escaped__"}:     # sentinel-shaped user dict
            return {k: _unjsonify(v) for k, v in value["__escaped__"].items()}
        return {k: _unjsonify(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_unjsonify(v) for v in value]
    return value


def decode_payload_value(value: Any) -> Any:
    """Decode one stored payload value (tagged floats, escaped dicts).

    The public counterpart of the encoder used by
    :func:`solution_to_payload`; analysis code reading raw store payloads
    (:mod:`repro.analysis.sweep`) uses this instead of re-implementing the
    encoding rules.
    """
    return _unjsonify(value)


def solution_to_payload(solution: TradeoffSolution) -> Dict[str, Any]:
    """Encode a solution as a stable, JSON-safe dict (the store's format).

    Allocation keys are stored as ``repr`` strings (restored with
    :func:`ast.literal_eval`) sorted for determinism.  The
    solution-defining fields (makespan, budget, allocation, bounds) must
    encode faithfully or :class:`UnserializableSolutionError` is raised --
    callers skip persistence then.  Metadata is free-form diagnostics and
    is encoded *best effort*: entries with no JSON form (e.g. the LP
    pipeline's full in-memory report) are dropped and their keys recorded
    under the payload's ``"dropped_metadata"`` so the loss is visible.
    """
    allocation = sorted(
        ([_encode_key(job), _jsonify(amount, "allocation amount")]
         for job, amount in solution.allocation.items()),
        key=lambda pair: pair[0])
    metadata: Dict[str, Any] = {}
    dropped = []
    for meta_key, meta_value in solution.metadata.items():
        if not isinstance(meta_key, str):
            dropped.append(repr(meta_key))
            continue
        try:
            metadata[meta_key] = _jsonify(meta_value, f"metadata[{meta_key!r}]")
        except UnserializableSolutionError:
            dropped.append(meta_key)
    # The hand-assembled top level needs the same sentinel escape _jsonify
    # applies to nested dicts, or a metadata dict shaped like a sentinel
    # would be misdecoded on load.
    if set(metadata) in ({"__float__"}, {"__escaped__"}):
        metadata = {"__escaped__": metadata}
    payload = {
        "makespan": _jsonify(solution.makespan, "makespan"),
        "budget_used": _jsonify(solution.budget_used, "budget_used"),
        "allocation": allocation,
        "algorithm": solution.algorithm,
        "lower_bound": _jsonify(solution.lower_bound, "lower_bound"),
        "resource_lower_bound": _jsonify(solution.resource_lower_bound,
                                         "resource_lower_bound"),
        "metadata": metadata,
        "dropped_metadata": sorted(dropped),
    }
    # Guarantee the payload is genuinely serializable before the store
    # commits to it (defensive: _jsonify should already have ensured this).
    json.dumps(payload)
    return payload


def solution_from_payload(payload: Dict[str, Any]) -> TradeoffSolution:
    """Inverse of :func:`solution_to_payload`."""
    allocation = {ast.literal_eval(key): _unjsonify(amount)
                  for key, amount in payload["allocation"]}
    return TradeoffSolution(
        makespan=_unjsonify(payload["makespan"]),
        budget_used=_unjsonify(payload["budget_used"]),
        allocation=allocation,
        algorithm=payload.get("algorithm", ""),
        lower_bound=_unjsonify(payload.get("lower_bound")),
        resource_lower_bound=_unjsonify(payload.get("resource_lower_bound")),
        metadata=_unjsonify(payload.get("metadata") or {}),
    )
