"""The scenario-generator registry: declarative instance production.

Mirroring the solver registry (:mod:`repro.engine.registry`), every DAG
generator registers itself here with a :class:`GeneratorSpec`: a stable
``generator_id``, the duration families it can emit, a ``params_schema``
describing (and defaulting) its keyword parameters, and the build callable.
A registered generator is reproducible *from its identifier and parameters
alone* -- the property :class:`~repro.scenarios.spec.ScenarioSpec` builds
on to make whole experiment sweeps shippable as a few hundred bytes of
JSON instead of materialized DAG payloads.

Schema entries are small dicts::

    params_schema={
        "width":  {"type": "int", "required": True},
        "family": {"type": "str", "default": "binary",
                   "choices": ("general", "binary", "kway")},
        "lengths": {"type": "seq"},     # JSON array; canonicalised to tuple
    }

``validate_params`` checks types / choices, rejects unknown keys, fills
defaults and returns a canonical plain-JSON mapping (sequences as lists),
so two specs describing the same cell always hash identically.  The
``seed`` parameter is special: generators declare ``seeded=True`` instead
of putting ``seed`` in the schema, and the spec's own ``seed`` field is
injected at build time -- a seed can never hide inside ``params`` where
grid expansion would not see it.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.utils.validation import ValidationError, require

__all__ = [
    "GeneratorSpec",
    "register_generator",
    "unregister_generator",
    "get_generator",
    "generator_ids",
    "generator_specs",
    "validate_params",
]

#: Schema value types understood by :func:`validate_params`.
_PARAM_TYPES: Dict[str, tuple] = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "bool": (bool,),
    "seq": (list, tuple),
}


@dataclass(frozen=True)
class GeneratorSpec:
    """Capability record of one registered scenario generator.

    Attributes
    ----------
    generator_id:
        Stable identifier used by :class:`~repro.scenarios.spec.ScenarioSpec`
        payloads, docs and the serve wire protocol.
    summary:
        One-line human-readable description.
    families:
        Duration families the generator can emit (subset of
        ``{"general", "binary", "kway", "constant"}``); informational --
        sweep tables group on it.
    params_schema:
        ``name -> {"type", "default"?, "required"?, "choices"?}`` (see
        module docstring).  Parameters outside the schema are rejected.
    seeded:
        Does the build callable accept a ``seed=`` keyword?  When true the
        spec's ``seed`` field is forwarded; when false a non-zero spec seed
        is rejected (it would silently not vary the instance).
    adversarial:
        Is this a hardness-derived worst-case family (kept out of the
        "benign" defaults in docs and examples)?
    build:
        ``(**params) -> TradeoffDAG``; must be deterministic in its
        parameters (and ``seed``), or content-addressed caching above it
        breaks.
    """

    generator_id: str
    summary: str
    families: frozenset
    params_schema: Mapping[str, Mapping[str, Any]]
    seeded: bool
    adversarial: bool = False
    build: Callable = field(repr=False, default=None)

    def validate_params(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Canonical, defaulted parameter mapping for this generator."""
        return validate_params(self.generator_id, self.params_schema, params)

    def build_dag(self, params: Mapping[str, Any], seed: int = 0):
        """Build the DAG for validated ``params`` (+ ``seed`` if seeded)."""
        canonical = self.validate_params(params)
        if self.seeded:
            return self.build(seed=seed, **canonical)
        require(seed == 0,
                f"generator {self.generator_id!r} is unseeded; a spec seed "
                f"of {seed} would not vary the instance")
        return self.build(**canonical)


def validate_params(generator_id: str, schema: Mapping[str, Mapping[str, Any]],
                    params: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate ``params`` against ``schema``; return the canonical mapping.

    Unknown keys, missing required keys, type mismatches and out-of-choice
    values raise :class:`~repro.utils.validation.ValidationError`.
    Defaults are filled in, sequences are canonicalised to lists (the JSON
    form) and the result is key-sorted -- the stable shape
    :meth:`~repro.scenarios.spec.ScenarioSpec.cell_digest` hashes.  Runs
    once per decoded spec on the serving hot path, so each error message
    is formatted only when its check fails.
    """
    if not isinstance(params, abc.Mapping):
        raise ValidationError(f"generator {generator_id!r}: params must be a "
                              f"mapping, got {type(params).__name__}")
    if "seed" in params:
        raise ValidationError(f"generator {generator_id!r}: pass seeds through "
                              "the spec's seed field, not inside params")
    if not schema.keys() >= params.keys():
        unknown = set(params) - set(schema)
        raise ValidationError(f"generator {generator_id!r} does not accept "
                              f"params {sorted(unknown)}; schema: "
                              f"{sorted(schema)}")
    canonical: Dict[str, Any] = {}
    for name in sorted(schema):
        entry = schema[name]
        if name in params:
            value = params[name]
        elif "default" in entry:
            value = entry["default"]
        elif entry.get("required", True):
            raise ValidationError(f"generator {generator_id!r} needs param "
                                  f"{name!r}")
        else:
            continue
        kind = entry.get("type", "int")
        allowed = _PARAM_TYPES.get(kind)
        if allowed is None:
            raise ValidationError(f"generator {generator_id!r}: unknown schema "
                                  f"type {kind!r} for param {name!r}")
        if not isinstance(value, allowed) or (
                isinstance(value, bool) and kind in ("int", "float")):
            raise ValidationError(f"generator {generator_id!r}: param {name!r} "
                                  f"must be {kind}, got {value!r}")
        if kind == "seq":
            value = list(value)
        choices = entry.get("choices")
        if choices is not None and value not in tuple(choices):
            raise ValidationError(f"generator {generator_id!r}: param {name!r} "
                                  f"must be one of {sorted(choices)}, got "
                                  f"{value!r}")
        canonical[name] = value
    return canonical


_REGISTRY: Dict[str, GeneratorSpec] = {}


def register_generator(generator_id: str, *, summary: str,
                       families: Sequence[str],
                       params_schema: Mapping[str, Mapping[str, Any]],
                       seeded: bool = False,
                       adversarial: bool = False) -> Callable:
    """Decorator registering a DAG-building callable under ``generator_id``.

    Usage::

        @register_generator("fork-join", summary="...",
                            families=("binary", "kway"),
                            params_schema={"width": {"type": "int",
                                                     "required": True}})
        def _build(width, family="binary"): ...
    """
    require(bool(generator_id), "generator_id must be non-empty")
    require("seed" not in params_schema,
            f"generator {generator_id!r}: declare seeded=True instead of a "
            "'seed' schema entry")

    def decorator(func: Callable) -> Callable:
        require(generator_id not in _REGISTRY,
                f"generator id {generator_id!r} already registered")
        _REGISTRY[generator_id] = GeneratorSpec(
            generator_id=generator_id, summary=summary,
            families=frozenset(families),
            params_schema={name: dict(entry)
                           for name, entry in params_schema.items()},
            seeded=seeded, adversarial=adversarial, build=func,
        )
        return func

    return decorator


def unregister_generator(generator_id: str) -> Optional[GeneratorSpec]:
    """Remove (and return) a registered generator; ``None`` if absent."""
    return _REGISTRY.pop(generator_id, None)


def get_generator(generator_id: str) -> GeneratorSpec:
    """Look up a registered generator by id (raises on unknown ids)."""
    spec = _REGISTRY.get(generator_id)
    if spec is None:
        raise ValidationError(f"unknown generator {generator_id!r}; "
                              f"registered: {sorted(_REGISTRY)}")
    return spec


def generator_ids() -> List[str]:
    """All registered generator ids, sorted."""
    return sorted(_REGISTRY)


def generator_specs() -> List[GeneratorSpec]:
    """All registered generator specs, sorted by id."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
