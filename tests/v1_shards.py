"""Writer of legacy v1 (sharded JSON) store roots for the read-path tests.

:class:`repro.engine.store.SolutionStore` reads v1 roots but writes only
packed v2 shards, so tests build their v1 fixtures here.  The layout is
the one v1 roots carry: ``meta.json`` (schema 1) and one
``shards/<prefix>.json`` per shard holding ``{"schema": 1, "entries":
{key: payload}}``, each payload with its insertion sequence under
``"__seq__"``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, Tuple


def write_v1_store(root: str, entries: Iterable[Tuple[str, Dict[str, Any]]],
                   *, first_seq: int = 1, shard_width: int = 2) -> None:
    """Add ``entries`` (``(key, payload)`` in insertion order, numbered
    from ``first_seq``) to the v1 JSON shards under ``root``; write
    ``meta.json`` when the root has none."""
    os.makedirs(os.path.join(root, "shards"), exist_ok=True)
    meta = os.path.join(root, "meta.json")
    if not os.path.exists(meta):
        with open(meta, "w", encoding="utf-8") as handle:
            json.dump({"schema": 1, "shard_width": shard_width}, handle)
    for seq, (key, payload) in enumerate(entries, start=first_seq):
        path = os.path.join(root, "shards", f"{key[:shard_width]}.json")
        try:
            with open(path, encoding="utf-8") as handle:
                blob = json.load(handle)
        except FileNotFoundError:
            blob = {"schema": 1, "entries": {}}
        blob["entries"][key] = {**payload, "__seq__": seq}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(blob, handle, sort_keys=True, separators=(",", ":"))
