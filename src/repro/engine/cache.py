"""A small thread-safe LRU cache shared by the engine's memoization layers.

Two caches are built on this: the structure-probe cache (keyed by DAG
fingerprint, :mod:`repro.engine.structure`) and the solution cache (keyed by
``(problem fingerprint, method, limits, options)``,
:mod:`repro.engine.core`).  ``functools.lru_cache`` is not usable here
because neither DAGs nor problems are hashable by content -- the engine
hashes them explicitly with :mod:`repro.engine.fingerprint`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional

__all__ = ["LRUCache"]


class LRUCache:
    """Least-recently-used mapping with hit/miss accounting.

    All operations take an internal lock, so one cache instance can be
    shared by portfolio worker threads.
    """

    def __init__(self, maxsize: int = 128):
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value or ``None``, updating recency and stats."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return None

    def peek(self, key: Hashable) -> Optional[Any]:
        """The cached value or ``None``, touching neither recency nor stats."""
        with self._lock:
            return self._data.get(key)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value``, evicting the least recently used entries."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def info(self) -> dict:
        """Size and hit/miss statistics (mirrors ``functools.lru_cache``)."""
        with self._lock:
            return {"size": len(self._data), "maxsize": self.maxsize,
                    "hits": self.hits, "misses": self.misses}
