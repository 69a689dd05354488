"""Persistent on-disk solution store -- tier 2 of the engine's cache.

The in-memory LRU of :mod:`repro.engine.core` dies with the process; the
:class:`SolutionStore` persists solved reports so repeated sweeps -- across
runs, processes and machines sharing a filesystem -- are served from disk
instead of recomputed.  ``repro.solve`` consults it automatically once
installed with :func:`repro.engine.core.set_solution_store`; the
:class:`~repro.engine.service.SweepService` uses it as its system of record.

On-disk format (see ``docs/caching.md`` for the full specification):

* ``<root>/meta.json`` -- store-level metadata (schema version, creator);
* ``<root>/shards/<prefix>.rps`` -- the **packed binary v2** shard format
  (the default): a fixed-width, key-sorted record table (key bytes +
  insertion sequence + payload offset/length + flags) followed by a
  payload region of per-entry JSON blobs.  A ``get()`` binary-searches the
  record table and decodes *one* payload; alias entries
  (``{"alias_of": key}``) keep their target in the payload region as raw
  key bytes and resolve without any JSON decode; :meth:`SolutionStore.scan`
  streams every entry in one pass, skipping alias payloads untouched.
* ``<root>/shards/<prefix>.json`` -- the legacy sharded-JSON v1 format,
  still fully readable *and* writable (``shard_format="json"``); each blob
  is ``{"schema": 1, "entries": {request_key: payload}}``.  The format is
  negotiated per shard file, so mixed stores work; a write rewrites its
  shard in the store's configured format and :meth:`SolutionStore.migrate`
  converts a whole store at once.

Guarantees:

* **atomic writes** -- every blob is written to a temp file in the same
  directory and ``os.replace``d into place, so readers never observe a
  half-written shard; with ``durable=True`` the temp file is fsynced
  before the rename and the shard directory after it (crash-consistent,
  covering ``meta.json`` too);
* **cross-process write safety** -- with ``locking=True`` (the default)
  every shard's read-modify-write cycle runs under a per-shard advisory
  file lock (``fcntl.lockf`` with a timeout, plus a process-wide thread
  lock because POSIX record locks do not exclude threads of one
  process), so concurrent writer processes -- the multi-runner cluster
  in :mod:`repro.cluster` -- never lose each other's entries; a holder
  killed mid-write is taken over via its pid breadcrumb
  (``stale_locks_recovered``), and a lock that cannot be acquired within
  ``lock_timeout`` falls back to the lock-free atomic write (counted in
  ``lock_timeouts``, availability over strictness);
* **single-writer GC** -- :meth:`SolutionStore.compact` first wins a
  store-wide compaction election (the same lock machinery); a store
  that loses the election skips the run (``compactions_skipped``) so
  only one runner compacts a shared store at a time;
* **corruption tolerance** -- a truncated/unparseable shard (either
  format) or a schema mismatch is counted (``info()``) and treated as
  empty: the affected requests recompute and the next write repairs the
  shard; nothing crashes;
* **bounded shards** -- each shard keeps at most ``max_entries_per_shard``
  entries, evicting the oldest (smallest insertion sequence) first;
* **bounded stores** -- with ``max_total_entries`` set, any write pushing
  the store past the cap triggers :meth:`SolutionStore.compact`, the GC
  hook for long-lived deployments (oldest entries evicted first, counted
  in ``info()["evictions"]`` / ``info()["compactions"]``).

Usage:

>>> import tempfile
>>> from repro.engine.store import SolutionStore
>>> store = SolutionStore(tempfile.mkdtemp())
>>> store.put("a" * 64, {"answer": 42})
True
>>> store.get("a" * 64)["answer"]
42
>>> store.get("b" * 64) is None        # a miss, counted in info()
True
>>> info = store.info()
>>> info["hits"], info["misses"], info["entries"]
(1, 1, 1)
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import tempfile
import threading
import time
from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

try:  # POSIX advisory record locks; gated so non-posix hosts still import
    import fcntl
    _HAS_FCNTL = True
except ImportError:  # pragma: no cover - non-posix platform
    fcntl = None  # type: ignore[assignment]
    _HAS_FCNTL = False

from repro.engine.fingerprint import (
    UnserializableSolutionError,
    solution_from_payload,
    solution_to_payload,
)
from repro.utils.validation import ValidationError, require

__all__ = [
    "STORE_SCHEMA_VERSION",
    "STORE_SCHEMA_V1",
    "SolutionStore",
    "report_to_payload",
    "report_from_payload",
    "report_from_bytes",
    "atomic_write_json",
]

#: Version of the on-disk payload layout.  ``2`` is the packed binary shard
#: format; ``1`` (legacy sharded JSON) stays fully readable and writable.
#: Entries written under an *unknown* version are ignored (recomputed),
#: never misread.
STORE_SCHEMA_VERSION = 2

#: The legacy sharded-JSON schema (the only schema JSON shard blobs carry).
STORE_SCHEMA_V1 = 1

#: Schema versions this code can read; anything else is a mismatch.
_KNOWN_SCHEMAS = (STORE_SCHEMA_V1, STORE_SCHEMA_VERSION)

# ---------------------------------------------------------------------------
# packed binary shard format (v2)
# ---------------------------------------------------------------------------
#
#   header   <8sHHIIQ>  magic  b"RPSHARD2", version (2), flags, entry count,
#                       key slot width, payload-region offset
#   records  count x (key_width bytes, NUL-padded key)  +  <QQII>
#                       insertion seq, payload offset (relative to the
#                       region), payload length, flags (bit 0 = alias)
#   payloads concatenated blobs: raw UTF-8 target-key bytes for alias
#            entries, compact JSON for everything else
#
# Records are sorted by (padded) key bytes, so a lookup is a binary search
# over fixed-width slots on the mmapped file -- no parsing beyond the
# 28-byte header, and exactly one JSON decode per payload actually read.

_SHARD_MAGIC = b"RPSHARD2"
_HEADER = struct.Struct("<8sHHIIQ")
_RECORD_FIXED = struct.Struct("<QQII")
_FLAG_ALIAS = 1


class _ShardCorrupt(Exception):
    """A binary shard that cannot be trusted (bad magic, bounds, struct)."""


class _ShardSchemaMismatch(Exception):
    """A binary shard written under an unknown format version."""


def _is_alias_payload(payload: Dict[str, Any]) -> bool:
    return len(payload) == 1 and isinstance(payload.get("alias_of"), str)


def _pack_shard(entries: Dict[str, Dict[str, Any]]) -> bytes:
    """Serialize ``entries`` (values carry ``__seq__``) into a v2 shard.

    Raises ``TypeError``/``ValueError`` for unpackable keys or payloads --
    the same failure class the JSON writer raises, which callers already
    count as skipped writes.
    """
    encoded: List[Tuple[bytes, int, bytes, int]] = []
    for key in sorted(entries):
        entry = entries[key]
        key_bytes = key.encode("utf-8")
        if not key_bytes or b"\x00" in key_bytes:
            raise ValueError(f"store key not packable: {key!r}")
        seq = int(entry.get("__seq__", 0))
        payload = {k: v for k, v in entry.items() if k != "__seq__"}
        if _is_alias_payload(payload):
            blob, flags = payload["alias_of"].encode("utf-8"), _FLAG_ALIAS
        else:
            blob = json.dumps(payload, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
            flags = 0
        encoded.append((key_bytes, seq, blob, flags))

    key_width = max((len(k) for k, _s, _b, _f in encoded), default=1)
    record_size = key_width + _RECORD_FIXED.size
    payload_offset = _HEADER.size + record_size * len(encoded)
    parts = [_HEADER.pack(_SHARD_MAGIC, STORE_SCHEMA_VERSION, 0,
                          len(encoded), key_width, payload_offset)]
    blobs: List[bytes] = []
    offset = 0
    for key_bytes, seq, blob, flags in encoded:
        parts.append(key_bytes.ljust(key_width, b"\x00"))
        parts.append(_RECORD_FIXED.pack(seq, offset, len(blob), flags))
        blobs.append(blob)
        offset += len(blob)
    return b"".join(parts + blobs)


class _Found:
    """One entry a store lookup found: exactly one of its three forms.

    ``alias_of`` is an alias entry's target key.  ``blob`` is a packed
    payload's bytes, already decoded once to check them; ``spliceable``
    says whether those bytes are a report that may go on the wire
    verbatim (see :func:`_spliceable`).  ``entry`` is a payload dict of a
    shard held decoded in memory (``__seq__`` included); its ``blob`` is
    ``None`` until :meth:`SolutionStore._report_bytes` first encodes and
    checks it.
    """

    __slots__ = ("alias_of", "blob", "spliceable", "entry")

    def __init__(self, *, alias_of: Optional[str] = None,
                 blob: Optional[bytes] = None, spliceable: bool = False,
                 entry: Optional[Dict[str, Any]] = None):
        self.alias_of = alias_of
        self.blob = blob
        self.spliceable = spliceable
        self.entry = entry

    def payload(self) -> Dict[str, Any]:
        """The entry as the payload dict :meth:`SolutionStore.get` returns."""
        if self.alias_of is not None:
            return {"alias_of": self.alias_of}
        if self.entry is not None:
            return {k: v for k, v in self.entry.items() if k != "__seq__"}
        return json.loads(self.blob)


def _found_entry(entry: Optional[Dict[str, Any]]) -> Optional[_Found]:
    """A decoded shard entry (``__seq__`` included) as a lookup result."""
    if entry is None:
        return None
    target = entry.get("alias_of")
    if isinstance(target, str) and len(entry) - ("__seq__" in entry) == 1:
        return _Found(alias_of=target)
    return _Found(entry=entry)


#: What a report payload that does not decode raises (a miss, never a crash).
_REPORT_DECODE_ERRORS = (KeyError, TypeError, ValueError, SyntaxError,
                         AttributeError)


def _spliceable(key: str, blob: bytes, payload: Dict[str, Any]) -> bool:
    """May ``blob`` (decoded: ``payload``) be served verbatim as the report
    stored under ``key``?

    It must decode to a report, carry its own storage key, and contain no
    newline byte -- the wire is line-framed, so the bytes become part of
    one response line as they are.
    """
    if b"\n" in blob or payload.get("key") != key:
        return False
    try:
        report_from_payload(payload)
    except _REPORT_DECODE_ERRORS:
        return False
    return True


class _PackedShardReader:
    """Lazy, mmap-backed view of one packed binary shard.

    Parses only the 28-byte header eagerly; key lookups binary-search the
    fixed-width record table directly on the mapped buffer and payloads
    are decoded one at a time, on demand.  The first lookup of a key
    checks its payload and memoizes the result (``found``: the validated
    bytes, never a decoded dict), so each payload is decoded once per
    open reader.  Every offset is bounds-checked -- a mangled file raises
    :class:`_ShardCorrupt` (whole-file distrust) which the store decays
    to "empty shard".
    """

    __slots__ = ("path", "buf", "count", "key_width", "payload_offset",
                 "_record_size", "_records_off", "found")

    def __init__(self, path: str):
        self.path = path
        with open(path, "rb") as handle:
            try:
                self.buf: Any = mmap.mmap(handle.fileno(), 0,
                                          access=mmap.ACCESS_READ)
            except (ValueError, OSError):  # empty file / mmap-hostile fs
                handle.seek(0)
                self.buf = handle.read()
        try:
            magic, version, _flags, count, key_width, payload_offset = \
                _HEADER.unpack_from(self.buf, 0)
        except struct.error as exc:
            raise _ShardCorrupt(str(exc)) from exc
        if magic != _SHARD_MAGIC:
            raise _ShardCorrupt("bad magic")
        if version != STORE_SCHEMA_VERSION:
            raise _ShardSchemaMismatch(f"shard version {version}")
        self.count = count
        self.key_width = key_width
        self.payload_offset = payload_offset
        self._record_size = key_width + _RECORD_FIXED.size
        self._records_off = _HEADER.size
        if (key_width < 1
                or self._records_off + self._record_size * count > payload_offset
                or payload_offset > len(self.buf)):
            raise _ShardCorrupt("record table out of bounds")
        self.found: Dict[str, _Found] = {}

    # -- record access ---------------------------------------------------
    def _key_bytes_at(self, index: int) -> bytes:
        start = self._records_off + index * self._record_size
        return bytes(self.buf[start:start + self.key_width])

    def record(self, index: int) -> Tuple[str, int, int, int, int]:
        """``(key, seq, offset, length, flags)`` of record ``index``."""
        start = self._records_off + index * self._record_size
        key = self._key_bytes_at(index).rstrip(b"\x00").decode("utf-8")
        seq, offset, length, flags = _RECORD_FIXED.unpack_from(
            self.buf, start + self.key_width)
        return key, seq, offset, length, flags

    def find(self, key: str) -> Optional[int]:
        """Record index of ``key`` via binary search, or ``None``."""
        key_bytes = key.encode("utf-8")
        if len(key_bytes) > self.key_width:
            return None
        probe = key_bytes.ljust(self.key_width, b"\x00")
        lo = bisect_left(range(self.count), probe,
                         key=self._key_bytes_at)  # type: ignore[call-overload]
        if lo < self.count and self._key_bytes_at(lo) == probe:
            return lo
        return None

    def blob(self, offset: int, length: int) -> bytes:
        start = self.payload_offset + offset
        end = start + length
        if offset < 0 or length < 0 or end > len(self.buf):
            raise _ShardCorrupt("payload out of bounds")
        return bytes(self.buf[start:end])

    def seq_stats(self) -> Tuple[int, int]:
        """``(count, max_seq)`` straight from the record table -- no
        payload decode."""
        max_seq = 0
        for index in range(self.count):
            start = (self._records_off + index * self._record_size
                     + self.key_width)
            seq = _RECORD_FIXED.unpack_from(self.buf, start)[0]
            max_seq = max(max_seq, seq)
        return self.count, max_seq


# ---------------------------------------------------------------------------
# durable atomic writers
# ---------------------------------------------------------------------------

def _fsync_dir(directory: str) -> None:
    """Flush a directory entry (rename durability); best effort."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_json(path: str, payload: Any, *, fsync: bool = False) -> None:
    """Serialize ``payload`` to ``path`` atomically (temp file + rename).

    With ``fsync=True`` the temp file is flushed to disk *before* the
    rename and the containing directory *after* it, so a crash between
    rename and the kernel's next writeback cannot lose the file.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        if fsync:
            _fsync_dir(directory)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _atomic_write_bytes(path: str, data: bytes, *, fsync: bool = False) -> None:
    """The binary-shard counterpart of :func:`atomic_write_json`."""
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        if fsync:
            _fsync_dir(directory)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# cross-process advisory locking
# ---------------------------------------------------------------------------
#
# Two layers, because POSIX record locks are *per process*: a process-wide
# ``threading.Lock`` keyed by (store root, lock name) serialises store
# instances inside one process (a second ``lockf`` from the same process
# would succeed, and closing any fd to the file drops the process's
# locks), and an ``fcntl.lockf`` on ``<root>/locks/<name>.lock``
# serialises across processes.  The lock file carries the holder's pid as
# a breadcrumb, truncated away on clean release -- so a new holder that
# finds a dead pid knows it took over from a killed writer (with fcntl
# the kernel already freed the lock at death; on the O_EXCL fallback for
# hosts without fcntl the breadcrumb is what makes takeover possible at
# all).  Lock files are never unlinked (unlink + recreate races two
# acquirers onto different inodes).

_LOCK_POLL_INTERVAL = 0.005

_PROCESS_LOCKS: Dict[Tuple[str, str], threading.Lock] = {}
_PROCESS_LOCKS_GUARD = threading.Lock()


def _process_lock(root: str, name: str) -> threading.Lock:
    """The process-wide thread lock for one (store root, lock name)."""
    key = (root, name)
    with _PROCESS_LOCKS_GUARD:
        lock = _PROCESS_LOCKS.get(key)
        if lock is None:
            lock = _PROCESS_LOCKS[key] = threading.Lock()
        return lock


def _pid_alive(pid: int) -> bool:
    """Is a process with this pid still running (best effort)?"""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return False
    return True


class _HeldLock:
    """One successfully acquired advisory lock; call :meth:`release`."""

    __slots__ = ("_fd", "_owner_path", "_thread_lock", "contended",
                 "stale_takeover")

    def __init__(self, fd: Optional[int], owner_path: Optional[str],
                 thread_lock: threading.Lock, *, contended: bool,
                 stale_takeover: bool):
        self._fd = fd
        self._owner_path = owner_path
        self._thread_lock = thread_lock
        #: Another holder was seen while acquiring (lock contention).
        self.contended = contended
        #: The previous holder died without releasing (pid breadcrumb).
        self.stale_takeover = stale_takeover

    def release(self) -> None:
        if self._fd is not None:
            try:
                os.ftruncate(self._fd, 0)
                fcntl.lockf(self._fd, fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - fs teardown race
                pass
            try:
                os.close(self._fd)
            except OSError:  # pragma: no cover - fs teardown race
                pass
            self._fd = None
        elif self._owner_path is not None:
            try:
                os.unlink(self._owner_path)
            except OSError:  # pragma: no cover - fs teardown race
                pass
            self._owner_path = None
        self._thread_lock.release()


def _read_breadcrumb(source) -> Optional[int]:
    """The pid recorded in a lock file (fd or path), or ``None``."""
    try:
        if isinstance(source, int):
            raw = os.pread(source, 32, 0)
        else:
            with open(source, "rb") as handle:
                raw = handle.read(32)
    except OSError:
        return None
    text = raw.decode("ascii", "replace").strip()
    return int(text) if text.isdigit() else None


def _acquire_file_lock(path: str, thread_lock: threading.Lock,
                       timeout: float) -> Optional[_HeldLock]:
    """Acquire the advisory lock at ``path``; ``None`` on timeout.

    Polls non-blocking acquisitions until ``timeout`` seconds have
    passed -- a timeout releases everything it touched, so the caller
    can degrade to a lock-free write instead of wedging.
    """
    deadline = time.monotonic() + timeout
    if not thread_lock.acquire(timeout=timeout):
        return None
    contended = False
    stale = False
    try:
        if _HAS_FCNTL:
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                while True:
                    try:
                        fcntl.lockf(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except (BlockingIOError, PermissionError):
                        contended = True
                        if time.monotonic() >= deadline:
                            os.close(fd)
                            thread_lock.release()
                            return None
                        time.sleep(_LOCK_POLL_INTERVAL)
            except BaseException:
                os.close(fd)
                raise
            previous = _read_breadcrumb(fd)
            if previous is not None and previous != os.getpid() \
                    and not _pid_alive(previous):
                stale = True
            try:
                os.ftruncate(fd, 0)
                os.pwrite(fd, str(os.getpid()).encode("ascii"), 0)
            except OSError:  # pragma: no cover - breadcrumb is best effort
                pass
            return _HeldLock(fd, None, thread_lock, contended=contended,
                             stale_takeover=stale)
        # Fallback without fcntl: an O_EXCL owner file IS the lock; a dead
        # holder's file is removed (stale takeover) instead of waited on.
        owner_path = path + ".owner"
        while True:
            try:
                fd = os.open(owner_path,
                             os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
                os.write(fd, str(os.getpid()).encode("ascii"))
                os.close(fd)
                return _HeldLock(None, owner_path, thread_lock,
                                 contended=contended, stale_takeover=stale)
            except FileExistsError:
                contended = True
                previous = _read_breadcrumb(owner_path)
                if previous is not None and not _pid_alive(previous):
                    try:
                        os.unlink(owner_path)
                    except OSError:  # pragma: no cover - lost the race
                        pass
                    stale = True
                    continue
                if time.monotonic() >= deadline:
                    thread_lock.release()
                    return None
                time.sleep(_LOCK_POLL_INTERVAL)
    except BaseException:  # pragma: no cover - unexpected OS failure
        thread_lock.release()
        raise


def report_to_payload(report, key: str) -> Dict[str, Any]:
    """Encode a :class:`~repro.engine.core.SolveReport` as a store entry.

    Raises :class:`~repro.engine.fingerprint.UnserializableSolutionError`
    when the wrapped solution has no stable JSON form; callers treat that
    as "skip persistence".
    """
    certificate = None
    if report.certificate is not None:
        certificate = {
            "passed": bool(report.certificate.passed),
            "feasible": bool(report.certificate.feasible),
            "checks": {str(k): bool(v) for k, v in report.certificate.checks.items()},
            "notes": {str(k): str(v) for k, v in report.certificate.notes.items()},
        }
    return {
        "key": key,
        "solver_id": report.solver_id,
        "method": report.method,
        "objective": report.objective,
        "wall_time": float(report.wall_time),
        "problem_fingerprint": report.problem_fingerprint,
        "parameter": report.parameter,
        "structure": report.structure,
        "certificate": certificate,
        "solution": solution_to_payload(report.solution),
    }


def report_from_payload(payload: Dict[str, Any]):
    """Inverse of :func:`report_to_payload` (returns a ``SolveReport``)."""
    # Imported lazily: core imports this module at load time (tier-2 wiring).
    from repro.engine.certify import Certificate
    from repro.engine.core import SolveReport

    certificate = None
    if payload.get("certificate") is not None:
        cert = payload["certificate"]
        certificate = Certificate(passed=cert["passed"], feasible=cert["feasible"],
                                  checks=dict(cert.get("checks", {})),
                                  notes=dict(cert.get("notes", {})))
    return SolveReport(
        solution=solution_from_payload(payload["solution"]),
        solver_id=payload["solver_id"],
        method=payload["method"],
        objective=payload["objective"],
        wall_time=float(payload.get("wall_time", 0.0)),
        problem_fingerprint=payload["problem_fingerprint"],
        structure=dict(payload.get("structure", {})),
        certificate=certificate,
        parameter=payload.get("parameter"),
    )


def report_from_bytes(blob: bytes, *, cache_tier: str = ""):
    """Decode stored report bytes (:meth:`SolutionStore.get_raw_many`).

    With ``cache_tier`` the report is marked as a hit of that cache tier
    (``from_cache=True``).  Every call builds a fresh ``SolveReport``.
    """
    report = report_from_payload(json.loads(blob))
    if cache_tier:
        report.from_cache, report.cache_tier = True, cache_tier
    return report


class SolutionStore:
    """Sharded persistent key/payload store with cache accounting.

    Parameters
    ----------
    root:
        Directory holding the store (created on demand).
    max_entries_per_shard:
        Per-shard entry cap; the oldest entries are evicted beyond it.
    shard_width:
        Number of leading key characters selecting a shard (2 -> up to 256
        shards for hex keys).
    cache_shards:
        Keep decoded shards in memory after first access.  Leave on for a
        single-writer process; call :meth:`refresh` to observe writes made
        by other processes.
    max_total_entries:
        Optional store-wide entry cap for long-lived deployments.  When
        set, every write that pushes the store past the cap triggers
        :meth:`compact`, which evicts the oldest entries (smallest
        insertion sequence first) until the cap holds again.  ``None``
        (the default) disables the GC; :meth:`compact` can still be called
        manually with an explicit target.
    shard_format:
        ``"binary"`` (default) writes the packed v2 shard format;
        ``"json"`` writes the legacy v1 sharded JSON.  *Reads* always
        negotiate per shard file, so either handle serves a mixed store.
    durable:
        Fsync shard and meta writes (temp file before the rename, shard
        directory after it).  Off by default -- atomicity alone already
        guarantees readers never see torn blobs; ``durable=True`` adds
        power-loss durability at the cost of one fsync pair per write.
    locking:
        Serialise each shard's read-modify-write cycle (and the
        compaction election) under per-shard advisory file locks, so
        concurrent writer *processes* sharing the store never lose each
        other's entries.  On by default; the lock directory lives at
        ``<root>/locks`` beside the shards.
    lock_timeout:
        Seconds to wait for an advisory lock before degrading to the
        lock-free atomic write (counted in ``lock_timeouts``); also the
        compaction-election patience.
    """

    def __init__(self, root: str, *, max_entries_per_shard: int = 4096,
                 shard_width: int = 2, cache_shards: bool = True,
                 max_total_entries: Optional[int] = None,
                 shard_format: str = "binary", durable: bool = False,
                 locking: bool = True, lock_timeout: float = 10.0):
        require(max_entries_per_shard > 0, "max_entries_per_shard must be positive")
        require(1 <= shard_width <= 8, "shard_width must be in [1, 8]")
        require(max_total_entries is None or max_total_entries > 0,
                "max_total_entries must be positive (or None to disable the GC)")
        require(shard_format in ("binary", "json"),
                "shard_format must be 'binary' or 'json'")
        require(lock_timeout > 0, "lock_timeout must be positive")
        self.root = os.path.abspath(root)
        self.max_entries_per_shard = max_entries_per_shard
        self.shard_width = shard_width
        self.cache_shards = cache_shards
        self.max_total_entries = max_total_entries
        self.shard_format = shard_format
        self.durable = durable
        self.locking = locking
        self.lock_timeout = lock_timeout
        #: Key of the process-wide lock registry: symlink-stable so two
        #: instances opened through different paths still serialise.
        self._lock_root = os.path.realpath(self.root)
        self._shards: Dict[str, Dict[str, Any]] = {}
        #: The lookup results of each shard in ``_shards``, by key: an
        #: entry's report bytes are checked once, on their first read, like
        #: a packed reader's (``_PackedShardReader.found``).  Dropped
        #: whenever the shard's cached entries are replaced or dropped.
        self._entry_found: Dict[str, Dict[str, _Found]] = {}
        #: Lazy binary readers: shard id -> reader (only shards whose sole
        #: on-disk form is packed v2; anything mixed falls back to a full
        #: decode).  Invalidated together with ``_shards``.
        self._readers: Dict[str, _PackedShardReader] = {}
        #: Shards whose packed blob failed to open (corrupt / unknown
        #: version): remembered so the failure is counted once, not on
        #: every lookup.  Cleared when the shard is rewritten.
        self._failed_readers: set = set()
        #: On-disk identity of each cached shard at the moment it was
        #: read (see :meth:`_shard_signature`).  A lookup that misses in
        #: the cache compares against this to detect rewrites by *other*
        #: processes sharing the root (atomic renames always change the
        #: inode) and reloads once instead of reporting a stale miss.
        self._shard_sigs: Dict[str, Tuple] = {}
        #: Global insertion sequence (next value to assign) and cached total
        #: entry count; both are established lazily by one full-store scan
        #: (:meth:`_seq_floor_scan`) and kept incrementally afterwards, so
        #: writes stay O(one shard).  ``None`` means "rescan before use".
        self._next_seq: Optional[int] = None
        self._entry_total: Optional[int] = None
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        self.compactions = 0
        self.corrupt_shards = 0
        self.schema_mismatches = 0
        self.skipped_writes = 0
        # Decode/scan accounting (the raw-speed counters benchmarks gate
        # on): how many JSON *shard files* were fully parsed, how many
        # individual payload blobs were JSON-decoded, how many alias
        # entries resolved straight from the record table, and the bulk
        # scan traffic.
        self.full_shard_parses = 0
        self.payload_decodes = 0
        self.alias_fast_hits = 0
        self.binary_shard_opens = 0
        self.scans = 0
        self.scan_entries = 0
        self.scan_alias_skips = 0
        self.migrated_shards = 0
        # Ring-filtered scan traffic (elastic prewarming): scan_routed
        # calls, entries yielded because their route key landed on the
        # requested owner, and entries filtered out without being
        # decoded further.
        self.routed_scans = 0
        self.routed_entries = 0
        self.routed_skips = 0
        # Cross-process locking accounting (the cluster bench gates on
        # these): acquisitions, contended acquisitions, acquisitions that
        # timed out (degraded to a lock-free write), takeovers from a
        # killed holder, and compaction runs skipped because another
        # writer holds the election.
        self.lock_acquires = 0
        self.lock_waits = 0
        self.lock_timeouts = 0
        self.stale_locks_recovered = 0
        self.compactions_skipped = 0
        # Read-side cross-process coherence: cached shards found stale
        # against their on-disk signature and reloaded mid-lookup.
        self.stale_shard_reloads = 0
        # Batched planning reads: keys resolved through get_many (one
        # shard resolution per distinct shard instead of per key).
        self.batched_lookups = 0
        # Cross-runner solve claims (the duplicate-compute guard): claims
        # this handle acquired, claim attempts that found a live foreign
        # holder, and claims taken over from a dead holder.
        self.claims_acquired = 0
        self.claims_contended = 0
        self.stale_claims_recovered = 0
        os.makedirs(self._shard_dir, exist_ok=True)
        if self.locking:
            os.makedirs(self._lock_dir, exist_ok=True)
        self._write_meta_if_absent()

    # ------------------------------------------------------------------
    # layout helpers
    # ------------------------------------------------------------------
    @property
    def _shard_dir(self) -> str:
        return os.path.join(self.root, "shards")

    @property
    def _meta_path(self) -> str:
        return os.path.join(self.root, "meta.json")

    @property
    def _lock_dir(self) -> str:
        return os.path.join(self.root, "locks")

    def _lock_path(self, name: str) -> str:
        return os.path.join(self._lock_dir, f"{name}.lock")

    def _guard(self, name: str, *, timeout: Optional[float] = None,
               count_timeout: bool = True) -> Optional[_HeldLock]:
        """Acquire one named advisory lock, with counter accounting.

        Returns ``None`` when locking is disabled *or* the acquisition
        timed out -- the caller proceeds either way (a shard write
        degrades to the plain atomic-rename path, which is merely
        last-writer-wins, never corrupt).  ``count_timeout=False`` keeps
        an *expected* loss -- the compaction election -- out of the
        ``lock_timeouts`` counter the benchmarks gate at zero.
        """
        if not self.locking:
            return None
        try:
            os.makedirs(self._lock_dir, exist_ok=True)
            held = _acquire_file_lock(
                self._lock_path(name),
                _process_lock(self._lock_root, name),
                self.lock_timeout if timeout is None else timeout)
        except OSError:  # pragma: no cover - unlockable filesystem
            if count_timeout:
                self.lock_timeouts += 1
            return None
        if held is None:
            if count_timeout:
                self.lock_timeouts += 1
            return None
        self.lock_acquires += 1
        if held.contended:
            self.lock_waits += 1
        if held.stale_takeover:
            self.stale_locks_recovered += 1
        return held

    def _shard_id(self, key: str) -> str:
        # Once per key of every lookup: the message is formatted only on
        # failure.
        if not isinstance(key, str) or len(key) < self.shard_width:
            raise ValidationError(
                f"store keys must be strings of >= {self.shard_width} chars")
        return key[:self.shard_width]

    def _json_path(self, shard_id: str) -> str:
        return os.path.join(self._shard_dir, f"{shard_id}.json")

    def _binary_path(self, shard_id: str) -> str:
        return os.path.join(self._shard_dir, f"{shard_id}.rps")

    def _shard_files(self, shard_id: str) -> Tuple[bool, bool]:
        """``(has_json, has_binary)`` for one shard id."""
        return (os.path.exists(self._json_path(shard_id)),
                os.path.exists(self._binary_path(shard_id)))

    @staticmethod
    def _stat_sig(path: str) -> Optional[Tuple[int, int, int]]:
        try:
            stat = os.stat(path)
        except OSError:
            return None
        return (stat.st_ino, stat.st_size, stat.st_mtime_ns)

    def _shard_signature(self, shard_id: str) -> Tuple[Optional[Tuple[int, int, int]],
                                                       Optional[Tuple[int, int, int]]]:
        """On-disk identity of one shard: ``(json_sig, binary_sig)``.

        Each side is ``(st_ino, st_size, st_mtime_ns)`` or ``None`` for
        an absent file.  Every store write goes through an atomic
        temp-file + rename, which allocates a fresh inode, so a rewrite
        by any process -- including same-size, same-mtime ones -- always
        changes the signature.
        """
        return (self._stat_sig(self._json_path(shard_id)),
                self._stat_sig(self._binary_path(shard_id)))

    def _write_meta_if_absent(self) -> None:
        if os.path.exists(self._meta_path):
            try:
                with open(self._meta_path, "r", encoding="utf-8") as handle:
                    meta = json.load(handle)
                # Version negotiation: v1 and v2 stores are both first-class
                # (shard formats are negotiated per file); only an *unknown*
                # schema counts as a mismatch.
                if meta.get("schema") not in _KNOWN_SCHEMAS:
                    self.schema_mismatches += 1
                # The layout on disk wins: reopening with a different
                # shard_width must not orphan the existing shards.
                stored_width = meta.get("shard_width")
                if isinstance(stored_width, int) and 1 <= stored_width <= 8:
                    self.shard_width = stored_width
            except (OSError, json.JSONDecodeError, AttributeError):
                self.corrupt_shards += 1
            return
        atomic_write_json(self._meta_path, {
            "schema": STORE_SCHEMA_VERSION,
            "format": "repro-solution-store/packed-v2",
            "shard_width": self.shard_width,
            "shard_format": self.shard_format,
        }, fsync=self.durable)

    # ------------------------------------------------------------------
    # shard IO
    # ------------------------------------------------------------------
    def _load_json_entries(self, shard_id: str) -> Dict[str, Any]:
        """Fully parse one v1 JSON shard blob (corruption decays to empty)."""
        path = self._json_path(shard_id)
        entries: Dict[str, Any] = {}
        try:
            with open(path, "r", encoding="utf-8") as handle:
                blob = json.load(handle)
            self.full_shard_parses += 1
            if not isinstance(blob, dict) or not isinstance(blob.get("entries"), dict):
                raise ValueError("malformed shard blob")
            if blob.get("schema") != STORE_SCHEMA_V1:
                self.schema_mismatches += 1
            else:
                # Entry values must be payload dicts; anything else is
                # per-entry corruption (counted, skipped, repaired on
                # the shard's next write).
                entries = {k: v for k, v in blob["entries"].items()
                           if isinstance(v, dict)}
                if len(entries) != len(blob["entries"]):
                    self.corrupt_shards += 1
        except (OSError, json.JSONDecodeError, ValueError):
            self.corrupt_shards += 1
        return entries

    def _reader(self, shard_id: str) -> Optional[_PackedShardReader]:
        """The (cached) packed reader for one v2 shard, or ``None``."""
        reader = self._readers.get(shard_id)
        if reader is not None:
            return reader
        if shard_id in self._failed_readers:
            return None
        path = self._binary_path(shard_id)
        if not os.path.exists(path):
            return None
        # Signature taken *before* the open: if the file is swapped
        # mid-open we record the older identity and the next miss simply
        # revalidates again (conservative, never stale-forever).
        signature = self._shard_signature(shard_id)
        try:
            reader = _PackedShardReader(path)
            self.binary_shard_opens += 1
        except _ShardSchemaMismatch:
            self.schema_mismatches += 1
            self._failed_readers.add(shard_id)
            return None
        except (_ShardCorrupt, OSError, UnicodeDecodeError):
            self.corrupt_shards += 1
            self._failed_readers.add(shard_id)
            return None
        if self.cache_shards:
            self._readers[shard_id] = reader
            self._shard_sigs[shard_id] = signature
        return reader

    def _decode_record(self, reader: _PackedShardReader,
                       index: int) -> Optional[Tuple[str, Dict[str, Any]]]:
        """``(key, entry-with-__seq__)`` for one record; ``None`` on
        per-entry corruption (counted)."""
        try:
            key, seq, offset, length, flags = reader.record(index)
            blob = reader.blob(offset, length)
            if flags & _FLAG_ALIAS:
                payload: Dict[str, Any] = {"alias_of": blob.decode("utf-8")}
            else:
                payload = json.loads(blob.decode("utf-8"))
                self.payload_decodes += 1
                if not isinstance(payload, dict):
                    raise ValueError("payload is not an object")
        except (_ShardCorrupt, struct.error, UnicodeDecodeError,
                json.JSONDecodeError, ValueError):
            self.corrupt_shards += 1
            return None
        entry = dict(payload)
        entry["__seq__"] = seq
        return key, entry

    def _load_binary_entries(self, shard_id: str) -> Dict[str, Any]:
        """Fully decode one packed shard (the write/compact/migrate path)."""
        reader = self._reader(shard_id)
        entries: Dict[str, Any] = {}
        if reader is None:
            return entries
        for index in range(reader.count):
            decoded = self._decode_record(reader, index)
            if decoded is not None:
                entries[decoded[0]] = decoded[1]
        return entries

    def _load_shard(self, shard_id: str) -> Dict[str, Any]:
        """Entries of one shard, fully decoded; corruption decays to empty.

        Negotiates the format per file.  When both a ``.json`` and a
        ``.rps`` blob exist (a crash between a format-converting rewrite
        and the old file's unlink), the two are merged with the higher
        insertion sequence winning per key.
        """
        if self.cache_shards and shard_id in self._shards:
            return self._shards[shard_id]
        # Signature before the read, so a concurrent rewrite makes the
        # cached copy look stale (and reload) rather than current.
        signature = self._shard_signature(shard_id)
        has_json, has_binary = self._shard_files(shard_id)
        entries: Dict[str, Any] = {}
        if has_json:
            entries = self._load_json_entries(shard_id)
        if has_binary:
            for key, entry in self._load_binary_entries(shard_id).items():
                current = entries.get(key)
                if (current is None or current.get("__seq__", 0)
                        <= entry.get("__seq__", 0)):
                    entries[key] = entry
        if self.cache_shards:
            self._cache_entries(shard_id, entries, signature)
        return entries

    def _cache_entries(self, shard_id: str, entries: Dict[str, Any],
                       signature: Tuple) -> None:
        """Hold one shard's decoded entries (and their on-disk identity)."""
        self._shards[shard_id] = entries
        self._entry_found.pop(shard_id, None)
        self._shard_sigs[shard_id] = signature

    def _write_shard(self, shard_id: str, entries: Dict[str, Any]) -> None:
        """Rewrite one shard in the store's configured format (atomic).

        The other-format file, if any, is removed *after* the new blob is
        in place -- a crash in between leaves both, which reads merge by
        sequence number.
        """
        if self.shard_format == "binary":
            _atomic_write_bytes(self._binary_path(shard_id),
                                _pack_shard(entries), fsync=self.durable)
            stale = self._json_path(shard_id)
        else:
            atomic_write_json(self._json_path(shard_id),
                              {"schema": STORE_SCHEMA_V1, "entries": entries},
                              fsync=self.durable)
            stale = self._binary_path(shard_id)
        try:
            os.unlink(stale)
        except OSError:
            pass
        self._readers.pop(shard_id, None)
        self._failed_readers.discard(shard_id)
        if self.cache_shards:
            self._cache_entries(shard_id, entries,
                                self._shard_signature(shard_id))

    def _invalidate_shard(self, shard_id: str) -> None:
        self._shards.pop(shard_id, None)
        self._entry_found.pop(shard_id, None)
        self._readers.pop(shard_id, None)
        self._failed_readers.discard(shard_id)
        self._shard_sigs.pop(shard_id, None)

    def _evict(self, entries: Dict[str, Any]) -> int:
        evicted = 0
        while len(entries) > self.max_entries_per_shard:
            oldest = min(entries, key=lambda k: entries[k].get("__seq__", 0))
            del entries[oldest]
            self.evictions += 1
            evicted += 1
        return evicted

    # ------------------------------------------------------------------
    # global insertion sequence + entry accounting
    # ------------------------------------------------------------------
    def _shard_stats(self, shard_id: str) -> Tuple[int, int]:
        """``(entry count, max seq)`` of one shard, as cheaply as possible.

        Pure-binary shards answer from the record table without a single
        payload decode; JSON (or mixed) shards pay the full parse they
        would pay anyway.
        """
        if self.cache_shards and shard_id in self._shards:
            entries = self._shards[shard_id]
            return len(entries), max((e.get("__seq__", 0)
                                      for e in entries.values()), default=0)
        has_json, has_binary = self._shard_files(shard_id)
        if has_binary and not has_json:
            reader = self._reader(shard_id)
            return reader.seq_stats() if reader is not None else (0, 0)
        entries = self._load_shard(shard_id)
        return len(entries), max((e.get("__seq__", 0)
                                  for e in entries.values()), default=0)

    def _seq_floor_scan(self) -> None:
        """One full-store scan establishing the sequence floor and count.

        The insertion sequence is *store-global* (not per shard): eviction
        order under :meth:`compact` follows true insertion order across
        shards.  Reopening a store resumes above every persisted sequence,
        so insertion order survives restarts.  Concurrent writer processes
        allocate from independent counters seeded by the same floor, so
        cross-process ordering is approximate (exactly like the shared
        read-modify-write window documented in ``docs/caching.md``).
        """
        floor = 0
        total = 0
        for shard_id in self._shard_ids():
            count, max_seq = self._shard_stats(shard_id)
            total += count
            floor = max(floor, max_seq)
        if self._next_seq is None or self._next_seq <= floor:
            self._next_seq = floor + 1
        self._entry_total = total

    def _allocate_seq(self) -> int:
        if self._next_seq is None:
            self._seq_floor_scan()
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def _total_entries(self) -> int:
        """The (cached) store-wide entry count -- O(1) after the first scan."""
        if self._entry_total is None:
            self._seq_floor_scan()
        return self._entry_total

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def _find(self, shard_id: str, key: str) -> Optional[_Found]:
        """One lookup of ``key``, trusting whatever shard state is cached.

        The fast path: an open packed reader answers from its record
        table -- a binary search plus, the first time, one payload decode
        (none for alias entries) -- without a single ``stat``.  A shard
        held decoded in memory answers from its dict, with each hit's
        lookup result kept (``_entry_found``); any other shard is opened
        (packed) or fully decoded (JSON or mixed) first.
        """
        if self.cache_shards and shard_id in self._shards:
            memo = self._entry_found.setdefault(shard_id, {})
            found = memo.get(key)
            if found is None:
                found = _found_entry(self._shards[shard_id].get(key))
                if found is not None:
                    memo[key] = found
            return found
        reader = self._readers.get(shard_id)
        if reader is None:
            if self._shard_files(shard_id) != (False, True):
                return _found_entry(self._load_shard(shard_id).get(key))
            reader = self._reader(shard_id)
            if reader is None:
                return None
        found = reader.found.get(key)
        if found is not None:
            return found
        index = reader.find(key)
        if index is None:
            return None
        try:
            _key, _seq, offset, length, flags = reader.record(index)
            blob = reader.blob(offset, length)
            if flags & _FLAG_ALIAS:
                found = _Found(alias_of=blob.decode("utf-8"))
                self.alias_fast_hits += 1
            else:
                payload = json.loads(blob)
                self.payload_decodes += 1
                if not isinstance(payload, dict):
                    raise ValueError("payload is not an object")
                found = _Found(blob=blob,
                               spliceable=_spliceable(key, blob, payload))
        except (_ShardCorrupt, struct.error, UnicodeDecodeError,
                json.JSONDecodeError, ValueError):
            self.corrupt_shards += 1
            return None
        reader.found[key] = found
        return found

    def _find_many(self, keys, *, batched: bool) -> Dict[str, Optional[_Found]]:
        """The store's one lookup pass: ``{key: found-or-None}``.

        A miss against *cached* shard state is revalidated against the
        on-disk signature before it is believed: when another process
        sharing the root rewrote the shard since we cached it, the shard
        is reloaded and the lookup retried (``stale_shard_reloads``).
        That check runs once per *shard*, on its first miss -- later
        misses in the same shard trust the now fresh cache.  Hits are
        served straight from the cache: entries are immutable once
        written, so a cached hit can never be wrong, and the hot path
        stays stat-free.  Duplicate keys are resolved once; ``batched``
        lookups are also counted in ``batched_lookups``.
        """
        results: Dict[str, Optional[_Found]] = {}
        with self._lock:
            by_shard: Dict[str, List[str]] = {}
            for key in keys:
                if key not in results:
                    results[key] = None
                    by_shard.setdefault(self._shard_id(key), []).append(key)
            for shard_id, shard_keys in by_shard.items():
                revalidated = not self.cache_shards
                for key in shard_keys:
                    found = self._find(shard_id, key)
                    if found is None and not revalidated:
                        revalidated = True
                        recorded = self._shard_sigs.get(shard_id)
                        if recorded is not None and \
                                self._shard_signature(shard_id) != recorded:
                            self._invalidate_shard(shard_id)
                            found = self._find(shard_id, key)
                            if found is not None:
                                self.stale_shard_reloads += 1
                    if batched:
                        self.batched_lookups += 1
                    if found is None:
                        self.misses += 1
                    else:
                        self.hits += 1
                        results[key] = found
        return results

    def _report_bytes(self, key: str, found: _Found) -> Optional[bytes]:
        """The validated report bytes of an entry stored under ``key``, or
        ``None`` (counted in ``corrupt_shards``) when it is no report.

        A packed payload was checked once, when its reader first served
        it.  An entry of a shard held decoded in memory yields the bytes a
        packed write would store (:func:`_pack_shard`'s encoding), checked
        on its first read; the lookup result keeps them until the shard's
        cached entries are replaced or dropped.
        """
        if found.entry is not None and found.blob is None:
            with self._lock:
                if found.blob is None:
                    payload = {k: v for k, v in found.entry.items()
                               if k != "__seq__"}
                    try:
                        blob = json.dumps(payload, sort_keys=True,
                                          separators=(",", ":")).encode("utf-8")
                        found.spliceable = _spliceable(key, blob, payload)
                    except (TypeError, ValueError):
                        blob, found.spliceable = b"", False
                    found.blob = blob
        if not found.spliceable:
            with self._lock:
                self.corrupt_shards += 1
            return None
        return found.blob

    def _raw_many(self, keys, *, batched: bool
                  ) -> Dict[str, Tuple[Optional[str], Optional[bytes]]]:
        """:meth:`get_raw_many`, with ``batched`` as in :meth:`_find_many`."""
        found = self._find_many(keys, batched=batched)
        targets = {key: hit.alias_of for key, hit in found.items()
                   if hit is not None and hit.alias_of is not None}
        resolved = (self._find_many(set(targets.values()), batched=batched)
                    if targets else {})
        results: Dict[str, Tuple[Optional[str], Optional[bytes]]] = {}
        for key, hit in found.items():
            true_key = targets.get(key, key)
            if key in targets:
                hit = resolved.get(true_key)
            if hit is None:
                results[key] = (targets.get(key), None)
            else:
                results[key] = (true_key, self._report_bytes(true_key, hit))
        return results

    def get_raw_many(self, keys) -> Dict[str, Tuple[Optional[str], Optional[bytes]]]:
        """Batched report read that never decodes a report: the hot path.

        Returns ``{key: (resolved_key, blob)}`` for every requested key:
        ``resolved_key`` is the fingerprint the report lives under (the
        alias target when the entry was a spec-alias, followed in the
        same batched pass), and ``blob`` is the report's stored JSON
        bytes, or ``None`` on a miss (including an alias whose target has
        been lost).  The bytes are validated before they are returned --
        they decode to a report, carry their own key and contain no
        newline -- so a server may splice them into a response line
        as they are; a payload failing that is counted in
        ``corrupt_shards`` and reads as a miss, so the cell recomputes.
        Every key (alias targets included) counts in ``batched_lookups``
        and in the hit/miss counters, and each shard pays one pass.
        """
        return self._raw_many(keys, batched=True)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` (counted as a miss)."""
        found = self._find_many([key], batched=False)[key]
        return None if found is None else found.payload()

    def get_many(self, keys) -> Dict[str, Optional[Dict[str, Any]]]:
        """Batched :meth:`get`: one shard resolution per distinct shard.

        Looking keys up one by one pays the cross-process staleness
        check (a ``stat`` against the shard's on-disk signature) once
        per *missing key*; the batched pass pays it once per *shard*,
        which is what makes whole-grid planning affordable.  Duplicate
        keys are resolved once.  Returns ``{key: payload-or-None}`` with
        the same hit/miss accounting as :meth:`get`.
        """
        return {key: None if found is None else found.payload()
                for key, found in self._find_many(keys, batched=True).items()}

    def get_reports_many(self, keys):
        """Batched report fetch following alias indirection.

        Returns ``{key: (resolved_key, report)}``: :meth:`get_raw_many`
        with each report decoded into a :class:`SolveReport` (``None`` on
        a miss).
        """
        return {key: (true_key, None if blob is None else report_from_bytes(blob))
                for key, (true_key, blob) in self.get_raw_many(keys).items()}

    def put(self, key: str, payload: Dict[str, Any]) -> bool:
        """Persist ``payload`` under ``key`` (atomic); returns ``True``.

        Failed writes never raise: an unserializable payload *and* IO
        errors (disk full, read-only store) are counted in
        ``skipped_writes`` and the method returns ``False`` -- a store
        write must not fail the solve that produced the payload.
        """
        with self._lock:
            shard_id = self._shard_id(key)
            # Merge against the shard on disk, not a possibly-stale memory
            # copy, so entries another process wrote since our first read
            # are kept; the per-shard advisory lock holds the whole
            # read-modify-write cycle, closing the cross-process window
            # (a timed-out lock degrades to the old last-writer-wins
            # atomic write, counted in ``lock_timeouts``).
            held = self._guard(shard_id)
            try:
                self._invalidate_shard(shard_id)
                entries = dict(self._load_shard(shard_id))
                fresh = key not in entries
                entry = dict(payload)
                entry["__seq__"] = self._allocate_seq()
                entries[key] = entry
                evicted = self._evict(entries)
                try:
                    self._write_shard(shard_id, entries)
                except (OSError, TypeError, ValueError):
                    self.skipped_writes += 1
                    self._invalidate_shard(shard_id)
                    self._entry_total = None  # count uncertain; rescan lazily
                    return False
            finally:
                if held is not None:
                    held.release()
            self.writes += 1
            if self._entry_total is not None:
                self._entry_total += (1 if fresh else 0) - evicted
            self._maybe_gc()
            return True

    def put_many(self, items: Sequence[Tuple[str, Dict[str, Any]]]) -> int:
        """Persist many ``(key, payload)`` pairs; returns how many stuck.

        Pairs are grouped by shard so each shard pays one read-modify-write
        regardless of how many entries land in it -- the bulk-write path
        the sweep service uses after each completed shard.  Same failure
        semantics as :meth:`put` (never raises; failed shards are counted
        in ``skipped_writes`` per entry).
        """
        by_shard: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {}
        for key, payload in items:
            by_shard.setdefault(self._shard_id(key), []).append((key, payload))
        written = 0
        with self._lock:
            for shard_id, pairs in by_shard.items():
                held = self._guard(shard_id)
                try:
                    self._invalidate_shard(shard_id)
                    entries = dict(self._load_shard(shard_id))
                    fresh = 0
                    for key, payload in pairs:
                        fresh += key not in entries
                        entry = dict(payload)
                        entry["__seq__"] = self._allocate_seq()
                        entries[key] = entry
                    evicted = self._evict(entries)
                    try:
                        self._write_shard(shard_id, entries)
                    except (OSError, TypeError, ValueError):
                        self.skipped_writes += len(pairs)
                        self._invalidate_shard(shard_id)
                        self._entry_total = None  # uncertain; rescan lazily
                        continue
                finally:
                    if held is not None:
                        held.release()
                self.writes += len(pairs)
                written += len(pairs)
                if self._entry_total is not None:
                    self._entry_total += fresh - evicted
            if written:
                self._maybe_gc()
        return written

    def put_reports(self, pairs) -> int:
        """Persist many ``(key, SolveReport)`` pairs (see :meth:`put_many`).

        Reports whose solutions have no stable JSON form are skipped and
        counted, exactly like :meth:`put_report`.
        """
        encoded = []
        for key, report in pairs:
            try:
                encoded.append((key, report_to_payload(report, key)))
            except UnserializableSolutionError:
                with self._lock:
                    self.skipped_writes += 1
        return self.put_many(encoded)

    def put_report(self, key: str, report) -> bool:
        """Persist a :class:`~repro.engine.core.SolveReport` under ``key``.

        Unserializable solutions (exotic allocation keys / metadata) are
        skipped gracefully -- the solve still succeeded, it just is not
        persisted.
        """
        try:
            payload = report_to_payload(report, key)
        except UnserializableSolutionError:
            with self._lock:
                self.skipped_writes += 1
            return False
        return self.put(key, payload)

    def get_report(self, key: str):
        """The stored ``SolveReport`` for ``key``, or ``None``.

        A payload that no longer decodes (e.g. hand-edited) counts as
        corruption and returns ``None`` -- the caller recomputes.
        """
        _true_key, blob = self._raw_many([key], batched=False)[key]
        return None if blob is None else report_from_bytes(blob)

    # ------------------------------------------------------------------
    # solve claims (cross-runner duplicate-compute guard)
    # ------------------------------------------------------------------
    @property
    def _claim_dir(self) -> str:
        return os.path.join(self.root, "claims")

    def _claim_path(self, key: str) -> str:
        return os.path.join(self._claim_dir, f"{key}.claim")

    def claim_solve(self, key: str) -> bool:
        """Advisory claim on *computing* ``key``; ``True`` if acquired.

        The duplicate-compute guard for re-routes racing a live primary:
        a runner claims a pending cell before solving it, so a second
        runner handed the same cell sees the live claim, waits for it
        (:meth:`solve_claim_holder`) and then answers from the store
        instead of solving again.  Claims are an O_EXCL pid-breadcrumb
        file per key; a claim whose holder died is taken over
        (``stale_claims_recovered``), and any filesystem trouble makes
        the method return ``True`` -- claims only ever *avoid* work,
        they must never block a solve.  No-op (always ``True``) when
        ``locking=False``.
        """
        if not self.locking:
            return True
        path = self._claim_path(key)
        for _attempt in range(2):
            try:
                os.makedirs(self._claim_dir, exist_ok=True)
                fd = os.open(path,
                             os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                holder = _read_breadcrumb(path)
                if holder is not None and not _pid_alive(holder):
                    try:
                        os.unlink(path)
                    except OSError:  # pragma: no cover - lost the race
                        pass
                    with self._lock:
                        self.stale_claims_recovered += 1
                    continue
                with self._lock:
                    self.claims_contended += 1
                return False
            except OSError:  # pragma: no cover - unclaimable filesystem
                return True
            try:
                os.write(fd, str(os.getpid()).encode("ascii"))
            except OSError:  # pragma: no cover - breadcrumb best effort
                pass
            finally:
                os.close(fd)
            with self._lock:
                self.claims_acquired += 1
            return True
        return True  # lost two takeover races: just solve

    def release_solve_claim(self, key: str) -> None:
        """Drop the claim on ``key`` (idempotent, never raises)."""
        try:
            os.unlink(self._claim_path(key))
        except OSError:
            pass

    def solve_claim_holder(self, key: str) -> Optional[int]:
        """The pid of a *live* claim holder for ``key``, else ``None``.

        A recorded holder that is no longer running reads as no claim --
        waiters poll this, and a SIGKILLed primary must not wedge them.
        """
        holder = _read_breadcrumb(self._claim_path(key))
        if holder is not None and _pid_alive(holder):
            return holder
        return None

    def _maybe_gc(self) -> None:
        """Run :meth:`compact` if the configured entry cap is exceeded.

        Uses the incrementally-maintained entry count, so the per-write
        overhead is O(1) after the store's first full scan.
        """
        if (self.max_total_entries is not None
                and self._total_entries() > self.max_total_entries):
            self.compact(self.max_total_entries)

    def compact(self, max_entries: Optional[int] = None) -> int:
        """Evict the oldest entries until at most ``max_entries`` remain.

        The GC hook for long-lived deployments: entries are evicted in
        insertion order (oldest first) following the store-global
        insertion sequence, which is seeded above every persisted entry on
        reopen -- so the order holds across shards and across restarts
        (concurrent writer processes interleave approximately; see
        :meth:`_seq_floor_scan`).  Touched shards are rewritten
        atomically; a shard whose rewrite fails keeps its old blob (the
        failure is counted in ``skipped_writes``, never raised).  Returns
        the number of entries evicted and increments the ``compactions``
        counter once per run.

        ``max_entries`` defaults to the store's configured
        ``max_total_entries`` (one of the two must be set).
        """
        cap = max_entries if max_entries is not None else self.max_total_entries
        require(cap is not None and cap >= 0,
                "compact() needs max_entries= or a store-level max_total_entries")
        with self._lock:
            election = None
            if self.locking:
                # Single-writer election: exactly one runner compacts a
                # shared store at a time.  Losing is normal under a
                # cluster (counted, never an error) -- the cap re-checks
                # on this store's next write.
                election = self._guard(
                    "compaction", timeout=min(self.lock_timeout, 0.1),
                    count_timeout=False)
                if election is None:
                    self.compactions_skipped += 1
                    return 0
            try:
                shard_entries = {shard_id: dict(self._load_shard(shard_id))
                                 for shard_id in self._shard_ids()}
                total = sum(len(entries)
                            for entries in shard_entries.values())
                self.compactions += 1
                excess = total - cap
                if excess <= 0:
                    return 0
                oldest_first = sorted(
                    (entry.get("__seq__", 0), shard_id, key)
                    for shard_id, entries in shard_entries.items()
                    for key, entry in entries.items())
                victims: Dict[str, List[str]] = {}
                for _seq, shard_id, key in oldest_first[:excess]:
                    victims.setdefault(shard_id, []).append(key)
                evicted = 0
                clean = True
                for shard_id in sorted(victims):
                    # Each touched shard is re-read fresh under its own
                    # advisory lock before the rewrite: entries a
                    # concurrent writer added since victim selection are
                    # carried, never clobbered.
                    held = self._guard(shard_id)
                    try:
                        self._invalidate_shard(shard_id)
                        entries = dict(self._load_shard(shard_id))
                        removed = [key for key in victims[shard_id]
                                   if key in entries]
                        for key in removed:
                            del entries[key]
                        try:
                            self._write_shard(shard_id, entries)
                        except (OSError, TypeError, ValueError):
                            self.skipped_writes += 1
                            self._invalidate_shard(shard_id)
                            clean = False
                            continue
                    finally:
                        if held is not None:
                            held.release()
                    self.evictions += len(removed)
                    evicted += len(removed)
                if clean and not self.locking:
                    self._entry_total = total - evicted
                else:
                    # Concurrent writers may have moved the count while we
                    # compacted (or a rewrite failed); rescan lazily.
                    self._entry_total = None
                return evicted
            finally:
                if election is not None:
                    election.release()

    def migrate(self, target_format: Optional[str] = None) -> Dict[str, int]:
        """Rewrite every shard into ``target_format`` (default: the store's
        configured ``shard_format``).

        The v1 -> v2 upgrade path (and, symmetrically, the v2 -> v1
        escape hatch): each shard is fully decoded -- whatever format it
        is in -- and rewritten atomically in the target format, preserving
        every payload and the global insertion sequence bit for bit.
        ``meta.json`` is refreshed afterwards.  Returns
        ``{"shards": rewritten, "entries": carried, "failed": skipped}``;
        failed shard rewrites keep their old blob (counted in
        ``skipped_writes`` as usual) so a partial migration is still a
        fully readable mixed-format store.
        """
        target = target_format if target_format is not None else self.shard_format
        require(target in ("binary", "json"),
                "target_format must be 'binary' or 'json'")
        with self._lock:
            previous_format = self.shard_format
            self.shard_format = target
            shards = entries_carried = failed = 0
            try:
                for shard_id in self._shard_ids():
                    entries = dict(self._load_shard(shard_id))
                    try:
                        self._write_shard(shard_id, entries)
                    except (OSError, TypeError, ValueError):
                        self.skipped_writes += 1
                        self._invalidate_shard(shard_id)
                        failed += 1
                        continue
                    shards += 1
                    entries_carried += len(entries)
                    self.migrated_shards += 1
            except BaseException:
                self.shard_format = previous_format
                raise
            try:
                atomic_write_json(self._meta_path, {
                    "schema": STORE_SCHEMA_VERSION,
                    "format": "repro-solution-store/packed-v2",
                    "shard_width": self.shard_width,
                    "shard_format": self.shard_format,
                }, fsync=self.durable)
            except OSError:
                self.skipped_writes += 1
            return {"shards": shards, "entries": entries_carried,
                    "failed": failed}

    def __contains__(self, key: str) -> bool:
        return self._find_many([key], batched=False)[key] is not None

    def __len__(self) -> int:
        return self.entry_count()

    def entry_count(self) -> int:
        """Total entries across every shard on disk (exact; refreshes the
        cached count the GC trigger uses)."""
        with self._lock:
            total = sum(self._shard_stats(shard_id)[0]
                        for shard_id in self._shard_ids())
            self._entry_total = total
            return total

    def _shard_ids(self):
        try:
            names = os.listdir(self._shard_dir)
        except OSError:
            return []
        ids = {name[:-5] for name in names
               if name.endswith(".json") and not name.startswith(".tmp-")}
        ids.update(name[:-4] for name in names
                   if name.endswith(".rps") and not name.startswith(".tmp-"))
        return sorted(ids)

    def payloads(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Iterate ``(key, payload)`` over every stored entry (all shards).

        Fully decodes every entry (alias payloads included); use
        :meth:`scan` for the bulk path that skips alias entries without
        decoding them.
        """
        with self._lock:
            for shard_id in self._shard_ids():
                for key, entry in sorted(self._load_shard(shard_id).items()):
                    yield key, {k: v for k, v in entry.items() if k != "__seq__"}

    def scan(self, *, include_aliases: bool = False) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Bulk-iterate ``(key, payload)`` across the whole store, lazily.

        The one-pass feeder for table regeneration
        (:func:`repro.analysis.sweep.sweep_records`): packed v2 shards
        stream straight off the record table -- one JSON decode per
        non-alias payload, **zero** full-shard parses and **zero** decodes
        for alias entries, which are skipped from the record flags alone
        (counted in ``scan_alias_skips``).  With ``include_aliases=True``
        alias entries are yielded as ``{"alias_of": key}``, still without
        touching JSON.  Legacy JSON shards fall back to the full parse
        they always required.  ``scans`` / ``scan_entries`` count the
        traffic.
        """
        with self._lock:
            self.scans += 1
            for shard_id in self._shard_ids():
                if self.cache_shards and shard_id in self._shards:
                    source = self._shards[shard_id]
                elif self._shard_files(shard_id) == (False, True):
                    yield from self._scan_binary(shard_id,
                                                 include_aliases=include_aliases)
                    continue
                else:
                    source = self._load_shard(shard_id)
                for key, entry in sorted(source.items()):
                    payload = {k: v for k, v in entry.items() if k != "__seq__"}
                    if _is_alias_payload(payload) and not include_aliases:
                        self.scan_alias_skips += 1
                        continue
                    self.scan_entries += 1
                    yield key, payload

    def _scan_binary(self, shard_id: str, *,
                     include_aliases: bool) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """One packed shard's slice of :meth:`scan` (no full decode)."""
        reader = self._reader(shard_id)
        if reader is None:
            return
        for index in range(reader.count):
            try:
                key, _seq, offset, length, flags = reader.record(index)
            except (struct.error, UnicodeDecodeError):
                self.corrupt_shards += 1
                continue
            if flags & _FLAG_ALIAS:
                if not include_aliases:
                    self.scan_alias_skips += 1
                    continue
                try:
                    payload = {"alias_of":
                               reader.blob(offset, length).decode("utf-8")}
                except (_ShardCorrupt, UnicodeDecodeError):
                    self.corrupt_shards += 1
                    continue
            else:
                try:
                    payload = json.loads(reader.blob(offset, length).decode("utf-8"))
                    self.payload_decodes += 1
                    if not isinstance(payload, dict):
                        raise ValueError("payload is not an object")
                except (_ShardCorrupt, UnicodeDecodeError,
                        json.JSONDecodeError, ValueError):
                    self.corrupt_shards += 1
                    continue
            self.scan_entries += 1
            yield key, payload

    def scan_routed(self, ring: Any, owner: str, *,
                    include_aliases: bool = True) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Stream only the entries whose route key lands on ``owner``.

        The prewarm feeder for an elastic resize: a joining runner calls
        this (via the ``warm_cache`` wire op) to bulk-load exactly its
        acquired key range into the tier-1 LRU before taking traffic.
        ``ring`` is anything with a ``route(key) -> node`` method --
        typically :class:`repro.cluster.ring.HashRing`, duck-typed so the
        engine never imports the cluster package.

        Routing keys: a report entry routes by its own store key (the
        request fingerprint); an **alias** entry routes by its *target*
        fingerprint, so an alias and the report it points at always land
        on -- and prewarm into -- the same runner.  On packed v2 shards
        the filter is decode-free for rejected report entries (the route
        key is the record-table key; only accepted payloads are JSON-
        decoded) and alias targets come straight off the blob, exactly the
        :meth:`scan` fast path.  Alias payloads are yielded as
        ``{"alias_of": target}``.

        ``routed_scans`` / ``routed_entries`` / ``routed_skips`` count the
        traffic; skips are entries owned by someone else.
        """
        with self._lock:
            self.routed_scans += 1
            for shard_id in self._shard_ids():
                if (not (self.cache_shards and shard_id in self._shards)
                        and self._shard_files(shard_id) == (False, True)):
                    yield from self._scan_binary_routed(
                        shard_id, ring, owner,
                        include_aliases=include_aliases)
                    continue
                if self.cache_shards and shard_id in self._shards:
                    source = self._shards[shard_id]
                else:
                    source = self._load_shard(shard_id)
                for key, entry in sorted(source.items()):
                    payload = {k: v for k, v in entry.items()
                               if k != "__seq__"}
                    if _is_alias_payload(payload):
                        if not include_aliases:
                            self.scan_alias_skips += 1
                            continue
                        target = payload.get("alias_of")
                        route_key = target if isinstance(target, str) else key
                        payload = {"alias_of": target}
                    else:
                        route_key = key
                    if ring.route(route_key) != owner:
                        self.routed_skips += 1
                        continue
                    self.routed_entries += 1
                    yield key, payload

    def _scan_binary_routed(self, shard_id: str, ring: Any, owner: str, *,
                            include_aliases: bool) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """One packed shard's slice of :meth:`scan_routed` (decode-free
        rejection: non-owned report entries never have their blob read)."""
        reader = self._reader(shard_id)
        if reader is None:
            return
        for index in range(reader.count):
            try:
                key, _seq, offset, length, flags = reader.record(index)
            except (struct.error, UnicodeDecodeError):
                self.corrupt_shards += 1
                continue
            if flags & _FLAG_ALIAS:
                if not include_aliases:
                    self.scan_alias_skips += 1
                    continue
                try:
                    target = reader.blob(offset, length).decode("utf-8")
                except (_ShardCorrupt, UnicodeDecodeError):
                    self.corrupt_shards += 1
                    continue
                if ring.route(target) != owner:
                    self.routed_skips += 1
                    continue
                self.routed_entries += 1
                yield key, {"alias_of": target}
                continue
            if ring.route(key) != owner:
                self.routed_skips += 1
                continue
            try:
                payload = json.loads(reader.blob(offset, length).decode("utf-8"))
                self.payload_decodes += 1
                if not isinstance(payload, dict):
                    raise ValueError("payload is not an object")
            except (_ShardCorrupt, UnicodeDecodeError,
                    json.JSONDecodeError, ValueError):
                self.corrupt_shards += 1
                continue
            self.routed_entries += 1
            yield key, payload

    def refresh(self) -> None:
        """Drop the in-memory shard cache (re-read other processes' writes)."""
        with self._lock:
            self._shards.clear()
            self._entry_found.clear()
            self._readers.clear()
            self._failed_readers.clear()
            self._shard_sigs.clear()
            # Another process may have added entries (and higher sequence
            # numbers); rescan both lazily on next use.
            self._entry_total = None
            self._next_seq = None

    def clear(self) -> None:
        """Delete every shard blob and reset the statistics."""
        with self._lock:
            for shard_id in self._shard_ids():
                for path in (self._json_path(shard_id),
                             self._binary_path(shard_id)):
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
            self._shards.clear()
            self._entry_found.clear()
            self._readers.clear()
            self._failed_readers.clear()
            self._shard_sigs.clear()
            self._entry_total = 0
            self._next_seq = None
            self.hits = self.misses = self.writes = 0
            self.evictions = self.compactions = self.corrupt_shards = 0
            self.schema_mismatches = self.skipped_writes = 0
            self.full_shard_parses = self.payload_decodes = 0
            self.alias_fast_hits = self.binary_shard_opens = 0
            self.scans = self.scan_entries = self.scan_alias_skips = 0
            self.migrated_shards = 0
            self.routed_scans = self.routed_entries = self.routed_skips = 0
            self.lock_acquires = self.lock_waits = self.lock_timeouts = 0
            self.stale_locks_recovered = self.compactions_skipped = 0
            self.stale_shard_reloads = 0
            self.batched_lookups = 0
            self.claims_acquired = self.claims_contended = 0
            self.stale_claims_recovered = 0
            if os.path.isdir(self._claim_dir):
                for name in os.listdir(self._claim_dir):
                    try:
                        os.unlink(os.path.join(self._claim_dir, name))
                    except OSError:
                        pass

    def info(self) -> dict:
        """Statistics dict mirroring :meth:`LRUCache.info` plus store extras."""
        with self._lock:
            return {
                "root": self.root,
                "schema": STORE_SCHEMA_VERSION,
                "shard_format": self.shard_format,
                "durable": self.durable,
                "entries": self.entry_count(),
                "shards": len(self._shard_ids()),
                "max_entries_per_shard": self.max_entries_per_shard,
                "max_total_entries": self.max_total_entries,
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "evictions": self.evictions,
                "compactions": self.compactions,
                "corrupt_shards": self.corrupt_shards,
                "schema_mismatches": self.schema_mismatches,
                "skipped_writes": self.skipped_writes,
                "full_shard_parses": self.full_shard_parses,
                "payload_decodes": self.payload_decodes,
                "alias_fast_hits": self.alias_fast_hits,
                "binary_shard_opens": self.binary_shard_opens,
                "scans": self.scans,
                "scan_entries": self.scan_entries,
                "scan_alias_skips": self.scan_alias_skips,
                "migrated_shards": self.migrated_shards,
                "routed_scans": self.routed_scans,
                "routed_entries": self.routed_entries,
                "routed_skips": self.routed_skips,
                "locking": self.locking,
                "lock_acquires": self.lock_acquires,
                "lock_waits": self.lock_waits,
                "lock_timeouts": self.lock_timeouts,
                "stale_locks_recovered": self.stale_locks_recovered,
                "compactions_skipped": self.compactions_skipped,
                "stale_shard_reloads": self.stale_shard_reloads,
                "batched_lookups": self.batched_lookups,
                "claims_acquired": self.claims_acquired,
                "claims_contended": self.claims_contended,
                "stale_claims_recovered": self.stale_claims_recovered,
            }

    #: The numeric-counter subset of :meth:`info` exported to metrics
    #: snapshots: machine-independent work counts plus the two gauges a
    #: dashboard wants next to them (``entries``, ``shards``).  No paths,
    #: formats or configuration -- the snapshot stays comparable across
    #: hosts and deployments.
    COUNTER_FIELDS = (
        "entries", "shards", "hits", "misses", "writes", "evictions",
        "compactions", "corrupt_shards", "schema_mismatches",
        "skipped_writes", "full_shard_parses", "payload_decodes",
        "alias_fast_hits", "binary_shard_opens", "scans", "scan_entries",
        "scan_alias_skips", "migrated_shards", "routed_scans",
        "routed_entries", "routed_skips", "lock_acquires",
        "lock_waits", "lock_timeouts", "stale_locks_recovered",
        "compactions_skipped", "stale_shard_reloads", "batched_lookups",
        "claims_acquired", "claims_contended", "stale_claims_recovered",
    )

    def counters(self) -> Dict[str, int]:
        """Just the counters of :meth:`info` (see :data:`COUNTER_FIELDS`).

        This is what :meth:`AsyncSweepService.snapshot
        <repro.engine.async_service.AsyncSweepService.snapshot>` embeds
        under ``"store"`` and what the ``metrics`` wire op therefore
        exports -- keep it JSON-safe and host-independent.
        """
        info = self.info()
        return {name: info[name] for name in self.COUNTER_FIELDS}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SolutionStore(root={self.root!r}, entries={self.entry_count()}, "
                f"hits={self.hits}, misses={self.misses})")
