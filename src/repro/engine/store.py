"""Persistent on-disk solution store -- tier 2 of the engine's cache.

The in-memory LRU of :mod:`repro.engine.core` dies with the process; the
:class:`SolutionStore` persists solved reports so repeated sweeps -- across
runs, processes and machines sharing a filesystem -- are served from disk
instead of recomputed.  ``repro.solve`` consults it automatically once
installed with :func:`repro.engine.core.set_solution_store`; the
:class:`~repro.engine.service.SweepService` uses it as its system of record.

On-disk format (see ``docs/caching.md`` for the full specification):

* ``<root>/meta.json`` -- store-level metadata (schema version, creator);
* ``<root>/shards/<prefix>.rps`` -- the **packed binary v2** shard, the
  one format the store writes: a fixed-width, key-sorted record table
  (key bytes + insertion sequence + payload offset/length + flags)
  followed by a payload region of per-entry JSON blobs.  A ``get()``
  binary-searches the record table and decodes *one* payload; alias
  entries (``{"alias_of": key}``) keep their target in the payload region
  as raw key bytes and resolve without any JSON decode;
  :meth:`SolutionStore.scan` streams every entry in one pass, skipping
  alias payloads untouched.  A write carries the other entries' record
  bytes unchanged and encodes only its own payloads.
* ``<root>/shards/<prefix>.json`` -- the legacy sharded-JSON v1 format
  (``{"schema": 1, "entries": {request_key: payload}}``), still read: a
  v1 shard is converted to packed records in memory, the next write to it
  replaces it with a ``.rps`` file, and :meth:`SolutionStore.migrate`
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
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

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
#: format; ``1`` (legacy sharded JSON) stays readable.  Entries written
#: under an *unknown* version are ignored (recomputed), never misread.
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


#: What reading a record or decoding its payload may raise: broken bounds,
#: or a key or payload that is not UTF-8 or JSON (ValueError subclasses).
_RECORD_ERRORS = (_ShardCorrupt, struct.error, ValueError)

#: One shard's records: ``{key: (insertion seq, payload bytes, flags)}``.
_Records = Dict[str, Tuple[int, bytes, int]]


def _is_alias_payload(payload: Dict[str, Any]) -> bool:
    return len(payload) == 1 and isinstance(payload.get("alias_of"), str)


def _encode_payload(payload: Dict[str, Any]) -> Tuple[bytes, int]:
    """``(bytes, flags)`` of one payload's record: an alias keeps only its
    target key, anything else is compact sorted JSON.

    Raises ``TypeError``/``ValueError`` for a payload with no JSON form,
    which callers count as a skipped write.
    """
    if _is_alias_payload(payload):
        return payload["alias_of"].encode("utf-8"), _FLAG_ALIAS
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8"), 0


def _pack_records(records: _Records) -> bytes:
    """Serialize ``records`` into a v2 shard, record table sorted by key.

    Raises ``ValueError`` for a key no shard can hold (empty, or with a
    NUL byte).
    """
    keys = sorted(records)
    encoded = [key.encode("utf-8") for key in keys]
    if any(not key_bytes or b"\x00" in key_bytes for key_bytes in encoded):
        raise ValueError("store key not packable")
    key_width = max(map(len, encoded), default=1)
    record_size = key_width + _RECORD_FIXED.size
    parts = [_HEADER.pack(_SHARD_MAGIC, STORE_SCHEMA_VERSION, 0, len(keys),
                          key_width, _HEADER.size + record_size * len(keys))]
    blobs: List[bytes] = []
    offset = 0
    for key, key_bytes in zip(keys, encoded):
        seq, blob, flags = records[key]
        parts.append(key_bytes.ljust(key_width, b"\x00"))
        parts.append(_RECORD_FIXED.pack(seq, offset, len(blob), flags))
        blobs.append(blob)
        offset += len(blob)
    return b"".join(parts + blobs)


_EMPTY_SHARD = _pack_records({})


class _Found:
    """One entry a store lookup found: an alias target or checked bytes.

    ``alias_of`` is an alias entry's target key.  ``blob`` is a payload's
    bytes, already decoded once to check them; ``spliceable`` says whether
    those bytes are a report that may go on the wire verbatim (see
    :func:`_spliceable`).
    """

    __slots__ = ("alias_of", "blob", "spliceable")

    def __init__(self, *, alias_of: Optional[str] = None,
                 blob: Optional[bytes] = None, spliceable: bool = False):
        self.alias_of = alias_of
        self.blob = blob
        self.spliceable = spliceable

    def payload(self) -> Dict[str, Any]:
        """The entry as the payload dict :meth:`SolutionStore.get` returns."""
        if self.alias_of is not None:
            return {"alias_of": self.alias_of}
        return json.loads(self.blob)


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
    """Lazy view of one packed shard: a file (mmapped) or bytes in memory.

    Every shard a store holds is one of these -- over its ``.rps`` file,
    a v1 shard converted in memory, the bytes the store just wrote, or an
    empty shard.  Parses only the 28-byte header eagerly; key lookups
    binary-search the fixed-width record table directly on the buffer and
    payloads are read one at a time, on demand.  The store memoizes each
    key's checked lookup result in ``found`` (the validated bytes, never
    a decoded dict), so each payload is decoded once per reader.  Every
    offset is bounds-checked: a mangled header raises
    :class:`_ShardCorrupt` at open (whole-file distrust, which the store
    decays to "empty shard"), a mangled record when it is read.
    """

    __slots__ = ("buf", "count", "key_width", "payload_offset",
                 "_record_size", "_records_off", "found")

    def __init__(self, source: Union[str, bytes]):
        if isinstance(source, bytes):
            self.buf: Any = source
        else:
            with open(source, "rb") as handle:
                try:
                    self.buf = mmap.mmap(handle.fileno(), 0,
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

    def record(self, index: int) -> Tuple[str, int, bytes, int]:
        """``(key, seq, payload bytes, flags)`` of record ``index``; raises
        one of :data:`_RECORD_ERRORS` when it cannot be read."""
        start = self._records_off + index * self._record_size
        key = self._key_bytes_at(index).rstrip(b"\x00").decode("utf-8")
        seq, offset, length, flags = _RECORD_FIXED.unpack_from(
            self.buf, start + self.key_width)
        begin = self.payload_offset + offset
        if begin + length > len(self.buf):
            raise _ShardCorrupt("payload out of bounds")
        return key, seq, bytes(self.buf[begin:begin + length]), flags

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

    def max_seq(self) -> int:
        """The largest insertion sequence, straight from the record table
        -- no payload read."""
        return max((_RECORD_FIXED.unpack_from(
            self.buf, self._records_off + index * self._record_size
            + self.key_width)[0] for index in range(self.count)), default=0)


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
    """Serialize ``payload`` to ``path`` atomically (temp file + rename);
    ``fsync`` as in :func:`_atomic_write_bytes`."""
    _atomic_write_bytes(path, json.dumps(payload, sort_keys=True,
                                         separators=(",", ":")).encode("utf-8"),
                        fsync=fsync)


def _atomic_write_bytes(path: str, data: bytes, *, fsync: bool = False) -> None:
    """Write ``data`` to ``path`` atomically (temp file + rename).

    With ``fsync=True`` the temp file is flushed to disk *before* the
    rename and the containing directory *after* it, so a crash between
    rename and the kernel's next writeback cannot lose the file.
    """
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
    max_total_entries:
        Optional store-wide entry cap for long-lived deployments.  When
        set, every write that pushes the store past the cap triggers
        :meth:`compact`, which evicts the oldest entries (smallest
        insertion sequence first) until the cap holds again.  ``None``
        (the default) disables the GC; :meth:`compact` can still be called
        manually with an explicit target.
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
                 shard_width: int = 2, max_total_entries: Optional[int] = None,
                 durable: bool = False, locking: bool = True,
                 lock_timeout: float = 10.0):
        require(max_entries_per_shard > 0, "max_entries_per_shard must be positive")
        require(1 <= shard_width <= 8, "shard_width must be in [1, 8]")
        require(max_total_entries is None or max_total_entries > 0,
                "max_total_entries must be positive (or None to disable the GC)")
        require(lock_timeout > 0, "lock_timeout must be positive")
        self.root = os.path.abspath(root)
        self.max_entries_per_shard = max_entries_per_shard
        self.shard_width = shard_width
        self.max_total_entries = max_total_entries
        self.durable = durable
        self.locking = locking
        self.lock_timeout = lock_timeout
        #: Key of the process-wide lock registry: symlink-stable so two
        #: instances opened through different paths still serialise.
        self._lock_root = os.path.realpath(self.root)
        #: Every shard this handle has touched: shard id -> its reader
        #: (see :meth:`_open`).  Dropped when the shard is re-read.
        self._readers: Dict[str, _PackedShardReader] = {}
        #: On-disk identity of each held shard at the moment it was read
        #: (see :meth:`_shard_signature`).  A lookup that misses compares
        #: against this to detect rewrites by *other* processes sharing
        #: the root (atomic renames always change the inode) and reloads
        #: once instead of reporting a stale miss.
        self._shard_sigs: Dict[str, Optional[Tuple[int, int, int]]] = {}
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
        # on): how many v1 JSON *shard files* were parsed (converted), how
        # many individual payload blobs were JSON-decoded, how many alias
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
        # Read-side cross-process coherence: held shards found stale
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
        args = (self._lock_path(name), _process_lock(self._lock_root, name),
                self.lock_timeout if timeout is None else timeout)
        try:
            try:
                held = _acquire_file_lock(*args)
            except FileNotFoundError:
                # The constructor made locks/; someone removed it since.
                os.makedirs(self._lock_dir, exist_ok=True)
                held = _acquire_file_lock(*args)
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

    def _shard_signature(self, shard_id: str) -> Optional[Tuple[int, int, int]]:
        """On-disk identity of one shard's ``.rps`` file, or ``None``.

        ``(st_ino, st_size, st_mtime_ns)``.  Every store write goes
        through an atomic temp-file + rename, which allocates a fresh
        inode, so a rewrite by any process -- including same-size,
        same-mtime ones -- always changes the signature.  No process
        writes a ``.json`` shard, so the packed file alone tells.
        """
        try:
            stat = os.stat(self._binary_path(shard_id))
        except OSError:
            return None
        return (stat.st_ino, stat.st_size, stat.st_mtime_ns)

    def _write_meta(self) -> None:
        atomic_write_json(self._meta_path, {
            "schema": STORE_SCHEMA_VERSION,
            "format": "repro-solution-store/packed-v2",
            "shard_width": self.shard_width,
        }, fsync=self.durable)

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
        self._write_meta()

    # ------------------------------------------------------------------
    # shard IO
    # ------------------------------------------------------------------
    def _reader(self, shard_id: str) -> _PackedShardReader:
        """The shard's reader: held since an earlier call, or opened now."""
        reader = self._readers.get(shard_id)
        if reader is None:
            # Signature taken *before* the open: if the file is swapped
            # mid-open we record the older identity and the next miss
            # simply revalidates again (conservative, never stale-forever).
            signature = self._shard_signature(shard_id)
            reader = self._readers[shard_id] = self._open(
                shard_id, packed=signature is not None)
            self._shard_sigs[shard_id] = signature
        return reader

    def _open(self, shard_id: str, *, packed: bool) -> _PackedShardReader:
        """A reader over one shard as it is on disk.

        The ``.rps`` file (when ``packed``) is read in place.  A legacy
        v1 ``.json`` shard is converted to records in memory and, when a
        crash left a ``.rps`` beside it (between a rewrite and the old
        file's unlink), merged with it by insertion sequence, newest
        winning per key.  No file, or one that cannot be trusted, reads
        as an empty shard; its failure is counted here, once per open.
        """
        reader = None
        if packed:
            try:
                reader = _PackedShardReader(self._binary_path(shard_id))
                self.binary_shard_opens += 1
            except _ShardSchemaMismatch:
                self.schema_mismatches += 1
            except (_ShardCorrupt, OSError):
                self.corrupt_shards += 1
        legacy = self._convert_v1(shard_id)
        if legacy is None:
            return reader if reader is not None else _PackedShardReader(_EMPTY_SHARD)
        if reader is not None:
            for key, seq, blob, flags in self._records(reader):
                if key not in legacy or legacy[key][0] <= seq:
                    legacy[key] = (seq, blob, flags)
        try:
            return _PackedShardReader(_pack_records(legacy))
        except (ValueError, struct.error):  # a v1 key or seq no shard holds
            self.corrupt_shards += 1
            return _PackedShardReader(_EMPTY_SHARD)

    def _convert_v1(self, shard_id: str) -> Optional[_Records]:
        """The records of one legacy v1 JSON shard; ``None`` without one.

        The one place the v1 layout is read: ``{"schema": 1, "entries":
        {key: payload}}``, each payload carrying its insertion sequence as
        ``__seq__``.  Every payload is encoded as a write would encode it;
        the parse is counted in ``full_shard_parses``.  A blob that does
        not parse converts to no records (``corrupt_shards``), as does one
        of another schema (``schema_mismatches``); an entry that is not an
        object is dropped (``corrupt_shards``, once per shard).
        """
        try:
            with open(self._json_path(shard_id), "r", encoding="utf-8") as handle:
                blob = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self.corrupt_shards += 1
            return {}
        self.full_shard_parses += 1
        if not isinstance(blob, dict) or not isinstance(blob.get("entries"), dict):
            self.corrupt_shards += 1
            return {}
        if blob.get("schema") != STORE_SCHEMA_V1:
            self.schema_mismatches += 1
            return {}
        records: _Records = {}
        try:
            for key, entry in blob["entries"].items():
                if isinstance(entry, dict):
                    payload = {k: v for k, v in entry.items() if k != "__seq__"}
                    records[key] = (int(entry.get("__seq__", 0)),
                                    *_encode_payload(payload))
        except (TypeError, ValueError):
            self.corrupt_shards += 1
            return {}
        if len(records) != len(blob["entries"]):
            self.corrupt_shards += 1
        return records

    def _records(self, reader: _PackedShardReader
                 ) -> Iterator[Tuple[str, int, bytes, int]]:
        """Every readable record of one shard, payloads left as bytes; a
        record whose bounds are broken is skipped and counted."""
        for index in range(reader.count):
            try:
                record = reader.record(index)
            except _RECORD_ERRORS:
                self.corrupt_shards += 1
                continue
            yield record

    def _shard_records(self, shard_id: str) -> _Records:
        """One shard's records as a write starts from them (no decode)."""
        return {key: (seq, blob, flags) for key, seq, blob, flags
                in self._records(self._reader(shard_id))}

    def _write_shard(self, shard_id: str, records: _Records) -> None:
        """Pack ``records`` into the shard's ``.rps`` file (atomic) and hold
        a reader over the bytes written.

        A legacy ``.json`` file of the shard is removed *after* the new
        blob is in place -- a crash in between leaves both, which reads
        merge by sequence number.
        """
        data = _pack_records(records)
        _atomic_write_bytes(self._binary_path(shard_id), data,
                            fsync=self.durable)
        try:
            os.unlink(self._json_path(shard_id))
        except OSError:
            pass
        self._readers[shard_id] = _PackedShardReader(data)
        self._shard_sigs[shard_id] = self._shard_signature(shard_id)

    def _invalidate_shard(self, shard_id: str) -> None:
        self._readers.pop(shard_id, None)
        self._shard_sigs.pop(shard_id, None)

    def _evict(self, records: _Records) -> int:
        evicted = 0
        while len(records) > self.max_entries_per_shard:
            del records[min(records, key=lambda k: records[k][0])]
            evicted += 1
        self.evictions += evicted
        return evicted

    def _decode(self, blob: bytes) -> Dict[str, Any]:
        """One payload's JSON decode (counted in ``payload_decodes``);
        raises ``ValueError`` unless the bytes are a JSON object."""
        payload = json.loads(blob)
        self.payload_decodes += 1
        if not isinstance(payload, dict):
            raise ValueError("payload is not an object")
        return payload

    # ------------------------------------------------------------------
    # global insertion sequence + entry accounting
    # ------------------------------------------------------------------
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
            reader = self._reader(shard_id)
            total += reader.count
            floor = max(floor, reader.max_seq())
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
        """One lookup of ``key`` in the shard's reader, as held.

        A binary search over the record table plus, on the key's first
        hit, one payload decode (none for alias entries) whose checked
        result the reader keeps -- without a single ``stat`` once the
        shard is open.
        """
        reader = self._reader(shard_id)
        found = reader.found.get(key)
        if found is not None:
            return found
        index = reader.find(key)
        if index is None:
            return None
        try:
            _key, _seq, blob, flags = reader.record(index)
            if flags & _FLAG_ALIAS:
                found = _Found(alias_of=blob.decode("utf-8"))
                self.alias_fast_hits += 1
            else:
                found = _Found(blob=blob, spliceable=_spliceable(
                    key, blob, self._decode(blob)))
        except _RECORD_ERRORS:
            self.corrupt_shards += 1
            return None
        reader.found[key] = found
        return found

    def _find_many(self, keys, *, batched: bool) -> Dict[str, Optional[_Found]]:
        """The store's one lookup pass: ``{key: found-or-None}``.

        A miss against a held shard is revalidated against the on-disk
        signature before it is believed: when another process sharing the
        root rewrote the shard since we read it, the shard is reloaded
        and the lookup retried (``stale_shard_reloads``).  That check runs
        once per *shard*, on its first miss -- later misses in the same
        shard trust the now fresh reader.  Hits are served straight from
        the reader: entries are immutable once written, so a held hit can
        never be wrong, and the hot path stays stat-free.  Duplicate keys
        are resolved once; ``batched`` lookups are also counted in
        ``batched_lookups``.
        """
        results: Dict[str, Optional[_Found]] = {}
        with self._lock:
            by_shard: Dict[str, List[str]] = {}
            for key in keys:
                if key not in results:
                    results[key] = None
                    by_shard.setdefault(self._shard_id(key), []).append(key)
            for shard_id, shard_keys in by_shard.items():
                revalidated = False
                for key in shard_keys:
                    found = self._find(shard_id, key)
                    if found is None and not revalidated:
                        revalidated = True
                        if self._shard_signature(shard_id) != \
                                self._shard_sigs[shard_id]:
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

    def _report_bytes(self, found: _Found) -> Optional[bytes]:
        """The checked report bytes of a found entry, or ``None`` (counted
        in ``corrupt_shards``) when they are no report to splice."""
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
                results[key] = (true_key, self._report_bytes(hit))
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
        """Persist ``payload`` under ``key`` (atomic): :meth:`put_many` of
        one pair, so a failed write returns ``False`` instead of raising."""
        return self.put_many([(key, payload)]) == 1

    def put_many(self, items: Sequence[Tuple[str, Dict[str, Any]]]) -> int:
        """Persist many ``(key, payload)`` pairs; returns how many stuck.

        Pairs are grouped by shard so each shard pays one read-modify-write
        regardless of how many entries land in it -- the bulk-write path
        the sweep service uses after each completed shard.  The rewrite
        carries the shard's other records as bytes and encodes only the
        new payloads: no write decodes a payload.

        Failed writes never raise: an unserializable payload *and* IO
        errors (disk full, read-only store) are counted in
        ``skipped_writes`` (per entry of the failed shard) -- a store
        write must not fail the solve that produced the payload.
        """
        by_shard: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {}
        for key, payload in items:
            by_shard.setdefault(self._shard_id(key), []).append((key, payload))
        written = 0
        with self._lock:
            for shard_id, pairs in by_shard.items():
                # Merge against the shard on disk, not a possibly-stale
                # reader, so entries another process wrote since our first
                # read are kept; the per-shard advisory lock holds the
                # whole read-modify-write cycle, closing the cross-process
                # window (a timed-out lock degrades to the old
                # last-writer-wins atomic write, counted in
                # ``lock_timeouts``).
                held = self._guard(shard_id)
                try:
                    self._invalidate_shard(shard_id)
                    records = self._shard_records(shard_id)
                    fresh = 0
                    try:
                        for key, payload in pairs:
                            fresh += key not in records
                            records[key] = (self._allocate_seq(),
                                            *_encode_payload(payload))
                        evicted = self._evict(records)
                        self._write_shard(shard_id, records)
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

        Unserializable solutions (exotic allocation keys / metadata) are
        skipped and counted in ``skipped_writes`` -- the solve still
        succeeded, it just is not persisted.
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
        """Persist one :class:`~repro.engine.core.SolveReport` under
        ``key``: :meth:`put_reports` of one pair."""
        return self.put_reports([(key, report)]) == 1

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
        (``stale_claims_recovered``) under the store lock ``claims``, and
        only while its breadcrumb still names the dead holder -- two
        takers that read the same dead pid leave one claim, not two.  Any
        filesystem trouble makes the method return ``True`` -- claims only
        ever *avoid* work, they must never block a solve.  No-op (always
        ``True``) when ``locking=False``.
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
                    self._take_over_claim(path, holder)
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

    def _take_over_claim(self, path: str, holder: int) -> None:
        """Unlink a dead ``holder``'s claim file, under the ``claims`` lock
        and only if its breadcrumb still names that holder."""
        with self._lock:
            held = self._guard("claims")
        if held is None:
            return
        try:
            if _read_breadcrumb(path) != holder:
                return  # another taker claimed it since we looked
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - claim released meanwhile
                return
        finally:
            held.release()
        with self._lock:
            self.stale_claims_recovered += 1

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
        :meth:`_seq_floor_scan`).  Victims are chosen from the record
        tables alone, and touched shards are rewritten atomically from
        their records' bytes; a shard whose rewrite fails keeps its old
        blob (the failure is counted in ``skipped_writes``, never raised).
        Returns the number of entries evicted and increments the
        ``compactions`` counter once per run.

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
                oldest_first = sorted(
                    (seq, shard_id, key) for shard_id in self._shard_ids()
                    for key, seq, _blob, _flags
                    in self._records(self._reader(shard_id)))
                total = len(oldest_first)
                self.compactions += 1
                excess = total - cap
                if excess <= 0:
                    return 0
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
                        records = self._shard_records(shard_id)
                        removed = [key for key in victims[shard_id]
                                   if key in records]
                        for key in removed:
                            del records[key]
                        try:
                            self._write_shard(shard_id, records)
                        except (OSError, ValueError):
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

    def migrate(self) -> Dict[str, int]:
        """Rewrite every shard as a packed ``.rps`` file, in one pass.

        The one-way v1 -> v2 upgrade of a whole root (writes convert the
        shards they touch anyway): each shard's records -- a v1 shard's
        converted in memory -- are packed and written atomically,
        preserving every payload and the global insertion sequence bit
        for bit.  ``meta.json`` is refreshed afterwards.  Returns
        ``{"shards": rewritten, "entries": carried, "failed": skipped}``;
        failed shard rewrites keep their old blob (counted in
        ``skipped_writes`` as usual) so a partial migration is still a
        fully readable mixed-format store.
        """
        with self._lock:
            shards = entries_carried = failed = 0
            for shard_id in self._shard_ids():
                records = self._shard_records(shard_id)
                try:
                    self._write_shard(shard_id, records)
                except (OSError, ValueError):
                    self.skipped_writes += 1
                    self._invalidate_shard(shard_id)
                    failed += 1
                    continue
                shards += 1
                entries_carried += len(records)
                self.migrated_shards += 1
            try:
                self._write_meta()
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
            total = sum(self._reader(shard_id).count
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

    def _walk(self, *, aliases: bool,
              owned: Optional[Callable[[str], bool]] = None
              ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """The one record walk behind :meth:`payloads`, :meth:`scan` and
        :meth:`scan_routed`: ``(key, payload)``, shard by shard, in key
        order.

        Alias entries come straight off their bytes as ``{"alias_of":
        target}`` -- or, without ``aliases``, are skipped from the record
        flags (``scan_alias_skips``).  ``owned`` filters on the route key
        (an alias's target, any other entry's own key) before a payload
        is decoded.  A payload that cannot be read is counted in
        ``corrupt_shards`` and skipped.
        """
        for shard_id in self._shard_ids():
            for key, _seq, blob, flags in self._records(self._reader(shard_id)):
                alias = flags & _FLAG_ALIAS
                if alias and not aliases:
                    self.scan_alias_skips += 1
                    continue
                try:
                    route = blob.decode("utf-8") if alias else key
                except UnicodeDecodeError:
                    self.corrupt_shards += 1
                    continue
                if owned is not None and not owned(route):
                    continue
                if alias:
                    yield key, {"alias_of": route}
                    continue
                try:
                    payload = self._decode(blob)
                except ValueError:
                    self.corrupt_shards += 1
                    continue
                yield key, payload

    def payloads(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Iterate ``(key, payload)`` over every stored entry (all shards),
        alias entries included; :meth:`scan` is the counted bulk path."""
        with self._lock:
            yield from self._walk(aliases=True)

    def scan(self, *, include_aliases: bool = False) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Bulk-iterate ``(key, payload)`` across the whole store, lazily.

        The one-pass feeder for table regeneration
        (:func:`repro.analysis.sweep.sweep_records`): shards stream
        straight off their record tables -- one JSON decode per non-alias
        payload and **zero** decodes for alias entries, which are skipped
        from the record flags alone (counted in ``scan_alias_skips``).
        With ``include_aliases=True`` alias entries are yielded as
        ``{"alias_of": key}``, still without touching JSON.  A legacy v1
        shard costs the one parse that converts it.  ``scans`` /
        ``scan_entries`` count the traffic.
        """
        with self._lock:
            self.scans += 1
            for key, payload in self._walk(aliases=include_aliases):
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
        on -- and prewarm into -- the same runner.  The filter is
        decode-free for rejected report entries (the route key is the
        record-table key; only accepted payloads are JSON-decoded) and
        alias targets come straight off the blob, exactly the
        :meth:`scan` fast path.  Alias payloads are yielded as
        ``{"alias_of": target}``.

        ``routed_scans`` / ``routed_entries`` / ``routed_skips`` count the
        traffic; skips are entries owned by someone else.
        """
        def owned(route_key: str) -> bool:
            if ring.route(route_key) == owner:
                return True
            self.routed_skips += 1
            return False

        with self._lock:
            self.routed_scans += 1
            for key, payload in self._walk(aliases=include_aliases,
                                           owned=owned):
                self.routed_entries += 1
                yield key, payload

    def refresh(self) -> None:
        """Drop every held shard (re-read other processes' writes)."""
        with self._lock:
            self._readers.clear()
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
            self._readers.clear()
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
