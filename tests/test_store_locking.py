"""Cross-process SolutionStore write-safety tests.

The store's per-shard advisory locking (fcntl + process-local thread
locks) is what makes N cluster runners safe over one shared root.  These
tests exercise the real process boundary with ``sys.executable``
subprocesses: interleaved writers must not lose updates, a SIGKILLed
holder's lock must be recoverable, the compaction election must have a
single winner, and a timed-out lock must degrade to a lock-free write
instead of wedging -- each outcome observable through the store counters.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine.store import SolutionStore

SRC = str(Path(__file__).resolve().parents[1] / "src")

pytestmark = pytest.mark.skipif(os.name != "posix",
                                reason="advisory-lock tests need posix")


def _env():
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + extra if extra else "")
    return env


WRITER = """
import sys
from repro.engine.store import SolutionStore

root, tag, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
store = SolutionStore(root, lock_timeout=60.0)
for i in range(count):
    assert store.put(f"aa-{tag}-{i:04d}", {"tag": tag, "i": i})
print("DONE", store.lock_timeouts, flush=True)
"""

HOLDER = """
import sys, time
from repro.engine.store import SolutionStore

root, name = sys.argv[1], sys.argv[2]
store = SolutionStore(root)
held = store._guard(name)
assert held is not None
print("HOLDING", flush=True)
time.sleep(120)
"""


def _start_holder(root: str, name: str) -> subprocess.Popen:
    """Spawn a process that grabs the named store lock and sits on it."""
    process = subprocess.Popen([sys.executable, "-c", HOLDER, root, name],
                               env=_env(), stdout=subprocess.PIPE, text=True)
    line = process.stdout.readline()
    assert line.strip() == "HOLDING", f"holder failed to start: {line!r}"
    return process


def _reap(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
    process.wait(timeout=30)
    if process.stdout is not None:
        process.stdout.close()


class TestTwoWriterProcesses:
    def test_interleaved_same_shard_writes_lose_nothing(self, tmp_path):
        """Two processes hammering ONE shard: every update survives.

        Without the per-shard lock the read-modify-write cycles interleave
        and the losing process' entries vanish on rename (last-writer-wins
        over the whole shard file).
        """
        root = str(tmp_path / "store")
        count = 40
        writers = [subprocess.Popen(
            [sys.executable, "-c", WRITER, root, tag, str(count)],
            env=_env(), stdout=subprocess.PIPE, text=True)
            for tag in ("x", "y")]
        outputs = []
        for process in writers:
            out, _ = process.communicate(timeout=120)
            assert process.returncode == 0, out
            outputs.append(out.strip().split())
        # Neither writer fell back to the lock-free degraded path.
        for done, timeouts in outputs:
            assert done == "DONE" and timeouts == "0"
        view = SolutionStore(root)
        for tag in ("x", "y"):
            for i in range(count):
                payload = view.get(f"aa-{tag}-{i:04d}")
                assert payload is not None, f"lost {tag}/{i}"
                assert payload["tag"] == tag and payload["i"] == i
        assert view.corrupt_shards == 0

    def test_counters_surface_in_info_and_counters(self, tmp_path):
        store = SolutionStore(str(tmp_path / "store"))
        assert store.put("ab-1", {"v": 1})
        for source in (store.info(), store.counters()):
            assert source["lock_acquires"] >= 1
            assert source["lock_timeouts"] == 0
            assert source["stale_locks_recovered"] == 0
            assert source["compactions_skipped"] == 0
            assert source["stale_shard_reloads"] == 0
        assert store.info()["locking"] is True


class TestStaleLockRecovery:
    def test_sigkill_holder_is_taken_over(self, tmp_path):
        root = str(tmp_path / "store")
        holder = _start_holder(root, "aa")
        try:
            os.kill(holder.pid, signal.SIGKILL)
            holder.wait(timeout=30)
        finally:
            _reap(holder)
        store = SolutionStore(root, lock_timeout=10.0)
        assert store.put("aa-after-kill", {"ok": True})
        assert store.stale_locks_recovered == 1
        assert store.lock_timeouts == 0
        # The takeover rewrote the breadcrumb: the next write sees a live
        # (our own) holder trail, not a stale one.
        assert store.put("aa-after-kill-2", {"ok": True})
        assert store.stale_locks_recovered == 1

    def test_clean_release_leaves_no_stale_trail(self, tmp_path):
        root = str(tmp_path / "store")
        first = SolutionStore(root)
        assert first.put("aa-one", {"v": 1})
        second = SolutionStore(root)
        assert second.put("aa-two", {"v": 2})
        assert second.stale_locks_recovered == 0


class TestCompactionElection:
    def test_election_has_a_single_winner(self, tmp_path):
        root = str(tmp_path / "store")
        store = SolutionStore(root, lock_timeout=5.0)
        for i in range(6):
            assert store.put(f"aa-{i}", {"i": i})
        holder = _start_holder(root, "compaction")
        try:
            evicted = store.compact(max_entries=2)
        finally:
            _reap(holder)
        # Another process owned the compaction: this run stood down
        # without evicting, and the loss is an expected event -- counted
        # on its own, never as a lock timeout.
        assert evicted == 0
        assert store.compactions_skipped == 1
        assert store.lock_timeouts == 0
        assert all(store.get(f"aa-{i}") is not None for i in range(6))
        # Once the owner is gone this store wins the next election.
        evicted = store.compact(max_entries=2)
        assert evicted == 4
        assert store.compactions_skipped == 1


class TestLockTimeoutDegrade:
    def test_timed_out_write_degrades_and_is_counted(self, tmp_path):
        root = str(tmp_path / "store")
        holder = _start_holder(root, "aa")
        try:
            store = SolutionStore(root, lock_timeout=0.3)
            started = time.monotonic()
            assert store.put("aa-degraded", {"v": "still-written"})
            waited = time.monotonic() - started
        finally:
            _reap(holder)
        # Availability over strictness: the write still landed (lock-free
        # atomic rename), it waited the full timeout first, and the
        # degradation is visible in the counter the benchmarks gate on.
        assert store.lock_timeouts == 1
        assert waited >= 0.3
        assert store.get("aa-degraded") == {"v": "still-written"}
        view = SolutionStore(root)
        assert view.get("aa-degraded") == {"v": "still-written"}


class TestLockingDisabled:
    def test_no_locks_no_counters(self, tmp_path):
        root = str(tmp_path / "store")
        store = SolutionStore(root, locking=False)
        assert store.put("aa-plain", {"v": 1})
        assert store.lock_acquires == 0
        assert store.info()["locking"] is False
        assert not os.path.isdir(os.path.join(root, "locks"))


class TestLockDirectory:
    def test_writes_make_no_directories_after_construction(self, tmp_path,
                                                            monkeypatch):
        store = SolutionStore(str(tmp_path / "store"))
        made = []
        mkdir = os.mkdir
        monkeypatch.setattr(os, "mkdir",
                            lambda path, *args, **kw: made.append(path)
                            or mkdir(path, *args, **kw))
        for i in range(8):
            assert store.put_many([(f"{i:02x}-key-{j}", {"v": j})
                                   for j in range(3)]) == 3
        assert made == []
        assert store.lock_acquires == 8

    def test_deleted_lock_directory_is_made_again(self, tmp_path):
        root = str(tmp_path / "store")
        store = SolutionStore(root)
        assert store.put("aa-first", {"v": 1})
        shutil.rmtree(os.path.join(root, "locks"))
        assert store.put("aa-second", {"v": 2})
        assert store.lock_timeouts == 0 and store.lock_acquires == 2
        assert os.path.isdir(os.path.join(root, "locks"))
        assert SolutionStore(root).get("aa-second") == {"v": 2}


class TestCrossHandleReadCoherence:
    def test_miss_revalidates_against_disk(self, tmp_path):
        # Handle A caches the shard, then handle B (standing in for
        # another runner process) writes a new same-shard key.  A's
        # lookup must notice the on-disk rewrite and answer from a
        # reload -- a stale miss here is what turns a cluster failover
        # recovery into a recompute.
        root = str(tmp_path / "store")
        reader = SolutionStore(root)
        assert reader.put("aa-first", {"v": 1})
        assert reader.get("aa-first") == {"v": 1}  # shard now cached
        writer = SolutionStore(root)
        assert writer.put("aa-second", {"v": 2})
        assert reader.get("aa-second") == {"v": 2}
        assert reader.stale_shard_reloads == 1
        # A genuine miss after the reload does not count another one.
        assert reader.get("aa-absent") is None
        assert reader.stale_shard_reloads == 1
        for source in (reader.info(), reader.counters()):
            assert source["stale_shard_reloads"] == 1

    def test_unchanged_shard_misses_without_reload(self, tmp_path):
        store = SolutionStore(str(tmp_path / "store"))
        assert store.put("aa-only", {"v": 1})
        assert store.get("aa-only") == {"v": 1}
        assert store.get("aa-missing") is None
        assert store.stale_shard_reloads == 0
