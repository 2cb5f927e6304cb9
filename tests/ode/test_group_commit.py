"""Group commit: the batched-fsync commit barrier, at store level.

The tentpole contract: ``commit()`` splits into ``commit_stage()``
(mint an epoch, queue the COMMIT record — cheap, under the store lock)
and ``commit_wait()`` (block on the shared barrier until a leader has
fsynced the batch and published the epochs in order).  These tests pin
the batching arithmetic (K staged commits, one fsync; at most
``MAX_BATCH`` commits per fsync), the publish-after-durable ordering,
and the failure protocol — a transient
flush error fails the batch and the store recovers itself; a dead
coordinator is sticky.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import GroupCommitError, StorageError, TransactionError
from repro.faultsim import SimulatedCrash, crash_store
from repro.ode.codec import encode_object
from repro.ode.oid import Oid
from repro.ode.store import ObjectStore
from repro.ode.wal import MAX_BATCH


def record(oid: Oid, **values) -> bytes:
    return encode_object(oid, oid.cluster, values)


def _stage(store: ObjectStore, number: int, tag: str) -> int:
    """One transaction staged (not yet waited on); returns its epoch."""
    oid = Oid("db", "employee", number)
    store.begin()
    store.put(oid, record(oid, name=tag))
    return store.commit_stage()


class TestBatching:
    def test_commit_is_stage_plus_wait(self, tmp_path):
        store = ObjectStore(tmp_path)
        oid = Oid("db", "employee", 0)
        store.begin()
        store.put(oid, record(oid, name="solo"))
        epoch = store.commit_stage()
        assert store.epoch < epoch  # staged, not yet published
        store.commit_wait(epoch)
        assert store.epoch == epoch
        assert store.get(oid) == record(oid, name="solo")
        store.close()

    def test_k_staged_commits_one_fsync(self, tmp_path):
        """Four commits queued before any waiter: one batch, one sync."""
        store = ObjectStore(tmp_path)
        epochs = [_stage(store, n, f"v{n}") for n in range(4)]
        for epoch in epochs:
            store.commit_wait(epoch)
        stats = store.group_commit_stats()
        assert stats["commits"] == 4
        assert stats["batches"] == 1
        assert stats["syncs"] == 1
        assert stats["batch_size_max"] == 4
        assert store.epoch == epochs[-1]
        store.close()

    def test_max_batch_caps_the_batch(self, tmp_path):
        """One commit past the cap: a full batch, then a batch of one."""
        store = ObjectStore(tmp_path)
        epochs = [_stage(store, n, f"v{n}") for n in range(MAX_BATCH + 1)]
        for epoch in epochs:
            store.commit_wait(epoch)
        stats = store.group_commit_stats()
        assert stats["commits"] == MAX_BATCH + 1
        assert stats["syncs"] == 2
        assert stats["batch_size_max"] == MAX_BATCH
        store.close()

    def test_first_waiter_publishes_the_whole_batch_in_order(self, tmp_path):
        """The leader finishes every queued commit oldest-first, so one
        wait on the *first* epoch leaves all of them visible."""
        store = ObjectStore(tmp_path)
        epochs = [_stage(store, n, f"v{n}") for n in range(3)]
        store.commit_wait(epochs[0])
        assert store.epoch == epochs[-1]
        for n in range(3):
            oid = Oid("db", "employee", n)
            assert store.get(oid) == record(oid, name=f"v{n}")
        store.close()

    def test_stats_shape(self, tmp_path):
        store = ObjectStore(tmp_path)
        stats = store.group_commit_stats()
        # the keys odebench's layer metrics read, then the rest the
        # statistics window shows
        for key in ("commits", "syncs", "wait_count", "wait_mean_ms",
                    "batches", "batch_size_mean", "batch_size_max",
                    "wait_p95_ms"):
            assert key in stats
        for n in range(3):
            store.commit_wait(_stage(store, n, "x"))
        after = store.group_commit_stats()
        assert after["wait_count"] == 3
        # a lone writer pays one fsync per commit
        assert after["syncs"] == after["commits"] == 3
        assert after["batch_size_mean"] == 1.0
        store.close()


class TestMultiWriter:
    def test_pipelined_writers_survive_reopen(self, tmp_path):
        """The session model: stage under a writer lock, wait outside it.

        Four threads, eight commits each; the reopened store must hold
        every acked write and the published epoch must equal the number
        of commits (contiguous epochs, none lost or duplicated).
        """
        store = ObjectStore(tmp_path)
        writer_lock = threading.Lock()
        shadow = {}
        shadow_lock = threading.Lock()
        errors = []

        def writer(worker: int) -> None:
            try:
                for i in range(8):
                    oid = Oid("db", "employee", worker * 100 + i)
                    payload = record(oid, name=f"w{worker}.{i}")
                    with writer_lock:
                        store.begin()
                        store.put(oid, payload)
                        epoch = store.commit_stage()
                    store.commit_wait(epoch)
                    with shadow_lock:
                        shadow[str(oid)] = payload
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(f"writer {worker}: {exc!r}")

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors, errors
        assert store.epoch == 32
        assert store.group_commit_stats()["commits"] == 32
        store.close()

        with ObjectStore(tmp_path) as reopened:
            assert reopened.epoch == 32
            for oid_text, payload in shadow.items():
                assert reopened.get(Oid.parse(oid_text)) == payload


class TestFailureProtocol:
    def test_transient_flush_failure_fails_batch_and_store_recovers(
            self, tmp_path):
        """An OSError from the batch flush surfaces to the waiter, and
        the store recovers from stable storage and keeps serving."""
        store = ObjectStore(tmp_path)
        durable = Oid("db", "employee", 0)
        store.put(durable, record(durable, name="durable"))

        real = store._wal.append_batch

        def explode(records):
            store._wal.append_batch = real
            raise OSError("disk says no")

        store._wal.append_batch = explode
        victim = Oid("db", "employee", 1)
        store.begin()
        store.put(victim, record(victim, name="victim"))
        with pytest.raises(OSError):
            store.commit()
        # recovered in place: the failed commit left no trace, the
        # store still takes writes
        assert not store.exists(victim)
        assert store.get(durable) == record(durable, name="durable")
        after = Oid("db", "employee", 2)
        store.put(after, record(after, name="after"))
        store.close()
        with ObjectStore(tmp_path) as reopened:
            assert not reopened.exists(victim)
            assert reopened.get(after) == record(after, name="after")

    def test_epochs_are_never_reused_after_a_failed_commit(self, tmp_path):
        """The mint counter survives recovery: the epoch burned by a
        failed commit is a permanent gap, never handed out again."""
        store = ObjectStore(tmp_path)
        real = store._wal.append_batch

        def explode(records):
            store._wal.append_batch = real
            raise OSError("disk says no")

        store._wal.append_batch = explode
        store.begin()
        failed = Oid("db", "employee", 0)
        store.put(failed, record(failed, name="failed"))
        with pytest.raises(OSError):
            store.commit()
        burned = store._epoch_minted
        ok = Oid("db", "employee", 1)
        store.begin()
        store.put(ok, record(ok, name="ok"))
        epoch = store.commit_stage()
        assert epoch > burned
        store.commit_wait(epoch)
        store.close()

    def test_crashed_leader_is_sticky(self, tmp_path):
        """A SimulatedCrash in the leader marks the coordinator dead:
        the leader re-raises the crash, every later commit gets
        GroupCommitError, and only a reopen recovers."""
        store = ObjectStore(tmp_path)
        oid = Oid("db", "employee", 0)
        store.put(oid, record(oid, name="before"))

        def explode():
            raise SimulatedCrash("wal.group.sync", 0, "crash")

        store._wal.group_sync = explode
        store.begin()
        victim = Oid("db", "employee", 1)
        store.put(victim, record(victim, name="victim"))
        with pytest.raises(SimulatedCrash) as info:
            store.commit()
        with pytest.raises(GroupCommitError):
            store.begin()
            store.put(victim, record(victim, name="retry"))
            store.commit()
        crash_store(store, info.value)
        with ObjectStore(tmp_path) as reopened:
            # the batch blob was flushed before the dying sync, so the
            # simulated-crash model keeps it: the victim is recovered
            assert reopened.get(oid) == record(oid, name="before")
            assert reopened.get(victim) == record(victim, name="victim")

    def test_recovery_dooms_a_staged_writers_open_transaction(
            self, tmp_path):
        """Pipelining hazard: writer A's failed flush forces a store
        recovery while writer B has a transaction open.  B's operation
        records were truncated, so B's transaction is doomed — begin()
        raises once instead of silently committing an empty transaction.
        """
        store = ObjectStore(tmp_path)
        real = store._wal.append_batch

        def explode(records):
            store._wal.append_batch = real
            raise OSError("disk says no")

        # writer A stages; writer B opens the next transaction before
        # A's wait fails (stage clears the transaction slot)
        a_oid = Oid("db", "employee", 0)
        store.begin()
        store.put(a_oid, record(a_oid, name="a"))
        staged = store.commit_stage()
        store.begin()
        b_oid = Oid("db", "employee", 1)
        store.put(b_oid, record(b_oid, name="b"))
        store._wal.append_batch = explode
        with pytest.raises(OSError):
            store.commit_wait(staged)
        # B's transaction was destroyed by the recovery: the next
        # begin() surfaces that exactly once
        with pytest.raises(TransactionError):
            store.begin()
        store.begin()  # the flag is one-shot
        store.abort()
        assert not store.exists(a_oid)
        assert not store.exists(b_oid)
        store.close()

    def test_lost_epoch_is_a_typed_error(self, tmp_path):
        """Waiting on an epoch nobody queued fails loudly, not a hang."""
        store = ObjectStore(tmp_path)
        with pytest.raises(StorageError):
            store.commit_wait(999)
        store.close()
