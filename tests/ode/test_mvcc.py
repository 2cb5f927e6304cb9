"""MVCC snapshot isolation on the object store.

The tentpole invariants: a snapshot pins one commit epoch and sees
exactly the committed state as of that epoch — never a later commit,
never half of one, never uncommitted overlay data — while writers
proceed without blocking readers.  Epochs are durable (WAL-stamped) and
version chains stay bounded under pruning.
"""

import threading
import time

import pytest

from repro.errors import ObjectNotFoundError, StorageError
from repro.faultsim.plan import SiteCrash, SimulatedCrash
from repro.faultsim.harness import crash_store
from repro.ode.codec import decode_object, encode_object
from repro.ode.oid import Oid
from repro.ode.store import ObjectStore


def record(oid: Oid, **values) -> bytes:
    return encode_object(oid, oid.cluster, values)


@pytest.fixture
def store(tmp_path):
    with ObjectStore(tmp_path / "db") as object_store:
        yield object_store


class TestSnapshotIsolation:
    def test_snapshot_sees_state_at_open(self, store):
        oid = Oid("db", "c", 0)
        store.put(oid, record(oid, x=1))
        with store.snapshot() as snap:
            store.put(oid, record(oid, x=2))
            assert snap.get(oid) == record(oid, x=1)
            assert store.get(oid) == record(oid, x=2)

    def test_snapshot_never_sees_uncommitted_overlay(self, store):
        oid = Oid("db", "c", 0)
        store.put(oid, record(oid, x=1))
        store.begin()
        store.put(oid, record(oid, x=2))
        with store.snapshot() as snap:
            # the store's own read sees the overlay; the snapshot does not
            assert store.get(oid) == record(oid, x=2)
            assert snap.get(oid) == record(oid, x=1)
        store.abort()

    def test_snapshot_membership_frozen(self, store):
        for n in range(3):
            oid = Oid("db", "c", n)
            store.put(oid, record(oid, x=n))
        with store.snapshot() as snap:
            extra = Oid("db", "c", 3)
            store.put(extra, record(extra, x=3))
            store.delete(Oid("db", "c", 0))
            assert snap.cluster_numbers("c") == [0, 1, 2]
            assert snap.exists(Oid("db", "c", 0))
            assert not snap.exists(extra)
            assert store.cluster_numbers("c") == [1, 2, 3]

    def test_snapshot_sees_deleted_object(self, store):
        oid = Oid("db", "c", 0)
        store.put(oid, record(oid, x=1))
        with store.snapshot() as snap:
            store.delete(oid)
            assert snap.get(oid) == record(oid, x=1)
            with pytest.raises(ObjectNotFoundError):
                store.get(oid)

    def test_refresh_advances_to_current(self, store):
        oid = Oid("db", "c", 0)
        store.put(oid, record(oid, x=1))
        with store.snapshot() as snap:
            store.put(oid, record(oid, x=2))
            assert snap.get(oid) == record(oid, x=1)
            snap.refresh()
            assert snap.get(oid) == record(oid, x=2)

    def test_multi_object_commit_is_atomic_to_snapshots(self, store):
        a, b = Oid("db", "c", 0), Oid("db", "c", 1)
        store.begin()
        store.put(a, record(a, x=0))
        store.put(b, record(b, x=0))
        store.commit()
        with store.snapshot() as snap:
            store.begin()
            store.put(a, record(a, x=1))
            store.put(b, record(b, x=1))
            store.commit()
            assert snap.get(a) == record(a, x=0)
            assert snap.get(b) == record(b, x=0)
        with store.snapshot() as snap:
            assert snap.get(a) == record(a, x=1)
            assert snap.get(b) == record(b, x=1)

    def test_closed_snapshot_rejects_reads(self, store):
        oid = Oid("db", "c", 0)
        store.put(oid, record(oid, x=1))
        snap = store.snapshot()
        snap.close()
        snap.close()  # idempotent
        with pytest.raises(StorageError):
            snap.get(oid)

    def test_shadow_clusters_hidden_from_snapshot_names(self, store):
        oid = Oid("db", "c", 0)
        shadow = Oid("db", "c#v", 0)
        store.put(oid, record(oid, x=1))
        store.put(shadow, record(shadow, of=str(oid)))
        with store.snapshot() as snap:
            assert snap.cluster_names() == ["c"]
            assert snap.cluster_names(include_shadow=True) == ["c", "c#v"]


class TestEpochs:
    def test_epoch_increments_per_commit(self, store):
        start = store.epoch
        oid = Oid("db", "c", 0)
        store.put(oid, record(oid, x=1))       # autocommit
        assert store.epoch == start + 1
        store.begin()
        store.put(oid, record(oid, x=2))
        store.put(Oid("db", "c", 1), record(Oid("db", "c", 1), x=3))
        store.commit()
        assert store.epoch == start + 2       # one commit, one epoch

    def test_abort_mints_no_epoch(self, store):
        oid = Oid("db", "c", 0)
        store.put(oid, record(oid, x=1))
        before = store.epoch
        store.begin()
        store.put(oid, record(oid, x=2))
        store.abort()
        assert store.epoch == before

    def test_epoch_survives_reopen(self, tmp_path):
        with ObjectStore(tmp_path / "db") as store:
            for n in range(3):
                oid = Oid("db", "c", n)
                store.put(oid, record(oid, x=n))
            expected = store.epoch
        with ObjectStore(tmp_path / "db") as store:
            assert store.epoch >= expected
            # and the counter keeps moving forward, never reissuing
            oid = Oid("db", "c", 9)
            store.put(oid, record(oid, x=9))
            assert store.epoch > expected


class TestVersionChainsAndPruning:
    def test_pin_preserves_old_version_across_many_commits(self, store):
        oid = Oid("db", "c", 0)
        store.put(oid, record(oid, x=0))
        with store.snapshot() as snap:
            for x in range(1, 20):
                store.put(oid, record(oid, x=x))
            assert snap.get(oid) == record(oid, x=0)
        # pin released: the chain collapses to the current value
        with store.snapshot() as snap:
            assert snap.get(oid) == record(oid, x=19)

    def test_chains_bounded_without_snapshots(self, store):
        oid = Oid("db", "c", 0)
        for x in range(50):
            store.put(oid, record(oid, x=x))
        assert not store._mvcc._chains   # no pin open: the pages hold every value

    def test_release_between_apply_and_publish_keeps_preimage(self, tmp_path):
        """A release prunes under the MVCC lock alone, so it can drop a
        written OID's chain while the commit sits between page apply and
        publish; a snapshot pinned just then must still read the
        overwritten value."""
        oid = Oid("db", "c", 0)
        hook = {}

        def gate(site, data, default):
            if site == "store.commit.index" and "old" in hook:
                hook.pop("old").close()   # drops the chain: x=2 is current
                hook["new"] = store.snapshot()   # pins x=2
            return default() if data is None else default(data)

        with ObjectStore(tmp_path / "db", fault_gate=gate) as store:
            store.put(oid, record(oid, x=1))
            old = store.snapshot()
            store.put(oid, record(oid, x=2))   # chained for the old pin
            hook["old"] = old
            store.put(oid, record(oid, x=3))
            with hook["new"] as snap:
                assert snap.get(oid) == record(oid, x=2)

    def test_fallback_read_is_snapshot_correct_and_cached(self, tmp_path):
        oid = Oid("db", "c", 0)
        with ObjectStore(tmp_path / "db") as store:
            store.put(oid, record(oid, x=1))
        # no chain survives without a pin: both snapshot reads are page
        # reads, and the buffer pool serves the second
        with ObjectStore(tmp_path / "db") as store:
            reads = store._m_snapshot_reads.value
            fallbacks = store._m_read_fallbacks.value
            with store.snapshot() as snap:
                assert snap.get(oid) == record(oid, x=1)
                misses = store.pool.stats.misses
                assert snap.get(oid) == record(oid, x=1)
                assert store.pool.stats.misses == misses
            assert store._m_snapshot_reads.value == reads + 2
            assert store._m_read_fallbacks.value == fallbacks + 2

    def test_concurrent_readers_see_atomic_pairs(self, store):
        """Torture: paired objects must always match inside one snapshot."""
        a, b = Oid("db", "c", 0), Oid("db", "c", 1)
        store.begin()
        store.put(a, record(a, x=0))
        store.put(b, record(b, x=0))
        store.commit()
        stop = threading.Event()
        errors = []

        def writer():
            x = 0
            while not stop.is_set():
                x += 1
                store.begin()
                store.put(a, record(a, x=x))
                store.put(b, record(b, x=x))
                store.commit()

        def reader():
            try:
                while not stop.is_set():
                    with store.snapshot() as snap:
                        _oid_a, _cls, va = decode_object(snap.get(a))
                        _oid_b, _cls, vb = decode_object(snap.get(b))
                        if va["x"] != vb["x"]:
                            errors.append((va, vb))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join(10)
        assert not errors


class TestCrashDuringEpochBump:
    """The three commit gate sites, crashed one at a time."""

    def _prepare(self, tmp_path, gate):
        store = ObjectStore(tmp_path / "db")
        a, b = Oid("db", "c", 0), Oid("db", "c", 1)
        store.begin()
        store.put(a, record(a, x=0))
        store.put(b, record(b, x=0))
        store.commit()
        store.close()
        return ObjectStore(tmp_path / "db", fault_gate=gate), a, b

    @pytest.mark.parametrize("site", [
        "store.commit.apply", "store.commit.publish",
        "store.commit.checkpoint",
    ])
    def test_commit_is_atomic_across_crash(self, tmp_path, site):
        gate = SiteCrash(site)
        store, a, b = self._prepare(tmp_path, gate)
        epoch_before = store.epoch
        store.begin()
        store.put(a, record(a, x=1))
        store.put(b, record(b, x=1))
        exc = None
        try:
            store.commit()
        except SimulatedCrash as caught:
            exc = caught
        assert gate.fired is not None
        crash_store(store, exc)

        with ObjectStore(tmp_path / "db") as reopened:
            # the COMMIT record was durable before any gate: redo applies
            # the whole transaction, all-or-nothing
            assert reopened.get(a) == record(a, x=1)
            assert reopened.get(b) == record(b, x=1)
            # the epoch the commit minted is recovered, never reissued
            assert reopened.epoch >= epoch_before + 1
            with reopened.snapshot() as snap:
                assert snap.get(a) == record(a, x=1)
                assert snap.get(b) == record(b, x=1)

    def test_snapshot_open_during_failed_commit_stays_consistent(
            self, tmp_path):
        """A transient mid-commit fault resolves via volatile recovery;
        a snapshot opened before it never observes a half-applied state."""
        gate = SiteCrash("store.commit.publish", flavor="crash")
        store, a, b = self._prepare(tmp_path, gate)
        snap = store.snapshot()
        store.begin()
        store.put(a, record(a, x=1))
        store.put(b, record(b, x=1))
        with pytest.raises(SimulatedCrash):
            store.commit()
        # SimulatedCrash is a BaseException: the store skipped volatile
        # recovery (a real crash).  Model it as process death + reopen.
        crash_store(store, None)
        with ObjectStore(tmp_path / "db") as reopened:
            assert reopened.get(a) == record(a, x=1)
            assert reopened.get(b) == record(b, x=1)
