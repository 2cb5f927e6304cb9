"""Epoch-keyed client cache and epoch-stamped read replies."""

from types import SimpleNamespace

from repro.net import protocol as P
from repro.net import remote as remote_module
from repro.net.remote import BufferCache, RemoteDatabase
from repro.obs import get_registry
from repro.ode.oid import Oid


def _buffer(n: int):
    return SimpleNamespace(oid=Oid("db", "c", n), n=n)


class TestBufferCacheEpochs:
    def test_put_tags_with_latest_observed_epoch(self):
        cache = BufferCache()
        cache.observe_epoch(7)
        cache.put(_buffer(0))
        assert cache.latest == 7
        assert cache.get(Oid("db", "c", 0)) is not None

    def test_invalidate_advances_floor_and_drops_older(self):
        cache = BufferCache()
        cache.observe_epoch(1)
        cache.put(_buffer(0))           # tagged 1
        cache.observe_epoch(2)
        cache.put(_buffer(1))           # tagged 2
        cache.invalidate()              # floor -> 2
        assert cache.floor == 2
        assert cache.get(Oid("db", "c", 0)) is None   # stale, dropped
        assert cache.get(Oid("db", "c", 1)) is not None  # current, kept

    def test_no_flush_race_fresh_entry_survives_invalidation(self):
        """An entry fetched at the current epoch cannot be wiped by a
        concurrent invalidation — the race the old clear() had."""
        cache = BufferCache()
        cache.observe_epoch(5)
        cache.put(_buffer(0), epoch=5)  # in-flight reply lands...
        cache.invalidate()              # ...as someone invalidates
        assert cache.get(Oid("db", "c", 0)) is not None

    def test_put_below_floor_refused(self):
        cache = BufferCache()
        cache.observe_epoch(5)
        cache.invalidate()
        cache.put(_buffer(0), epoch=3)  # a stale straggler reply
        assert cache.get(Oid("db", "c", 0)) is None

    def test_purge_drops_everything(self):
        cache = BufferCache()
        cache.observe_epoch(5)
        cache.put(_buffer(0))
        cache.purge()
        assert len(cache) == 0
        assert cache.latest == 5        # epoch bookkeeping survives

    def test_observe_epoch_is_monotonic_and_type_safe(self):
        cache = BufferCache()
        cache.observe_epoch(9)
        cache.observe_epoch(4)          # out-of-order reply
        cache.observe_epoch(None)       # reply without an epoch
        assert cache.latest == 9

    def test_lru_capacity_still_bounds_entries(self, monkeypatch):
        monkeypatch.setattr(remote_module, "CACHE_CAPACITY", 4)
        cache = BufferCache()
        for n in range(10):
            cache.put(_buffer(n))
        assert len(cache) == 4


class TestEpochReplies:
    def test_read_replies_report_served_epoch(self, remote_lab):
        reply = remote_lab.objects._call(P.OP_COUNT, {"class": "employee"})
        assert isinstance(reply["epoch"], int)
        assert remote_lab.objects.epoch == reply["epoch"]

    def test_cursor_carries_snapshot_epoch(self, remote_lab, served_lab):
        cursor = remote_lab.objects.cursor("employee")
        opened_at = cursor.epoch
        assert isinstance(opened_at, int)
        # another client commits: the pinned cursor's epoch must not move
        other = RemoteDatabase.connect("127.0.0.1", served_lab.port, "lab")
        try:
            other.objects.update(Oid("lab", "employee", 0), {"salary": 1.5})
        finally:
            other.close()
        cursor.next()
        assert cursor.epoch == opened_at
        cursor.reset()
        assert cursor.epoch > opened_at

    def test_stats_report_epoch_and_mvcc(self, remote_lab):
        stats = remote_lab.server_stats()
        assert isinstance(stats["epoch"], int)
        assert "versions_live" in stats["mvcc"]
        assert stats["read_lockfree"] > 0

    def test_reads_counted_lock_free(self, remote_lab):
        counter = get_registry().counter("net.read_lockfree")
        before = counter.value
        remote_lab.objects.count("employee")
        assert counter.value > before

    def test_write_replies_report_post_commit_epoch(self, remote_lab):
        """A writer learns its own commit epoch from the write reply."""
        before = remote_lab.objects.epoch
        remote_lab.objects.update(
            Oid("lab", "employee", 0), {"salary": 12.5})
        assert remote_lab.objects.epoch > before

    def test_tx_session_reads_its_own_writes(self, remote_lab):
        objects = remote_lab.objects
        oid = Oid("lab", "employee", 0)
        objects.begin()
        try:
            objects.update(oid, {"salary": 777.0})
            buffer = objects.get_buffer(oid)
            assert buffer.value("salary", privileged=True) == 777.0
        finally:
            objects.abort()
        assert objects.get_buffer(oid).value(
            "salary", privileged=True) != 777.0
