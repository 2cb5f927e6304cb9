"""Work bounds of the MVCC bookkeeping, asserted on counts — no clock.

A sequencing step or a count never materialises the cluster; pinning and
releasing a snapshot sweeps nothing unless the release raised the
watermark; one transaction of N inserts does O(N) membership work.
"""

import pytest

from repro.data.synthetic import make_synthetic_database
from repro.obs import get_registry
from repro.ode import mvcc as mvcc_module
from repro.ode.codec import encode_object
from repro.ode.membership import ClusterMembership
from repro.ode.oid import Oid
from repro.ode.store import ObjectStore


def record(oid: Oid, **values) -> bytes:
    return encode_object(oid, oid.cluster, values)


def _refuse(*_args, **_kwargs):
    raise AssertionError("the whole cluster was materialised")


class TestStepsNeverMaterialiseTheCluster:
    def test_cursor_walk_and_count(self, tmp_path, monkeypatch):
        database = make_synthetic_database(tmp_path, readings=50, sensors=2)
        try:
            objects = database.objects
            old = objects.cursor("reading")   # pinned before the changes
            objects.delete(Oid("synthetic", "reading", 21))
            objects.new_object("reading", {"seq": 50})
            new = objects.cursor("reading")
            monkeypatch.setattr(mvcc_module._MembershipReads,
                                "cluster_numbers", _refuse)
            monkeypatch.setattr(mvcc_module._MembershipReads,
                                "cluster_range", _refuse)
            for cursor, forward, back, last in (
                    (old, [20, 21, 22], [21, 20, 19], 49),
                    (new, [20, 22, 23], [22, 20, 19], 50)):
                cursor.seek(Oid("synthetic", "reading", 19))
                assert [cursor.next().number for _ in forward] == forward
                assert [cursor.previous().number for _ in back] == back
                assert cursor.cluster.last().number == last
                assert len(cursor.cluster) == 50
                cursor.reset()
                assert cursor.next().number == 0
                cursor.close()
            assert objects.count("reading") == 50
            with objects.pinned():
                assert objects.count("reading") == 50
        finally:
            database.close()


class TestSweepsFollowTheWatermark:
    def test_pin_release_cycles_sweep_nothing(self, tmp_path):
        registry = get_registry()
        sweeps = registry.counter("mvcc.full_sweeps")
        pruned = registry.counter("mvcc.pruned")
        live = registry.gauge("mvcc.versions_live")
        oids = [Oid("db", "c", n) for n in range(16)]
        with ObjectStore(tmp_path / "db") as store:
            for oid in oids:
                store.put(oid, record(oid, x=0))
            at_rest = (sweeps.value, pruned.value, live.value)

            for _ in range(1000):
                store.snapshot().close()
            assert (sweeps.value, pruned.value, live.value) == at_rest

            oldest = store.snapshot()
            store.put(oids[15], record(oids[15], x=1))
            assert live.value == at_rest[2] + 2   # old version kept for the pin
            newer = store.snapshot()
            newer.close()   # not the oldest pin: the watermark stays put
            assert (sweeps.value, pruned.value) == at_rest[:2]
            oldest.close()   # raises the watermark
            assert sweeps.value == at_rest[0] + 1
            assert pruned.value == at_rest[1] + 2
            assert live.value == at_rest[2]
            assert not store._mvcc._chains


class _CountingList(list):
    """A list that counts the elements it shifts or hands out whole."""

    work = 0

    def insert(self, index, value):
        _CountingList.work += len(self) - index
        super().insert(index, value)

    def __delitem__(self, index):
        _CountingList.work += len(self)
        super().__delitem__(index)

    def __iter__(self):
        _CountingList.work += len(self)
        return super().__iter__()


class _CountedMembership(ClusterMembership):
    changes = 0

    def __init__(self, database):
        super().__init__(database)
        self.numbers = _CountingList()

    def change(self, number, present, epoch):
        _CountedMembership.changes += 1
        super().change(number, present, epoch)


class TestBulkIngestIsLinear:
    @pytest.mark.parametrize("count", [2000, 8000])
    def test_one_transaction_of_inserts(self, tmp_path, monkeypatch, count):
        monkeypatch.setattr(mvcc_module, "ClusterMembership",
                            _CountedMembership)
        monkeypatch.setattr(_CountingList, "work", 0)
        monkeypatch.setattr(_CountedMembership, "changes", 0)
        database = make_synthetic_database(
            tmp_path, readings=count, sensors=10)
        try:
            members = database.store._mvcc._members["reading"]
            assert isinstance(members, _CountedMembership)
            assert len(members.numbers) == count and not members.log
            # One membership change per insert, each an append: nothing
            # proportional to the cluster is shifted, copied or re-read.
            assert _CountedMembership.changes == count + 10
            assert _CountingList.work <= count
        finally:
            database.close()
