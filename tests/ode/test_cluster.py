"""Tests for clusters and cluster cursors (the control-panel semantics)."""

import pytest

from repro.errors import StorageError
from repro.ode.cluster import Cluster, ClusterCursor
from repro.ode.codec import encode_object
from repro.ode.oid import Oid
from repro.ode.store import ObjectStore


@pytest.fixture
def store(tmp_path):
    with ObjectStore(tmp_path / "db") as object_store:
        for number in range(5):
            oid = Oid("db", "employee", number)
            object_store.put(oid, encode_object(oid, "employee", {"n": number}))
        yield object_store


@pytest.fixture
def cluster(store):
    return Cluster(store, "db", "employee")


class TestCluster:
    def test_len(self, cluster):
        assert len(cluster) == 5

    def test_oids_in_order(self, cluster):
        assert [oid.number for oid in cluster.oids()] == [0, 1, 2, 3, 4]

    def test_first_last(self, cluster):
        assert cluster.first().number == 0
        assert cluster.last().number == 4

    def test_after_before(self, cluster):
        assert cluster.after(2).number == 3
        assert cluster.before(2).number == 1
        assert cluster.after(4) is None
        assert cluster.before(0) is None

    def test_after_skips_gaps(self, store, cluster):
        store.delete(Oid("db", "employee", 2))
        assert cluster.after(1).number == 3

    def test_empty_cluster(self, store):
        empty = Cluster(store, "db", "nothing")
        assert len(empty) == 0
        assert empty.first() is None
        assert empty.last() is None


class TestCursor:
    def test_starts_before_first(self, cluster):
        cursor = ClusterCursor(cluster)
        assert cursor.current() is None

    def test_next_walks_forward(self, cluster):
        cursor = ClusterCursor(cluster)
        assert cursor.next().number == 0
        assert cursor.next().number == 1
        assert cursor.current().number == 1

    def test_next_stops_at_end(self, cluster):
        cursor = ClusterCursor(cluster)
        for _ in range(5):
            cursor.next()
        assert cursor.next() is None
        assert cursor.current().number == 4  # position unchanged

    def test_previous_at_front_returns_none(self, cluster):
        cursor = ClusterCursor(cluster)
        assert cursor.previous() is None
        cursor.next()
        assert cursor.previous() is None
        assert cursor.current().number == 0

    def test_previous_walks_backward(self, cluster):
        cursor = ClusterCursor(cluster)
        cursor.next()
        cursor.next()
        cursor.next()
        assert cursor.previous().number == 1

    def test_reset(self, cluster):
        cursor = ClusterCursor(cluster)
        cursor.next()
        cursor.reset()
        assert cursor.current() is None
        assert cursor.next().number == 0

    def test_seek(self, cluster):
        cursor = ClusterCursor(cluster)
        cursor.seek(Oid("db", "employee", 3))
        assert cursor.next().number == 4

    def test_seek_wrong_cluster_rejected(self, cluster):
        cursor = ClusterCursor(cluster)
        with pytest.raises(StorageError):
            cursor.seek(Oid("db", "department", 0))

    def test_cursor_sees_concurrent_insert(self, store, cluster):
        cursor = ClusterCursor(cluster)
        for _ in range(5):
            cursor.next()
        oid = Oid("db", "employee", 5)
        store.put(oid, encode_object(oid, "employee", {}))
        assert cursor.next().number == 5
