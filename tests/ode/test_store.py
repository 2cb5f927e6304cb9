"""Tests for the object store."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ObjectNotFoundError, StorageError, TransactionError
from repro.faultsim import CountingGate
from repro.ode.codec import encode_object
from repro.ode.oid import Oid
from repro.ode.page import MAX_RECORD_SIZE
from repro.ode.store import ObjectStore


def record(oid: Oid, **values) -> bytes:
    return encode_object(oid, oid.cluster, values)


@pytest.fixture
def store(tmp_path):
    with ObjectStore(tmp_path / "db") as object_store:
        yield object_store


class TestBasics:
    def test_put_get(self, store):
        oid = Oid("db", "employee", 0)
        store.put(oid, record(oid, name="rakesh"))
        assert store.get(oid) == record(oid, name="rakesh")

    def test_get_missing_raises(self, store):
        with pytest.raises(ObjectNotFoundError):
            store.get(Oid("db", "employee", 99))

    def test_empty_record_rejected(self, store):
        with pytest.raises(StorageError):
            store.put(Oid("db", "c", 0), b"")

    def test_overwrite(self, store):
        oid = Oid("db", "employee", 0)
        store.put(oid, record(oid, name="old"))
        store.put(oid, record(oid, name="new"))
        assert store.get(oid) == record(oid, name="new")

    def test_delete(self, store):
        oid = Oid("db", "employee", 0)
        store.put(oid, record(oid))
        store.delete(oid)
        assert not store.exists(oid)
        with pytest.raises(ObjectNotFoundError):
            store.get(oid)

    def test_delete_missing_raises(self, store):
        with pytest.raises(ObjectNotFoundError):
            store.delete(Oid("db", "employee", 5))

    def test_allocate_oid_monotonic(self, store):
        first = store.allocate_oid("db", "employee")
        second = store.allocate_oid("db", "employee")
        assert second.number == first.number + 1

    def test_allocate_oid_per_cluster(self, store):
        store.allocate_oid("db", "employee")
        fresh = store.allocate_oid("db", "department")
        assert fresh.number == 0

    def test_allocate_skips_existing_numbers(self, store):
        oid = Oid("db", "employee", 10)
        store.put(oid, record(oid))
        assert store.allocate_oid("db", "employee").number == 11


class TestClusters:
    def test_cluster_numbers_sorted(self, store):
        for number in (5, 1, 3):
            oid = Oid("db", "employee", number)
            store.put(oid, record(oid))
        assert store.cluster_numbers("employee") == [1, 3, 5]

    def test_cluster_size(self, store):
        assert store.cluster_size("employee") == 0
        oid = Oid("db", "employee", 0)
        store.put(oid, record(oid))
        assert store.cluster_size("employee") == 1

    def test_delete_shrinks_cluster(self, store):
        oid = Oid("db", "employee", 0)
        store.put(oid, record(oid))
        store.delete(oid)
        assert store.cluster_numbers("employee") == []
        assert store.cluster_names() == []

    def test_cluster_names(self, store):
        for cluster in ("b", "a"):
            oid = Oid("db", cluster, 0)
            store.put(oid, record(oid))
        assert store.cluster_names() == ["a", "b"]

    def test_cluster_names_hide_shadow_version_clusters(self, store):
        oid = Oid("db", "course", 0)
        shadow = Oid("db", "course#v", 0)
        store.put(oid, record(oid))
        store.put(shadow, record(shadow))
        assert store.cluster_names() == ["course"]
        assert store.cluster_names(include_shadow=True) == [
            "course", "course#v"]


class TestLargeRecords:
    def test_fragmented_roundtrip(self, store):
        oid = Oid("db", "blob", 0)
        data = record(oid, payload="x" * (3 * MAX_RECORD_SIZE))
        store.put(oid, data)
        assert store.get(oid) == data

    def test_fragmented_overwrite_with_small(self, store):
        oid = Oid("db", "blob", 0)
        store.put(oid, record(oid, payload="x" * (2 * MAX_RECORD_SIZE)))
        store.put(oid, record(oid, payload="tiny"))
        assert store.get(oid) == record(oid, payload="tiny")

    def test_fragmented_survives_reopen(self, tmp_path):
        oid = Oid("db", "blob", 0)
        data = record(oid, payload="y" * (2 * MAX_RECORD_SIZE + 123))
        with ObjectStore(tmp_path / "db") as store:
            store.put(oid, data)
        with ObjectStore(tmp_path / "db") as store:
            assert store.get(oid) == data

    def test_fragmented_delete_frees_everything(self, store):
        oid = Oid("db", "blob", 0)
        store.put(oid, record(oid, payload="x" * (2 * MAX_RECORD_SIZE)))
        store.delete(oid)
        assert not store.exists(oid)


class TestPersistence:
    def test_reopen_rebuilds_index(self, tmp_path):
        oids = [Oid("db", "employee", n) for n in range(20)]
        with ObjectStore(tmp_path / "db") as store:
            for oid in oids:
                store.put(oid, record(oid, n=oid.number))
        with ObjectStore(tmp_path / "db") as store:
            assert store.cluster_numbers("employee") == list(range(20))
            for oid in oids:
                assert store.get(oid) == record(oid, n=oid.number)

    def test_recovery_replays_committed_wal(self, tmp_path):
        """Simulate a crash after WAL commit but before page write-back."""
        directory = tmp_path / "db"
        oid = Oid("db", "employee", 0)
        store = ObjectStore(directory)
        store.begin()
        store.put(oid, record(oid, name="durable"))
        # Land the transaction's buffered frames as the batch leader
        # would (one blob, one sync) but "crash" before the pages are
        # written.
        from repro.ode.wal import OP_BEGIN, OP_COMMIT, WalRecord

        store._wal.append_batch(
            [WalRecord(op=OP_BEGIN, txid=store._txid),
             *store._tx_writes,
             WalRecord(op=OP_COMMIT, txid=store._txid)])
        store._wal.sync()
        store._wal.close()
        store._placement.pagefile.close()

        with ObjectStore(directory) as recovered:
            assert recovered.get(oid) == record(oid, name="durable")

    def test_crash_mid_transaction_leaves_no_trace(self, tmp_path):
        directory = tmp_path / "db"
        oid = Oid("db", "employee", 0)
        store = ObjectStore(directory)
        store.begin()
        store.put(oid, record(oid))
        store._wal.sync()
        store._wal.close()          # crash without commit
        store._placement.pagefile.close()
        with ObjectStore(directory) as recovered:
            assert not recovered.exists(oid)


class TestTransactions:
    def test_commit_makes_visible(self, store):
        oid = Oid("db", "c", 0)
        store.begin()
        store.put(oid, record(oid))
        store.commit()
        assert store.exists(oid)

    def test_abort_discards(self, store):
        oid = Oid("db", "c", 0)
        store.begin()
        store.put(oid, record(oid))
        store.abort()
        assert not store.exists(oid)

    def test_reads_see_own_writes(self, store):
        oid = Oid("db", "c", 0)
        store.begin()
        store.put(oid, record(oid, v=1))
        assert store.get(oid) == record(oid, v=1)
        store.put(oid, record(oid, v=2))
        assert store.get(oid) == record(oid, v=2)
        store.commit()

    def test_delete_in_transaction(self, store):
        oid = Oid("db", "c", 0)
        store.put(oid, record(oid))
        store.begin()
        store.delete(oid)
        assert not store.exists(oid)
        with pytest.raises(ObjectNotFoundError):
            store.get(oid)
        store.abort()
        assert store.exists(oid)

    def test_nested_begin_rejected(self, store):
        store.begin()
        with pytest.raises(TransactionError):
            store.begin()
        store.abort()

    def test_commit_without_begin_rejected(self, store):
        with pytest.raises(TransactionError):
            store.commit()

    def test_abort_without_begin_rejected(self, store):
        with pytest.raises(TransactionError):
            store.abort()

    def test_close_aborts_open_transaction(self, tmp_path):
        oid = Oid("db", "c", 0)
        store = ObjectStore(tmp_path / "db")
        store.begin()
        store.put(oid, record(oid))
        store.close()
        with ObjectStore(tmp_path / "db") as reopened:
            assert not reopened.exists(oid)


class TestPropertyBased:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=15),
                  st.binary(min_size=0, max_size=64)),
        min_size=1, max_size=40,
    ))
    def test_store_matches_dict_model(self, operations):
        import tempfile

        directory = Path(tempfile.mkdtemp(prefix="store-prop-")) / "db"
        model = {}
        with ObjectStore(directory) as store:
            for number, payload in operations:
                oid = Oid("db", "c", number)
                if payload:
                    data = record(oid, blob=payload.decode("latin-1"))
                    store.put(oid, data)
                    model[oid] = data
                elif oid in model:
                    store.delete(oid)
                    del model[oid]
            for oid, data in model.items():
                assert store.get(oid) == data
            assert store.cluster_numbers("c") == sorted(
                oid.number for oid in model)
        # and after reopen
        with ObjectStore(directory) as store:
            for oid, data in model.items():
                assert store.get(oid) == data


class TestSmallPools:
    def test_failed_eviction_write_back_keeps_the_dirty_frame(
            self, tmp_path, transient_fault):
        """A write-back that fails during a plain read loses nothing: the
        read raises, every object still reads, and all survive reopen."""
        gate = transient_fault("pagefile.journal.write")
        oids = [Oid("db", "emp", n) for n in range(24)]
        store = ObjectStore(tmp_path / "db", pool_capacity=8,
                            fault_gate=gate)
        for oid in oids:
            store.put(oid, record(oid, blob="x" * 1500))
        # Two records a page: the pool holds pages 5-12, and the filling
        # of page 9 wrote 5-8 back.  Reading their objects leaves dirty
        # page 9 least recently used, the victim of the next miss.
        for oid in oids[8:16]:
            store.get(oid)
        pool = store.pool
        assert pool._frames[pool._victim()].page.dirty
        written = (pool.stats.writebacks, pool.stats.writeback_batches)
        gate.armed = True
        with pytest.raises(gate.error):
            store.get(oids[0])
        assert not gate.armed, "the fault never fired"
        assert (pool.stats.writebacks, pool.stats.writeback_batches) == written
        assert pool._frames[pool._victim()].page.dirty
        for oid in oids:
            assert store.get(oid) == record(oid, blob="x" * 1500)
        store.close()
        with ObjectStore(tmp_path / "db", pool_capacity=8) as store:
            assert [oid for oid in oids if not store.exists(oid)] == []

    def test_dirty_evictions_write_back_a_pool_of_pages_per_batch(
            self, tmp_path):
        """Autocommit updates over a store four times larger than its
        pool: a dirty eviction sends every dirty frame out in one journal
        batch, so the batches come about one per pool's worth of dirty
        pages, not one per dirty eviction."""
        capacity = 8
        oids = [Oid("db", "emp", n) for n in range(8 * capacity)]
        with ObjectStore(tmp_path / "db", pool_capacity=capacity) as store:
            for oid in oids:
                store.put(oid, record(oid, blob="x" * 1500))
            assert store._placement.pagefile.page_count > 4 * capacity
        gate = CountingGate()
        with ObjectStore(tmp_path / "db", pool_capacity=capacity,
                         fault_gate=gate) as store:
            opened = len(gate.calls)
            for round_ in range(2):
                for oid in oids:
                    store.put(oid, record(oid, blob=str(round_) * 1500))
            calls = gate.calls[opened:]
            stats = store.pool.stats
            written = (stats.writebacks, stats.writeback_batches)
        batches = calls.count("pagefile.journal.write")
        pages = calls.count("pagefile.write_page")
        assert pages > 4 * capacity
        assert written == (pages, batches)
        assert pages >= batches * capacity // 2, (pages, batches)

    @pytest.mark.parametrize("capacity", [1, 2, 3, 4, 5])
    def test_readahead_never_evicts_the_page_it_serves(self, tmp_path,
                                                      capacity):
        """In a pool no larger than the read-ahead window, a page fetched
        for a mutation stays in the pool, so a committed delete of every
        object survives a clean close."""
        oids = [Oid("db", "emp", n) for n in range(12)]
        with ObjectStore(tmp_path / "db", pool_capacity=capacity) as store:
            for oid in oids:
                store.put(oid, record(oid, blob="x" * 1500))
        with ObjectStore(tmp_path / "db", pool_capacity=capacity) as store:
            store.begin()
            for oid in oids:
                store.delete(oid)
            store.commit()
        with ObjectStore(tmp_path / "db", pool_capacity=capacity) as store:
            assert [oid for oid in oids if store.exists(oid)] == []
