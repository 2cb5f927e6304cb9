"""End-to-end tests: OdeServer serving a real database to OdeClient."""

import threading

import pytest

from repro.errors import (
    NetworkError,
    ObjectNotFoundError,
    SchemaError,
    SessionLostError,
    StorageError,
    TransactionError,
)
from repro.net import protocol as P
from repro.net.client import OdeClient
from repro.net.remote import CACHE_CAPACITY, RemoteDatabase
from repro.net.server import OdeServer
from repro.ode.oid import Oid


class TestHandshake:
    def test_hello_reports_databases(self, served_lab):
        with OdeClient("127.0.0.1", served_lab.port) as client:
            assert client.server_info["databases"] == ["lab"]
            assert client.server_info["version"] == P.PROTOCOL_VERSION

    def test_version_mismatch_rejected(self, served_lab):
        client = OdeClient("127.0.0.1", served_lab.port)
        client.connect()
        try:
            with pytest.raises(NetworkError, match="version"):
                client.call(P.OP_HELLO, {"version": 999})
        finally:
            client.close()

    def test_unknown_database_rejected(self, served_lab):
        with pytest.raises(StorageError, match="no.*nosuch"):
            RemoteDatabase.connect("127.0.0.1", served_lab.port, "nosuch")

    def test_connect_refused_is_network_error(self):
        with pytest.raises(NetworkError, match="cannot connect"):
            OdeClient("127.0.0.1", 1, timeout=0.2, retries=0).connect()


class TestReads:
    def test_schema_rebuilt_locally(self, remote_lab):
        assert remote_lab.schema.class_names() == [
            "employee", "department", "manager"]
        assert remote_lab.schema.get_class("manager").persistent

    def test_counts(self, remote_lab):
        assert remote_lab.objects.count("employee") == 55
        assert remote_lab.objects.count("department") == 7

    def test_get_buffer(self, remote_lab):
        oid = remote_lab.objects.cluster("employee").first()
        buffer = remote_lab.objects.get_buffer(oid)
        assert buffer.value("name") == "rakesh"
        # computed attributes were evaluated server-side
        assert buffer.value("years_service") == 15

    def test_missing_object_raises_locally(self, remote_lab):
        with pytest.raises(ObjectNotFoundError):
            remote_lab.objects.get_buffer(Oid("lab", "employee", 9999))

    def test_unknown_class_raises_schema_error(self, remote_lab):
        with pytest.raises(SchemaError):
            remote_lab.objects.cluster("nosuch")

    def test_scan_fills_cache(self, remote_lab):
        oids = remote_lab.objects.cluster("employee").oids()
        assert len(oids) == 55
        assert len(remote_lab.objects.cache) >= 55
        before = remote_lab.objects.cache.hits
        remote_lab.objects.get_buffer(oids[0])
        assert remote_lab.objects.cache.hits == before + 1

    def test_select_with_predicate(self, remote_lab):
        low_ids = remote_lab.objects.select_pushdown("employee", "id < 5")
        assert len(low_ids) == 5
        assert all(b.value("id") < 5 for b in low_ids)

    def test_get_buffers_batches(self, remote_lab):
        oids = [Oid("lab", "employee", n) for n in (0, 1, 2)]
        buffers = remote_lab.objects.get_buffers(oids)
        assert [b.oid for b in buffers] == oids

    def test_get_buffers_is_one_call_past_the_cache_capacity(
            self, remote_staff, count_calls):
        oids = [Oid("lab", "employee", n) for n in range(600)]
        assert len(oids) > CACHE_CAPACITY
        calls = count_calls(remote_staff)
        buffers = remote_staff.objects.get_buffers(oids)
        assert [b.oid for b in buffers] == oids
        assert [b.value("id") for b in buffers[55:]] == list(range(55, 600))
        assert [opcode for opcode, _p in calls] == [P.OP_GET_OBJECTS]

    def test_get_buffers_asks_only_for_misses(self, remote_lab, count_calls):
        objects = remote_lab.objects
        cached = objects.get_buffer(Oid("lab", "employee", 1))
        calls = count_calls(remote_lab)
        oids = [Oid("lab", "employee", n) for n in (0, 1, 2, 0)]
        buffers = objects.get_buffers(oids)
        assert buffers[1] is cached
        assert [b.oid for b in buffers] == oids
        assert calls == [(P.OP_GET_OBJECTS, {
            "db": "lab", "oids": ["lab:employee:0", "lab:employee:2"]})]

    def test_get_buffers_serves_a_reply_the_cache_refuses(
            self, remote_lab, count_calls):
        """A floor above the reply's epoch keeps the buffers out of the
        cache, not out of the answer: no re-fetch at a newer epoch."""
        objects = remote_lab.objects
        objects.cache.floor = 1 << 40
        calls = count_calls(remote_lab)
        oids = [Oid("lab", "employee", n) for n in range(5)]
        assert [b.oid for b in objects.get_buffers(oids)] == oids
        assert len(calls) == 1 and len(objects.cache) == 0

    def test_get_buffers_missing_raises_after_one_call(
            self, remote_lab, count_calls):
        calls = count_calls(remote_lab)
        with pytest.raises(ObjectNotFoundError, match="lab:employee:9999"):
            remote_lab.objects.get_buffers(
                [Oid("lab", "employee", 0), Oid("lab", "employee", 9999)])
        assert len(calls) == 1

    @pytest.mark.parametrize("limit, sizes", [
        (11, [11, 11, 11, 11, 11]),     # the last batch exactly fills limit
        (10, [10, 10, 10, 10, 10, 5]),
        (55, [55]),
        (64, [55]),
    ])
    def test_scan_batches_end_on_the_last_member(self, remote_lab,
                                                 limit, sizes):
        after, seen, replies = -1, [], []
        while not replies or not replies[-1]["done"]:
            replies.append(remote_lab.objects._call(P.OP_SCAN_CLUSTER, {
                "class": "employee", "after": after, "limit": limit}))
            seen += [P.buffer_from_object(value).oid.number
                     for value in replies[-1]["buffers"]]
            after = replies[-1]["after"]
        assert [len(reply["buffers"]) for reply in replies] == sizes
        assert seen == list(range(55)) and after == 54

    def test_scan_of_an_empty_cluster_is_done_at_once(self, remote_lab):
        objects = remote_lab.objects
        for oid in objects.cluster("department").oids():
            objects.delete(oid)
        reply = objects._call(P.OP_SCAN_CLUSTER, {
            "class": "department", "after": -1, "limit": 8})
        assert (reply["buffers"], reply["done"], reply["after"]) == (
            [], True, -1)

    def test_get_objects_reports_a_deleted_oid_mid_batch(self, remote_lab):
        objects = remote_lab.objects
        first, gone, last = (Oid("lab", "employee", n) for n in (3, 4, 5))
        objects.delete(gone)
        reply = objects._call(
            P.OP_GET_OBJECTS, {"oids": [str(first), str(gone), str(last)]})
        assert [P.buffer_from_object(value).oid
                for value in reply["buffers"]] == [first, last]
        assert reply["missing"] == [str(gone)]

    def test_exists(self, remote_lab):
        assert remote_lab.objects.exists(Oid("lab", "employee", 0))
        assert not remote_lab.objects.exists(Oid("lab", "employee", 9999))

    def test_display_modules_fetched(self, remote_lab):
        names = sorted(p.name for p in remote_lab.display_dir.iterdir())
        assert names == ["department.py", "employee.py"]

    def test_stats(self, remote_lab):
        stats = remote_lab.server_stats()
        assert stats["clusters"]["employee"] == 55
        assert 0.0 <= stats["fragmentation"] <= 1.0


class TestCursors:
    def test_sequencing(self, remote_lab):
        cursor = remote_lab.objects.cursor("employee")
        first = cursor.next()
        second = cursor.next()
        assert (first.number, second.number) == (0, 1)
        assert cursor.previous() == first
        assert cursor.current() == first

    def test_reset_invalidates_stale_cache(self, remote_lab, served_lab):
        cursor = remote_lab.objects.cursor("employee")
        oid = cursor.next()
        assert remote_lab.objects.get_buffer(oid).value("name") == "rakesh"
        # Another client commits behind our back; our cache is now stale.
        other = RemoteDatabase.connect("127.0.0.1", served_lab.port, "lab")
        try:
            other.objects.update(oid, {"name": "renamed"})
        finally:
            other.close()
        # reset refreshes the server snapshot and advances the cache's
        # epoch floor past every pre-commit entry.
        cursor.reset()
        assert cursor.next() == oid
        assert remote_lab.objects.get_buffer(oid).value("name") == "renamed"

    def test_reset_keeps_current_epoch_entries(self, remote_lab):
        cursor = remote_lab.objects.cursor("employee")
        oid = cursor.next()
        remote_lab.objects.get_buffer(oid)
        assert len(remote_lab.objects.cache) > 0
        cursor.reset()
        # No write happened: the cached buffer is provably current, so
        # the epoch-floor invalidation keeps it (no needless refetch).
        assert len(remote_lab.objects.cache) > 0
        assert cursor.next() == oid

    def test_unknown_cursor_rejected(self, remote_lab):
        with pytest.raises(NetworkError, match="no cursor"):
            remote_lab.client.call(P.OP_CURSOR_NEXT, {"cursor": 999})


class TestWrites:
    DEPT = {"dname": "net", "location": "nj", "employees": [],
            "mgr": None, "budget": 1.0}

    def test_create_update_delete(self, remote_lab):
        objects = remote_lab.objects
        oid = objects.new_object("department", dict(self.DEPT))
        assert objects.count("department") == 8
        buffer = objects.update(oid, {"budget": 2.0})
        assert buffer.value("budget", privileged=True) == 2.0
        objects.delete(oid)
        assert objects.count("department") == 7
        with pytest.raises(ObjectNotFoundError):
            objects.get_buffer(oid)

    def test_writes_invalidate_cache(self, remote_lab):
        objects = remote_lab.objects
        objects.cluster("department").oids()  # warm the cache
        oid = objects.new_object("department", dict(self.DEPT))
        objects.update(oid, {"budget": 9.0})
        # a later read sees the write, not a stale cache entry
        assert objects.get_buffer(oid).value("budget", privileged=True) == 9.0
        objects.delete(oid)
        assert len(objects.cache) == 0

    def test_transaction_commit_and_abort(self, remote_lab):
        objects = remote_lab.objects
        objects.begin()
        oid = objects.new_object("department", dict(self.DEPT))
        objects.commit()
        assert objects.exists(oid)
        objects.begin()
        objects.delete(oid)
        objects.abort()
        assert objects.exists(oid)
        objects.delete(oid)

    def test_commit_without_begin_rejected(self, remote_lab):
        with pytest.raises(TransactionError):
            remote_lab.objects.commit()

    def test_validation_errors_cross_the_wire(self, remote_lab):
        with pytest.raises(SchemaError, match="no attributes"):
            remote_lab.objects.new_object("department", {"bogus": 1})


class TestResilience:
    def test_read_retries_after_connection_drop(self, remote_lab):
        remote_lab.objects.cache.purge()
        # sabotage the socket; the next read must reconnect and succeed
        remote_lab.client._sock.close()
        assert remote_lab.objects.count("employee") == 55

    def test_writes_are_not_retried(self, remote_lab):
        remote_lab.client._sock.close()
        with pytest.raises(NetworkError):
            remote_lab.objects.new_object("department", dict(TestWrites.DEPT))
        # but the connection can be re-established for the next call
        assert remote_lab.objects.count("department") == 7

    def test_disconnect_aborts_open_transaction(self, served_lab):
        db1 = RemoteDatabase.connect("127.0.0.1", served_lab.port, "lab")
        db1.objects.begin()
        db1.objects.new_object("department", dict(TestWrites.DEPT))
        db1.client.close()  # vanish mid-transaction
        db2 = RemoteDatabase.connect("127.0.0.1", served_lab.port, "lab")
        try:
            # the server aborted the orphan; its write never landed
            assert db2.objects.count("department") == 7
        finally:
            db2.close()

    def test_vacuum(self, remote_lab):
        objects = remote_lab.objects
        oid = objects.new_object("department", dict(TestWrites.DEPT))
        objects.delete(oid)
        assert remote_lab.vacuum() >= 0

    def test_remote_error_does_not_drop_the_connection(self, remote_lab):
        """A server-side NetworkError is a verdict, not a dead socket."""
        client = remote_lab.client
        sock_before = client._sock
        reconnects_before = client._m_reconnects.value
        with pytest.raises(NetworkError, match="no cursor"):
            client.call(P.OP_CURSOR_NEXT, {"cursor": 999})
        # same socket, no reconnect, no retry storm
        assert client._sock is sock_before
        assert client._m_reconnects.value == reconnects_before


class TestSessionLoss:
    """A reconnect discards server session state; clients must not
    silently keep writing on the fresh session (autocommit outside the
    transaction they believe is open)."""

    def test_write_after_mid_transaction_drop_fails_fast(self, remote_lab):
        objects = remote_lab.objects
        objects.begin()
        objects.new_object("department", dict(TestWrites.DEPT))
        remote_lab.client._sock.close()  # transient network blip
        # the next write must NOT be applied as an autocommit
        with pytest.raises((SessionLostError, TransactionError)):
            objects.new_object("department", dict(TestWrites.DEPT))
        with pytest.raises(TransactionError):
            objects.commit()
        objects.abort()  # local cleanup; the server already rolled back
        # neither write landed: atomicity held
        assert objects.count("department") == 7

    def test_read_during_open_transaction_does_not_reconnect(self, remote_lab):
        objects = remote_lab.objects
        objects.begin()
        remote_lab.client._sock.close()
        with pytest.raises(SessionLostError):
            objects.count("department")
        objects.abort()
        # with no transaction open, reads reconnect transparently again
        assert objects.count("department") == 7

    def test_transaction_usable_again_after_recovery(self, remote_lab):
        objects = remote_lab.objects
        objects.begin()
        remote_lab.client._sock.close()
        with pytest.raises(SessionLostError):
            objects.count("employee")
        objects.abort()
        objects.begin()
        oid = objects.new_object("department", dict(TestWrites.DEPT))
        objects.commit()
        assert objects.exists(oid)
        objects.delete(oid)

    def test_cursor_lost_after_reconnect(self, remote_lab):
        objects = remote_lab.objects
        cursor = objects.cursor("employee")
        assert cursor.next() is not None
        remote_lab.client._sock.close()
        # a plain read reconnects transparently (no transaction open) …
        assert objects.count("employee") == 55
        # … but the cursor belonged to the old session and says so
        with pytest.raises(SessionLostError):
            cursor.next()
        cursor.close()  # tolerated: the server-side cursor is gone
        fresh = objects.cursor("employee")
        assert fresh.next() is not None


class TestConcurrencyControl:
    def test_readers_run_while_no_writer(self, served_lab):
        results = []

        def browse():
            db = RemoteDatabase.connect("127.0.0.1", served_lab.port, "lab")
            try:
                results.append(db.objects.count("employee"))
            finally:
                db.close()

        threads = [threading.Thread(target=browse) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert results == [55, 55, 55, 55]

    def test_readers_run_lock_free_during_open_transaction(
            self, served_lab, remote_lab):
        """MVCC: an open transaction no longer blocks other sessions' reads.

        A reader that arrives mid-transaction is served immediately from
        a snapshot of the last committed epoch — it sees the count from
        before the uncommitted insert, never a partial state.
        """
        other = RemoteDatabase.connect("127.0.0.1", served_lab.port, "lab")
        try:
            remote_lab.objects.begin()
            remote_lab.objects.new_object(
                "employee", {"name": "uncommitted", "id": 9001})
            seen = []

            def reader():
                seen.append(other.objects.count("employee"))

            t = threading.Thread(target=reader)
            t.start()
            t.join(10)
            assert not t.is_alive()
            assert seen == [55]  # snapshot read: uncommitted insert invisible
            remote_lab.objects.abort()
            assert other.objects.count("employee") == 55
        finally:
            other.close()

    def test_second_writer_blocks_until_transaction_done(
            self, served_lab, remote_lab):
        """The write lock still serializes writer against writer."""
        other = RemoteDatabase.connect("127.0.0.1", served_lab.port, "lab")
        try:
            remote_lab.objects.begin()
            done = []

            def writer():
                other.objects.update(
                    Oid("lab", "employee", 0), {"salary": 123.0})
                done.append(True)

            t = threading.Thread(target=writer)
            t.start()
            t.join(0.3)
            assert t.is_alive() and done == []  # queued behind the open tx
            remote_lab.objects.abort()
            t.join(10)
            assert done == [True]
        finally:
            other.close()


class TestShutdown:
    def test_shutdown_closes_databases_and_sockets(self, tmp_path):
        from repro.data.labdb import make_lab_database
        from repro.ode.database import Database

        make_lab_database(tmp_path).close()
        server = OdeServer(tmp_path)
        server.start()
        db = RemoteDatabase.connect("127.0.0.1", server.port, "lab")
        assert db.objects.count("employee") == 55
        server.shutdown()
        # the directory lock was released: the database reopens locally
        local = Database.open(tmp_path / "lab.odb")
        try:
            assert local.objects.count("employee") == 55
        finally:
            local.close()

    def test_active_sessions_gauge(self, served_lab, remote_lab):
        assert served_lab.active_sessions >= 1
