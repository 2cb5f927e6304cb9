"""The event-loop server core: serialization, long-polls, clean drains.

The whole suite runs against the one event-loop core, so these tests pin
down what is *specific* to the loop: the constructor's single-valued
``io_model`` keyword, writer serialization via the per-database asyncio
lock, the zero-idle-wakeup contract (also with ``NET_IDLE_CONNECTIONS``
handshaken idle connections held open, default 256), the replication
long-poll's wake-event-before-read ordering and field validation, and
the shutdown paths that must release parked waiters (replication
long-polls, group-commit barriers) with a typed error instead of
leaking them past the drain deadline.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time

import pytest

from repro.data.labdb import make_lab_database
from repro.errors import GroupCommitError, NetworkError, OdeError
from repro.net import protocol as P
from repro.net.client import OdeClient
from repro.net.server import OdeServer
from repro.obs import get_registry
from repro.ode.oid import Oid
from repro.repl.feed import MAX_WAIT_SECONDS

#: Idle connections held open beside a working client; CI's tier-2
#: network job raises it to 4096.
IDLE_CONNECTIONS = int(os.environ.get("NET_IDLE_CONNECTIONS", "256"))


class TestConstructor:
    def test_io_model_keyword_has_one_legal_value(self, tmp_path, monkeypatch):
        """The frozen benchmark still passes ``io_model="async"``; any
        other value names a core that no longer exists, and the
        environment no longer selects anything."""
        make_lab_database(tmp_path).close()
        assert type(OdeServer(tmp_path, io_model="async")) is OdeServer
        with pytest.raises(NetworkError, match="removed"):
            OdeServer(tmp_path, io_model="threaded")
        monkeypatch.setenv("ODE_IO_MODEL", "threaded")
        with OdeServer(tmp_path) as server:
            client = OdeClient("127.0.0.1", server.port)
            try:
                assert client.call(P.OP_PING, {}) == {}
            finally:
                client.close()


def _first_employee(client) -> str:
    numbers = client.call(
        P.OP_CLUSTER_NUMBERS, {"db": "lab", "class": "employee"})["numbers"]
    return f"lab:employee:{numbers[0]}"


def _parked_readers(server) -> int:
    """Readers awaiting the lab database's current wake event."""
    return len(server.hosted("lab").changed._waiters or ())


class TestWriterSerialization:
    def test_transaction_blocks_other_writers_until_commit(self, served_lab):
        """The per-database asyncio lock must hold across an explicit
        transaction: a second connection's autocommit write parks until
        the first commits, then lands — last writer wins."""
        a = OdeClient("127.0.0.1", served_lab.port)
        b = OdeClient("127.0.0.1", served_lab.port)
        try:
            oid = _first_employee(a)
            a.call(P.OP_BEGIN, {"db": "lab"})
            a.call(P.OP_UPDATE, {"db": "lab", "oid": oid,
                                 "updates": {"name": "tx-a"}})
            landed = []

            def other_writer():
                b.call(P.OP_UPDATE, {"db": "lab", "oid": oid,
                                     "updates": {"name": "tx-b"}})
                landed.append(time.monotonic())

            thread = threading.Thread(target=other_writer, daemon=True)
            thread.start()
            time.sleep(0.3)
            assert not landed  # parked behind the open transaction
            a.call(P.OP_COMMIT, {"db": "lab"})
            thread.join(timeout=5.0)
            assert landed
            reply = a.call(P.OP_GET_OBJECT, {"db": "lab", "oid": oid})
            assert P.buffer_from_object(reply["buffer"]).value("name") == "tx-b"
        finally:
            a.close()
            b.close()

    def test_concurrent_autocommits_all_land(self, served_lab):
        oid_client = OdeClient("127.0.0.1", served_lab.port)
        numbers = oid_client.call(
            P.OP_CLUSTER_NUMBERS,
            {"db": "lab", "class": "employee"})["numbers"][:4]
        before = oid_client.call(
            P.OP_COUNT, {"db": "lab", "class": "employee"})["epoch"]
        errors = []

        def writer(number):
            client = OdeClient("127.0.0.1", served_lab.port)
            try:
                for round_index in range(3):
                    client.call(P.OP_UPDATE, {
                        "db": "lab", "oid": f"lab:employee:{number}",
                        "updates": {"name": f"w{number}-{round_index}"}})
            except OdeError as exc:
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=writer, args=(n,), daemon=True)
                   for n in numbers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        after = oid_client.call(
            P.OP_COUNT, {"db": "lab", "class": "employee"})["epoch"]
        assert after == before + len(numbers) * 3  # one epoch per commit
        for number in numbers:
            reply = oid_client.call(
                P.OP_GET_OBJECT, {"db": "lab", "oid": f"lab:employee:{number}"})
            assert P.buffer_from_object(
                reply["buffer"]).value("name") == f"w{number}-2"
        oid_client.close()


class TestIdleCost:
    def test_idle_async_connections_cost_zero_wakeups(self, served_lab):
        """An idle connection parks on the selector — no recv-poll —
        so the wakeup counter must sit still."""
        client = OdeClient("127.0.0.1", served_lab.port)
        try:
            client.call(P.OP_PING, {})
            counter = get_registry().counter("net.server.wakeups")
            before = counter.value
            time.sleep(1.5)
            assert counter.value - before == 0
        finally:
            client.close()

    def test_many_idle_connections_leave_a_fresh_client_served(
            self, served_lab):
        """Every idle connection completes its HELLO; while they sit the
        loop takes no wakeup, and a fresh client's round trip is
        answered at the cost of its own frames only."""
        hello = P.encode_frame(1, P.OP_HELLO,
                               {"version": P.PROTOCOL_VERSION})
        idle = []
        try:
            for _ in range(IDLE_CONNECTIONS):
                sock = socket.create_connection(
                    ("127.0.0.1", served_lab.port), timeout=10.0)
                idle.append(sock)
                sock.sendall(hello)
                reply = P.recv_frame(sock, P.FrameReassembler())
                assert reply.opcode == P.OP_REPLY
            counter = get_registry().counter("net.server.wakeups")
            before = counter.value
            time.sleep(1.0)
            assert counter.value == before
            client = OdeClient("127.0.0.1", served_lab.port)
            try:
                reply = client.call(P.OP_COUNT,
                                    {"db": "lab", "class": "employee"})
                assert reply["count"] == 55
            finally:
                client.close()
            assert counter.value - before <= 2  # HELLO + COUNT
        finally:
            for sock in idle:
                sock.close()


class TestTornConnections:
    def test_half_frame_disconnect_leaves_server_healthy(self, served_lab):
        data = P.encode_frame(1, P.OP_PING, {})
        raw = socket.create_connection(("127.0.0.1", served_lab.port))
        raw.sendall(data[:7])  # half a header, then vanish
        raw.close()
        client = OdeClient("127.0.0.1", served_lab.port)
        try:
            reply = client.call(P.OP_COUNT, {"db": "lab", "class": "employee"})
            assert reply["count"] > 0
        finally:
            client.close()

    def test_corrupt_frame_drops_only_that_connection(self, served_lab):
        bad = bytearray(P.encode_frame(1, P.OP_PING, {"x": 1}))
        bad[-1] ^= 0xFF  # CRC mismatch
        raw = socket.create_connection(("127.0.0.1", served_lab.port))
        raw.sendall(bytes(bad))
        # The server must close this connection (no reply), not die.
        raw.settimeout(5.0)
        assert raw.recv(64) == b""
        raw.close()
        client = OdeClient("127.0.0.1", served_lab.port)
        try:
            assert client.call(P.OP_PING, {}) == {}
        finally:
            client.close()


class TestReplicationLongPoll:
    def test_commit_between_empty_fetch_and_park_wakes_the_poller(
            self, served_lab):
        """A commit landing right after the long-poll's empty read must
        wake it: the poller takes the wake event *before* that read, so
        the reply carries the unit at once instead of after ``wait_ms``."""
        poller = OdeClient("127.0.0.1", served_lab.port)
        writer = OdeClient("127.0.0.1", served_lab.port)
        try:
            oid = _first_employee(writer)
            epoch = writer.call(
                P.OP_COUNT, {"db": "lab", "class": "employee"})["epoch"]
            database = served_lab.hosted("lab").database
            log = database.store.change_log
            real_read = log.read
            committed = threading.Event()

            def read_then_commit(*args, **kwargs):
                result = real_read(*args, **kwargs)
                if not committed.is_set():
                    # Exactly the window: the empty result is in hand,
                    # the poller has not parked yet.  The commit runs
                    # here, on the loop thread, so its wakeup can only
                    # be handled after the poller parks.
                    committed.set()
                    database.objects.update(Oid.parse(oid),
                                            {"name": "in-the-window"})
                return result

            log.read = read_then_commit
            started = time.monotonic()
            reply = poller.call(P.OP_REPL_FETCH, {
                "db": "lab", "after": epoch, "wait_ms": 3000})
            elapsed = time.monotonic() - started
            assert committed.is_set()
            assert [unit[0] for unit in reply["units"]] == [epoch + 1]
            assert elapsed < 1.5, f"poller slept {elapsed:.2f}s with a unit ready"
            # The other arm: a unit already committed before the fetch
            # is returned without parking at all.
            started = time.monotonic()
            again = poller.call(P.OP_REPL_FETCH, {
                "db": "lab", "after": epoch, "wait_ms": 3000})
            assert [unit[0] for unit in again["units"]] == [epoch + 1]
            assert time.monotonic() - started < 1.5
        finally:
            poller.close()
            writer.close()

    def test_quiet_poll_times_out_empty_not_resync(self, served_lab):
        poller = OdeClient("127.0.0.1", served_lab.port)
        try:
            epoch = poller.call(
                P.OP_COUNT, {"db": "lab", "class": "employee"})["epoch"]
            started = time.monotonic()
            reply = poller.call(P.OP_REPL_FETCH, {
                "db": "lab", "after": epoch, "wait_ms": 200})
            elapsed = time.monotonic() - started
            assert reply["units"] == [] and not reply["resync"]
            assert 0.15 <= elapsed < MAX_WAIT_SECONDS
        finally:
            poller.close()

    def test_wait_is_clamped_to_the_server_cap(self, served_lab):
        poller = OdeClient("127.0.0.1", served_lab.port)
        try:
            epoch = poller.call(
                P.OP_COUNT, {"db": "lab", "class": "employee"})["epoch"]
            started = time.monotonic()
            reply = poller.call(P.OP_REPL_FETCH, {
                "db": "lab", "after": epoch, "wait_ms": 3_600_000})
            elapsed = time.monotonic() - started
            assert reply["units"] == []
            assert elapsed < MAX_WAIT_SECONDS + 1.0  # capped, not an hour
        finally:
            poller.close()

    @pytest.mark.parametrize("field, value", [
        ("max", True), ("max", "7"), ("max", 0), ("max", -1), ("max", 2.5),
        ("wait_ms", "soon"), ("wait_ms", True), ("wait_ms", 0),
        ("wait_ms", -5), ("after", -1), ("after", True), ("after", "3"),
    ])
    def test_fetch_fields_are_validated(self, served_lab, field, value):
        """``after``, ``max`` and ``wait_ms`` are integers and only
        ``after`` may be 0: ``max=0`` would never advance its poller,
        ``max=-1`` would slice away the newest unit."""
        poller = OdeClient("127.0.0.1", served_lab.port)
        try:
            with pytest.raises(NetworkError, match=repr(field)):
                poller.call(P.OP_REPL_FETCH, {"db": "lab", field: value})
            # The connection is healthy afterwards; a valid fetch serves.
            epoch = poller.call(
                P.OP_COUNT, {"db": "lab", "class": "employee"})["epoch"]
            reply = poller.call(P.OP_REPL_FETCH,
                                {"db": "lab", "after": epoch, "max": 1})
            assert not reply["resync"] and reply["units"] == []
        finally:
            poller.close()

    def test_every_parked_poller_wakes_on_one_commit(self, served_lab):
        """Four concurrent long-polls on one feed all return the one
        commit that lands while they are parked."""
        writer = OdeClient("127.0.0.1", served_lab.port)
        pollers = [OdeClient("127.0.0.1", served_lab.port) for _ in range(4)]
        replies = []
        replies_lock = threading.Lock()
        try:
            oid = _first_employee(writer)
            epoch = writer.call(
                P.OP_COUNT, {"db": "lab", "class": "employee"})["epoch"]

            def poll(client):
                started = time.monotonic()
                reply = client.call(P.OP_REPL_FETCH, {
                    "db": "lab", "after": epoch, "wait_ms": 3000})
                with replies_lock:
                    replies.append((reply, time.monotonic() - started))

            threads = [threading.Thread(target=poll, args=(client,),
                                        daemon=True) for client in pollers]
            for thread in threads:
                thread.start()
            # Once all four are parked, one commit must wake all.
            deadline = time.monotonic() + 5.0
            while _parked_readers(served_lab) < len(pollers):
                assert time.monotonic() < deadline, "pollers never parked"
                time.sleep(0.01)
            writer.call(P.OP_UPDATE, {"db": "lab", "oid": oid,
                                      "updates": {"name": "wake-all"}})
            for thread in threads:
                thread.join(timeout=5.0)
                assert not thread.is_alive()
            assert len(replies) == len(pollers)
            for reply, elapsed in replies:
                assert [unit[0] for unit in reply["units"]] == [epoch + 1]
                assert elapsed < MAX_WAIT_SECONDS  # woken, not timed out
        finally:
            writer.close()
            for client in pollers:
                client.close()


class TestShutdownReleasesWaiters:
    def test_parked_long_poll_released_by_shutdown(self, tmp_path):
        """A replication fetch parked in its long poll must come back
        (reply or typed error) the moment the server drains — never ride
        out its wait against the drain budget."""
        make_lab_database(tmp_path).close()
        server = OdeServer(tmp_path)
        server.start()
        client = OdeClient("127.0.0.1", server.port)
        epoch = client.call(P.OP_COUNT, {"db": "lab",
                                         "class": "employee"})["epoch"]
        outcomes = []

        def poller():
            started = time.monotonic()
            try:
                client.call(P.OP_REPL_FETCH, {
                    "db": "lab", "after": epoch, "wait_ms": 2000})
                outcomes.append(("reply", time.monotonic() - started))
            except OdeError as exc:
                outcomes.append((type(exc).__name__,
                                 time.monotonic() - started))

        thread = threading.Thread(target=poller, daemon=True)
        thread.start()
        time.sleep(0.3)  # let the poll park on the feed
        started = time.monotonic()
        server.shutdown()
        shutdown_seconds = time.monotonic() - started
        thread.join(timeout=5.0)
        client.close()
        assert outcomes, "long-poller never returned"
        assert shutdown_seconds < 3.0  # did not wait out drain + poll
        assert outcomes[0][1] < 3.0

    def test_commit_parked_past_the_drain_deadline_gets_a_typed_error(
            self, tmp_path, caplog):
        """The drain-deadline path: an autocommit update parked in
        ``commit_wait`` (its batch fsync held on an event) keeps its
        connection busy past the drain.  Shutdown cancels the barrier's
        waiters, then the connection; the client gets a typed error,
        shutdown returns within drain + 2 s, and the cancelled connection
        ends without asyncio logging a stream callback's traceback."""
        caplog.set_level(logging.ERROR, logger="asyncio")
        make_lab_database(tmp_path).close()
        parked, release = threading.Event(), threading.Event()

        def gate(site, data, default):
            if site == "wal.group.sync" and not release.is_set():
                parked.set()
                release.wait(10.0)
            return default() if data is None else default(data)

        server = OdeServer(tmp_path, fault_gate=gate)
        server.start()
        cancels = []
        cancel = server._cancel_commit_waiters
        server._cancel_commit_waiters = lambda: (cancels.append(1), cancel())
        client = OdeClient("127.0.0.1", server.port, retries=0)
        oid = _first_employee(client)
        outcomes = []

        def writer():
            try:
                client.call(P.OP_UPDATE, {"db": "lab", "oid": oid,
                                          "updates": {"name": "parked"}})
                outcomes.append("reply")
            except OdeError as exc:
                outcomes.append(exc)
            finally:
                release.set()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            assert parked.wait(5.0), "the update never reached its fsync"
            drain = 0.2
            started = time.monotonic()
            server.shutdown(drain=drain)
            shutdown_seconds = time.monotonic() - started
        finally:
            release.set()
            thread.join(timeout=5.0)
            client.close()
        assert cancels == [1]
        assert len(outcomes) == 1 and isinstance(outcomes[0], OdeError), (
            outcomes)
        assert shutdown_seconds < drain + 2.0
        assert not [record for record in caplog.records
                    if record.name == "asyncio"
                    and "Exception in callback" in record.getMessage()]

    def test_cancel_commit_waits_fails_staged_commit_cleanly(self, tmp_path):
        """The drain-deadline escape hatch: a commit staged but not yet
        flushed is failed with a typed GroupCommitError naming the
        shutdown, and later submits fail fast instead of parking."""
        database = make_lab_database(tmp_path)
        try:
            objects = database.objects
            oid = objects.cluster("employee").first()
            name = objects.get_buffer(oid).value("name")
            objects.begin()
            objects.update(oid, {"name": name})
            staged = objects.commit_stage()
            database.store.cancel_commit_waits("server shutting down")
            with pytest.raises(GroupCommitError, match="cancelled"):
                objects.commit_wait(staged)
            objects.begin()
            objects.update(oid, {"name": name})
            with pytest.raises(GroupCommitError, match="cancelled"):
                objects.commit_stage()
            if database.store.in_transaction:
                objects.abort()
        finally:
            database.close()
