"""End-to-end CDC: push frames over a real server connection.

Covers the full tentpole path: subscribe ack ordering, unsolicited
OP_CDC_EVENT frames interleaving with request traffic, cluster filters,
precise BufferCache invalidation via watch(), commit-path isolation from
dead and wedged subscribers, and session teardown.
"""

from __future__ import annotations

import select
import threading
import time

import pytest

from repro.cdc import ChangeCursor
from repro.errors import OdeError
from repro.net import protocol as P
from repro.net.client import OdeClient
from repro.ode import changelog as changelog_module


def _wait_until(predicate, timeout: float = 10.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition never became true")


def _touch(database, oid):
    """Commit a no-op-shaped update so a delta names *oid*."""
    buffer = database.objects.get_buffer(oid)
    database.objects.update(oid, {"name": buffer.value("name")})


class TestPushDelivery:
    def test_write_arrives_as_a_push_event(self, remote_lab, writer_lab):
        with remote_lab.subscribe() as sub:
            oid = writer_lab.objects.cluster("employee").first()
            _touch(writer_lab, oid)
            event = sub.get(timeout=5.0)
            assert event is not None
            assert str(oid) in event.oids()
            assert event.epoch > 0 and not event.resync

    def test_ack_epoch_floors_the_delta_stream(self, remote_lab, writer_lab):
        """Every commit after the subscribe ack must be delivered: write
        in a tight loop around subscribe and verify no epoch after the
        ack is missing from the feed."""
        oid = writer_lab.objects.cluster("employee").first()
        _touch(writer_lab, oid)
        with remote_lab.subscribe() as sub:
            ack = sub.epoch
            epochs = []
            for _ in range(5):
                _touch(writer_lab, oid)
            deadline = time.monotonic() + 5.0
            while len(epochs) < 5 and time.monotonic() < deadline:
                event = sub.get(timeout=0.5)
                if event is not None and event.epoch > ack:
                    epochs.append(event.epoch)
            assert epochs == sorted(epochs)
            assert epochs[-1] - ack == 5 and len(epochs) == 5

    def test_cluster_filter_narrows_the_feed(self, remote_lab, writer_lab):
        with remote_lab.subscribe(clusters=["department"]) as sub:
            employee = writer_lab.objects.cluster("employee").first()
            department = writer_lab.objects.cluster("department").first()
            _touch(writer_lab, employee)
            writer_lab.objects.update(department, {})
            event = sub.get(timeout=5.0)
            assert event is not None
            assert set(event.changes) == {"department"}
            assert sub.get(timeout=0.2) is None

    def test_unknown_cluster_is_rejected(self, remote_lab):
        with pytest.raises(OdeError):
            remote_lab.subscribe(clusters=["no-such-class"])

    def test_push_interleaves_with_pipelined_replies(self, remote_lab,
                                                     writer_lab):
        """Back-to-back reads pair with their own replies even while the
        server is pushing events onto the same socket."""
        employees = remote_lab.objects.count("employee")
        departments = remote_lab.objects.count("department")
        with remote_lab.subscribe() as sub:
            oid = writer_lab.objects.cluster("employee").first()
            for _ in range(10):
                _touch(writer_lab, oid)
                replies = [
                    remote_lab.client.call(
                        P.OP_COUNT, {"db": "lab", "class": name})
                    for name in ("employee", "department")]
                # replies pair with their requests despite interleaved
                # pushes on the same socket
                assert [r["count"] for r in replies] == [
                    employees, departments]
            epochs = []
            deadline = time.monotonic() + 5.0
            while len(epochs) < 10 and time.monotonic() < deadline:
                event = sub.get(timeout=0.5)
                if event is not None:
                    assert not event.resync  # no overflow at this rate
                    epochs.append(event.epoch)
            assert len(epochs) == 10 and epochs == sorted(epochs)

    def test_unsubscribe_stops_the_feed(self, served_lab, remote_lab,
                                        writer_lab):
        sub = remote_lab.subscribe()
        sub.close()
        _wait_until(lambda: served_lab.hosted("lab").subscribers == 0)
        oid = writer_lab.objects.cluster("employee").first()
        _touch(writer_lab, oid)
        assert sub.get(timeout=0.3) is None

    def test_stats_report_the_cdc_section(self, served_lab, remote_lab,
                                          writer_lab):
        with remote_lab.subscribe():
            stats = remote_lab.server_stats()
            assert stats["cdc"]["subscribers"] == 1

    def test_client_cannot_size_the_server_queue(self, served_lab):
        """A subscribe asking for a 4096-summary queue gets what every
        subscription gets: one cursor over the shared change log, so no
        client sizes the memory held for it."""
        client = OdeClient("127.0.0.1", served_lab.port).connect()
        try:
            reply = client.call(P.OP_CDC_SUBSCRIBE,
                                {"db": "lab", "capacity": 4096})
            conn = next(iter(served_lab._connections))
            (sub,) = conn._subscriptions.values()
            assert isinstance(sub.cursor, ChangeCursor)
            assert sub.cursor.after == reply["epoch"]
            assert served_lab.hosted("lab").subscribers == 1
        finally:
            client.close()

    def test_subscribed_calls_leave_the_pump_no_idle_read(self, served_lab):
        """The pump sees a caller's reply arrive, then waits for the
        request lock.  By the time it holds the lock the caller has taken
        those bytes; a read then would wait under the lock in front of
        the next call.  Every pump ``recv`` must find bytes waiting.
        Counted, not timed."""
        idle_reads = []

        class CountingSocket:
            def __init__(self, sock):
                self._sock = sock

            def recv(self, size):
                if (threading.current_thread().name == "ode-client-push"
                        and not select.select([self._sock], [], [], 0)[0]):
                    idle_reads.append(size)
                return self._sock.recv(size)

            def __getattr__(self, name):
                return getattr(self._sock, name)

        client = OdeClient("127.0.0.1", served_lab.port).connect()
        client._sock = CountingSocket(client._sock)
        try:
            with client.subscribe("lab"):
                for _ in range(100):
                    client.call(P.OP_PING)
        finally:
            client.close()
        assert idle_reads == []


class TestCommitPathIsolation:
    def test_dead_subscriber_never_stalls_commits(self, served_lab,
                                                  writer_lab):
        """Kill a subscribed connection without unsubscribing; commits
        must keep flowing and the server must reap the subscriber."""
        victim = OdeClient("127.0.0.1", served_lab.port).connect()
        victim.subscribe("lab")
        victim._sock.close()  # simulate a died browser: no goodbye
        oid = writer_lab.objects.cluster("employee").first()
        start = time.monotonic()
        for _ in range(5):
            _touch(writer_lab, oid)
        assert time.monotonic() - start < 5.0  # commits never blocked
        _wait_until(lambda: served_lab.hosted("lab").subscribers == 0)

    def test_wedged_subscriber_coalesces_not_blocks(self, served_lab,
                                                    writer_lab, monkeypatch):
        """A subscriber that never reads: the change log's floor may
        overtake its cursor (one resync marker); commit latency stays
        flat."""
        # A tiny log bound, so the floor moves within a short burst.
        monkeypatch.setattr(changelog_module, "WAL_CHECKPOINT_BYTES", 2048)
        wedged = OdeClient("127.0.0.1", served_lab.port).connect()
        reply = wedged.call(P.OP_CDC_SUBSCRIBE, {"db": "lab"})
        assert reply["sub"] >= 1
        # Never read from the socket again; pump sends what fits into
        # the kernel buffer, the rest coalesces server-side.
        oid = writer_lab.objects.cluster("employee").first()
        start = time.monotonic()
        for _ in range(50):
            _touch(writer_lab, oid)
        assert time.monotonic() - start < 20.0
        assert served_lab.hosted("lab").subscribers == 1  # wedged, not dead
        wedged.close()


class TestSessionTeardown:
    def test_disconnect_reaps_subscriptions(self, served_lab):
        client = OdeClient("127.0.0.1", served_lab.port).connect()
        client.subscribe("lab")
        _wait_until(lambda: served_lab.hosted("lab").subscribers == 1)
        client.close()
        _wait_until(lambda: served_lab.hosted("lab").subscribers == 0)

    def test_client_drop_marks_subscription_lost(self, served_lab,
                                                 remote_lab):
        sub = remote_lab.subscribe()
        # Force-drop the connection out from under the subscription.
        with remote_lab.client._lock:
            remote_lab.client._drop_locked()
        _wait_until(lambda: sub.lost)
        event = sub.get(timeout=1.0)
        assert event is not None and event.lost
        assert not sub.alive
        assert sub.get(timeout=0.1) is None  # terminal: the feed is dry
        sub.close()  # lost subscription closes without a network call


class TestWatchPreciseInvalidation:
    def test_only_changed_oids_are_purged(self, remote_lab, writer_lab):
        remote_lab.objects.scan("employee")  # warm the cache
        cache = remote_lab.objects.cache
        with remote_lab.objects.watch():
            warmed = len(cache)
            assert warmed >= 55
            oid = writer_lab.objects.cluster("employee").first()
            buffer = writer_lab.objects.get_buffer(oid)
            writer_lab.objects.update(oid, {"name": "renamed"})
            _wait_until(lambda: cache.delta_applied >= 1)
            # exactly one entry died; everything else survived
            assert len(cache) == warmed - 1
            assert cache.delta_evictions == 1
            fresh = remote_lab.objects.get_buffer(oid)
            assert fresh.value("name") == "renamed"
            assert fresh.value("name") != buffer.value("name")

    def test_cache_never_serves_stale_after_delta(self, served_lab,
                                                  remote_lab, writer_lab):
        oid = writer_lab.objects.cluster("employee").first()
        store = served_lab.hosted("lab").database.store
        with remote_lab.objects.watch():
            for round_number in range(5):
                writer_lab.objects.update(
                    oid, {"name": f"round-{round_number}"})
                target = store.epoch
                _wait_until(
                    lambda: remote_lab.objects.cache.cdc_epoch >= target)
                assert remote_lab.objects.get_buffer(oid).value(
                    "name") == f"round-{round_number}"

    def test_lost_connection_purges_wholesale(self, remote_lab, writer_lab):
        remote_lab.objects.scan("employee")
        cache = remote_lab.objects.cache
        sub = remote_lab.objects.watch()
        assert len(cache) > 0
        with remote_lab.client._lock:
            remote_lab.client._drop_locked()
        _wait_until(lambda: sub.lost)
        assert len(cache) == 0  # no delta knowledge survives the session
