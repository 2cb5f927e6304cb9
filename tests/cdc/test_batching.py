"""The server's loop-native CDC pump: one frame per commit, never merged.

The soundness claim under test: the pump ships every unit its cursor
reads as its own ``OP_CDC_EVENT``, so every commit reaches a subscriber
at its own epoch — nothing coalesced away, nothing skipped — and a
failed send drops the subscription instead of wedging the commit path.
"""

from __future__ import annotations

import asyncio
import threading
import time
from types import SimpleNamespace

from repro.cdc import ChangeCursor, summary_from_wire
from repro.net import protocol as P
from repro.net.aserver import _AsyncConnection, _AsyncSubscription
from repro.net.remote import RemoteDatabase
from repro.net.session import HostedDatabase
from repro.obs import get_registry
from repro.ode.codec import encode_object
from repro.ode.oid import Oid
from repro.ode.store import ObjectStore


def _server_epoch(database: RemoteDatabase) -> int:
    return database.client.call(
        P.OP_COUNT, {"db": "lab", "class": "employee"})["epoch"]


class _PumpHost:
    """What the connection's pump needs of its server, and no more."""

    def __init__(self):
        self._stopping = threading.Event()
        self._m_bytes_out = get_registry().counter("net.server.bytes_out")


def _store_with_commits(path, count: int) -> ObjectStore:
    store = ObjectStore(path)
    for number in range(1, count + 1):
        oid = Oid("db", "emp", number)
        store.put(oid, encode_object(oid, "Rec", {"n": number}))
    return store


def _run_pump(hosted, send, host):
    """Run the server's loop-native pump over a cursor at epoch 0 to its
    exit; returns the connection.

    The burst is committed before the pump starts, so its first read
    deterministically sees all of it.  ``send`` stands in for the
    connection's frame writer.
    """
    async def main():
        connection = _AsyncConnection(host, None, None, 1)
        connection._send = send
        sub = _AsyncSubscription(1, hosted, ChangeCursor(0))
        connection._subscriptions[1] = sub
        hosted.subscribers = 1
        await asyncio.wait_for(connection._pump(sub), 5.0)
        return connection

    return asyncio.run(main())


class TestLoopPump:
    """The two pump behaviours no end-to-end test pins down."""

    def test_burst_ships_one_frame_per_summary(self, tmp_path):
        store = _store_with_commits(tmp_path, 3)
        hosted = HostedDatabase(SimpleNamespace(name="db", store=store))
        host = _PumpHost()
        shipped = []
        try:
            async def send(request_id, opcode, payload):
                assert (request_id, opcode) == (0, P.OP_CDC_EVENT)
                shipped.append(summary_from_wire(payload))
                if len(shipped) == 3:
                    host._stopping.set()  # the pump's exit signal
                    hosted.wake()
                return 1

            _run_pump(hosted, send, host)
        finally:
            store.close()
        assert [summary.epoch for summary in shipped] == [1, 2, 3]
        assert [summary.changes["emp"] for summary in shipped] == [
            ("db:emp:1",), ("db:emp:2",), ("db:emp:3",)]

    def test_send_failure_closes_and_unregisters_the_subscriber(
            self, tmp_path):
        store = _store_with_commits(tmp_path, 1)
        hosted = HostedDatabase(SimpleNamespace(name="db", store=store))
        errors = get_registry().counter("cdc.send_errors")
        before = errors.value
        try:
            async def send(_request_id, _opcode, _payload):
                raise ConnectionError("peer is gone")

            connection = _run_pump(hosted, send, _PumpHost())
        finally:
            store.close()
        assert connection._subscriptions == {}
        assert hosted.subscribers == 0
        assert errors.value == before + 1


class TestEndToEndNoEpochSkipped:
    def test_burst_of_commits_is_fully_covered(self, served_lab):
        """Fire a write burst and prove the subscriber learns about every
        commit: each touched object shows up, and the newest delivered
        epoch reaches the final commit."""
        reader = RemoteDatabase.connect("127.0.0.1", served_lab.port, "lab")
        writer = RemoteDatabase.connect("127.0.0.1", served_lab.port, "lab")
        try:
            numbers = writer.objects.cluster("employee").numbers()[:8]
            oids = []
            with reader.subscribe() as sub:
                final_epoch = None
                for number in numbers:
                    oid = writer.objects.cluster("employee").oid(number)
                    buffer = writer.objects.get_buffer(oid)
                    writer.objects.update(
                        oid, {"name": buffer.value("name")})
                    oids.append(str(oid))
                final_epoch = _server_epoch(writer)

                seen_oids = set()
                top_epoch = 0
                deadline = time.monotonic() + 10.0
                while (seen_oids != set(oids) or top_epoch < final_epoch) \
                        and time.monotonic() < deadline:
                    event = sub.get(timeout=0.5)
                    if event is None:
                        continue
                    assert not event.resync  # burst fits the log
                    top_epoch = max(top_epoch, event.epoch)
                    seen_oids.update(event.oids())
                # Nothing skipped, nothing beyond.
                assert seen_oids == set(oids)
                assert top_epoch == final_epoch
        finally:
            reader.close()
            writer.close()
