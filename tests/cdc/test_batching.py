"""The server's loop-native CDC pump: one frame per commit, never merged.

The soundness claim under test: the pump ships every drained summary as
its own ``OP_CDC_EVENT``, so every commit reaches a subscriber at its
own epoch — nothing coalesced away, nothing skipped — and a failed send
closes and unregisters the subscriber instead of wedging the commit
path.
"""

from __future__ import annotations

import asyncio
import time

from repro.cdc import (
    CdcSubscriber,
    ChangeRouter,
    ChangeSummary,
    summary_from_wire,
)
from repro.net import protocol as P
from repro.net.aserver import _AsyncConnection, _AsyncSubscription
from repro.obs import get_registry
from repro.ode.store import ObjectStore
from repro.net.remote import RemoteDatabase


def _server_epoch(database: RemoteDatabase) -> int:
    return database.client.call(
        P.OP_COUNT, {"db": "lab", "class": "employee"})["epoch"]


class _PumpHost:
    """What the connection's pump needs of its server, and no more."""

    def __init__(self, router=None):
        self._router = router
        self._m_bytes_out = get_registry().counter("net.server.bytes_out")

    def router(self, _name):
        return self._router


def _run_pump(subscriber, send, host):
    """Run the server's loop-native pump over *subscriber* to its exit.

    The burst is queued before the pump starts, so its first drain
    deterministically sees all of it.  ``send`` stands in for the
    connection's frame writer.
    """
    async def main():
        connection = _AsyncConnection(host, None, None, 1)
        connection._send = send
        wake = asyncio.Event()
        wake.set()
        await asyncio.wait_for(connection._pump(_AsyncSubscription(
            subscriber.sub_id, subscriber.db_name, subscriber, wake)), 5.0)

    asyncio.run(main())


def _queued(*epochs):
    subscriber = CdcSubscriber(1, "db")
    for epoch in epochs:
        subscriber.offer(ChangeSummary(
            epoch=epoch, changes={"emp": (f"db:emp:{epoch}",)}))
    return subscriber


class TestLoopPump:
    """The two pump behaviours no end-to-end test pins down."""

    def test_burst_ships_one_frame_per_summary(self):
        subscriber = _queued(1, 2, 3)
        shipped = []

        async def send(request_id, opcode, payload):
            assert (request_id, opcode) == (0, P.OP_CDC_EVENT)
            shipped.append(summary_from_wire(payload))
            if len(shipped) == 3:
                subscriber.close()  # the pump's exit signal
            return 1

        _run_pump(subscriber, send, _PumpHost())
        assert [summary.epoch for summary in shipped] == [1, 2, 3]
        assert [summary.changes["emp"] for summary in shipped] == [
            ("db:emp:1",), ("db:emp:2",), ("db:emp:3",)]

    def test_send_failure_closes_and_unregisters_the_subscriber(
            self, tmp_path):
        store = ObjectStore(tmp_path)
        router = ChangeRouter("db", store)
        try:
            subscriber = _queued(1)
            router.register(subscriber)
            errors = get_registry().counter("cdc.send_errors")
            before = errors.value

            async def send(_request_id, _opcode, _payload):
                raise ConnectionError("peer is gone")

            _run_pump(subscriber, send, _PumpHost(router))
            assert subscriber.closed
            assert router.subscriber_count == 0
            assert errors.value == before + 1
        finally:
            router.close()
            store.close()


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
                    assert not event.resync  # burst fits the queue
                    top_epoch = max(top_epoch, event.epoch)
                    seen_oids.update(event.oids())
                # Nothing skipped, nothing beyond.
                assert seen_oids == set(oids)
                assert top_epoch == final_epoch
        finally:
            reader.close()
            writer.close()
