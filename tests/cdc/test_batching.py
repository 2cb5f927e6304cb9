"""Server-side CDC batching: merge_summaries and the flush-tick pump.

The soundness claim under test: batching may *coalesce* commits into
one frame but must never *skip* one — every changed object of every
epoch in a burst appears in some delivered event whose epoch is at
least that commit's, because a summary is an invalidation and the union
at the newest epoch subsumes its members.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.cdc import (
    CdcSubscriber,
    ChangeRouter,
    ChangeSummary,
    merge_summaries,
    summary_from_wire,
)
from repro.data.labdb import make_lab_database
from repro.net import protocol as P
from repro.net.aserver import _AsyncConnection, _AsyncSubscription
from repro.obs import get_registry
from repro.ode.store import ObjectStore
from repro.net.remote import RemoteDatabase
from repro.net.server import OdeServer


def _server_epoch(database: RemoteDatabase) -> int:
    return database.client.call(
        P.OP_COUNT, {"db": "lab", "class": "employee"})["epoch"]


def _wait_until(predicate, timeout: float = 10.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition never became true")


class TestMergeSummaries:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            merge_summaries([])

    def test_single_summary_passes_through(self):
        summary = ChangeSummary(epoch=4, changes={"emp": ("db:emp:1",)})
        assert merge_summaries([summary]) is summary

    def test_union_at_newest_epoch_preserving_first_touch(self):
        merged = merge_summaries([
            ChangeSummary(epoch=1, changes={"emp": ("db:emp:1", "db:emp:2")}),
            ChangeSummary(epoch=2, changes={"emp": ("db:emp:2", "db:emp:3"),
                                            "dept": ("db:dept:0",)}),
            ChangeSummary(epoch=3, changes={"emp": ("db:emp:1",)}),
        ])
        assert merged.epoch == 3
        assert not merged.resync
        assert merged.changes["emp"] == ("db:emp:1", "db:emp:2", "db:emp:3")
        assert merged.changes["dept"] == ("db:dept:0",)

    def test_resync_poisons_the_merge(self):
        merged = merge_summaries([
            ChangeSummary(epoch=5, changes={"emp": ("db:emp:1",)}),
            ChangeSummary(epoch=9, resync=True),
            ChangeSummary(epoch=7, changes={"emp": ("db:emp:2",)}),
        ])
        assert merged.epoch == 9
        assert merged.resync
        assert not merged.changes


class _PumpHost:
    """What the connection's pump needs of its server, and no more."""

    def __init__(self, router=None, flush_seconds=None):
        self.cdc_flush_seconds = flush_seconds
        self._router = router
        self._m_bytes_out = get_registry().counter("net.server.bytes_out")

    def router(self, _name):
        return self._router


def _run_pump(subscriber, send, host):
    """Run the server's loop-native pump over *subscriber* to its exit.

    The burst is queued before the pump starts, so the drain after the
    flush tick deterministically sees all of it.  ``send`` stands in
    for the connection's frame writer.
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
    """The two pump behaviours no end-to-end test pins down (one frame
    per commit with the tick off is ``test_push_e2e``'s ack-floor test)."""

    def test_burst_ships_as_one_merged_frame(self):
        subscriber = _queued(1, 2, 3)
        shipped = []

        async def send(request_id, opcode, payload):
            assert (request_id, opcode) == (0, P.OP_CDC_EVENT)
            shipped.append(summary_from_wire(payload))
            subscriber.close()  # the pump's exit signal
            return 1

        _run_pump(subscriber, send, _PumpHost(flush_seconds=0.05))
        assert len(shipped) == 1
        merged = shipped[0]
        assert merged.epoch == 3  # no epoch beyond the delivered one
        assert merged.changes["emp"] == ("db:emp:1", "db:emp:2", "db:emp:3")

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


@pytest.fixture
def batching_lab(tmp_path):
    """A served lab database with the CDC flush tick enabled."""
    make_lab_database(tmp_path).close()
    server = OdeServer(tmp_path, cdc_flush_seconds=0.05)
    server.start()
    yield server
    server.shutdown()


class TestEndToEndNoEpochSkipped:
    def test_burst_of_commits_is_fully_covered(self, batching_lab):
        """Fire a write burst through the batching server and prove the
        subscriber learns about every commit: each touched object shows
        up, and the newest delivered epoch reaches the final commit."""
        reader = RemoteDatabase.connect("127.0.0.1", batching_lab.port, "lab")
        writer = RemoteDatabase.connect("127.0.0.1", batching_lab.port, "lab")
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
                # Coalesced or not: nothing skipped, nothing beyond.
                assert seen_oids == set(oids)
                assert top_epoch == final_epoch
        finally:
            reader.close()
            writer.close()

    def test_batch_metrics_account_for_merges(self, batching_lab):
        from repro.obs import get_registry

        registry = get_registry()
        events_before = registry.counter("cdc.batch.events_in").value
        frames_before = registry.counter("cdc.batch.frames_out").value
        reader = RemoteDatabase.connect("127.0.0.1", batching_lab.port, "lab")
        writer = RemoteDatabase.connect("127.0.0.1", batching_lab.port, "lab")
        try:
            with reader.subscribe() as sub:
                oid = writer.objects.cluster("employee").first()
                for _ in range(6):
                    buffer = writer.objects.get_buffer(oid)
                    writer.objects.update(
                        oid, {"name": buffer.value("name")})
                final_epoch = _server_epoch(writer)
                _wait_until(lambda: _drained(sub, final_epoch))
            events = registry.counter("cdc.batch.events_in").value \
                - events_before
            frames = registry.counter("cdc.batch.frames_out").value \
                - frames_before
            assert events >= 6  # every commit entered a batch
            assert 1 <= frames <= events  # batching never inflates frames
        finally:
            reader.close()
            writer.close()


def _drained(sub, final_epoch):
    event = sub.get(timeout=0.1)
    return event is not None and event.epoch >= final_epoch
