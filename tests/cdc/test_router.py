"""ChangeRouter / CdcSubscriber: bounded queues, coalescing, fan-out.

The backpressure contract under test: the commit path (``offer``) never
blocks and never errors, no matter how wedged a consumer is — a slow
subscriber degrades to one pending resync marker whose epoch keeps
advancing, and a dead one is just garbage, not backpressure.
"""

from __future__ import annotations

from repro.cdc import CdcSubscriber, ChangeRouter, ChangeSummary
from repro.cdc import router as router_module
from repro.ode.codec import encode_object
from repro.ode.oid import Oid
from repro.ode.store import ObjectStore


def _small_subscriber(monkeypatch, capacity):
    """A subscriber built while the fixed queue bound is shrunk."""
    monkeypatch.setattr(router_module, "QUEUE_CAPACITY", capacity)
    return CdcSubscriber(1, "lab")


def _summary(epoch, cluster="employee", oid=None):
    oid = oid or f"lab:{cluster}:{epoch}"
    return ChangeSummary(epoch=epoch, changes={cluster: (oid,)})


class TestSubscriberQueue:
    def test_offer_drain_round_trip(self):
        sub = CdcSubscriber(1, "lab")
        assert sub.offer(_summary(5))
        assert sub.drain() == [_summary(5)]
        assert sub.drain() == []

    def test_cluster_filter_drops_unwanted_summaries(self):
        sub = CdcSubscriber(1, "lab", clusters=["department"])
        assert not sub.offer(_summary(5, cluster="employee"))
        assert sub.offer(_summary(6, cluster="department"))
        (taken,) = sub.drain()
        assert set(taken.changes) == {"department"}

    def test_overflow_coalesces_into_one_resync(self, monkeypatch):
        sub = _small_subscriber(monkeypatch, 2)
        for epoch in (1, 2, 3, 4, 5):
            assert sub.offer(_summary(epoch))
        # capacity 2: epochs 1-2 queued, 3 overflowed (clearing them),
        # 4-5 folded into the marker.  One event, newest epoch, resync.
        (event,) = sub.drain()
        assert event.resync and event.epoch == 5
        assert sub.drain() == []
        assert sub.coalesced == 1

    def test_marker_outranks_queued_summaries(self, monkeypatch):
        sub = _small_subscriber(monkeypatch, 1)
        sub.offer(_summary(1))
        sub.offer(_summary(2))   # overflow: clears, marker at 2
        sub.offer(_summary(3))   # folds into marker
        (event,) = sub.drain()
        assert event.resync and event.epoch == 3

    def test_closed_subscriber_refuses_offers(self):
        sub = CdcSubscriber(1, "lab")
        sub.close()
        assert not sub.offer(_summary(1))
        assert sub.drain() == []

    def test_backlog_counts_queue_plus_marker(self, monkeypatch):
        sub = _small_subscriber(monkeypatch, 1)
        assert sub.backlog == 0
        sub.offer(_summary(1))
        assert sub.backlog == 1
        sub.offer(_summary(2))
        assert sub.backlog == 1  # collapsed to the marker


class TestRouter:
    def test_commits_fan_out_to_every_subscriber(self, tmp_path):
        store = ObjectStore(tmp_path)
        router = ChangeRouter("db", store)
        try:
            first = CdcSubscriber(1, "db")
            second = CdcSubscriber(2, "db")
            router.register(first)
            router.register(second)
            oid = Oid("db", "emp", 1)
            store.put(oid, encode_object(oid, "Rec", {"n": 1}))
            for sub in (first, second):
                (event,) = sub.drain()
                assert event.changes == {"emp": ("db:emp:1",)}
        finally:
            router.close()
            store.close()

    def test_session_local_sub_ids_do_not_collide(self, tmp_path):
        """Two sessions both hand the shared router a subscriber with
        sub_id 1; the router must treat them as distinct."""
        store = ObjectStore(tmp_path)
        router = ChangeRouter("db", store)
        try:
            first = CdcSubscriber(1, "db")
            second = CdcSubscriber(1, "db")
            router.register(first)
            router.register(second)
            assert router.subscriber_count == 2
            router.unregister(first)
            assert router.subscriber_count == 1
            assert second.drain() == [] and not second.closed
        finally:
            router.close()
            store.close()

    def test_no_subscribers_means_no_summarize_work(self, tmp_path):
        store = ObjectStore(tmp_path)
        router = ChangeRouter("db", store)
        try:
            before = router.stats()["events"]
            oid = Oid("db", "emp", 2)
            store.put(oid, encode_object(oid, "Rec", {"n": 2}))
            assert router.stats()["events"] == before
        finally:
            router.close()
            store.close()

    def test_close_detaches_from_the_store(self, tmp_path):
        store = ObjectStore(tmp_path)
        router = ChangeRouter("db", store)
        sub = CdcSubscriber(1, "db")
        router.register(sub)
        router.close()
        try:
            assert sub.closed
            oid = Oid("db", "emp", 3)
            store.put(oid, encode_object(oid, "Rec", {"n": 3}))
            assert sub.drain() == []
        finally:
            store.close()
