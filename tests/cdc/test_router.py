"""A subscription's server-side state: a ChangeCursor over the change log.

What replaced the per-subscriber queues and their router: every
subscriber reads the store's one change log through an
``(after_epoch, clusters)`` cursor.  The contract under test: the
commit path only appends, however many subscribers there are and
however wedged; each unit is summarized once and shared; a cursor the
log's floor overtakes degrades to one resync marker at the newest
epoch, never a pile and never a silent gap.
"""

from __future__ import annotations

import time

from repro.cdc import ChangeCursor
from repro.net.client import OdeClient
from repro.obs import get_registry
from repro.ode import changelog as changelog_module
from repro.ode.codec import encode_object
from repro.ode.oid import Oid
from repro.ode.store import ObjectStore


def _put(store: ObjectStore, number: int, cluster: str = "employee") -> None:
    oid = Oid("lab", cluster, number)
    store.put(oid, encode_object(oid, "Rec", {"n": number}))


def _shrink_log(store: ObjectStore, monkeypatch, units: int) -> None:
    """Bound the log to *units* one-put units' worth of WAL bytes."""
    _put(store, 0)
    monkeypatch.setattr(changelog_module, "WAL_CHECKPOINT_BYTES",
                        units * store.change_log.nbytes)


class TestSubscriberQueue:
    def test_offer_drain_round_trip(self, tmp_path):
        store = ObjectStore(tmp_path)
        try:
            cursor = ChangeCursor(store.epoch)
            _put(store, 5)
            (summary,) = cursor.read(store.change_log)
            assert summary.epoch == store.epoch
            assert summary.changes == {"employee": ("lab:employee:5",)}
            assert cursor.after == store.epoch
            assert cursor.read(store.change_log) == []
        finally:
            store.close()

    def test_cluster_filter_drops_unwanted_summaries(self, tmp_path):
        store = ObjectStore(tmp_path)
        try:
            cursor = ChangeCursor(store.epoch, clusters=["department"])
            _put(store, 5, cluster="employee")
            _put(store, 6, cluster="department")
            (taken,) = cursor.read(store.change_log)
            assert set(taken.changes) == {"department"}
            assert cursor.after == store.epoch  # advanced past both
        finally:
            store.close()

    def test_overflow_coalesces_into_one_resync(self, tmp_path, monkeypatch):
        store = ObjectStore(tmp_path)
        coalesced = get_registry().counter("cdc.coalesced")
        try:
            _shrink_log(store, monkeypatch, 2)
            cursor = ChangeCursor(store.epoch)
            for number in range(1, 6):
                _put(store, number)
            # The floor passed the cursor: one event, newest epoch, resync.
            before = coalesced.value
            (event,) = cursor.read(store.change_log)
            assert event.resync and event.epoch == store.epoch
            assert cursor.read(store.change_log) == []
            assert coalesced.value == before + 1
        finally:
            store.close()

    def test_marker_outranks_queued_summaries(self, tmp_path, monkeypatch):
        """Units the log still holds past an overtaken cursor are not
        shipped behind its marker: the marker is the whole batch, and
        streaming resumes from its epoch."""
        store = ObjectStore(tmp_path)
        try:
            _shrink_log(store, monkeypatch, 2)
            cursor = ChangeCursor(store.epoch)
            for number in range(1, 4):
                _put(store, number)
            assert len(store.change_log) == 2  # units still held
            (event,) = cursor.read(store.change_log)
            assert event.resync and event.epoch == store.epoch
            _put(store, 9)
            (after,) = cursor.read(store.change_log)
            assert not after.resync and after.epoch == store.epoch
        finally:
            store.close()


class TestRouter:
    def test_commits_fan_out_to_every_subscriber(self, tmp_path):
        store = ObjectStore(tmp_path)
        try:
            first = ChangeCursor(store.epoch)
            second = ChangeCursor(store.epoch)
            _put(store, 1)
            (one,) = first.read(store.change_log)
            (two,) = second.read(store.change_log)
            assert one.changes == {"employee": ("lab:employee:1",)}
            assert one is two  # summarized once, shared
        finally:
            store.close()

    def test_session_local_sub_ids_do_not_collide(self, served_lab):
        """Two sessions both hold a subscription with sub id 1; the
        server counts and serves them as distinct."""
        first = OdeClient("127.0.0.1", served_lab.port).connect()
        second = OdeClient("127.0.0.1", served_lab.port).connect()
        try:
            sub_one = first.subscribe("lab")
            sub_two = second.subscribe("lab")
            assert sub_one.sub_id == sub_two.sub_id == 1
            hosted = served_lab.hosted("lab")
            assert hosted.subscribers == 2
            sub_one.close()
            deadline = time.monotonic() + 5.0
            while hosted.subscribers != 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            objects = hosted.database.objects
            objects.update(objects.cluster("employee").first(), {})
            assert sub_two.get(timeout=5.0) is not None
        finally:
            first.close()
            second.close()

    def test_no_subscribers_means_no_summarize_work(self, tmp_path):
        store = ObjectStore(tmp_path)
        events = get_registry().counter("cdc.events")
        try:
            before = events.value
            _put(store, 2)
            assert events.value == before
            (entry,) = store.change_log.read(0)
            assert entry.summary is None
        finally:
            store.close()
