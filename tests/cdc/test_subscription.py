"""Subscription: the client-side bounded queue and its degradation."""

from __future__ import annotations

from repro.cdc import ChangeEvent, Subscription
from repro.cdc import subscription as subscription_module


class _StubClient:
    def __init__(self):
        self.unsubscribed = []

    def _unsubscribe(self, subscription):
        self.unsubscribed.append(subscription.sub_id)


def _event(epoch, oid=None, **kwargs):
    changes = {"employee": (oid or f"lab:employee:{epoch}",)}
    if kwargs.get("resync") or kwargs.get("lost"):
        changes = {}
    return ChangeEvent(db="lab", epoch=epoch, changes=changes, **kwargs)


def test_deliver_get_round_trip():
    sub = Subscription(_StubClient(), 1, "lab", epoch=10)
    sub.deliver(_event(11))
    event = sub.get(timeout=0)
    assert event.epoch == 11 and event.oids() == ("lab:employee:11",)
    assert sub.epoch == 11
    assert sub.get(timeout=0) is None


def test_callback_sees_every_event():
    seen = []
    sub = Subscription(_StubClient(), 1, "lab", on_event=seen.append)
    sub.deliver(_event(1))
    sub.deliver(_event(2))
    assert [event.epoch for event in seen] == [1, 2]


def test_callback_errors_are_contained():
    def bad(_event):
        raise RuntimeError("display code is broken")

    sub = Subscription(_StubClient(), 1, "lab", on_event=bad)
    sub.deliver(_event(1))  # must not raise
    assert sub.get(timeout=0).epoch == 1


def test_local_overflow_coalesces_to_resync(monkeypatch):
    monkeypatch.setattr(subscription_module, "EVENT_CAPACITY", 2)
    sub = Subscription(_StubClient(), 1, "lab")
    for epoch in (1, 2, 3, 4):
        sub.deliver(_event(epoch))
    event = sub.get(timeout=0)
    assert event.resync and event.epoch == 4
    assert sub.get(timeout=0) is None
    assert sub.coalesced == 1


def test_lost_event_is_terminal():
    sub = Subscription(_StubClient(), 1, "lab")
    sub.deliver(_event(5))
    sub.connection_lost()
    assert sub.lost and not sub.alive
    assert sub.get(timeout=0).epoch == 5   # queued events still drain
    assert sub.get(timeout=0).lost
    assert sub.get(timeout=0) is None      # then the feed is dry


def test_close_unsubscribes_once():
    client = _StubClient()
    sub = Subscription(client, 7, "lab")
    sub.close()
    sub.close()
    assert client.unsubscribed == [7]
    assert not sub.alive


def test_context_manager_closes():
    client = _StubClient()
    with Subscription(client, 3, "lab") as sub:
        sub.deliver(_event(1))
    assert client.unsubscribed == [3]
