"""ReplicationFeed: ring serving, log tail, resync orders, long poll."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ReplicationError
from repro.ode.codec import encode_object
from repro.ode.oid import Oid
from repro.ode.store import ObjectStore
from repro.ode.wal import OP_BEGIN, OP_COMMIT, OP_PUT, WalRecord
from repro.repl import feed as feed_module
from repro.repl.feed import (
    MAX_WAIT_SECONDS, ReplicationFeed, units_from_wire, units_to_wire)


def _put(store: ObjectStore, index: int) -> Oid:
    oid = Oid("db", "emp", index)
    store.put(oid, encode_object(oid, "Rec", {"n": index}))
    return oid


def test_wire_round_trip():
    units = [
        (3, [WalRecord(op=OP_BEGIN, txid=9, epoch=0),
             WalRecord(op=OP_PUT, txid=9, oid="db:emp:1",
                       payload=b"\x00\xffbytes", epoch=0),
             WalRecord(op=OP_COMMIT, txid=9, epoch=3)]),
    ]
    assert units_from_wire(units_to_wire(units)) == units


@pytest.mark.parametrize("wire", [
    [[3, [["put", 9, "db:emp:1", b"x", 0]]]],   # pre-term 5-element frame
    [[3, [["put", 9]]]],                          # short frame
    [[3, [None]]],                                # frame of no shape at all
    [[3]],                                        # unit without frames
    [["3", []]],                                  # epoch that is not a number
])
def test_malformed_unit_is_a_replication_error(wire):
    with pytest.raises(ReplicationError, match="malformed replication unit #0"):
        units_from_wire(wire)


def test_ring_serves_incremental_fetches(tmp_path):
    store = ObjectStore(tmp_path)
    feed = ReplicationFeed(store)
    for index in range(3):
        _put(store, index)
    try:
        reply = feed.fetch(0)
        assert not reply["resync"]
        assert reply["epoch"] == store.epoch == 3
        assert [epoch for epoch, _f in units_from_wire(reply["units"])] \
            == [1, 2, 3]

        reply = feed.fetch(2)
        assert [epoch for epoch, _f in units_from_wire(reply["units"])] == [3]

        caught_up = feed.fetch(3)
        assert caught_up["units"] == [] and not caught_up["resync"]
    finally:
        store.close()


def test_max_units_bounds_a_batch(tmp_path):
    store = ObjectStore(tmp_path)
    feed = ReplicationFeed(store)
    for index in range(5):
        _put(store, index)
    try:
        reply = feed.fetch(0, max_units=2)
        assert [epoch for epoch, _f in units_from_wire(reply["units"])] \
            == [1, 2]
    finally:
        store.close()


def test_long_poll_wakes_on_commit(tmp_path):
    """The loop's long poll: register a waiter, fetch, park, refetch."""
    store = ObjectStore(tmp_path)
    feed = ReplicationFeed(store)
    wake = threading.Event()
    notify = wake.set
    feed.add_waiter(notify)
    replies = []
    try:
        def poll():
            if not feed.fetch(0)["units"]:
                wake.wait(MAX_WAIT_SECONDS)
            replies.append(feed.fetch(0))

        poller = threading.Thread(target=poll)
        poller.start()
        _put(store, 0)
        poller.join(timeout=5.0)
        assert not poller.is_alive(), "long poll never woke"
        assert wake.is_set(), "the commit fired no waiter"
        assert [epoch for epoch, _f in units_from_wire(replies[0]["units"])] \
            == [1]
    finally:
        feed.remove_waiter(notify)
        store.close()


def test_eviction_falls_back_to_the_log(tmp_path, monkeypatch):
    monkeypatch.setattr(feed_module, "RING_CAPACITY", 2)
    store = ObjectStore(tmp_path)
    feed = ReplicationFeed(store)
    for index in range(4):
        _put(store, index)
    try:
        assert feed.floor == 2  # epochs 1 and 2 were evicted
        # The ring cannot reach back to 0, but the WAL still can: the
        # store was born at epoch 0 and has not checkpointed since.
        reply = feed.fetch(0)
        assert not reply["resync"]
        assert [epoch for epoch, _f in units_from_wire(reply["units"])] \
            == [1, 2, 3, 4]
        assert feed.stats()["log_reads"] >= 1
    finally:
        store.close()


def test_checkpoint_gap_orders_a_resync(tmp_path):
    store = ObjectStore(tmp_path)
    for index in range(3):
        _put(store, index)
    store.close()
    # Reopening checkpoints the WAL at epoch 3: the log can no longer
    # bridge a fetcher sitting at 0, and the feed must say so rather
    # than silently skip epochs.
    store = ObjectStore(tmp_path)
    feed = ReplicationFeed(store)
    try:
        reply = feed.fetch(0)
        assert reply["resync"] and reply["units"] == []
        assert reply["epoch"] == 3
        # A fetcher already at the checkpointed epoch streams normally.
        current = feed.fetch(3)
        assert not current["resync"] and current["units"] == []
    finally:
        store.close()
