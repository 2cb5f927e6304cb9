"""ReplicationFeed long poll: no missed-wakeup window, deterministically.

The long poll is the event loop's
(:meth:`repro.net.aserver._AsyncConnection._repl_fetch`): register a
waiter, fetch, park on the waiter if the fetch came back empty, fetch
again.  ``_LongPoll`` runs that protocol on a thread and reports when it
has parked, so a commit can be *held* until the poller is provably
parked — the exact interleaving a missed-wakeup bug would need.  The
commit landing between the empty fetch and the park is pinned on the
wire in ``tests/net/test_async_server.py::TestReplicationLongPoll``.
"""

from __future__ import annotations

import threading
import time

from repro.ode.codec import encode_object
from repro.ode.oid import Oid
from repro.ode.store import ObjectStore
from repro.repl.feed import MAX_WAIT_SECONDS, ReplicationFeed, units_from_wire


def _put(store: ObjectStore, index: int) -> Oid:
    oid = Oid("db", "emp", index)
    store.put(oid, encode_object(oid, "Rec", {"n": index}))
    return oid


class _LongPoll:
    """The loop's long-poll protocol on a thread, with a park signal."""

    def __init__(self, feed: ReplicationFeed):
        self._feed = feed
        self._wake = threading.Event()
        self.parked = threading.Event()

    def __call__(self, after_epoch: int):
        notify = self._wake.set
        self._feed.add_waiter(notify)
        try:
            reply = self._feed.fetch(after_epoch)
            if reply["units"]:
                return reply
            self.parked.set()
            self._wake.wait(MAX_WAIT_SECONDS)
        finally:
            self._feed.remove_waiter(notify)
        return self._feed.fetch(after_epoch)


def test_commit_wakes_a_parked_long_poll(tmp_path):
    store = ObjectStore(tmp_path)
    feed = ReplicationFeed(store)
    poll = _LongPoll(feed)
    result = {}
    try:
        tail = store.epoch

        def fetch():
            started = time.monotonic()
            result["reply"] = poll(tail)
            result["elapsed"] = time.monotonic() - started

        fetcher = threading.Thread(target=fetch, daemon=True)
        fetcher.start()
        # Only commit once the fetcher is provably parked: the window a
        # missed-wakeup bug would need is now wide open.
        assert poll.parked.wait(5.0)
        _put(store, 1)
        fetcher.join(timeout=5.0)
        assert not fetcher.is_alive()
        reply = result["reply"]
        assert not reply["resync"]
        epochs = [epoch for epoch, _f in units_from_wire(reply["units"])]
        assert epochs == [tail + 1]
        # woken by the waiter, not the timeout
        assert result["elapsed"] < MAX_WAIT_SECONDS
    finally:
        store.close()


def test_commit_before_the_check_returns_without_parking(tmp_path):
    store = ObjectStore(tmp_path)
    feed = ReplicationFeed(store)
    poll = _LongPoll(feed)
    try:
        tail = store.epoch
        _put(store, 1)  # lands before the poll even registers
        reply = poll(tail)
        epochs = [epoch for epoch, _f in units_from_wire(reply["units"])]
        assert epochs == [tail + 1]
        assert not poll.parked.is_set()  # the other arm: no wait at all
    finally:
        store.close()


def test_every_parked_waiter_wakes_on_one_commit(tmp_path):
    """N concurrent long-pollers all see the same commit."""
    store = ObjectStore(tmp_path)
    feed = ReplicationFeed(store)
    polls = [_LongPoll(feed) for _ in range(4)]
    replies = []
    replies_lock = threading.Lock()
    try:
        tail = store.epoch

        def fetch(poll):
            started = time.monotonic()
            reply = poll(tail)
            with replies_lock:
                replies.append((reply, time.monotonic() - started))

        fetchers = [threading.Thread(target=fetch, args=(poll,), daemon=True)
                    for poll in polls]
        for fetcher in fetchers:
            fetcher.start()
        for poll in polls:
            assert poll.parked.wait(5.0)
        _put(store, 1)
        for fetcher in fetchers:
            fetcher.join(timeout=5.0)
            assert not fetcher.is_alive()
        assert len(replies) == 4
        for reply, elapsed in replies:
            epochs = [epoch for epoch, _f in units_from_wire(reply["units"])]
            assert epochs == [tail + 1]
            assert elapsed < MAX_WAIT_SECONDS  # woken, not timed out
    finally:
        store.close()
