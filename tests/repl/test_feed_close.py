"""ReplicationFeed shutdown: parked long-polls and waiters release cleanly."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import NetworkError
from repro.ode.codec import encode_object
from repro.ode.oid import Oid
from repro.ode.store import ObjectStore
from repro.repl.feed import ReplicationFeed


def _put(store: ObjectStore, index: int) -> Oid:
    oid = Oid("db", "emp", index)
    store.put(oid, encode_object(oid, "Rec", {"n": index}))
    return oid


def test_close_unparks_a_long_poll_with_a_clean_error(tmp_path):
    store = ObjectStore(tmp_path)
    feed = ReplicationFeed(store)
    outcomes = []
    try:
        def poller():
            started = time.monotonic()
            wake = threading.Event()
            feed.add_waiter(wake.set)
            try:
                if not feed.fetch(store.epoch)["units"]:
                    wake.wait(2.0)
                feed.fetch(store.epoch)
                outcomes.append(("reply", time.monotonic() - started))
            except NetworkError:
                outcomes.append(("NetworkError", time.monotonic() - started))
            finally:
                feed.remove_waiter(wake.set)

        thread = threading.Thread(target=poller, daemon=True)
        thread.start()
        time.sleep(0.2)  # let the poll park on its waiter
        feed.close()
        thread.join(timeout=5.0)
        assert outcomes == [("NetworkError", pytest.approx(0.2, abs=1.0))]
        assert outcomes[0][1] < 1.5  # released by close, not by timeout
    finally:
        store.close()


def test_fetch_after_close_raises_immediately(tmp_path):
    store = ObjectStore(tmp_path)
    feed = ReplicationFeed(store)
    try:
        feed.close()
        with pytest.raises(NetworkError, match="closed"):
            feed.fetch(0)
    finally:
        store.close()


def test_close_detaches_from_the_store(tmp_path):
    store = ObjectStore(tmp_path)
    feed = ReplicationFeed(store)
    try:
        _put(store, 0)
        assert feed.stats()["buffered"] == 1
        feed.close()
        _put(store, 1)  # commits after close must not reach the ring
        assert feed.stats()["buffered"] == 1
    finally:
        store.close()


def test_waiters_fire_on_commit_and_on_close(tmp_path):
    store = ObjectStore(tmp_path)
    feed = ReplicationFeed(store)
    fired = []
    try:
        feed.add_waiter(lambda: fired.append("wake"))
        _put(store, 0)
        assert fired == ["wake"]
        feed.close()
        assert fired == ["wake", "wake"]
    finally:
        store.close()


def test_removed_waiter_stays_silent(tmp_path):
    store = ObjectStore(tmp_path)
    feed = ReplicationFeed(store)
    fired = []
    notify = lambda: fired.append("wake")  # noqa: E731
    try:
        feed.add_waiter(notify)
        feed.remove_waiter(notify)
        _put(store, 0)
        assert fired == []
    finally:
        feed.close()
        store.close()


def test_broken_waiter_never_stalls_a_commit(tmp_path):
    store = ObjectStore(tmp_path)
    feed = ReplicationFeed(store)
    try:
        def explode():
            raise RuntimeError("bad waiter")

        feed.add_waiter(explode)
        _put(store, 0)  # must not raise through the commit path
        assert feed.stats()["buffered"] == 1
    finally:
        feed.close()
        store.close()
