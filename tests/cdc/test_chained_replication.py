"""Chained replication with CDC from the tail.

Satellite to the CDC tentpole: a primary → replica → replica chain.
Commits on the primary propagate hop by hop (each replica's change log
is filled by its *applied* units, so the middle node is a valid
upstream), and a browser subscribed to the TAIL replica still gets push
events — its cursor reads units ``apply_replicated`` appended, not the
group-commit barrier's.
"""

from __future__ import annotations

import time

import pytest

from repro.net.remote import RemoteDatabase
from repro.net.server import OdeServer


def _wait_until(predicate, timeout: float = 15.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition never became true")


@pytest.fixture
def middle_server(served_lab, tmp_path):
    server = OdeServer(tmp_path / "middle-root",
                       replica_of=("127.0.0.1", served_lab.port))
    server.start()
    yield server
    server.shutdown()


@pytest.fixture
def tail_server(middle_server, tmp_path):
    """Second hop: a replica whose primary is itself a replica."""
    server = OdeServer(tmp_path / "tail-root",
                       replica_of=("127.0.0.1", middle_server.port))
    server.start()
    yield server
    server.shutdown()


def test_commits_converge_down_the_chain(served_lab, middle_server,
                                         tail_server, writer_lab):
    oid = writer_lab.objects.new_object(
        "employee", {"name": "chained", "id": 991, "salary": 1.0})
    target = served_lab.hosted("lab").database.store.epoch
    _wait_until(lambda: middle_server.applier("lab").applied_epoch >= target)
    _wait_until(lambda: tail_server.applier("lab").applied_epoch >= target)
    remote = RemoteDatabase.connect("127.0.0.1", tail_server.port, "lab")
    try:
        assert remote.objects.get_buffer(oid).value("name") == "chained"
        assert remote.objects.count("employee") == 56
    finally:
        remote.close()


def test_tail_replica_pushes_cdc_for_primary_commits(served_lab,
                                                     middle_server,
                                                     tail_server,
                                                     writer_lab):
    """The whole tentpole across two hops: write at the head, receive a
    push event from a subscription on the tail."""
    browser = RemoteDatabase.connect("127.0.0.1", tail_server.port, "lab")
    try:
        with browser.subscribe(clusters=["employee"]) as sub:
            oid = writer_lab.objects.cluster("employee").first()
            buffer = writer_lab.objects.get_buffer(oid)
            writer_lab.objects.update(oid, {"name": buffer.value("name")})
            deadline = time.monotonic() + 15.0
            got = None
            while got is None and time.monotonic() < deadline:
                event = sub.get(timeout=0.5)
                if event is not None and (event.resync
                                          or str(oid) in event.oids()):
                    got = event
            assert got is not None
            if not got.resync:
                assert set(got.changes) == {"employee"}
            # the event's epoch is the tail's applied epoch for that
            # commit — the chain preserved epoch identity end to end
            assert got.epoch >= served_lab.hosted(
                "lab").database.store.epoch - 1
    finally:
        browser.close()


def test_tail_watch_keeps_a_cache_fresh_across_hops(served_lab,
                                                    middle_server,
                                                    tail_server,
                                                    writer_lab):
    target_name = "two-hops-fresh"
    browser = RemoteDatabase.connect("127.0.0.1", tail_server.port, "lab")
    try:
        oid = browser.objects.cluster("employee").first()
        browser.objects.scan("employee")  # warm
        with browser.objects.watch(clusters=["employee"]):
            writer_lab.objects.update(oid, {"name": target_name})
            target = served_lab.hosted("lab").database.store.epoch
            _wait_until(
                lambda: (browser.objects.cache.cdc_epoch or 0) >= target)
            assert browser.objects.get_buffer(oid).value(
                "name") == target_name
    finally:
        browser.close()


def test_middle_pause_stalls_tail_events_then_delivers(served_lab,
                                                       middle_server,
                                                       tail_server,
                                                       writer_lab):
    """CDC at the tail is exactly as fresh as replication: pausing the
    middle applier holds events back; resuming releases them."""
    browser = RemoteDatabase.connect("127.0.0.1", tail_server.port, "lab")
    try:
        with browser.subscribe() as sub:
            middle_server.applier("lab").pause()
            oid = writer_lab.objects.cluster("employee").first()
            buffer = writer_lab.objects.get_buffer(oid)
            writer_lab.objects.update(oid, {"name": buffer.value("name")})
            assert sub.get(timeout=1.0) is None  # stalled behind the pause
            middle_server.applier("lab").resume()
            event = sub.get(timeout=15.0)
            assert event is not None
            assert event.resync or str(oid) in event.oids()
    finally:
        browser.close()
