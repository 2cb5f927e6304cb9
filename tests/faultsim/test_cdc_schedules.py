"""Subscriber-fate schedules against the CDC fan-out path.

The contract under torture: the commit path never blocks on a
subscriber, whatever its fate.  A seeded schedule assigns each of a
fleet of subscribers one fate — killed mid-stream (socket closed with
no goodbye), wedged (a cursor over the change log that never advances,
overtaken by the log's floor — a tiny log bound makes it move), cleanly
unsubscribed mid-stream, or healthy — while a writer commits
continuously.  Afterwards:

* every commit completed within a hard latency bound (the writer never
  waited on any subscriber's queue, socket, or corpse);
* every *healthy* subscriber converged: it can account for the final
  epoch via deltas or a resync marker;
* the server reaped every killed and unsubscribed subscriber, and a
  wedged cursor degrades to exactly one resync marker at the newest
  epoch.

Reproduce a failure with the seed in its message (``FAULTSIM_SEED``
selects an extra one).
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.cdc import ChangeCursor
from repro.data.labdb import make_lab_database
from repro.net.client import OdeClient
from repro.net.remote import RemoteDatabase
from repro.net.server import OdeServer
from repro.ode import changelog as changelog_module

DEFAULT_SEEDS = [0, 1]
FLEET = 8
COMMITS = 30
#: One autocommit round trip is ~2ms on loopback; a commit that takes a
#: second waited on *something* — and the only new thing in its path is
#: the fan-out, which must be non-blocking.
COMMIT_BOUND_SECONDS = 2.0
#: The change log's bound in these schedules: a few commits' worth of
#: WAL bytes, so its floor overtakes a wedged cursor within a burst.
TINY_LOG_BYTES = 2048


def _seeds():
    seeds = list(DEFAULT_SEEDS)
    extra = os.environ.get("FAULTSIM_SEED")
    if extra is not None and int(extra) not in seeds:
        seeds.append(int(extra))
    return seeds


def _wedged_cursor(server, monkeypatch) -> ChangeCursor:
    """A cursor nothing ever advances, over a log whose bound is shrunk
    so its floor overtakes the cursor."""
    monkeypatch.setattr(changelog_module, "WAL_CHECKPOINT_BYTES", TINY_LOG_BYTES)
    return ChangeCursor(server.hosted("lab").database.store.epoch)


def _wait_until(predicate, timeout: float = 15.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition never became true")


@pytest.fixture
def served_lab(tmp_path):
    make_lab_database(tmp_path).close()
    server = OdeServer(tmp_path)
    server.start()
    yield server
    server.shutdown()


@pytest.mark.parametrize("seed", _seeds())
def test_subscriber_fates_never_block_commits(served_lab, seed, monkeypatch):
    rng = random.Random(seed)
    fates = [rng.choice(["healthy", "killed", "wedged", "unsubscribed"])
             for _ in range(FLEET)]
    if "healthy" not in fates:  # always at least one survivor to verify
        fates[rng.randrange(FLEET)] = "healthy"

    healthy = []      # (database, subscription)
    killed = []       # raw clients whose sockets we will close
    wedged = []       # cursors over the change log nobody ever advances
    unsubscribed = [] # (database, subscription) to close mid-stream
    for fate in fates:
        if fate in ("healthy", "unsubscribed"):
            database = RemoteDatabase.connect(
                "127.0.0.1", served_lab.port, "lab")
            subscription = database.subscribe()
            (healthy if fate == "healthy" else unsubscribed).append(
                (database, subscription))
        elif fate == "killed":
            client = OdeClient("127.0.0.1", served_lab.port).connect()
            client.subscribe("lab")
            killed.append(client)
        else:
            # The worst slow consumer: a cursor nothing ever advances (a
            # pump stuck in a dead-peer send looks exactly like this to
            # the log).  A tiny log so the floor-to-marker degradation
            # must fire.
            wedged.append(_wedged_cursor(served_lab, monkeypatch))

    writer = RemoteDatabase.connect("127.0.0.1", served_lab.port, "lab")
    try:
        oid = writer.objects.cluster("employee").first()
        kill_at = rng.randrange(1, COMMITS)
        unsub_at = rng.randrange(1, COMMITS)
        worst = 0.0
        for index in range(COMMITS):
            if index == kill_at:
                for client in killed:
                    client._sock.close()  # mid-stream death, no goodbye
            if index == unsub_at:
                for _database, subscription in unsubscribed:
                    subscription.close()
            started = time.monotonic()
            writer.objects.update(oid, {"name": f"s{seed}-c{index}"})
            worst = max(worst, time.monotonic() - started)
        assert worst < COMMIT_BOUND_SECONDS, (
            f"seed={seed} fates={fates}: a commit took {worst:.2f}s — "
            f"the fan-out blocked the commit path")

        tip = served_lab.hosted("lab").database.store.epoch
        for _database, subscription in healthy:
            # convergence: deltas (possibly coalesced to a resync
            # marker) account for every epoch through the tip
            _wait_until(lambda: subscription.epoch >= tip)
            events = []
            while True:
                event = subscription.get(timeout=0)
                if event is None:
                    break
                events.append(event)
            assert events, f"seed={seed}: a healthy subscriber saw nothing"
            assert max(e.epoch for e in events) >= tip

        # the server reaped the killed (their sessions died) and the
        # unsubscribed; wedged cursors live outside it, in this test
        expected = len(healthy)
        _wait_until(lambda: served_lab.hosted("lab").subscribers == expected)
        log = served_lab.hosted("lab").database.store.change_log
        # a tiny bound against ~30 commits: the log holds a few units,
        # never the backlog a wedged reader left behind
        assert log.nbytes <= TINY_LOG_BYTES
        for cursor in wedged:
            # the floor overtook the cursor: one resync marker at the
            # newest epoch stands for every unit it missed
            assert log.floor > cursor.after
            events = []
            while batch := cursor.read(log):
                events.extend(batch)
            markers = [event for event in events if event.resync]
            assert len(markers) == 1 and markers[0].epoch >= tip
    finally:
        writer.close()
        for database, _subscription in healthy + unsubscribed:
            database.close()
        for client in killed:
            try:
                client.close()
            except Exception:
                pass


def test_overflow_marker_is_single_and_newest(served_lab, monkeypatch):
    """A never-advanced cursor degrades to exactly one resync at the
    newest epoch, however large the burst."""
    cursor = _wedged_cursor(served_lab, monkeypatch)
    writer = RemoteDatabase.connect("127.0.0.1", served_lab.port, "lab")
    try:
        oid = writer.objects.cluster("employee").first()
        for index in range(10):
            writer.objects.update(oid, {"name": f"burst-{index}"})
        tip = served_lab.hosted("lab").database.store.epoch
        log = served_lab.hosted("lab").database.store.change_log
        _wait_until(lambda: log.floor > cursor.after)
        # the log holds a bounded tail no matter the burst
        assert log.nbytes <= TINY_LOG_BYTES
        events = []
        while batch := cursor.read(log):
            events.extend(batch)
        resyncs = [event for event in events if event.resync]
        assert len(resyncs) == 1           # one marker, not a pile
        assert resyncs[-1].epoch == tip    # folded through the newest
    finally:
        writer.close()
