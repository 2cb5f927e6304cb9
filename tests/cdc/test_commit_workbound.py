"""Work bound of a commit under change-log readers, on counts — no clock.

However many CDC subscriptions and parked replica long-polls read a
database, one commit appends one unit and posts exactly one wakeup to
the server's event loop, and the unit is summarized at most once — by
whichever pump reads it first, on the loop.  Everything else a reader
does happens on the loop, after the commit has returned.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cdc import summary as summary_module
from repro.net import protocol as P
from repro.net.client import OdeClient
from repro.obs import get_registry

#: Replica long-polls parked on the database while the commit lands.
POLLERS = 8


class _Counting:
    """Wraps a callable and counts calls made while armed."""

    def __init__(self, inner):
        self.inner = inner
        self.armed = False
        self.calls = 0

    def __call__(self, *args, **kwargs):
        if self.armed:
            self.calls += 1
        return self.inner(*args, **kwargs)


@pytest.mark.parametrize("subscriptions", [1, 256])
def test_one_commit_one_wakeup_one_summary(served_lab, monkeypatch,
                                           subscriptions):
    database = served_lab.hosted("lab").database
    fetches = get_registry().counter("net.server.requests.repl_fetch")
    subscriber = OdeClient("127.0.0.1", served_lab.port).connect()
    pollers = [OdeClient("127.0.0.1", served_lab.port)
               for _ in range(POLLERS)]
    replies = []
    threads = []
    try:
        # One client may hold many subscriptions.
        subs = [subscriber.subscribe("lab") for _ in range(subscriptions)]
        epoch = database.store.epoch
        before = fetches.value
        for client in pollers:
            thread = threading.Thread(target=lambda c=client: replies.append(
                c.call(P.OP_REPL_FETCH, {"db": "lab", "after": epoch,
                                         "wait_ms": 2000})), daemon=True)
            thread.start()
            threads.append(thread)
        deadline = time.monotonic() + 5.0
        while fetches.value < before + POLLERS:
            assert time.monotonic() < deadline, "pollers never arrived"
            time.sleep(0.01)
        time.sleep(0.3)  # let every poll and pump park

        loop = served_lab._loop
        wakeups = _Counting(loop.call_soon_threadsafe)
        summaries = _Counting(summary_module.summarize_unit)
        monkeypatch.setattr(loop, "call_soon_threadsafe", wakeups)
        monkeypatch.setattr(summary_module, "summarize_unit", summaries)
        objects = database.objects
        wakeups.armed = summaries.armed = True
        objects.update(objects.cluster("employee").first(), {"name": "one"})
        wakeups.armed = False

        for sub in subs:
            event = sub.get(timeout=5.0)
            assert event is not None and event.epoch == epoch + 1
        for thread in threads:
            thread.join(timeout=5.0)
        assert [[unit[0] for unit in reply["units"]]
                for reply in replies] == [[epoch + 1]] * POLLERS
        assert wakeups.calls == 1, (
            f"{wakeups.calls} cross-thread wakeups for one commit with "
            f"{subscriptions} subscriptions and {POLLERS} parked polls")
        assert summaries.calls <= 1
    finally:
        subscriber.close()
        for client in pollers:
            client.close()
