"""ChangeRouter: fan committed deltas out to push subscribers.

One router per hosted database.  It subscribes to the store's commit
stream (:meth:`~repro.ode.store.ObjectStore.subscribe_commits` — which
fires for local group commits *and* replicated applies, so a replica
routes CDC from its own applied feed), summarizes each unit once, and
offers the summary to every registered subscriber.

The contract that keeps "millions of browsers" from touching the write
path:

* :meth:`_on_commit` runs on the committer's thread under the store
  lock; it does O(subscribers) *enqueues* and nothing else — no socket
  I/O, no waiting.  A subscriber's pump task on the server's event
  loop does the actual frame writes.
* Every subscriber's queue is **bounded**.  When a slow consumer falls
  :data:`QUEUE_CAPACITY` summaries behind, the queue collapses into one
  pending *resync* marker ("delta detail lost; wholesale-invalidate from
  epoch E") instead of blocking the committer or growing without
  bound — and later commits keep folding into that marker until the
  consumer drains it.  Degradation is graceful and explicit, never a
  silent drop: the consumer always learns *that* it missed changes.
* A dead subscriber (send failed, connection closed) is unregistered;
  its queue is garbage, not backpressure.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs import get_registry
from repro.cdc.summary import ChangeSummary, summarize_unit

#: Summaries a subscriber may fall behind before its queue coalesces
#: into a single resync event.  Server-side and fixed: no client sizes
#: the memory the server holds for it.
QUEUE_CAPACITY = 128


class CdcSubscriber:
    """One connection's bounded, coalescing delta queue.

    ``offer`` is the commit-path side: filter, enqueue (or coalesce),
    notify — it never blocks and never raises.  ``drain`` is the pump
    side: everything pending, without blocking; the pump parks on the
    wakeup notifier between bursts.  The two meet only at this object's
    lock.
    """

    def __init__(self, sub_id: int, db_name: str,
                 clusters: Optional[Sequence[str]] = None):
        self.sub_id = sub_id
        self.db_name = db_name
        self.clusters = frozenset(clusters) if clusters is not None else None
        self.capacity = QUEUE_CAPACITY
        self._lock = threading.Lock()
        self._queue: deque = deque()
        self._resync_from: Optional[int] = None
        self._closed = False
        self._notify_cb: Optional[Callable[[], None]] = None
        self.delivered = 0
        self.coalesced = 0

    def set_notifier(self, notify: Optional[Callable[[], None]]) -> None:
        """Register a wakeup callback fired after every enqueue and on
        close.

        This is how the server's pump parks without a thread: the
        callback (``loop.call_soon_threadsafe`` setting an event) runs
        on the committer's thread, so it must be cheap and must not
        raise — exceptions are swallowed, a lost wakeup is not.
        """
        with self._lock:
            self._notify_cb = notify

    def _fire_notifier(self) -> None:
        cb = self._notify_cb
        if cb is not None:
            try:
                cb()
            except Exception:
                get_registry().counter("cdc.notify_errors").inc()

    # -- commit path -------------------------------------------------------------

    def offer(self, summary: ChangeSummary) -> bool:
        """Enqueue one summary; returns False if filtered out or closed.

        Overflow policy: the queue never exceeds ``capacity``.  The
        summary that would overflow it replaces the whole backlog with
        one resync marker at its epoch; while the marker is pending,
        further summaries just advance the marker's epoch (the consumer
        is told the *newest* state it must catch up to).
        """
        narrowed = summary.restrict(self.clusters)
        if not narrowed.resync and not narrowed.changes:
            return False
        with self._lock:
            if self._closed:
                return False
            if self._resync_from is not None or narrowed.resync:
                self._resync_from = max(self._resync_from or 0,
                                        narrowed.epoch)
                self._queue.clear()
            elif len(self._queue) >= self.capacity:
                self._queue.clear()
                self._resync_from = narrowed.epoch
                self.coalesced += 1
            else:
                self._queue.append(narrowed)
        self._fire_notifier()
        return True

    # -- pump path ---------------------------------------------------------------

    def drain(self) -> List[ChangeSummary]:
        """Everything pending right now, without blocking.

        A pending resync marker outranks the queue — the consumer's
        first sight of the backlog gap is the instruction to heal it;
        the queue behind it was already cleared when the marker formed,
        so the marker is the whole batch.
        """
        with self._lock:
            if self._resync_from is not None:
                epoch = self._resync_from
                self._resync_from = None
                self.delivered += 1
                return [ChangeSummary(epoch=epoch, resync=True)]
            batch = list(self._queue)
            self._queue.clear()
            self.delivered += len(batch)
            return batch

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._queue.clear()
            self._resync_from = None
        self._fire_notifier()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def backlog(self) -> int:
        with self._lock:
            return len(self._queue) + (1 if self._resync_from is not None
                                       else 0)


class ChangeRouter:
    """Per-database fan-out from the commit stream to subscribers."""

    def __init__(self, db_name: str, store):
        self.db_name = db_name
        self._store = store
        self._lock = threading.Lock()
        self._subscribers: Dict[int, CdcSubscriber] = {}
        registry = get_registry()
        self._m_events = registry.counter("cdc.events")
        self._m_enqueued = registry.counter("cdc.enqueued")
        self._m_coalesced = registry.counter("cdc.coalesced")
        self._g_subscribers = registry.gauge("cdc.subscribers")
        # One bound-method object, kept: the store unsubscribes by
        # identity, and each ``self._on_commit`` access mints a fresh one.
        self._listener = self._on_commit
        store.subscribe_commits(self._listener)

    # -- the commit hook ---------------------------------------------------------

    def _on_commit(self, epoch: int, frames) -> None:
        """Called on the committer's thread, under the store lock.

        Must stay cheap and exception-free: one summarize, then an
        enqueue per subscriber.  Socket writes happen elsewhere.
        """
        with self._lock:
            subscribers = list(self._subscribers.values())
        if not subscribers:
            return
        self._m_events.inc()
        summary = summarize_unit(epoch, frames)
        for subscriber in subscribers:
            before = subscriber.coalesced
            if subscriber.offer(summary):
                self._m_enqueued.inc()
            if subscriber.coalesced > before:
                self._m_coalesced.inc()

    # -- registration ------------------------------------------------------------

    def register(self, subscriber: CdcSubscriber) -> None:
        # Keyed by object identity, not sub_id: sub ids are per-session
        # counters and sessions share this per-database router.
        with self._lock:
            self._subscribers[id(subscriber)] = subscriber
        self._g_subscribers.set(self.subscriber_count)

    def unregister(self, subscriber: CdcSubscriber) -> None:
        with self._lock:
            removed = self._subscribers.pop(id(subscriber), None)
        if removed is not None:
            removed.close()
        self._g_subscribers.set(self.subscriber_count)

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def close(self) -> None:
        """Detach from the store and drop every subscriber."""
        unsubscribe = getattr(self._store, "unsubscribe_commits", None)
        if callable(unsubscribe):
            unsubscribe(self._listener)
        with self._lock:
            subscribers = list(self._subscribers.values())
            self._subscribers.clear()
        for subscriber in subscribers:
            subscriber.close()
        self._g_subscribers.set(0)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            subscribers = list(self._subscribers.values())
        return {
            "subscribers": len(subscribers),
            "delivered": sum(s.delivered for s in subscribers),
            "coalesced": sum(s.coalesced for s in subscribers),
            "backlog": sum(s.backlog for s in subscribers),
            "events": self._m_events.value,
        }
