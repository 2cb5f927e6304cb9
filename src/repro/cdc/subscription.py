"""The client's end of a CDC subscription.

:class:`Subscription` is a bounded local queue of :class:`ChangeEvent`
plus an optional callback.  Events are delivered by whichever thread is
reading the connection when the push frame arrives — the client's push
pump when idle, or a caller waiting on its own reply when the frame
interleaves with pipelined traffic.  **Callbacks therefore run on a
network thread while the client's request lock is held: they must be
fast, must not raise, and must never call back into the client** (a
re-entrant request would deadlock).  Cache invalidation — pure local
bookkeeping — is exactly the kind of work that belongs there; anything
heavier should consume the queue from its own thread via :meth:`get`.

Like the server's cursor, the local queue is bounded and coalescing: a
consumer that never drains it gets one synthetic resync event instead
of unbounded growth, so the degradation story is end-to-end.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Tuple

#: Events buffered locally before the queue coalesces into a resync.
EVENT_CAPACITY = 256


@dataclass(frozen=True)
class ChangeEvent:
    """One server-push change notification, as the application sees it."""

    db: str
    epoch: int
    #: cluster -> OID strings changed at ``epoch`` (empty for resync/lost).
    changes: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Delta detail was lost (overflow en route): invalidate wholesale,
    #: treating ``epoch`` as the new floor.
    resync: bool = False
    #: The connection (and with it the server-side subscription) died.
    #: Terminal: no further events will arrive; resubscribe to resume.
    lost: bool = False

    def oids(self) -> Tuple[str, ...]:
        return tuple(oid for oids in self.changes.values() for oid in oids)


class Subscription:
    """A live change feed for one database (optionally cluster-filtered)."""

    def __init__(self, client, sub_id: int, db: str,
                 clusters: Optional[Sequence[str]] = None,
                 epoch: int = 0,
                 on_event: Optional[Callable[[ChangeEvent], None]] = None):
        self._client = client
        self.sub_id = sub_id
        self.db = db
        self.clusters = tuple(clusters) if clusters is not None else None
        #: The server epoch at subscribe time: delta knowledge is
        #: contiguous from here, so it is the cache's starting floor.
        self.epoch = epoch
        self._on_event = on_event
        self._capacity = EVENT_CAPACITY
        self._cond = threading.Condition()
        self._queue: deque = deque()
        self._pending_resync: Optional[int] = None
        self._closed = False
        self._lost = False
        self.received = 0
        self.coalesced = 0

    # -- delivery (network thread) ----------------------------------------------

    def deliver(self, event: ChangeEvent) -> None:
        """Called by the client's reader paths; must never block or raise."""
        with self._cond:
            if self._closed:
                return
            self.received += 1
            if event.lost:
                self._lost = True
                self._queue.append(event)
            elif self._pending_resync is not None or event.resync:
                self._pending_resync = max(self._pending_resync or 0,
                                           event.epoch)
                self._queue.clear()
            elif len(self._queue) >= self._capacity:
                self._queue.clear()
                self._pending_resync = event.epoch
                self.coalesced += 1
            else:
                self._queue.append(event)
            if event.epoch > self.epoch:
                self.epoch = event.epoch
            self._cond.notify_all()
        if self._on_event is not None:
            try:
                self._on_event(event)
            except Exception:
                from repro.obs import get_registry
                get_registry().counter("cdc.client.callback_errors").inc()

    def connection_lost(self) -> None:
        """The socket died: the server-side subscription is gone."""
        self.deliver(ChangeEvent(db=self.db, epoch=self.epoch, lost=True))

    # -- consumption (application thread) ----------------------------------------

    def get(self, timeout: Optional[float] = None) -> Optional[ChangeEvent]:
        """Next event, blocking up to *timeout*; None when nothing arrived.

        A coalesced backlog surfaces as a single ``resync`` event.
        """
        with self._cond:
            while True:
                if self._pending_resync is not None:
                    epoch = self._pending_resync
                    self._pending_resync = None
                    return ChangeEvent(db=self.db, epoch=epoch, resync=True)
                if self._queue:
                    return self._queue.popleft()
                if self._closed or self._lost:
                    return None
                if not self._cond.wait(timeout):
                    return None

    def poll(self) -> Optional[ChangeEvent]:
        return self.get(timeout=0)

    def pending(self) -> int:
        with self._cond:
            return len(self._queue) + (1 if self._pending_resync is not None
                                       else 0)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def alive(self) -> bool:
        with self._cond:
            return not self._closed and not self._lost

    @property
    def lost(self) -> bool:
        with self._cond:
            return self._lost

    def close(self) -> None:
        """Unsubscribe on the server (if still reachable) and stop."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._client._unsubscribe(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
