"""The primary side of WAL shipping: a bounded feed of committed units.

A *unit* is one committed transaction's WAL frame sequence (BEGIN, the
ops, COMMIT) tagged with the epoch it was published at — exactly what
:meth:`~repro.ode.wal.GroupCommit` hands its subscribers once a commit
is durable and visible.  The feed keeps the most recent units in a ring
so fetchers normally never touch the log, and answers three regimes:

ring
    ``after_epoch`` at or past the ring floor: serve buffered units.
log tail
    ``after_epoch`` below the ring floor but at or past the WAL's head
    checkpoint: re-read whole committed units from the log
    (:meth:`~repro.ode.wal.WriteAheadLog.committed_units`).
resync
    the WAL has been checkpointed past ``after_epoch``; the gap is
    unbridgeable and the fetcher must take a full snapshot.

The ring floor only ever rises (eviction, checkpoint), so a fetcher
that was streamable can become resync-only but never the reverse —
which is what makes "units are a contiguous extension of your epoch"
a safe reply contract.

``fetch`` never waits.  The long poll lives in the server's event loop
(:meth:`repro.net.aserver._AsyncConnection._repl_fetch`), which parks
on a waiter registered with :meth:`ReplicationFeed.add_waiter`.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import NetworkError, ReplicationError
from repro.obs import get_registry
from repro.ode.store import ObjectStore
from repro.ode.wal import WalRecord

Unit = Tuple[int, List[WalRecord]]

#: Long-poll waits are capped server-side so a dead fetcher cannot park
#: a request forever.
MAX_WAIT_SECONDS = 2.0

#: Committed units buffered per database before fetchers fall back to
#: the WAL tail.
RING_CAPACITY = 256


def units_to_wire(units: List[Unit]) -> List[List[Any]]:
    """Flatten units into codec-friendly lists for a wire reply."""
    return [
        [epoch, [[r.op, r.txid, r.oid, r.payload, r.epoch, r.term]
                 for r in frames]]
        for epoch, frames in units
    ]


def units_from_wire(wire: List[List[Any]]) -> List[Unit]:
    """Inverse of :func:`units_to_wire`.

    A unit of any other shape raises
    :class:`~repro.errors.ReplicationError` naming it, so an applier
    records the error and stops instead of dying on an ``IndexError``.
    """
    units = []
    for index, unit in enumerate(wire):
        try:
            epoch, frames = unit
            records = [
                WalRecord(op=op, txid=txid, oid=oid, payload=payload,
                          epoch=frame_epoch, term=term)
                for op, txid, oid, payload, frame_epoch, term in frames]
        except (TypeError, ValueError) as exc:
            raise ReplicationError(
                f"malformed replication unit #{index} "
                f"{repr(unit)[:80]}: {exc}") from None
        if not isinstance(epoch, int):
            raise ReplicationError(
                f"malformed replication unit #{index}: epoch {epoch!r}")
        units.append((epoch, records))
    return units


class ReplicationFeed:
    """Buffers a store's committed units for replica fetchers.

    Subscribes to every published commit — local writers via the
    group-commit barrier and (on a chained replica) replicated applies —
    so the ring is filled on both paths.  All state lives behind one
    lock; `fetch` is safe from any number of threads.
    """

    def __init__(self, store: ObjectStore):
        self._store = store
        self._capacity = RING_CAPACITY
        self._lock = threading.Lock()
        self._ring: deque = deque()
        self._closed = False
        self._waiters: List[Callable[[], None]] = []
        # Epochs in the ring are exactly (floor, store tail]; starts at
        # the store's current epoch because nothing older was observed.
        self._floor = store.epoch
        self._m_fetches = get_registry().counter("repl.feed.fetches")
        self._m_log_reads = get_registry().counter("repl.feed.log_reads")
        self._m_resyncs = get_registry().counter("repl.feed.resyncs")
        # One bound-method object, kept: the store unsubscribes by
        # identity, and each ``self._on_commit`` access mints a fresh one.
        self._listener = self._on_commit
        store.subscribe_commits(self._listener)

    @property
    def floor(self) -> int:
        """Oldest epoch the ring can extend from."""
        with self._lock:
            return self._floor

    def _on_commit(self, epoch: int, frames: List[WalRecord]) -> None:
        with self._lock:
            self._ring.append((epoch, frames))
            while len(self._ring) > self._capacity:
                evicted_epoch, _frames = self._ring.popleft()
                self._floor = evicted_epoch
        self._fire_waiters()

    # -- loop-native wakeups -----------------------------------------------------

    def add_waiter(self, notify: Callable[[], None]) -> None:
        """Register a wakeup hook for a long-polling fetcher.

        The callback fires (on the committer's thread) after every new
        unit and when the feed closes; exceptions are swallowed so a
        broken waiter never stalls a commit.  A fetcher registers
        *before* its fetch, so a commit landing between an empty fetch
        and the park still wakes it.
        """
        with self._lock:
            self._waiters.append(notify)

    def remove_waiter(self, notify: Callable[[], None]) -> None:
        with self._lock:
            try:
                self._waiters.remove(notify)
            except ValueError:
                pass

    def _fire_waiters(self) -> None:
        with self._lock:
            waiters = list(self._waiters)
        for notify in waiters:
            try:
                notify()
            except Exception:
                get_registry().counter("repl.feed.notify_errors").inc()

    def close(self) -> None:
        """Shut the feed down: detach from the store and wake everyone.

        Parked long-pollers are woken through their waiters and their
        next :meth:`fetch` raises a clean
        :class:`~repro.errors.NetworkError`, not a silent park past the
        server's drain deadline.
        """
        unsubscribe = getattr(self._store, "unsubscribe_commits", None)
        if callable(unsubscribe):
            try:
                unsubscribe(self._listener)
            except Exception:
                pass
        with self._lock:
            self._closed = True
        self._fire_waiters()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def fetch(self, after_epoch: int, max_units: int = 64) -> Dict[str, Any]:
        """Units extending ``after_epoch``, or a resync order; never waits.

        Returns ``{"units": [...], "epoch": <primary epoch>,
        "term": <primary term>, "resync": bool}``.  When ``resync`` is
        true the fetcher's epoch predates everything the primary can
        stream and it must install a snapshot.  ``term`` lets a fetcher
        detect a superseded upstream (term below its own) or a term
        raise it must resync under — streaming across a promotion could
        silently skip same-epoch divergence.  ``units`` (wire form) are
        guaranteed to be *every* committed epoch in
        ``(after_epoch, last unit]``, in order — the contiguity the
        replica's apply path insists on.
        """
        self._m_fetches.inc()
        with self._lock:
            if self._closed:
                raise NetworkError("replication feed closed")
            if after_epoch >= self._floor:
                units = [u for u in self._ring if u[0] > after_epoch]
                return {
                    "units": units_to_wire(units[:max_units]),
                    "epoch": self._store.epoch,
                    "term": self._store.term,
                    "resync": False,
                }
        # Ring can't reach back that far; try the WAL tail.  Outside
        # the feed lock — log reads must not block commit notification.
        self._m_log_reads.inc()
        units, wal_floor = self._store.replication_units(after_epoch)
        if wal_floor is not None and after_epoch >= wal_floor:
            return {
                "units": units_to_wire(units[:max_units]),
                "epoch": self._store.epoch,
                "term": self._store.term,
                "resync": False,
            }
        self._m_resyncs.inc()
        return {"units": [], "epoch": self._store.epoch,
                "term": self._store.term, "resync": True}

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "floor": self._floor,
                "buffered": len(self._ring),
                "capacity": self._capacity,
                "fetches": self._m_fetches.value,
                "log_reads": self._m_log_reads.value,
                "resyncs": self._m_resyncs.value,
            }
