"""RemoteDatabase / RemoteObjectManager: the database over the wire.

These present the same interface as :class:`~repro.ode.database.Database`
and its object manager, so every consumer — object browsers, schema
browsers, synchronized browsing, the display-function protocol, the
selection planner — runs unchanged against a server-hosted database.

What stays local and what crosses the wire:

* the **schema** is fetched once at connect and rebuilt locally, so all
  schema-shaped questions (attribute lookup, inheritance walks, display
  lists) cost nothing;
* **display modules** are fetched into a client-side directory, so the
  dynamic linker loads and runs display functions exactly as it does
  locally (the paper's object-interactor loads display code into *its*
  address space, not the server's);
* **object buffers** cross the wire as their stored records, decoded
  once as the client receives them, with the class's public names and — for a class that has
  them — computed attributes evaluated server-side; they land in a
  bounded client cache.  The cache is **epoch-keyed**: every server
  reply reports the commit epoch it was served at, every cached buffer
  is tagged with that epoch, and
  invalidation advances an epoch *floor* instead of flushing — a buffer
  fetched at the still-current epoch is provably not stale and survives,
  so there is no flush race between an invalidation and an in-flight
  fetch.  Writes inside an open transaction read uncommitted overlay
  state that no epoch can describe, so those paths purge physically;
* **sequencing cursors** (:meth:`RemoteObjectManager.cursor`) pin a
  snapshot on the server; the position lives here, with a window
  of up to :data:`SCAN_BATCH` member numbers read from that snapshot in
  one round trip, so ``next``/``previous`` inside the window and
  ``seek``/``current`` cost none.  ``reset`` refreshes the snapshot and
  advances the client cache's epoch floor — a resequenced browse
  re-reads current data.

Cluster scans are batched: ``RemoteCluster.oids()`` pulls the whole
cluster in :data:`SCAN_BATCH`-sized pages through the object cache, so
browsing N objects costs N/SCAN_BATCH round trips, not N.
"""

from __future__ import annotations

import bisect
import math
import shutil
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import (
    NetworkError,
    ObjectNotFoundError,
    SessionLostError,
    StorageError,
    TransactionError,
)
from repro.net import protocol as P
from repro.net.client import OdeClient
from repro.ode.oid import Oid
from repro.ode.schema import Schema
from repro.ode.versions import VersionRecord

#: Buffers fetched per SCAN_CLUSTER round trip, and member numbers per
#: cursor window (at most the server's ``MAX_SCAN_BATCH``).
SCAN_BATCH = 64

#: Object buffers kept in the client-side cache.
CACHE_CAPACITY = 512


class BufferCache:
    """A bounded LRU of object buffers keyed by OID, tagged by epoch.

    Every entry carries the server commit epoch its buffer was served
    at; ``latest`` tracks the newest epoch observed in *any* reply.
    :meth:`invalidate` advances an epoch ``floor`` to ``latest`` — every
    entry tagged below the floor stops being served — instead of
    flushing the table.  A buffer fetched at the still-current epoch is
    provably identical to what a re-fetch would return, so it survives;
    and because a reply tagged with a *newer* epoch can never be killed
    by an older invalidation, there is no flush race between an
    invalidation and an in-flight fetch.

    :meth:`purge` keeps the old drop-everything semantics for the paths
    where epochs cannot express staleness: uncommitted transaction
    overlay state, and abort (which reverts without minting an epoch).

    **CDC precise invalidation.**  With a push subscription attached
    (:meth:`RemoteObjectManager.watch`), the cache stops invalidating
    wholesale: each delta event names exactly the OIDs that changed at
    its epoch, so :meth:`apply_delta` evicts those and *re-certifies*
    every other entry at the delta's epoch.  ``_cdc_epoch`` tracks how
    far the contiguous delta stream has been consumed; re-certification
    is only sound for entries tagged at or above the previous basis —
    an entry cached from a lagging replica *below* the basis might have
    been written after its naming delta was already consumed, so it is
    killed by the floor instead of certified.  Overflow downgrades to
    wholesale (:meth:`note_resync`) and a lost connection to
    :meth:`purge` — precision degrades, correctness never does.

    All methods are thread-safe: push deliveries mutate the cache from
    a network thread while the application reads it.
    """

    def __init__(self):
        self.capacity = CACHE_CAPACITY
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Oid, Tuple[int, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.delta_evictions = 0   # OIDs evicted by name via apply_delta
        self.delta_applied = 0     # delta events consumed precisely
        self.resyncs = 0           # wholesale fallbacks (overflow/lost)
        self.floor = 0    # entries tagged below this epoch are dead
        self.latest = 0   # newest server epoch observed in any reply
        #: Delta-consumption basis: epoch the contiguous CDC stream has
        #: been consumed through; ``None`` until a subscription attaches.
        self._cdc_epoch: Optional[int] = None

    @property
    def cdc_epoch(self) -> Optional[int]:
        with self._lock:
            return self._cdc_epoch

    def observe_epoch(self, epoch: Any) -> None:
        with self._lock:
            if isinstance(epoch, int) and epoch > self.latest:
                self.latest = epoch

    def get(self, oid: Oid):
        with self._lock:
            entry = self._entries.get(oid)
            if entry is not None and entry[0] < self.floor:
                del self._entries[oid]   # lazily drop an invalidated entry
                entry = None
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(oid)
            self.hits += 1
            return entry[1]

    def put(self, buffer, epoch: Optional[int] = None) -> None:
        with self._lock:
            tag = self.latest if epoch is None else epoch
            if tag < self.floor:
                return  # the epoch this was read at is already invalidated
            self._entries[buffer.oid] = (tag, buffer)
            self._entries.move_to_end(buffer.oid)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate(self) -> None:
        """Advance the floor: entries older than ``latest`` stop serving."""
        with self._lock:
            if self._entries:
                self.invalidations += 1
            self._raise_floor(self.latest)

    def purge(self) -> None:
        """Unconditionally drop every entry (epoch bookkeeping kept)."""
        with self._lock:
            if self._entries:
                self.invalidations += 1
            self._entries.clear()

    # -- CDC precise invalidation -------------------------------------------------

    def _raise_floor(self, epoch: int) -> None:
        """Lock held.  Raise the floor and drop everything beneath it."""
        self.floor = max(self.floor, epoch)
        stale = [oid for oid, (tag, _) in self._entries.items()
                 if tag < self.floor]
        for oid in stale:
            del self._entries[oid]

    def begin_deltas(self, epoch: int) -> None:
        """A subscription acked at *epoch*: deltas are contiguous from
        here.  Entries below the ack cannot be certified by any future
        delta (their changes predate the stream), so the floor rises to
        the ack — the one wholesale cut that buys precision forever
        after."""
        with self._lock:
            self.observe_epoch(epoch)
            self._raise_floor(epoch)
            self._cdc_epoch = (epoch if self._cdc_epoch is None
                               else max(self._cdc_epoch, epoch))

    def apply_delta(self, epoch: int, oids) -> int:
        """Consume one delta event: evict exactly the named OIDs and
        re-certify every surviving entry at *epoch*.

        Returns the number of entries evicted by name.  A delta at or
        below the basis (the subscribe-gap duplicate) still evicts —
        a harmless extra miss — but certifies nothing.  Without a basis
        (no ``begin_deltas`` yet: the event raced the subscribe reply)
        the delta degrades to a wholesale cut at its epoch, which is
        always sound.
        """
        with self._lock:
            self.observe_epoch(epoch)
            purged = 0
            for oid in oids:
                key = Oid.parse(oid) if isinstance(oid, str) else oid
                if self._entries.pop(key, None) is not None:
                    purged += 1
            self.delta_evictions += purged
            basis = self._cdc_epoch
            if basis is None:
                self.resyncs += 1
                self._raise_floor(epoch)
                return purged
            if epoch > basis:
                # Every survivor tagged in [basis, epoch) is proven
                # unchanged through *epoch* by the contiguous stream.
                for key, (tag, buffer) in self._entries.items():
                    if basis <= tag < epoch:
                        self._entries[key] = (epoch, buffer)
                self._cdc_epoch = epoch
            # Entries below the old basis (stale-replica strays) die here.
            self._raise_floor(epoch)
            self.delta_applied += 1
            return purged

    def note_resync(self, epoch: int) -> None:
        """Delta detail was lost (overflow): invalidate wholesale up to
        *epoch* and resume precise consumption from there."""
        with self._lock:
            self.observe_epoch(epoch)
            self.resyncs += 1
            # Only up to the resync epoch: the marker's epoch already
            # covers every coalesced commit, and entries cached above it
            # are as fresh as a re-fetch would be.
            self._raise_floor(epoch)
            if self._cdc_epoch is not None:
                self._cdc_epoch = max(self._cdc_epoch, epoch)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class RemoteIndexManager:
    """The server's attribute indexes, managed over the wire.

    Index *structures and maintenance* live on the server, inside the
    object manager that applies the writes; the client creates and drops
    them with one round trip each (their sizes reach the statistics
    window through ``OP_STATS``).  Selection crosses the wire whole via
    :meth:`RemoteObjectManager.select_pushdown`, where the *server's*
    cost model picks probe vs scan.
    """

    def __init__(self, manager: "RemoteObjectManager"):
        self._manager = manager

    def create_index(self, class_name: str, attribute: str) -> None:
        self._manager._call(P.OP_CREATE_INDEX,
                            {"class": class_name, "attribute": attribute})

    def drop_index(self, class_name: str, attribute: str) -> None:
        self._manager._call(P.OP_DROP_INDEX,
                            {"class": class_name, "attribute": attribute})


class RemoteVersionManager:
    """Version histories fetched over the wire."""

    def __init__(self, manager: "RemoteObjectManager"):
        self._manager = manager

    def history(self, oid: Oid) -> List[VersionRecord]:
        reply = self._manager._call(P.OP_VERSION_HISTORY, {"oid": str(oid)})
        return [
            VersionRecord(of=oid, sequence=entry["seq"], state=entry["state"])
            for entry in reply["history"]
        ]


class RemoteCluster:
    """Read view of one class's extent on the server."""

    def __init__(self, manager: "RemoteObjectManager", class_name: str):
        self._manager = manager
        self.database = manager.database.name
        self.class_name = class_name

    def __len__(self) -> int:
        return self._manager.count(self.class_name)

    def numbers(self) -> List[int]:
        reply = self._manager._call(
            P.OP_CLUSTER_NUMBERS,
            {"db": self.database, "class": self.class_name})
        return list(reply["numbers"])

    def oid(self, number: int) -> Oid:
        return Oid(self.database, self.class_name, number)

    def oids(self) -> List[Oid]:
        """All member OIDs — and, as a side effect, warm the cache.

        The batched scan ships the buffers alongside the OIDs, so the
        browse that follows (get_buffer per member) is served locally.
        """
        return [b.oid for b in self._manager.scan(self.class_name)]

    def first(self) -> Optional[Oid]:
        numbers = self.numbers()
        return self.oid(numbers[0]) if numbers else None


#: A window that answers nothing: the open interval (0, 0), no members.
_NO_WINDOW: Tuple[float, float, List[int]] = (0, 0, [])
#: What :meth:`RemoteCursor._from_window` says when the window cannot
#: answer.
_REFILL = object()


class RemoteCursor:
    """A sequencing cursor over a snapshot pinned on the server.

    next/previous/reset/current/seek mirror
    :class:`~repro.ode.cluster.ClusterCursor`.  The server-side cursor is
    a pinned snapshot plus a class; the position lives here, next to a
    *window*: every member number of that snapshot in an open interval
    ``(lo, hi)``, read in one round trip.  A step the window can answer
    costs no round trip, so a walk of k steps costs about k/SCAN_BATCH;
    ``seek`` and ``current`` never cost one.  ``epoch`` reports which
    commit epoch the snapshot serves.  ``reset`` refreshes the snapshot,
    clears the position and the window, and advances the manager's
    cache floor — resequencing is the browse starting over, and it must
    see current data.
    """

    def __init__(self, manager: "RemoteObjectManager", class_name: str):
        self._manager = manager
        self.class_name = class_name
        reply = manager._call(
            P.OP_CURSOR_OPEN,
            {"db": manager.database.name, "class": class_name})
        self._cursor_id = reply["cursor"]
        self.epoch: Optional[int] = reply.get("epoch")
        self._position: Optional[int] = None   # current member number
        self._window = _NO_WINDOW
        # The cursor lives in the *server session* it was opened in; if
        # the client reconnects (new generation), that session and this
        # cursor are gone — fail fast rather than asking a fresh
        # session about a cursor id it never issued, even for a step
        # the window could answer.
        self._generation = manager.database.client.generation

    def _check_session(self) -> None:
        if self._manager.database.client.generation != self._generation:
            raise SessionLostError(
                "sequencing cursor lost: the connection to the server was "
                "dropped and its session state discarded; reopen the cursor")

    def _oid(self, number: int) -> Oid:
        return Oid(self._manager.database.name, self.class_name, number)

    def _from_window(self, point: float, forward: bool):
        """The member nearest past *point* in the step's direction,
        ``None`` past the end, or ``_REFILL`` when the window cannot
        tell."""
        lo, hi, members = self._window
        if forward and lo <= point < hi:
            index = bisect.bisect_right(members, point)
            if index < len(members):
                return members[index]
            if hi == math.inf:
                return None
        elif not forward and lo < point <= hi:
            index = bisect.bisect_left(members, point)
            if index:
                return members[index - 1]
            if lo == -math.inf:
                return None
        return _REFILL

    def _refill(self, point: float, forward: bool) -> None:
        """Replace the window with the members past *point*: one round
        trip.  A window shorter than asked for reaches the end."""
        reply = self._manager._call(
            P.OP_CURSOR_NEXT if forward else P.OP_CURSOR_PREVIOUS,
            {"cursor": self._cursor_id,
             "from": None if math.isinf(point) else point,
             "limit": SCAN_BATCH})
        self.epoch = reply["epoch"]
        numbers = reply["numbers"]
        full = len(numbers) == SCAN_BATCH
        if forward:
            self._window = (point, numbers[-1] + 1 if full else math.inf,
                            numbers)
        else:
            self._window = (numbers[-1] - 1 if full else -math.inf, point,
                            numbers[::-1])

    def _step(self, forward: bool) -> Optional[Oid]:
        self._check_session()
        if self._position is None:
            if not forward:
                return None
            point: float = -math.inf
        else:
            point = self._position
        number = self._from_window(point, forward)
        if number is _REFILL:
            self._refill(point, forward)
            number = self._from_window(point, forward)
        if number is None:
            return None
        self._position = number
        return self._oid(number)

    def next(self) -> Optional[Oid]:
        """Advance to the next object; ``None`` at the end."""
        return self._step(True)

    def previous(self) -> Optional[Oid]:
        """Step back to the previous object; ``None`` at the front."""
        return self._step(False)

    def reset(self) -> None:
        self._check_session()
        reply = self._manager._call(
            P.OP_CURSOR_RESET, {"cursor": self._cursor_id})
        self.epoch = reply["epoch"]
        self._position = None
        self._window = _NO_WINDOW
        # The reply reported the refreshed snapshot's epoch (observed by
        # the manager), so advancing the floor kills exactly the entries
        # older than the state this resequenced browse will see.
        self._manager.cache.invalidate()

    def current(self) -> Optional[Oid]:
        self._check_session()
        return None if self._position is None else self._oid(self._position)

    def seek(self, oid: Oid) -> None:
        """Position the cursor on a specific object; the window stays."""
        self._check_session()
        if oid.cluster != self.class_name:
            raise StorageError(
                f"cursor over {self.class_name!r} cannot seek to {oid}")
        self._position = oid.number

    def close(self) -> None:
        if self._manager.database.client.generation != self._generation:
            return  # the server session (and the cursor with it) is gone
        self._manager._call(P.OP_CURSOR_CLOSE, {"cursor": self._cursor_id})


class RemoteObjectManager:
    """The object manager's interface, served over the wire."""

    def __init__(self, database: "RemoteDatabase"):
        self.database = database
        self.schema = database.schema
        self.cache = BufferCache()
        self.indexes = RemoteIndexManager(self)
        #: EXPLAIN text of the last server-planned selection (see
        #: select_pushdown/explain); the statistics window shows the
        #: server's own via the STATS "statistics" rows.
        self.last_explain: Optional[str] = None
        self._version_manager: Optional[RemoteVersionManager] = None
        self._txid: Optional[int] = None         # open remote transaction
        self._tx_generation: Optional[int] = None  # connection it lives on

    def _call(self, opcode: int, payload: Dict[str, Any]) -> Dict[str, Any]:
        payload.setdefault("db", self.database.name)
        reply = self.database.client.call(opcode, payload)
        self.cache.observe_epoch(reply.get("epoch"))
        return reply

    @property
    def epoch(self) -> int:
        """Newest server commit epoch this client has observed."""
        return self.cache.latest

    @contextmanager
    def pinned(self) -> Iterator[None]:
        """Consistency pinning is a no-op over the wire.

        The *server* pins a snapshot per request (and per cursor), so a
        remote client cannot hold one epoch across several round trips;
        callers written against the local manager's ``pinned()`` (e.g.
        synchronized browsing) still run unchanged.
        """
        yield None

    @property
    def versions(self) -> RemoteVersionManager:
        if self._version_manager is None:
            self._version_manager = RemoteVersionManager(self)
        return self._version_manager

    # -- reads -------------------------------------------------------------------

    def get_buffer(self, oid: Oid):
        cached = self.cache.get(oid)
        if cached is not None:
            return cached
        reply = self._call(P.OP_GET_OBJECT, {"oid": str(oid)})
        buffer = P.buffer_from_object(reply["buffer"], oid)
        self.cache.put(buffer, reply.get("epoch"))
        return buffer

    def get_buffers(self, oids: List[Oid]) -> List[Any]:
        """Fetch many buffers, one round trip for all cache misses.

        Hits come from the cache and misses from the one reply, so the
        misses are one pinned read whatever the cache keeps of them.
        An OID the server does not have raises
        :class:`~repro.errors.ObjectNotFoundError`.
        """
        found: Dict[Oid, Any] = {}
        for oid in oids:
            buffer = self.cache.get(oid)
            if buffer is not None:
                found[oid] = buffer
        misses = [oid for oid in dict.fromkeys(oids) if oid not in found]
        if misses:
            reply = self._call(P.OP_GET_OBJECTS,
                               {"oids": [str(oid) for oid in misses]})
            if reply["missing"]:
                raise ObjectNotFoundError(f"no object {reply['missing'][0]}")
            epoch = reply.get("epoch")
            for value, oid in zip(reply["buffers"], misses):
                buffer = P.buffer_from_object(value, oid)
                self.cache.put(buffer, epoch)
                found[buffer.oid] = buffer
        return [found[oid] for oid in oids]

    def scan(self, class_name: str) -> List[Any]:
        """The whole cluster, fetched in SCAN_BATCH pages through the cache."""
        buffers: List[Any] = []
        after = -1
        while True:
            reply = self._call(P.OP_SCAN_CLUSTER, {
                "class": class_name, "after": after, "limit": SCAN_BATCH,
            })
            for value in reply["buffers"]:
                buffer = P.buffer_from_object(value)
                self.cache.put(buffer, reply.get("epoch"))
                buffers.append(buffer)
            after = reply["after"]
            if reply["done"] or not reply["buffers"]:
                return buffers

    def cluster(self, class_name: str) -> RemoteCluster:
        self.schema.get_class(class_name)
        return RemoteCluster(self, class_name)

    def count(self, class_name: str) -> int:
        return self._call(P.OP_COUNT, {"class": class_name})["count"]

    def exists(self, oid: Oid) -> bool:
        if self.cache.get(oid) is not None:
            return True
        return self._call(P.OP_EXISTS, {"oid": str(oid)})["exists"]

    def cursor(self, class_name: str) -> RemoteCursor:
        return RemoteCursor(self, class_name)

    def watch(self, clusters: Optional[List[str]] = None, on_refresh=None):
        """Attach a CDC push subscription that keeps this cache fresh.

        From here on the cache invalidates *precisely*: each server
        push evicts exactly the OIDs that changed and re-certifies the
        rest, so a browse over a hot database stops re-fetching objects
        that did not move.  *on_refresh* (optional) is called after the
        cache has absorbed each event — on a network thread, so it must
        be quick and must not call back into the connection; UIs should
        post to their event loop (see ``core.sync.ReactiveBrowse``).

        Returns the :class:`~repro.cdc.Subscription`; closing it stops
        the pushes and the cache falls back to wholesale invalidation.
        """
        cache = self.cache

        def _absorb(event) -> None:
            if event.lost:
                cache.purge()  # no delta knowledge survives the session
            elif event.resync:
                cache.note_resync(event.epoch)
            else:
                cache.apply_delta(event.epoch, event.oids())
            if on_refresh is not None:
                try:
                    on_refresh(event)
                except Exception:
                    from repro.obs import get_registry
                    get_registry().counter(
                        "cdc.client.callback_errors").inc()

        subscription = self.database.client.subscribe(
            self.database.name, clusters=clusters, on_event=_absorb)
        # Events racing this call are already sound: apply_delta with
        # no basis degrades to a wholesale cut at the event's epoch.
        cache.begin_deltas(subscription.epoch)
        return subscription

    def select(self, class_name: str) -> Iterator[Any]:
        """Every buffer of a cluster.  A filtered selection runs on the
        server: :meth:`select_pushdown`."""
        yield from self.scan(class_name)

    def select_pushdown(self, class_name: str, condition: str,
                        force: Optional[str] = None,
                        privileged: bool = False) -> List[Any]:
        """Planned selection on the *server*: one round trip ships the
        condition string; the server's cost model picks index-probe vs
        scan against its statistics and returns only the matches (the
        paper's §5.2 pushdown, now with index acceleration).  The plan's
        EXPLAIN text is kept at ``last_explain`` for the statistics
        window."""
        payload: Dict[str, Any] = {"class": class_name,
                                   "condition": condition}
        if force is not None:
            payload["force"] = force
        if privileged:
            payload["privileged"] = True
        reply = self._call(P.OP_SELECT, payload)
        self.last_explain = reply.get("explain")
        buffers = []
        for value in reply["buffers"]:
            buffer = P.buffer_from_object(value)
            self.cache.put(buffer, reply.get("epoch"))
            buffers.append(buffer)
        return buffers

    def explain(self, class_name: str, condition: str,
                force: Optional[str] = None,
                privileged: bool = False) -> Dict[str, Any]:
        """The server's plan for a condition, without executing it."""
        payload: Dict[str, Any] = {"class": class_name,
                                   "condition": condition}
        if force is not None:
            payload["force"] = force
        if privileged:
            payload["privileged"] = True
        reply = self._call(P.OP_EXPLAIN, payload)
        self.last_explain = reply.get("explain")
        return reply

    # -- writes ------------------------------------------------------------------

    def _check_transaction_live(self) -> None:
        """A write inside an open transaction must reach *that* session.

        If the connection was dropped since ``begin``, the server has
        already aborted the transaction; sending the write to a fresh
        session would silently autocommit it outside the transaction.
        Fail fast instead — the caller aborts locally and begins again.
        """
        if (self._txid is not None
                and self.database.client.generation != self._tx_generation):
            raise TransactionError(
                "transaction lost: the connection to the server dropped "
                "mid-transaction and the server rolled it back; abort and "
                "begin again")

    def new_object(self, class_name: str,
                   values: Optional[Mapping[str, Any]] = None,
                   oid: Optional[Oid] = None) -> Oid:
        self._check_transaction_live()
        payload: Dict[str, Any] = {
            "class": class_name, "values": dict(values or {})}
        if oid is not None:
            payload["oid"] = str(oid)
        reply = self._call(P.OP_NEW_OBJECT, payload)
        return Oid.parse(reply["oid"])

    def update(self, oid: Oid, updates: Mapping[str, Any]):
        self._check_transaction_live()
        reply = self._call(
            P.OP_UPDATE, {"oid": str(oid), "updates": dict(updates)})
        # Triggers may have touched other objects, and inside an open
        # transaction the new state is uncommitted overlay data that no
        # epoch describes — purge physically rather than by epoch.
        self.cache.purge()
        buffer = P.buffer_from_object(reply["buffer"], oid)
        self.cache.put(buffer)
        return buffer

    def delete(self, oid: Oid) -> None:
        self._check_transaction_live()
        self._call(P.OP_DELETE, {"oid": str(oid)})
        self.cache.purge()

    # -- transactions ------------------------------------------------------------

    def _end_transaction(self) -> None:
        if self._txid is not None:
            self._txid = None
            self._tx_generation = None
            self.database.client.release_session()

    def begin(self) -> int:
        txid = self._call(P.OP_BEGIN, {})["txid"]
        self._txid = txid
        self._tx_generation = self.database.client.generation
        # Pin the session: while the transaction is open, a connection
        # failure raises SessionLostError instead of reconnecting.
        self.database.client.retain_session()
        return txid

    def commit(self) -> None:
        self._check_transaction_live()
        try:
            self._call(P.OP_COMMIT, {})
        finally:
            # Whatever the outcome, the server session no longer has a
            # transaction: its commit clears it on success and error.
            # Entries cached during the transaction were overlay reads
            # tagged with the pre-commit epoch; purge physically.
            self._end_transaction()
            self.cache.purge()

    def abort(self) -> None:
        if (self._txid is not None
                and self.database.client.generation != self._tx_generation):
            # The server aborted the orphan when the connection died;
            # only local bookkeeping is left to clean up.
            self._end_transaction()
            self.cache.purge()
            return
        try:
            self._call(P.OP_ABORT, {})
        finally:
            # Abort reverts without minting an epoch, so overlay reads
            # cached during the transaction can only be dropped physically.
            self._end_transaction()
            self.cache.purge()


class RemoteDatabase:
    """A server-hosted database, presented like a local one."""

    #: Lets callers (statistics, selection) branch without importing this module.
    remote = True

    def __init__(self, client: OdeClient, name: str):
        self.client = client
        reply = client.call(P.OP_OPEN_DATABASE, {"db": name})
        self.name = reply["name"]
        self.schema = Schema.from_dict(reply["schema"])
        self.icon = reply["icon"]
        self.objects = RemoteObjectManager(self)
        self._display_dir: Optional[Path] = None

    @classmethod
    def connect(cls, host: str, port: int, name: str,
                timeout: float = 10.0, replicas=None) -> "RemoteDatabase":
        """Connect to *name* served at ``host:port`` (the primary).

        ``replicas=[(host, port), ...]`` names read replicas the
        client may route per-object reads to; the
        :class:`~repro.net.client.OdeClient` epoch floor guarantees
        the session still reads its own writes and never steps
        backwards in time (see client docs).
        """
        client = OdeClient(host, port, timeout=timeout, replicas=replicas)
        client.connect()
        try:
            return cls(client, name)
        except Exception:
            client.close()
            raise

    # -- the display-function protocol -------------------------------------------

    @property
    def display_dir(self) -> Path:
        """Display modules, fetched from the server into a local directory.

        The dynamic linker loads display functions into the *client's*
        address space (paper §4.6: the object-interactor, not the
        database, runs display code), so the sources must exist locally.
        """
        if self._display_dir is None:
            reply = self.client.call(
                P.OP_GET_DISPLAY_MODULES, {"db": self.name})
            directory = Path(tempfile.mkdtemp(prefix=f"odeview-{self.name}-"))
            for filename, source in sorted(reply["modules"].items()):
                (directory / filename).write_text(source, encoding="utf-8")
            self._display_dir = directory
        return self._display_dir

    # -- maintenance ---------------------------------------------------------------

    def subscribe(self, clusters=None, on_event=None):
        """Raw change feed for this database (no cache coupling); see
        :meth:`RemoteObjectManager.watch` for the cache-coupled form."""
        return self.client.subscribe(
            self.name, clusters=clusters, on_event=on_event)

    def watch(self, clusters=None, on_refresh=None):
        """Reactive browsing: push-invalidate the object cache; see
        :meth:`RemoteObjectManager.watch`."""
        return self.objects.watch(clusters=clusters, on_refresh=on_refresh)

    def vacuum(self) -> int:
        reclaimed = self.client.call(P.OP_VACUUM, {"db": self.name})["reclaimed"]
        self.objects.cache.purge()
        return reclaimed

    def server_stats(self) -> Dict[str, Any]:
        return self.client.call(P.OP_STATS, {"db": self.name})

    def close(self) -> None:
        try:
            self.client.close()
        except NetworkError:
            pass
        if self._display_dir is not None:
            shutil.rmtree(self._display_dir, ignore_errors=True)
            self._display_dir = None
