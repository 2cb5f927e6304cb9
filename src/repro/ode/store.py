"""The object store.

Persistent objects live in slotted pages reached through the buffer pool;
durability comes from the write-ahead log.  The store maps OIDs to page
locations, splits records larger than a page into fragment chains, and keeps
one ordered, epoch-aware membership per cluster
(:mod:`repro.ode.membership`) — the order the object manager's
``next``/``previous`` sequencing walks (paper §3.2).

Because every record is self-describing (it embeds its OID), the object
table and cluster memberships are rebuilt by scanning the pages at open;
there is no separately persisted index to corrupt.

Crash consistency and group commit.  Commit is split in two:
:meth:`ObjectStore.commit_stage` (under the store lock: validate, mint
the commit epoch, queue the COMMIT record on the group-commit barrier)
and :meth:`ObjectStore.commit_wait` (no store lock: park on the barrier
until durable).  The batch *leader* — the first waiter to find no
leader active — appends every queued COMMIT frame as one blob, pays a
single ``wal.group.sync`` fsync for the whole batch, and then finishes
each commit **in epoch order**: re-take the store lock, apply that
commit's buffered writes to the pages, publish its epoch to snapshot
readers.  Visibility is therefore granted strictly after durability,
and the plain :meth:`ObjectStore.commit` is just stage + wait.  The log
is truncated by a size-triggered checkpoint (``WAL_CHECKPOINT_BYTES``,
taken only when no transaction is open and the barrier is idle) and at
close/vacuum — not per commit.  A crash anywhere recovers at reopen:
if a COMMIT record is durable the transaction is redone from the log —
and every on-disk record of an OID the log will redo is *purged* first,
because a crash mid-apply can leave both the old and the new version
live on disk, and a rebuild that kept both could resurrect the stale
one.  If the COMMIT record is not durable, apply never started and the
pages are untouched.

Fault injection.  ``fault_gate`` (see :mod:`repro.faultsim.plan`) is
threaded through to the page file and the WAL, and the store adds three
pure crash points of its own, crossed by the group-commit leader inside
each commit's finish step: ``store.commit.apply`` (COMMIT durable,
pages not yet touched), ``store.commit.publish`` (pages applied, the
commit epoch not yet visible to readers) and ``store.commit.checkpoint``
(epoch published, log not yet truncated).  If a transient
:class:`~repro.errors.FaultInjectedError` (or any other ``Exception``)
escapes mid-commit, the outcome is ambiguous — the COMMIT record may or
may not be on disk — so the store fails everything queued on the
barrier, rebuilds its volatile state from stable storage
(:meth:`ObjectStore._recover_volatile`) and re-raises, which resolves
the transaction the same way a reopen would.

Snapshot isolation (MVCC).  Every commit publishes a monotonically
increasing *epoch* (stamped into WAL COMMIT and CHECKPOINT records, so
the counter survives reopen).  :meth:`ObjectStore.snapshot` pins the
current epoch and returns a :class:`Snapshot` whose reads see exactly
the committed state as of that epoch, without taking the store lock on
the hot path.  The mechanism is a bounded in-memory *version chain* per
OID — ``[(epoch, payload-or-None), ...]`` ascending, where the first
entry is a pre-image stamped epoch 0 captured just before the commit
overwrites the OID.  A snapshot read walks the chain for the newest
entry at or below its epoch; a chain miss provably means the OID is
unmodified since the pruning watermark (older than every live
snapshot), so the read falls back to the current pages under the store
lock.  The buffer pool is the store's only read cache.  Entries
superseded by a newer entry at or below the watermark (``min`` live
snapshot epoch, else the current epoch) are dropped, and a chain left
with one entry at or below the watermark is dropped whole — the pages
hold that value — so with no snapshot open no chain outlives its
commit.  Each commit prunes the chains it grew, and a snapshot release
sweeps every chain only when it raised the watermark.
"""

from __future__ import annotations

import bisect
import itertools
import threading
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.errors import (
    GroupCommitError,
    ObjectNotFoundError,
    ReplicaDivergedError,
    StalePrimaryError,
    StorageError,
    TransactionError,
)
from repro.obs import get_registry
from repro.ode.bufferpool import BufferPool
from repro.ode.codec import read_varint, write_varint
from repro.ode.membership import ClusterMembership
from repro.ode.oid import Oid, is_version_cluster
from repro.ode.page import MAX_RECORD_SIZE, PAGE_SIZE
from repro.ode.pagefile import PageFile
from repro.ode.wal import (
    OP_BEGIN,
    OP_COMMIT,
    OP_DELETE,
    OP_PUT,
    GroupCommit,
    WalRecord,
    WriteAheadLog,
)

_FRAGMENT_MAGIC = 0xB1
# Room left in a fragment for its own header (magic + varints + oid text).
_FRAGMENT_HEADER_BUDGET = 64
_FRAGMENT_CHUNK = MAX_RECORD_SIZE - _FRAGMENT_HEADER_BUDGET

Location = List[Tuple[int, int]]  # ordered (page_no, slot) fragments
Chain = List[Tuple[int, Optional[bytes]]]  # ascending (epoch, payload-or-None)

#: Log size past which the next idle moment checkpoints (truncates) it.
WAL_CHECKPOINT_BYTES = 1 << 20

#: What a read of a cluster the store has never seen goes to.
_NO_MEMBERS = ClusterMembership("")


def _noop() -> None:
    """Default continuation for the store's pure crash points."""


def _encode_fragment(oid: Oid, index: int, total: int, chunk: bytes) -> bytes:
    oid_bytes = str(oid).encode("utf-8")
    out = bytearray([_FRAGMENT_MAGIC])
    out += write_varint(index)
    out += write_varint(total)
    out += write_varint(len(oid_bytes))
    out += oid_bytes
    out += chunk
    return bytes(out)


def _decode_fragment(record: bytes) -> Tuple[Oid, int, int, bytes]:
    index, offset = read_varint(record, 1)
    total, offset = read_varint(record, offset)
    oid_len, offset = read_varint(record, offset)
    oid = Oid.parse(record[offset:offset + oid_len].decode("utf-8"))
    chunk = record[offset + oid_len:]
    return oid, index, total, chunk


class _MembershipReads:
    """The cluster-membership reads, written once for both readers: the
    store answers them for the live view (everything committed so far),
    a :class:`Snapshot` as of the epoch it pins."""

    def _reading(self) -> Tuple["ObjectStore", Optional[int]]:
        """The store to read, and the epoch to answer as of (``None``:
        the live view)."""
        raise NotImplementedError

    def cluster_names(self, include_shadow: bool = False) -> List[str]:
        """Names of the non-empty clusters, sorted.  Shadow version
        clusters (``<name>#v``, an implementation detail of
        :mod:`repro.ode.versions`) are filtered from the listing unless
        ``include_shadow`` is set."""
        store, epoch = self._reading()
        with store._mvcc_lock:
            names = sorted(name for name, members in store._members.items()
                           if members.size(epoch))
        if include_shadow:
            return names
        return [name for name in names if not is_version_cluster(name)]

    def cluster_size(self, cluster: str) -> int:
        store, epoch = self._reading()
        with store._mvcc_lock:
            return store._members.get(cluster, _NO_MEMBERS).size(epoch)

    def cluster_numbers(self, cluster: str) -> List[int]:
        """OID numbers of a cluster, ascending (sequencing order)."""
        return self.cluster_range(cluster, -1)

    def cluster_step(self, cluster: str, number: float,
                     forward: bool) -> Optional[int]:
        """The member number nearest to *number* strictly after it
        (*forward*) or before it, ``None`` past either end — one
        sequencing step, without materialising the cluster."""
        store, epoch = self._reading()
        with store._mvcc_lock:
            return next(store._members.get(cluster, _NO_MEMBERS).walk(
                epoch, number, forward), None)

    def cluster_range(self, cluster: str, after: float,
                      limit: Optional[int] = None) -> List[int]:
        """Up to *limit* member numbers greater than *after*, ascending."""
        store, epoch = self._reading()
        with store._mvcc_lock:
            return list(itertools.islice(
                store._members.get(cluster, _NO_MEMBERS).walk(epoch, after),
                limit))

    def oids(self) -> List[Oid]:
        """Every member OID, in cluster then sequencing order."""
        store, epoch = self._reading()
        with store._mvcc_lock:   # numbers only: Oids are built unlocked
            clusters = [(members.database, cluster,
                         list(members.walk(epoch, -1)))
                        for cluster, members in sorted(store._members.items())]
        return [Oid(database, cluster, number)
                for database, cluster, numbers in clusters
                for number in numbers]


class ChangeEntry:
    """One committed unit in a store's :class:`ChangeLog`."""

    __slots__ = ("epoch", "frames", "nbytes", "summary")

    def __init__(self, epoch: int, frames: List[WalRecord], nbytes: int):
        self.epoch = epoch
        #: The commit's full frame sequence (BEGIN, ops, COMMIT).
        self.frames = frames
        #: The unit's size in the WAL; the log is bounded by the sum.
        self.nbytes = nbytes
        #: Filled in by the first CDC reader (:mod:`repro.cdc.summary`)
        #: and shared by every later one.
        self.summary = None


class ChangeLog:
    """The store's committed units since :attr:`floor`, oldest first.

    The one buffer behind replica fetches and CDC push.  A unit enters
    on both publish paths (group-commit finish and
    :meth:`ObjectStore.apply_replicated`) in the store-lock critical
    section that publishes its epoch, so the entries are exactly every
    published epoch in ``(floor, tail]``.  Oldest units are trimmed once
    their WAL bytes exceed :data:`WAL_CHECKPOINT_BYTES`; a WAL
    checkpoint does not trim.  A snapshot install or a recovery that
    published epochs the log never saw resets it, raising the floor.

    Readers hold their own ``after_epoch``; a reader below the floor
    has lost units and must resync.
    """

    def __init__(self, floor: int):
        self._lock = threading.Lock()
        self._entries: List[ChangeEntry] = []
        self._nbytes = 0
        self._floor = floor
        #: Called with no arguments after every append and reset, on the
        #: writer's thread under the store lock: it must be cheap and
        #: must not block.  The server points it at its event loop.
        self.on_change: Optional[Callable[[], None]] = None

    @property
    def floor(self) -> int:
        """The epoch the oldest entry extends."""
        return self._floor

    @property
    def tail(self) -> int:
        """The newest epoch in the log (the floor when it is empty)."""
        with self._lock:
            return self._entries[-1].epoch if self._entries else self._floor

    @property
    def nbytes(self) -> int:
        return self._nbytes

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, epoch: int, frames: List[WalRecord], nbytes: int) -> None:
        with self._lock:
            self._entries.append(ChangeEntry(epoch, frames, nbytes))
            self._nbytes += nbytes
            trim = 0
            while self._nbytes > WAL_CHECKPOINT_BYTES:
                self._nbytes -= self._entries[trim].nbytes
                self._floor = self._entries[trim].epoch
                trim += 1
            del self._entries[:trim]
        self._wake()

    def reset(self, floor: int) -> None:
        with self._lock:
            self._entries = []
            self._nbytes = 0
            self._floor = floor
        self._wake()

    def _wake(self) -> None:
        hook = self.on_change
        if hook is not None:
            try:
                hook()
            except Exception:
                get_registry().counter("store.change_log.wake_errors").inc()

    def read(self, after_epoch: int,
             limit: Optional[int] = None) -> Optional[List[ChangeEntry]]:
        """Entries newer than *after_epoch*, oldest first, at most
        *limit*; ``None`` when *after_epoch* is below the floor."""
        with self._lock:
            if after_epoch < self._floor:
                return None
            start = bisect.bisect_right(self._entries, after_epoch,
                                        key=lambda entry: entry.epoch)
            stop = len(self._entries) if limit is None else start + limit
            return self._entries[start:stop]


class Snapshot(_MembershipReads):
    """A consistent read-only view of the store at one commit epoch.

    Reads (:meth:`get`, :meth:`exists`, :meth:`cluster_numbers`, …) see
    exactly the committed state as of :attr:`epoch` — never a later
    commit, never half of one — and never consult the write path's
    transaction overlay, so a snapshot on a store with an open
    transaction sees only committed data.

    Snapshots pin their epoch: old versions of objects overwritten after
    the snapshot was taken are retained until it is closed.  Close
    promptly (use ``with store.snapshot() as snap``), or call
    :meth:`refresh` to slide a long-lived snapshot forward.
    """

    __slots__ = ("_store", "_epoch", "_closed")

    def __init__(self, store: "ObjectStore", epoch: int):
        self._store = store
        self._epoch = epoch
        self._closed = False

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("snapshot is closed")

    def _reading(self) -> Tuple["ObjectStore", int]:
        self._check_open()
        return self._store, self._epoch

    # -- reads -----------------------------------------------------------------

    def get(self, oid: Oid) -> bytes:
        self._check_open()
        value = self._store._snapshot_lookup(oid, self._epoch)
        if value is None:
            raise ObjectNotFoundError(f"no object {oid} at epoch {self._epoch}")
        return value

    def exists(self, oid: Oid) -> bool:
        self._check_open()
        return self._store._snapshot_lookup(oid, self._epoch) is not None

    # -- lifecycle -------------------------------------------------------------

    def refresh(self) -> int:
        """Re-pin at the store's current epoch and return it.

        Cursor resets and subtree re-syncs use this to pick up commits
        made after the snapshot was taken, without churning objects.
        """
        self._check_open()
        fresh = self._store._pin_current()
        self._store._release_snapshot(self._epoch)
        self._epoch = fresh
        return fresh

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._store._release_snapshot(self._epoch)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        # An abandoned snapshot must not pin its epoch forever — old
        # versions would never prune.  Explicit close() is still the
        # contract; this is the backstop.
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter teardown
            pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Snapshot(epoch={self._epoch}, {state})"


class ObjectStore(_MembershipReads):
    """OID-addressed record storage over pages + buffer pool + WAL."""

    DATA_FILE = "data.pages"
    WAL_FILE = "wal.log"

    def __init__(self, directory: Union[str, Path], pool_capacity: int = 64,
                 fault_gate: Optional[Callable[..., Any]] = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._fault_gate = fault_gate
        # Reads mutate shared state (buffer-pool frames, LRU order), so a
        # store serving several server sessions needs every entry point
        # serialized.  Reentrant: put()/delete() recurse through begin().
        # Created first: the commit group holds it across a batch's
        # finish callbacks.
        self._lock = threading.RLock()
        self._pagefile = PageFile(self.directory / self.DATA_FILE,
                                  fault_gate=fault_gate)
        self._pool = BufferPool(self._pagefile, pool_capacity)
        self._wal = WriteAheadLog(self.directory / self.WAL_FILE,
                                  fault_gate=fault_gate)
        self._commit_group = GroupCommit(self._wal, finish_lock=self._lock)
        registry = get_registry()
        self._m_gets = registry.counter("store.gets")
        self._m_puts = registry.counter("store.puts")
        self._m_deletes = registry.counter("store.deletes")
        self._m_snapshot_reads = registry.counter("mvcc.snapshot_reads")
        self._m_read_fallbacks = registry.counter("mvcc.read_fallbacks")
        self._m_pruned = registry.counter("mvcc.pruned")
        self._m_full_sweeps = registry.counter("mvcc.full_sweeps")
        self._m_versions_live = registry.gauge("mvcc.versions_live")
        self._m_snapshots_open = registry.gauge("mvcc.snapshots_open")
        self._m_snapshot_age = registry.histogram(
            "mvcc.snapshot_age", bounds=[float(2 ** i) for i in range(24)])
        self._table: Dict[Oid, Location] = {}
        self._next_number: Dict[str, int] = {}
        # Next-fit allocator state: index into data_page_numbers() where
        # the last insert landed.  Purely a search-start hint — the scan
        # wraps, so any page with space is still found.
        self._insert_hint = 0
        # ``Page.free_space()`` of every data page, so that scan reads
        # no page: without it each page a bulk ingest fills costs a
        # fetch of every page before it.
        self._free_space: Dict[int, int] = {}
        self._txid: Optional[int] = None
        self._tx_counter = 0
        # MVCC state.  _mvcc_lock is leaf-level: held briefly, never
        # while doing I/O, and always acquired after _lock when both are
        # needed — snapshot reads take it alone, which is what keeps
        # them off the write path's lock.
        self._mvcc_lock = threading.Lock()
        # Only the chains some pinned reader may still need: all a
        # watermark sweep has to visit.
        self._mvcc: Dict[Oid, Chain] = {}
        self._pins: Dict[int, int] = {}
        # Committed membership per cluster, for the live view and for
        # snapshots alike; an emptied cluster keeps its (empty) entry.
        self._members: Dict[str, ClusterMembership] = {}
        self._epoch = 0
        # Fenced primary term (see DESIGN.md §Replication).  Recovered
        # from the WAL below; a fresh store — and any log written before
        # terms existed — starts at term 1.
        self._term = 1
        # A recovery mid-flight fails any commit staged before it (the
        # log rebuild truncated that commit's operation records), and
        # dooms any transaction left open across it.
        self._generation = 0
        self._tx_doomed = False
        # Derived-structure maintenance (attribute indexes, statistics).
        # Apply listeners run INSIDE the commit path — under the store
        # lock, after the pages are applied, before the epoch publishes
        # — so they can stamp the commit's epoch on their own updates
        # before any reader can see it.  Rebuild listeners run after
        # wholesale state replacement (recovery, replica resync), when
        # incremental deltas are no longer trustworthy.
        self._apply_listeners: List[Callable[
            [int, Dict[Oid, Optional[bytes]], Dict[Oid, bool]], None]] = []
        self._rebuild_listeners: List[Callable[[], None]] = []
        self._rebuild_from_pages(purge=self._redo_oids())
        self._recover_from_wal()
        self._rebuild_members()
        self._change_log = ChangeLog(self._epoch)
        # Epochs are minted at stage time and published at finish time;
        # the mint counter never regresses in-process, so a failed
        # commit leaves at most a gap, never a reused epoch.
        self._epoch_minted = self._epoch

    # -- recovery -------------------------------------------------------------

    def _redo_oids(self) -> FrozenSet[str]:
        """OIDs the WAL will redo (put *or* delete) at recovery.

        Every on-disk record of these OIDs is dropped during the page
        scan: a crash mid-apply can leave stale and fresh versions (or
        half a fragment chain) live at once, and the log — which holds
        the committed truth for exactly these OIDs — rewrites them from
        scratch anyway.
        """
        return frozenset(
            record.oid for record in self._wal.committed_operations())

    def _rebuild_from_pages(self, purge: FrozenSet[str] = frozenset()) -> None:
        self._free_space = {}
        partial: Dict[Oid, Dict[int, Tuple[int, int]]] = {}
        totals: Dict[Oid, int] = {}
        for page_no in self._pagefile.data_page_numbers():
            page = self._pool.fetch(page_no)
            for slot in page.live_slots():
                record = page.read(slot)
                if not record:
                    continue
                if record[0] == _FRAGMENT_MAGIC:
                    oid, index, total, _chunk = _decode_fragment(record)
                    if str(oid) in purge:
                        page.delete(slot)
                        continue
                    partial.setdefault(oid, {})[index] = (page_no, slot)
                    totals[oid] = total
                else:
                    from repro.ode.codec import decode_object

                    oid, _class_name, _values = decode_object(record)
                    if str(oid) in purge:
                        page.delete(slot)
                        continue
                    self._install(oid, [(page_no, slot)])
            self._free_space[page_no] = page.free_space()
        for oid, fragments in partial.items():
            total = totals[oid]
            if len(fragments) != total:
                raise StorageError(
                    f"object {oid} has {len(fragments)} of {total} fragments"
                )
            location = [fragments[i] for i in range(total)]
            self._install(oid, location)

    def _recover_from_wal(self) -> None:
        # Recover the epoch counter before the checkpoint below truncates
        # the log: COMMIT records carry the epoch they published, the
        # previous CHECKPOINT record the epoch current at truncation.
        self._epoch = max(self._epoch, self._wal.max_epoch())
        # Likewise the primary term: TERM records (the durable mint at
        # promotion), COMMIT records (the term each commit was accepted
        # under) and CHECKPOINT records (the term at truncation) all
        # carry it.  Pre-term logs decode as 0, hence the floor of 1.
        self._term = max(self._term, self._wal.max_term())
        operations = self._wal.committed_operations()
        for record in operations:
            oid = Oid.parse(record.oid)
            if record.op == OP_PUT:
                self._put_to_pages(oid, record.payload)
            elif record.op == OP_DELETE and oid in self._table:
                self._delete_from_pages(oid)
        self._pool.flush_all()
        self._wal.checkpoint(self._epoch, term=self._term)

    def _rebuild_members(self, epoch: Optional[int] = None) -> None:
        """Re-derive the MVCC state from the rebuilt object table: the
        cluster memberships as committed, no version chains, and — for
        a resync — the installed *epoch*, all in one step for readers."""
        members: Dict[str, ClusterMembership] = {}
        for oid in self._table:
            if oid.cluster not in members:
                members[oid.cluster] = ClusterMembership(oid.database)
            members[oid.cluster].numbers.append(oid.number)
        for membership in members.values():
            membership.numbers.sort()
        with self._mvcc_lock:
            self._mvcc.clear()
            self._m_versions_live.set(0)
            self._members = members
            if epoch is not None:
                self._epoch = epoch

    # -- bookkeeping -------------------------------------------------------------

    def _install(self, oid: Oid, location: Location) -> None:
        self._table[oid] = location
        nxt = self._next_number.get(oid.cluster, 0)
        if oid.number >= nxt:
            self._next_number[oid.cluster] = oid.number + 1

    def allocate_oid(self, database: str, cluster: str) -> Oid:
        """Mint the next OID for a cluster (monotonic within the store)."""
        with self._lock:
            number = self._next_number.get(cluster, 0)
            self._next_number[cluster] = number + 1
            return Oid(database, cluster, number)

    # -- page-level operations ------------------------------------------------------

    def _insert_record(self, record: bytes) -> Tuple[int, int]:
        # Next-fit: resume the scan where the last insert landed instead
        # of first-fit from page one.  An append-heavy workload (the
        # group-commit leader applying a batch) touches exactly one page
        # instead of re-scanning every full page per record; the wrap
        # keeps coverage identical — a new page is allocated only when
        # truly no existing page fits.
        pages = self._pagefile.data_page_numbers()
        start = self._insert_hint if self._insert_hint < len(pages) else 0
        for index in itertools.chain(range(start, len(pages)),
                                     range(0, start)):
            page_no = pages[index]
            if len(record) <= self._free_space[page_no]:
                break
        else:
            index, page_no = len(pages), self._pool.new_page()
        self._insert_hint = index
        page = self._pool.fetch(page_no)
        slot = page.insert(record)
        self._free_space[page_no] = page.free_space()
        return page_no, slot

    def _put_to_pages(self, oid: Oid, data: bytes) -> None:
        if oid in self._table:
            self._delete_from_pages(oid)
        if len(data) <= MAX_RECORD_SIZE:
            location = [self._insert_record(data)]
        else:
            chunks = [
                data[start:start + _FRAGMENT_CHUNK]
                for start in range(0, len(data), _FRAGMENT_CHUNK)
            ]
            location = [
                self._insert_record(_encode_fragment(oid, i, len(chunks), chunk))
                for i, chunk in enumerate(chunks)
            ]
        self._install(oid, location)

    def _delete_from_pages(self, oid: Oid) -> None:
        for page_no, slot in self._table[oid]:
            page = self._pool.fetch(page_no)
            page.delete(slot)
            self._free_space[page_no] = page.free_space()
        del self._table[oid]

    def _read_from_pages(self, oid: Oid) -> bytes:
        location = self._table[oid]
        if len(location) == 1:
            page_no, slot = location[0]
            record = self._pool.fetch(page_no).read(slot)
            if record and record[0] != _FRAGMENT_MAGIC:
                return record
        parts = []
        for page_no, slot in location:
            record = self._pool.fetch(page_no).read(slot)
            _oid, _index, _total, chunk = _decode_fragment(record)
            parts.append(chunk)
        return b"".join(parts)

    # -- transactions ------------------------------------------------------------------

    def _gate(self, site: str) -> None:
        """Cross one of the store's pure crash points (no-op ungated)."""
        if self._fault_gate is not None:
            self._fault_gate(site, None, _noop)

    def begin(self) -> int:
        """Start an explicit transaction; raises if one is already open."""
        with self._lock:
            self._check_doomed()
            if self._txid is not None:
                raise TransactionError("a transaction is already in progress")
            self._tx_counter += 1
            txid = self._tx_counter
            # Log buffering: nothing touches the WAL until the commit
            # stages.  An uncommitted transaction was always invisible
            # to recovery (a BEGIN with no COMMIT replays as nothing),
            # so keeping its records in memory until commit changes no
            # crash outcome — and it removes every per-operation log
            # write from the serialized stage path.
            self._txid = txid
            self._tx_writes: List[WalRecord] = []
            return txid

    def commit(self) -> None:
        """Commit the open transaction and block until it is durable,
        applied and published (stage + wait)."""
        self.commit_wait(self.commit_stage())

    def commit_stage(self) -> int:
        """Mint this transaction's commit epoch and queue its COMMIT
        record on the group-commit barrier; the transaction is over when
        this returns (a new one may begin immediately — that pipelining
        is the concurrency win).  Durability, page apply and epoch
        publication all happen later, on the barrier: nothing this
        commit wrote is visible to readers, and no ack may be sent,
        until :meth:`commit_wait` returns for the minted epoch.
        """
        with self._lock:
            if self._txid is None:
                raise TransactionError("no transaction in progress")
            try:
                epoch = self._epoch_minted + 1
                effects = self._tx_effects()
                generation = self._generation
                # The transaction's whole frame sequence rides the
                # barrier: the batch leader writes it with one blob
                # append, so this thread never touches the log file.
                frames = [WalRecord(op=OP_BEGIN, txid=self._txid),
                          *self._tx_writes,
                          WalRecord(op=OP_COMMIT, txid=self._txid,
                                    epoch=epoch, term=self._term)]
                self._commit_group.submit(
                    epoch, frames,
                    lambda nbytes: self._commit_finish(
                        epoch, frames, nbytes, effects, generation))
                self._epoch_minted = epoch
            finally:
                # Success or not, this transaction is finished: a failed
                # submit left nothing queued and nothing applied, so the
                # BEGIN without COMMIT is simply invisible to recovery.
                self._txid = None
                self._tx_writes = []
            return epoch

    def commit_wait(self, epoch: int) -> None:
        """Block until the staged *epoch* is durable and published.

        On a transient flush failure the outcome is ambiguous (the
        COMMIT record may or may not be on disk), so everything queued
        on the barrier is failed and the volatile state is rebuilt from
        stable storage — exactly what a reopen would decide.  A dead
        leader (simulated process crash) propagates
        :class:`~repro.errors.GroupCommitError` untouched: a dead
        process does not tidy up.
        """
        try:
            self._commit_group.wait_durable(epoch)
        except GroupCommitError:
            raise
        except Exception as exc:
            # Not under the store lock: the quiesce must wait out a
            # leader whose finish callbacks take that lock.
            self._commit_group.abort_pending(exc)
            with self._lock:
                self._recover_volatile()
                self._commit_group.reset(self._epoch)
            raise
        self._maybe_checkpoint()

    def _commit_finish(self, epoch: int, frames: List[WalRecord], nbytes: int,
                       effects: Dict[Oid, Optional[bytes]],
                       generation: int) -> None:
        """Apply + publish one durable commit (runs on the batch leader,
        in epoch order, after the batch fsync; *nbytes* is the unit's
        size in the WAL)."""
        with self._lock:
            if generation != self._generation:
                # The store rebuilt itself from stable storage after this
                # commit staged; the rebuild truncated its operation
                # records, so finishing it would apply state the log can
                # no longer redo.
                raise StorageError(
                    f"commit epoch {epoch} overtaken by store recovery")
            self._gate("store.commit.apply")
            preimages = self._capture_preimages(effects)
            existed = {oid: oid in self._table for oid in effects}
            for oid, payload in effects.items():
                if payload is None:
                    if oid in self._table:
                        self._delete_from_pages(oid)
                else:
                    self._put_to_pages(oid, payload)
            # Index maintenance rides the commit blob: same durability
            # (the WAL already holds the whole unit), same crash matrix
            # (the gate), same atomicity (a failure here fails the
            # commit, recovery rebuilds pages AND indexes from the log).
            # Crossed even with no listeners registered so the torture
            # workload covers the site unconditionally.
            self._gate("store.commit.index")
            self._notify_apply(epoch, effects, existed)
            self._gate("store.commit.publish")
            self._publish_epoch(epoch, effects, preimages)
            self._change_log.append(epoch, frames, nbytes)
            self._gate("store.commit.checkpoint")

    def _maybe_checkpoint(self) -> None:
        """Truncate the log when it has grown past the threshold.

        Only when no transaction is open and the barrier is idle: a
        queued commit's frames land *after* the truncation would run,
        and a checkpoint frame wedged into the middle of a batch's
        redo records would make recovery start replay halfway through
        a commit.  Both guards are stable while we hold the store
        lock: staging requires it.
        """
        if self._wal.size_bytes() < WAL_CHECKPOINT_BYTES:
            return
        with self._lock:
            if (self._txid is None and self._commit_group.idle()
                    and self._wal.size_bytes() >= WAL_CHECKPOINT_BYTES):
                self._pool.flush_all()
                self._wal.checkpoint(self._epoch, term=self._term)

    def group_commit_stats(self) -> Dict[str, Any]:
        """Batch-size/latency behaviour of this store's commit barrier."""
        return self._commit_group.stats()

    def cancel_commit_waits(self, message: str) -> None:
        """Release every thread parked on the commit barrier with a clean
        :class:`~repro.errors.GroupCommitError` (server shutdown path).
        Already-durable commits are unaffected."""
        self._commit_group.shutdown_cancel(message)

    # -- replication and CDC: the change log, applying in -----------------------

    @property
    def change_log(self) -> ChangeLog:
        """Every published commit since the log's floor, for replica
        fetches and CDC readers (local commits and replicated applies
        alike, so a chained replica feeds its own readers)."""
        return self._change_log

    # -- derived state (secondary indexes): apply/rebuild listeners --------------

    def add_apply_listener(
            self,
            listener: Callable[[int, Dict[Oid, Optional[bytes]],
                                Dict[Oid, bool]], None]) -> None:
        """Call ``listener(epoch, effects, existed)`` inside every commit.

        The listener runs under the store lock *between* the page apply
        and the epoch publish — both on the local commit path and on
        :meth:`apply_replicated` — so derived structures (secondary
        indexes) update atomically with the commit blob: a reader that
        can see epoch N's data can see epoch N's index entries, and
        vice versa.  ``existed`` maps each affected OID to whether it
        was present before this commit (the delta signal for
        cardinality statistics).
        """
        with self._lock:
            self._apply_listeners.append(listener)

    def add_rebuild_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener()`` whenever the store's contents are rebuilt
        wholesale (crash recovery, snapshot resync) and incremental
        derived state must be re-derived from the recovered truth."""
        with self._lock:
            self._rebuild_listeners.append(listener)

    def _notify_apply(self, epoch: int,
                      effects: Dict[Oid, Optional[bytes]],
                      existed: Dict[Oid, bool]) -> None:
        for listener in self._apply_listeners:
            listener(epoch, effects, existed)

    def _notify_rebuild(self) -> None:
        for listener in self._rebuild_listeners:
            listener()

    @staticmethod
    def _unit_effects(frames: List[WalRecord]) -> Dict[Oid, Optional[bytes]]:
        effects: Dict[Oid, Optional[bytes]] = {}
        for record in frames:
            if record.op == OP_PUT:
                effects[Oid.parse(record.oid)] = record.payload
            elif record.op == OP_DELETE:
                effects[Oid.parse(record.oid)] = None
        return effects

    @staticmethod
    def _unit_term(frames: List[WalRecord]) -> int:
        """The fenced primary term a shipped unit was committed under.

        Carried by the unit's COMMIT record; units from a primary that
        predates terms decode as 0 and are treated as term 1.
        """
        for record in reversed(frames):
            if record.op == OP_COMMIT:
                return max(1, record.term)
        return 1

    def apply_replicated(
            self, units: List[Tuple[int, List[WalRecord]]]) -> int:
        """Apply whole committed transactions shipped from a primary.

        Each unit is one commit's frame sequence (BEGIN, ops, COMMIT)
        tagged with the epoch the primary published it at; units must
        arrive in ascending epoch order.  Units at or below this store's
        epoch are skipped, so redelivery after a reconnect is idempotent.

        Durability first, exactly like the primary's own commits: every
        fresh unit's frames land in this replica's WAL as one blob and
        one fsync *before* any page is touched, so a crash mid-apply
        redoes the suffix from the log at reopen and the epoch counter
        (carried by the COMMIT records) never regresses.  Then each unit
        is applied and its epoch published in order — snapshot readers
        on the replica see exactly the primary's commit boundaries, at
        the primary's epochs.  Returns the new applied epoch.
        """
        with self._lock:
            if self._txid is not None:
                raise TransactionError(
                    "cannot apply replicated commits with a transaction open")
            fresh = [(epoch, frames) for epoch, frames in units
                     if epoch > self._epoch]
            if not fresh:
                return self._epoch
            # Epochs are minted one per commit, so the shipped window
            # must extend this store's epoch with no hole: a skipped
            # epoch means a committed transaction this replica would
            # silently never see.  Terms fence the other direction: a
            # unit committed under a term below this store's comes from
            # a primary that was failed over away from, and applying it
            # would split-brain — rejected before anything is written.
            last = self._epoch
            term = self._term
            for epoch, frames in fresh:
                # Term first: a stale unit that also breaks contiguity
                # should report the root cause (a fenced primary), not
                # the symptom.
                unit_term = self._unit_term(frames)
                if unit_term < term:
                    raise StalePrimaryError(
                        f"replicated unit at epoch {epoch} carries term "
                        f"{unit_term}, below this store's term {term}")
                term = unit_term
                if epoch != last + 1:
                    raise ReplicaDivergedError(
                        f"replicated units skip an epoch: {epoch} "
                        f"cannot extend {last}")
                last = epoch
            sizes = iter(self._wal.append_batch(
                [record for _epoch, frames in fresh for record in frames]))
            self._wal.group_sync()
            # Adopt a higher term arriving in the stream.  Durable for
            # free: the COMMIT records just fsynced above carry it, and
            # recovery reads the term back out of them.
            self._term = term
            for epoch, frames in fresh:
                effects = self._unit_effects(frames)
                preimages = self._capture_preimages(effects)
                existed = {oid: oid in self._table for oid in effects}
                for oid, payload in effects.items():
                    if payload is None:
                        if oid in self._table:
                            self._delete_from_pages(oid)
                    else:
                        self._put_to_pages(oid, payload)
                # Replica-side index maintenance: the same hook the
                # primary's commit path runs, at the primary's epoch,
                # before the epoch publishes — a replica-local probe at
                # a pinned epoch answers exactly like the primary's.
                self._gate("store.commit.index")
                index_ok = True
                try:
                    self._notify_apply(epoch, effects, existed)
                except Exception:
                    # Derived state only: do not wedge replication on a
                    # listener bug.  Rebuilt from committed state below,
                    # after the unit's epoch is published.
                    index_ok = False
                    get_registry().counter("store.index.apply_errors").inc()
                self._publish_epoch(epoch, effects, preimages)
                if not index_ok:
                    self._notify_rebuild()
                if epoch > self._epoch_minted:
                    self._epoch_minted = epoch
                self._change_log.append(
                    epoch, frames, sum(next(sizes) for _record in frames))
            applied = self._epoch
        self._maybe_checkpoint()
        return applied

    def install_replicated(self, epoch: int,
                           records: List[Tuple[str, bytes]],
                           term: Optional[int] = None) -> int:
        """Replace the whole store with a primary snapshot (resync).

        The catch-up path for a replica that fell behind the primary's
        WAL window: every live object is dropped, the snapshot's records
        are installed, and the store's epoch jumps to the snapshot's.
        A snapshot *older* than this replica would make applied epochs
        regress — that is a topology error
        (:class:`~repro.errors.ReplicaDivergedError`), never silently
        applied.  ``term`` is the primary's fenced term: below this
        store's term the snapshot comes from a failed-over-away-from
        primary (:class:`~repro.errors.StalePrimaryError`); *above* it,
        the snapshot is the rejoin path for a fenced node, and the epoch
        may legitimately rewind — progress is ordered by
        ``(term, epoch)``, so a higher term re-licenses any epoch.
        ``None`` means the caller predates terms and keeps the pure
        epoch rule.  Live snapshot readers degrade to the installed
        state (the same contract as a store recovery).  The closing
        checkpoint stamps the new epoch and term durable.
        """
        with self._lock:
            if self._txid is not None:
                raise TransactionError(
                    "cannot resync a store with a transaction open")
            if term is not None:
                term = max(1, term)
                if term < self._term:
                    raise StalePrimaryError(
                        f"resync snapshot carries term {term}, below this "
                        f"store's term {self._term}")
            if epoch < self._epoch and not (term is not None
                                            and term > self._term):
                raise ReplicaDivergedError(
                    f"resync snapshot at epoch {epoch} is older than this "
                    f"replica (epoch {self._epoch})")
            if term is not None:
                self._term = term
            for oid in list(self._table):
                self._delete_from_pages(oid)
            for text, payload in records:
                self._put_to_pages(Oid.parse(text), payload)
            self._pool.flush_all()
            self._rebuild_members(epoch)
            self._notify_rebuild()
            # Wholesale replacement: the mint counter tracks the
            # installed epoch exactly, including *down* on a term-raise
            # rewind — anything minted above it belongs to the fenced
            # past and must not shadow the new primary's epochs.
            self._epoch_minted = epoch
            self._wal.checkpoint(epoch, term=self._term)
            # The log's units belong to the replaced history; readers
            # below the installed epoch resync, none streams across it.
            self._change_log.reset(epoch)
            return epoch

    def _check_doomed(self) -> None:
        """Raise (once) if a recovery destroyed the open transaction."""
        if self._tx_doomed:
            self._tx_doomed = False
            raise TransactionError(
                "transaction aborted by store recovery (its operation "
                "records were truncated while another commit failed)")

    def abort(self) -> None:
        with self._lock:
            if self._txid is None:
                raise TransactionError("no transaction in progress")
            # The transaction's records are buffered in memory until
            # commit, so dropping the buffer *is* the abort — the log
            # never saw this transaction.  (ABORT records still replay
            # correctly for logs written before buffering.)
            self._txid = None
            self._tx_writes = []

    def _recover_volatile(self) -> None:
        """Rebuild pool/table/indexes from disk after a failed commit.

        The old buffer pool is discarded unflushed — its dirty frames
        are precisely the partial apply that must not survive.  OID
        allocation state is kept (``_install`` only ever raises it), so
        already-handed-out OIDs stay unique.

        Recovery itself crosses fault gates (its replay writes pages and
        truncates the log), so under transient error injection it may
        fail too; it is retried a few times — each attempt starts from
        stable storage, so a half-done attempt costs nothing — before
        the store gives up and reports itself broken.
        """
        # Any commit staged before this point can no longer finish (its
        # operation records are about to be truncated) ...
        self._generation += 1
        # ... and a transaction left open by a *different* pipelined
        # writer is destroyed with it: doom it so that writer's next
        # call fails loudly instead of silently losing its buffered ops.
        if self._txid is not None:
            self._txid = None
            self._tx_writes = []
            self._tx_doomed = True
        last: Optional[BaseException] = None
        for _attempt in range(5):
            try:
                self._pool = BufferPool(self._pagefile, self._pool.capacity)
                self._table = {}
                self._rebuild_from_pages(purge=self._redo_oids())
                self._recover_from_wal()
                # The chains may describe a commit the recovery replay
                # resolved the other way; they go with the old
                # membership.  Live snapshots degrade to the recovered
                # state — still a consistent transaction boundary,
                # never a half-applied commit.
                self._rebuild_members()
                self._notify_rebuild()
                if self._epoch != self._change_log.tail:
                    # The replay published commits the log never saw.
                    self._change_log.reset(self._epoch)
                return
            except StorageError as exc:
                last = exc
        raise last

    @property
    def in_transaction(self) -> bool:
        return self._txid is not None

    def _tx_overlay(self, oid: Oid) -> Optional[WalRecord]:
        if self._txid is None:
            return None
        for record in reversed(self._tx_writes):
            if record.oid == str(oid):
                return record
        return None

    # -- MVCC: epochs, version chains, snapshots ----------------------------------

    @property
    def epoch(self) -> int:
        """The last published commit epoch (0 on a fresh store)."""
        return self._epoch

    @property
    def term(self) -> int:
        """The fenced primary term this store operates under (≥ 1).

        Minted durably at promotion (:meth:`promote_term`) or adopted
        from a higher-term primary's replicated units/snapshot; never
        decreases.  Progress across the cluster is ordered by
        ``(term, epoch)`` lexicographically — an epoch may only rewind
        when the term rises (a fenced node resyncing under the new
        primary).
        """
        return self._term

    def promote_term(self) -> int:
        """Mint the next fenced primary term durably and return it.

        The TERM record is appended and fsynced before this returns, so
        the new term survives a crash an instant later: the fence must
        never be weaker than the writes it guards.  Every commit staged
        after this carries the new term in its COMMIT record.
        """
        with self._lock:
            minted = self._term + 1
            self._wal.mint_term(minted)
            self._term = minted
            return minted

    @property
    def watermark(self) -> int:
        """The oldest epoch any live snapshot can still observe.

        Versions retired at or before this epoch are invisible to every
        current and future reader; derived structures (index entries,
        version chains) may discard them.
        """
        with self._mvcc_lock:
            return self._watermark_locked()

    def _watermark_locked(self) -> int:
        return min(self._pins) if self._pins else self._epoch

    @property
    def lock(self):
        """The store's commit/structure lock, for callers that must keep
        a multi-step read of store state consistent (e.g. an index
        rebuild that scans a cluster and stamps ``built_epoch``)."""
        return self._lock

    def snapshot(self) -> Snapshot:
        """Pin the current epoch and return a consistent read view."""
        return Snapshot(self, self._pin_current())

    def _pin_current(self) -> int:
        with self._mvcc_lock:
            epoch = self._epoch
            self._pins[epoch] = self._pins.get(epoch, 0) + 1
            self._m_snapshots_open.inc()
            return epoch

    def _release_snapshot(self, epoch: int) -> None:
        with self._mvcc_lock:
            remaining = self._pins.get(epoch, 0) - 1
            self._m_snapshots_open.dec()
            self._m_snapshot_age.observe(float(self._epoch - epoch))
            if remaining > 0:
                self._pins[epoch] = remaining
                return
            self._pins.pop(epoch, None)
            # Only the last pin of the *oldest* pinned epoch holds the
            # watermark down; any other release can free nothing.
            watermark = self._watermark_locked()
            if watermark > epoch:
                self._m_full_sweeps.inc()
                for members in self._members.values():
                    members.prune(watermark)
                self._prune_locked(list(self._mvcc.items()))

    def _tx_effects(self) -> Dict[Oid, Optional[bytes]]:
        """Net effect of the open transaction, last write per OID wins
        (``None`` = deleted)."""
        effects: Dict[Oid, Optional[bytes]] = {}
        for record in self._tx_writes:
            effects[Oid.parse(record.oid)] = (
                record.payload if record.op == OP_PUT else None)
        return effects

    def _capture_preimages(
            self, effects: Dict[Oid, Optional[bytes]],
    ) -> Dict[Oid, Optional[bytes]]:
        """Committed values of the OIDs this commit overwrites.

        Captured *before* the pages are touched: where a written OID has
        no version chain at publish, the pre-image becomes the chain's
        base entry (stamped epoch 0), so snapshots older than this
        commit keep reading the overwritten value.  Captured for every
        written OID, chain or not: a snapshot release (``_mvcc_lock``
        only) can prune a chain away between here and the publish, and
        gating on live pins would race a snapshot opened in between.
        """
        return {
            oid: self._read_from_pages(oid) if oid in self._table else None
            for oid in effects
        }

    def _publish_epoch(self, epoch: int,
                       effects: Dict[Oid, Optional[bytes]],
                       preimages: Dict[Oid, Optional[bytes]]) -> None:
        """Make a flushed commit visible to readers, atomically.

        Runs under ``_mvcc_lock``: a reader sees the store entirely
        before this commit (old epoch, old chains, old membership) or
        entirely after — never a mixture.
        """
        with self._mvcc_lock:
            touched = []
            # With no reader pinned (none can appear before the epoch
            # is set below) nobody will ever need this commit undone.
            undo_epoch = epoch if self._pins else None
            for oid, payload in effects.items():
                chain = self._mvcc.get(oid)
                if chain is None:
                    chain = self._mvcc[oid] = [(0, preimages[oid])]
                    self._m_versions_live.inc()
                chain.append((epoch, payload))
                self._m_versions_live.inc()
                touched.append((oid, chain))
                members = self._members.get(oid.cluster)
                if members is None:
                    members = self._members[oid.cluster] = (
                        ClusterMembership(oid.database))
                members.change(oid.number, payload is not None, undo_epoch)
            self._epoch = epoch
            self._prune_locked(touched)

    def _prune_locked(self, chains: Iterable[Tuple[Oid, Chain]]) -> None:
        """Drop versions no live snapshot can reach (``_mvcc_lock`` held).

        Within a chain, everything superseded by a newer entry at or
        below the watermark goes.  A chain whose newest entry is at or
        below the watermark goes whole: that entry is the OID's current
        committed value, which every reader sees and the pages hold.

        *chains* are the ones that can have prunable entries: those one
        commit just grew — O(commit size) — or, when a snapshot release
        raised the watermark, every chain.
        """
        watermark = self._watermark_locked()
        pruned = 0
        for oid, chain in chains:
            if chain[-1][0] <= watermark:
                del self._mvcc[oid]
                pruned += len(chain)
                continue
            for index in range(len(chain) - 2, 0, -1):
                if chain[index][0] <= watermark:
                    del chain[:index]
                    pruned += index
                    break
        if pruned:
            self._m_pruned.inc(pruned)
            self._m_versions_live.dec(pruned)

    @staticmethod
    def _chain_entry_at(chain: Chain,
                        epoch: int) -> Optional[Tuple[int, Optional[bytes]]]:
        for index in range(len(chain) - 1, -1, -1):
            if chain[index][0] <= epoch:
                return chain[index]
        return None

    def _snapshot_lookup(self, oid: Oid, epoch: int) -> Optional[bytes]:
        """Committed value of *oid* at *epoch* (``None`` = absent).

        Fast path: the version chain, under ``_mvcc_lock`` only.  A miss
        means the OID is unmodified since the watermark (every
        modification creates a chain; pruning only removes what no live
        snapshot needs), so the current pages hold the right answer —
        read them, through the buffer pool, under the store lock.
        """
        self._m_snapshot_reads.inc()
        with self._mvcc_lock:
            entry = self._chain_entry_at(self._mvcc.get(oid, ()), epoch)
            if entry is not None:
                return entry[1]
        self._m_read_fallbacks.inc()
        with self._lock:
            # Re-check under the store lock: the commit leader applies
            # the pages and publishes the chain (with the pre-image we
            # need) under it, so a commit that overwrote this OID while
            # we waited has its chain in place by now.
            with self._mvcc_lock:
                entry = self._chain_entry_at(self._mvcc.get(oid, ()), epoch)
                if entry is not None:
                    return entry[1]
            return self._read_from_pages(oid) if oid in self._table else None

    # -- public record API ---------------------------------------------------------------

    def put(self, oid: Oid, data: bytes) -> None:
        """Write a record.  Inside a transaction the write is buffered; outside
        it commits immediately through a single-op transaction."""
        if not data:
            raise StorageError("cannot store an empty record")
        with self._lock:
            self._m_puts.inc()
            record = WalRecord(op=OP_PUT, txid=self._txid or 0, oid=str(oid),
                               payload=data)
            if self._txid is not None:
                self._tx_writes.append(record)
                return
            self.begin()
            try:
                self.put(oid, data)
                self.commit()
            except Exception:
                if self.in_transaction:
                    self.abort()
                raise

    def get(self, oid: Oid) -> bytes:
        with self._lock:
            self._m_gets.inc()
            overlay = self._tx_overlay(oid)
            if overlay is not None:
                if overlay.op == OP_DELETE:
                    raise ObjectNotFoundError(
                        f"object {oid} deleted in this transaction")
                return overlay.payload
            if oid not in self._table:
                raise ObjectNotFoundError(f"no object {oid}")
            return self._read_from_pages(oid)

    def delete(self, oid: Oid) -> None:
        with self._lock:
            if not self.exists(oid):
                raise ObjectNotFoundError(f"no object {oid}")
            self._m_deletes.inc()
            record = WalRecord(op=OP_DELETE, txid=self._txid or 0, oid=str(oid))
            if self._txid is not None:
                self._tx_writes.append(record)
                return
            self.begin()
            try:
                self.delete(oid)
                self.commit()
            except Exception:
                if self.in_transaction:
                    self.abort()
                raise

    def exists(self, oid: Oid) -> bool:
        with self._lock:
            overlay = self._tx_overlay(oid)
            if overlay is not None:
                return overlay.op == OP_PUT
            return oid in self._table

    def _reading(self) -> Tuple["ObjectStore", None]:
        return self, None

    # -- maintenance ------------------------------------------------------------------------

    def fragmentation(self) -> float:
        """Fraction of data-page space not holding live payload (0..1)."""
        with self._lock:
            total = 0
            used = 0
            for page_no in self._pagefile.data_page_numbers():
                page = self._pool.fetch(page_no)
                total += PAGE_SIZE
                used += sum(len(page.read(slot))
                            for slot in page.live_slots())
            if total == 0:
                return 0.0
            return 1.0 - used / total

    def vacuum(self) -> int:
        """Rewrite the page file densely; returns pages reclaimed.

        Deletes and overwrites leave holes that compaction within a page
        cannot give back to the file.  Vacuum streams every live record
        into a fresh page file and atomically swaps it in.  Must run
        outside a transaction.  The whole swap runs under the store
        lock, like every other entry point: a concurrent reader sees the
        store before or after the swap, never mid-swap.  The commit
        barrier is drained first (outside the lock — the leader's finish
        callbacks need it), and re-drained if a commit slips in between:
        vacuum truncates the log, which must not orphan a commit whose
        COMMIT record has not landed yet.
        """
        while True:
            self._commit_group.drain()
            with self._lock:
                if self._txid is not None:
                    raise TransactionError(
                        "cannot vacuum inside a transaction")
                if not self._commit_group.idle():
                    continue  # raced a new commit; release the lock, re-drain
                return self._vacuum_locked()

    def _vacuum_locked(self) -> int:
        with self._lock:
            self._pool.flush_all()
            pages_before = self._pagefile.page_count

            records = [(oid, self._read_from_pages(oid))
                       for oid in self._table]

            fresh_path = self.directory / (self.DATA_FILE + ".vacuum")
            fresh_path.unlink(missing_ok=True)
            fresh_file = PageFile(fresh_path, fault_gate=self._fault_gate)
            fresh_pool = BufferPool(fresh_file, self._pool.capacity)

            old_pagefile = self._pagefile
            old_pool = self._pool
            self._pagefile = fresh_file
            self._pool = fresh_pool
            self._free_space = {}
            self._table = {}
            try:
                for oid, data in records:
                    self._put_to_pages(oid, data)
                self._pool.flush_all()
            except Exception:
                # roll back to the old file untouched
                self._pagefile = old_pagefile
                self._pool = old_pool
                fresh_file.close()
                fresh_path.unlink(missing_ok=True)
                self._table = {}
                self._rebuild_from_pages()
                raise
            fresh_file.close()
            old_pagefile.close()
            fresh_path.replace(self.directory / self.DATA_FILE)
            self._pagefile = PageFile(self.directory / self.DATA_FILE,
                                      fault_gate=self._fault_gate)
            self._pool = BufferPool(self._pagefile, old_pool.capacity)
            self._table = {}
            self._rebuild_from_pages()
            self._wal.checkpoint(self._epoch, term=self._term)
            return pages_before - self._pagefile.page_count

    # -- lifecycle --------------------------------------------------------------------------

    @property
    def pool(self) -> BufferPool:
        return self._pool

    def flush(self) -> None:
        with self._lock:
            self._pool.flush_all()

    def close(self) -> None:
        """Drain the commit barrier, flush the pages, checkpoint, close.

        The closing checkpoint replaces the per-commit one group commit
        removed: once the pages are flushed the log's contents are
        redundant, and truncating here keeps the reopen replay empty for
        a cleanly closed store.
        """
        while True:
            with self._lock:
                if self._txid is not None:
                    self.abort()
            self._commit_group.drain()
            with self._lock:
                if not self._commit_group.idle():
                    continue  # raced a new commit; re-drain
                if not self._wal.closed:
                    self._pool.flush_all()
                    self._wal.checkpoint(self._epoch, term=self._term)
                    self._wal.close()
                self._pagefile.close()
                return

    def __enter__(self) -> "ObjectStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
