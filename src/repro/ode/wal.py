"""Write-ahead log.

The store logs logical operations (object put/delete) per transaction,
forces the log at commit, applies the changes to pages, and truncates the
log at checkpoint.  On open, any transactions that committed in the log but
were not checkpointed are replayed — so a crash between commit and page
write-back loses nothing, and a crash mid-transaction leaves no trace.

Record format: ``length u32 | crc32 u32 | payload``, where the payload is a
self-describing codec struct.  A torn final record (crash during append) is
detected by the CRC and everything from it onward is ignored.

Flush contract.  ``append`` returns with the frame *flushed to the OS*
(``file.flush``, not ``fsync``): the bytes are visible to any reader of
the file — including :meth:`WriteAheadLog.records` and a simulated
crash, which preserves everything flushed — but they are **not durable**
against a real power loss until :meth:`sync` or :meth:`group_sync` runs.
Callers passing ``sync=False`` may therefore rely on *ordering* (earlier
appends are never reordered after later ones; the log is written by one
handle under one lock) but must not rely on durability until a sync
covers their append.  The group-commit coordinator below is built on
exactly this contract: operation records are appended unsynced as they
happen, and only the batched COMMIT records pay an fsync.

Fault injection.  Like :class:`~repro.ode.pagefile.PageFile`, the log
takes an optional ``fault_gate`` (see :mod:`repro.faultsim.plan` for
the contract) consulted at its stable-storage sites: ``wal.append``
(the frame bytes about to be written — a gate can tear the frame at any
byte, which is how the torn-tail recovery path is tortured; a batched
group-commit append crosses this site once with the whole batch blob),
``wal.sync`` (checkpoint/recovery syncs) and ``wal.group.sync`` (the
single fsync that makes a group-commit batch durable).  ``None`` (the
default) costs one ``is None`` test.
"""

from __future__ import annotations

import contextlib
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import GroupCommitError, StorageError, WalError
from repro.obs import get_registry
from repro.obs.metrics import Histogram
from repro.ode.codec import decode_value, encode_value

_FRAME = struct.Struct(">II")

OP_BEGIN = "begin"
OP_PUT = "put"
OP_DELETE = "delete"
OP_COMMIT = "commit"
OP_ABORT = "abort"
OP_CHECKPOINT = "checkpoint"
OP_TERM = "term"

_KNOWN_OPS = {OP_BEGIN, OP_PUT, OP_DELETE, OP_COMMIT, OP_ABORT, OP_CHECKPOINT,
              OP_TERM}


@dataclass(frozen=True)
class WalRecord:
    """One logical log record.

    ``epoch`` is meaningful on COMMIT and CHECKPOINT records: the
    store's commit epoch as of that record, used to recover the epoch
    counter on reopen.  Logs written before MVCC carry no epoch field
    and decode as epoch 0.

    ``term`` is the fenced primary term: minted durably by a TERM
    record at promotion, stamped on every COMMIT (the term the commit
    was accepted under — this is what replication units carry on the
    wire) and on CHECKPOINT records (so the counter survives log
    truncation).  Logs written before promotion existed decode as
    term 0, which the store treats as term 1.
    """

    op: str
    txid: int
    oid: str = ""
    payload: bytes = b""
    epoch: int = 0
    term: int = 0

    def to_value(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "txid": self.txid,
            "oid": self.oid,
            "payload": self.payload,
            "epoch": self.epoch,
            "term": self.term,
        }

    @classmethod
    def from_value(cls, value: Dict[str, Any]) -> "WalRecord":
        op = value.get("op", "")
        if op not in _KNOWN_OPS:
            raise WalError(f"unknown WAL op {op!r}")
        payload = value.get("payload", b"")
        if not isinstance(payload, bytes):
            raise WalError(
                f"WAL payload must be bytes, not {type(payload).__name__}")
        return cls(
            op=op,
            txid=int(value.get("txid", 0)),
            oid=value.get("oid", ""),
            payload=payload,
            epoch=int(value.get("epoch", 0)),
            term=int(value.get("term", 0)),
        )


@dataclass(frozen=True)
class WalReplay:
    """The log as a reopen reads it (:meth:`WriteAheadLog.replay`)."""

    #: PUT/DELETE records of committed transactions since the last
    #: checkpoint, in log order.
    operations: List[WalRecord]
    #: Highest commit epoch recorded (0 for pre-MVCC logs).  COMMIT
    #: records carry the epoch their transaction published; CHECKPOINT
    #: records the epoch current at truncation, so the counter survives
    #: a checkpoint that empties the log.
    epoch: int
    #: Highest primary term recorded (0 for older logs).  TERM records
    #: are the durable mint at promotion; COMMIT records carry the term
    #: each commit was accepted under (replicated commits included, so a
    #: replica's adopted term survives its own restarts); CHECKPOINT
    #: records the term current at truncation.
    term: int


class WriteAheadLog:
    """Append-only log with CRC framing and torn-tail recovery."""

    def __init__(self, path: Union[str, Path],
                 fault_gate: Optional[Callable[..., Any]] = None):
        self.path = Path(path)
        self._fault_gate = fault_gate
        self._fh = open(self.path, "a+b")
        # One handle, one writer at a time: concurrent committers go
        # through the group-commit coordinator, but operation records
        # from a staging writer can race the leader's batch append, so
        # every file-touching method serializes here.  Reentrant:
        # checkpoint() appends its own CHECKPOINT record.
        self._io = threading.RLock()
        self._fh.seek(0, os.SEEK_END)
        # Cached log size, maintained at every append/truncate.  It
        # exists so size_bytes() — polled by every committer to drive
        # checkpoint scheduling — never takes the I/O lock: that lock is
        # held across the group-commit fsync, and a seek-to-end behind
        # it was a measurable stall for every waiting writer.
        self._size = self._fh.tell()

    # -- append ------------------------------------------------------------------

    @staticmethod
    def encode_frame(record: WalRecord) -> bytes:
        """The exact on-disk frame (header + CRC + codec payload) for a record."""
        payload = encode_value(record.to_value())
        return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload

    def append(self, record: WalRecord, sync: bool = False) -> None:
        """Append one record.

        Returns with the frame flushed to the OS — immediately visible
        to :meth:`records` and preserved by a simulated crash — but not
        durable until a :meth:`sync`/:meth:`group_sync` covers it (see
        the module docstring's flush contract).  ``sync=True`` pays that
        fsync before returning.
        """
        frame = self.encode_frame(record)
        with self._io:
            self._fh.seek(0, os.SEEK_END)
            if self._fault_gate is None:
                self._fh.write(frame)
                self._fh.flush()
            else:
                self._fault_gate("wal.append", frame, self._append_through)
            self._size += len(frame)
            if sync:
                self.sync()

    def append_batch(self, records: List[WalRecord]) -> List[int]:
        """Append several records as one contiguous write; returns each
        record's frame size.

        The frames are concatenated and cross the ``wal.append`` fault
        gate as a *single* blob — one write, one crash point — which is
        what makes a group-commit batch tear like one record sequence: a
        fault can cut the blob at any byte, and recovery keeps exactly
        the intact frame prefix.  Flushed on return, durable only after
        :meth:`group_sync`.
        """
        if not records:
            return []
        frames = [self.encode_frame(record) for record in records]
        blob = b"".join(frames)
        with self._io:
            self._fh.seek(0, os.SEEK_END)
            if self._fault_gate is None:
                self._fh.write(blob)
                self._fh.flush()
            else:
                self._fault_gate("wal.append", blob, self._append_through)
            self._size += len(blob)
        return [len(frame) for frame in frames]

    def _append_through(self, frame: bytes) -> None:
        """Gated append continuation: write and flush, so a torn frame
        injected by the gate is on disk when the simulated crash hits."""
        self._fh.write(frame)
        self._fh.flush()

    def sync(self) -> None:
        with self._io:
            if self._fault_gate is None:
                self._do_sync()
            else:
                self._fault_gate("wal.sync", None, self._do_sync)

    def group_sync(self) -> None:
        """The group-commit fsync: same effect as :meth:`sync`, its own
        fault-gate site (``wal.group.sync``) so crash schedules can
        target the instant a whole batch becomes durable."""
        with self._io:
            if self._fault_gate is None:
                self._do_sync()
            else:
                self._fault_gate("wal.group.sync", None, self._do_sync)

    def _do_sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def size_bytes(self) -> int:
        """Current log size (appended bytes; drives checkpoint scheduling).

        Deliberately lock-free: reads the cached counter (a plain int —
        atomic to read in CPython) so committers polling for the
        checkpoint threshold never queue behind a leader's fsync.
        """
        return self._size

    # -- replay --------------------------------------------------------------------

    def records(self) -> Iterator[WalRecord]:
        """Yield every intact record; stop silently at a torn tail.

        Reading is a pure function of the on-disk file: ``append`` flushes
        as it writes, so iteration never needs to touch (or flush) the
        writer handle as a side effect.
        """
        with self._io:
            with open(self.path, "rb") as fh:
                data = fh.read()
        offset = 0
        while offset + _FRAME.size <= len(data):
            length, crc = _FRAME.unpack_from(data, offset)
            start = offset + _FRAME.size
            end = start + length
            if end > len(data):
                return  # torn tail
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                return  # torn/corrupt tail
            value, consumed = decode_value(payload, 0)
            if consumed != length or not isinstance(value, dict):
                raise WalError("corrupt WAL record body")
            yield WalRecord.from_value(value)
            offset = end

    def replay(self) -> WalReplay:
        """What reopening a store needs from the log, in one pass."""
        pending: Dict[int, List[WalRecord]] = {}
        committed: List[WalRecord] = []
        epoch = term = 0
        for record in self.records():
            if record.op in (OP_COMMIT, OP_CHECKPOINT):
                epoch = max(epoch, record.epoch)
            if record.op in (OP_TERM, OP_COMMIT, OP_CHECKPOINT):
                term = max(term, record.term)
            if record.op == OP_CHECKPOINT:
                pending.clear()
                committed.clear()
            elif record.op == OP_BEGIN:
                pending[record.txid] = []
            elif record.op in (OP_PUT, OP_DELETE):
                pending.setdefault(record.txid, []).append(record)
            elif record.op == OP_COMMIT:
                committed.extend(pending.pop(record.txid, ()))
            elif record.op == OP_ABORT:
                pending.pop(record.txid, None)
        return WalReplay(committed, epoch, term)

    def committed_units(
            self, after_epoch: int,
    ) -> Tuple[List[Tuple[int, List[WalRecord]]], Optional[int]]:
        """Whole committed transactions newer than *after_epoch*, from disk.

        This is the replication catch-up reader: each returned *unit* is
        one commit's full frame sequence (BEGIN, ops, COMMIT) exactly as
        the group-commit leader appended it, keyed by its commit epoch,
        in file order — which is epoch order.

        The second value is the *floor*: the epoch stamped in the head
        CHECKPOINT record, i.e. the point up to which the log has been
        truncated.  The returned units are provably every committed
        epoch in ``(after_epoch, tail]`` **iff** ``after_epoch >=
        floor``; a caller further behind than the floor has lost its
        window into the log and must resync from a snapshot.  ``None``
        means the log has no head checkpoint (a pre-MVCC log) and
        contiguity cannot be proven at all.
        """
        floor: Optional[int] = None
        first = True
        pending: Dict[int, List[WalRecord]] = {}
        units: List[Tuple[int, List[WalRecord]]] = []
        for record in self.records():
            if first:
                first = False
                if record.op == OP_CHECKPOINT:
                    floor = record.epoch
            if record.op in (OP_CHECKPOINT, OP_TERM):
                continue
            if record.op == OP_BEGIN:
                pending[record.txid] = [record]
            elif record.op in (OP_PUT, OP_DELETE):
                pending.setdefault(
                    record.txid,
                    [WalRecord(op=OP_BEGIN, txid=record.txid)],
                ).append(record)
            elif record.op == OP_COMMIT:
                frames = pending.pop(record.txid, None)
                if frames is not None and record.epoch > after_epoch:
                    units.append((record.epoch, frames + [record]))
            elif record.op == OP_ABORT:
                pending.pop(record.txid, None)
        return units, floor

    def mint_term(self, term: int) -> None:
        """Durably record a newly minted (or adopted) primary term.

        The TERM record is appended and fsynced before this returns —
        the term is the fence, so it must never be weaker than the
        writes it fences.
        """
        self.append(WalRecord(op=OP_TERM, txid=0, term=term), sync=True)

    # -- checkpoint ------------------------------------------------------------------

    def checkpoint(self, epoch: int = 0, term: int = 0) -> None:
        """Truncate the log once all committed work is safely in the pages.

        ``epoch`` (the store's current commit epoch) and ``term`` (its
        fenced primary term) are stamped into the CHECKPOINT record so
        neither counter regresses across a reopen, even when the
        checkpoint removed every COMMIT and TERM record.

        Atomic: the one-record replacement log is written and fsynced to
        a side file, then renamed over the live log.  A crash at any
        instant therefore leaves either the complete old log (every
        committed record still replayable, epoch recoverable) or the new
        checkpointed log — never the empty/torn-head log that an
        in-place truncate-then-append leaves when the crash lands
        between the truncate and the CHECKPOINT record's fsync.  That
        window used to reset the epoch counter to zero at reopen, which
        replication cannot tolerate: a replica would see its primary
        travel back in time.

        Holds the I/O lock across the swap, so a concurrent group-commit
        batch lands entirely in the old log (and is dropped with it) or
        entirely after the CHECKPOINT — never half.
        """
        frame = self.encode_frame(
            WalRecord(op=OP_CHECKPOINT, txid=0, epoch=epoch, term=term))
        side_path = self.path.with_name(self.path.name + ".ckpt")
        with self._io:
            with open(side_path, "wb") as side:
                def write_through(payload: bytes = frame) -> None:
                    side.write(payload)
                    side.flush()

                def sync_through() -> None:
                    os.fsync(side.fileno())

                # Crossed under the existing WAL gate sites: a fault
                # here tears/loses only the side file, and the live log
                # — still holding everything — wins at recovery.
                if self._fault_gate is None:
                    write_through()
                    sync_through()
                else:
                    self._fault_gate("wal.append", frame, write_through)
                    self._fault_gate("wal.sync", None, sync_through)
            self._fh.close()
            os.replace(side_path, self.path)
            dir_fd = os.open(str(self.path.parent), os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
            self._fh = open(self.path, "a+b")
            self._fh.seek(0, os.SEEK_END)
            self._size = self._fh.tell()

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def close(self) -> None:
        with self._io:
            if not self._fh.closed:
                self._fh.flush()
                self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Batch-size histogram buckets: powers of two up to a generous cap.
_BATCH_BOUNDS = [float(2 ** i) for i in range(11)]

#: Most queued commits one leader writes as one blob and one fsync.
MAX_BATCH = 64


class GroupCommit:
    """The commit barrier: many writers, one fsync per batch.

    Writers *stage* a commit (mint an epoch, submit the transaction's
    buffered WAL frames — BEGIN, operations, COMMIT — here) and then
    *wait*.  The frames never touch the log before this point: the store
    buffers them in memory, so the serialized stage path does no file
    I/O at all.  The first waiter to find no leader becomes
    the leader for what is pending, up to :data:`MAX_BATCH` commits: it
    appends every queued transaction's frames as one epoch-ordered blob,
    issues a single ``wal.group.sync`` fsync, and then runs each commit's
    ``on_durable(nbytes)`` callback **in epoch order**, with the commit's
    size in the log — the store's callback applies the commit's pages,
    publishes its epoch and appends the unit to its change log, so
    visibility is granted strictly after durability, oldest first.
    Followers wake when the durable watermark passes their epoch.  The
    leader never waits for stragglers: commits staged while it fsyncs
    form the next batch, so batches grow with the number of concurrent
    writers and a lone writer pays one fsync per commit.

    Failure protocol: a *transient* ``Exception`` during a flush fails
    the whole batch **and** everything still pending (the store recovers
    from stable storage, which truncates their operation records); each
    failed epoch's waiter receives the error.  A ``BaseException``
    (e.g. a simulated process crash) marks the coordinator dead — the
    leader re-raises its own crash, every other waiter gets
    :class:`~repro.errors.GroupCommitError`, and no in-process recovery
    is attempted.
    """

    def __init__(self, wal: WriteAheadLog,
                 finish_lock: Optional[threading.RLock] = None):
        self._wal = wal
        # Held across a whole batch's finish callbacks (the store passes
        # its own lock).  Each callback takes the same lock anyway; one
        # hold per batch instead of one per commit stops the convoy
        # where every release hands the lock to a staging writer and the
        # leader re-queues behind it B times per flush.
        self._finish_lock = finish_lock
        # Signalled by the leader when durability or leadership changes;
        # staging a commit signals nobody (a waiter only parks while a
        # leader is active, and the leader's exit broadcasts).
        self._cond = threading.Condition(threading.Lock())
        # epoch-ascending (epoch, frames, on_durable) triples; *frames*
        # is one transaction's full record sequence (BEGIN, ops, COMMIT)
        self._pending: List[
            Tuple[int, List[WalRecord], Optional[Callable[[int], None]]]] = []
        self._durable = 0
        self._leader = False
        self._dead: Optional[BaseException] = None
        self._cancelled: Optional[str] = None
        self._failed: Dict[int, BaseException] = {}
        # per-coordinator counters for stats(); the registry mirrors are
        # process-global (shared by every store in the process)
        self._batches = 0
        self._commits = 0
        self._syncs = 0
        self._largest_batch = 0
        self._wait_hist = Histogram("group_commit.wait_seconds")
        registry = get_registry()
        self._m_batches = registry.counter("wal.group.batches")
        self._m_commits = registry.counter("wal.group.commits")
        self._m_syncs = registry.counter("wal.group.syncs")
        self._m_batch_size = registry.histogram("wal.group.batch_size",
                                                bounds=_BATCH_BOUNDS)
        self._m_wait = registry.histogram("wal.group.wait_seconds")

    # -- the writer-facing protocol ---------------------------------------------

    def submit(self, epoch: int, frames: List[WalRecord],
               on_durable: Optional[Callable[[int], None]] = None) -> None:
        """Queue one commit's buffered WAL frames (called at stage, under
        the store lock; epochs therefore arrive in ascending order)."""
        with self._cond:
            if self._dead is not None:
                raise GroupCommitError(
                    "group-commit coordinator is dead (leader crashed)")
            if self._cancelled is not None:
                raise GroupCommitError(
                    f"commit group cancelled: {self._cancelled}")
            self._pending.append((epoch, frames, on_durable))

    def wait_durable(self, epoch: int) -> None:
        """Block until *epoch* is durable and finished (its ``on_durable``
        ran), leading a flush if no leader is active.  Raises the batch's
        error if the flush failed."""
        start = time.perf_counter()
        try:
            self._settle(epoch)
        finally:
            elapsed = time.perf_counter() - start
            self._wait_hist.observe(elapsed)
            self._m_wait.observe(elapsed)

    def drain(self) -> None:
        """Flush everything pending and return once idle (close/vacuum).
        Propagates a flush failure instead of recording it silently —
        the caller must not truncate the log after a failed flush."""
        while True:
            with self._cond:
                if self._dead is not None:
                    raise GroupCommitError(
                        "group-commit coordinator is dead (leader crashed)")
                if not self._pending and not self._leader:
                    return
                if self._leader:
                    self._cond.wait(0.05)
                    continue
                self._leader = True
            try:
                self._lead_once()
            finally:
                with self._cond:
                    self._leader = False
                    self._cond.notify_all()

    def abort_pending(self, exc: BaseException) -> None:
        """Fail every queued commit (store recovery is about to truncate
        their operation records).  Waits out an active leader first; must
        NOT be called holding the store lock — the leader's callbacks
        take it."""
        with self._cond:
            while self._leader:
                self._cond.wait(0.05)
            for epoch, _frames, _cb in self._pending:
                if epoch > self._durable:
                    self._failed[epoch] = StorageError(
                        f"commit epoch {epoch} aborted by store recovery: {exc}")
            self._pending.clear()
            self._cond.notify_all()

    def reset(self, durable: int) -> None:
        """Advance the durable watermark after a store recovery replayed
        the log (never regresses it)."""
        with self._cond:
            if durable > self._durable:
                self._durable = durable
            self._cond.notify_all()

    def shutdown_cancel(self, message: str) -> None:
        """Cancel every parked waiter with a clean error (server shutdown).

        Commits that are already durable stay durable — their waiters
        return normally — but anything still queued is failed with a
        :class:`~repro.errors.GroupCommitError` naming *message*, and
        from here on new submits and waits fail fast.  This is what lets
        a draining server release commit-barrier waiters instead of
        leaking their sessions past the drain deadline.
        """
        with self._cond:
            self._cancelled = message
            for epoch, _frames, _cb in self._pending:
                if epoch > self._durable:
                    self._failed.setdefault(epoch, GroupCommitError(
                        f"commit epoch {epoch} cancelled: {message}"))
            self._pending.clear()
            self._cond.notify_all()

    def idle(self) -> bool:
        """True when nothing is queued and no leader is flushing."""
        with self._cond:
            return not self._pending and not self._leader

    def stats(self) -> Dict[str, Any]:
        """This coordinator's batching behaviour (process-local metrics
        mirror these under ``wal.group.*``)."""
        with self._cond:
            batches, commits = self._batches, self._commits
            syncs, largest = self._syncs, self._largest_batch
        wait = self._wait_hist
        return {
            "batches": batches,
            "commits": commits,
            "syncs": syncs,
            "batch_size_mean": (commits / batches) if batches else 0.0,
            "batch_size_max": largest,
            "wait_count": wait.count,
            "wait_mean_ms": wait.mean * 1e3,
            "wait_p95_ms": wait.percentile(95) * 1e3,
        }

    # -- leader internals --------------------------------------------------------

    def _settle(self, epoch: int) -> None:
        while True:
            with self._cond:
                if epoch in self._failed:
                    raise self._failed.pop(epoch)
                if epoch <= self._durable:
                    return
                if self._dead is not None:
                    raise GroupCommitError(
                        f"group-commit leader crashed; epoch {epoch} "
                        f"outcome unknown until reopen")
                if self._cancelled is not None:
                    raise GroupCommitError(
                        f"commit epoch {epoch} cancelled: {self._cancelled}")
                if self._leader:
                    self._cond.wait(0.05)
                    continue
                if not self._pending:
                    # not durable, not failed, not queued, nobody flushing
                    raise StorageError(
                        f"commit epoch {epoch} was lost by the commit group")
                self._leader = True
            try:
                self._lead_once()
            except Exception:
                # already recorded per-epoch in _failed; our own epoch
                # resolves on the next loop iteration
                pass
            finally:
                with self._cond:
                    self._leader = False
                    self._cond.notify_all()

    def _lead_once(self) -> None:
        with self._cond:
            batch = self._pending[:MAX_BATCH]
            del self._pending[:len(batch)]
        if not batch:
            return
        try:
            self._flush_group(batch)
        except Exception as exc:
            with self._cond:
                for failed_epoch, _frames, _cb in (*batch, *self._pending):
                    if failed_epoch > self._durable:
                        self._failed[failed_epoch] = exc
                self._pending.clear()
                self._cond.notify_all()
            raise
        except BaseException as exc:
            with self._cond:
                self._dead = exc
                self._cond.notify_all()
            raise

    def _flush_group(
            self,
            batch: List[Tuple[int, List[WalRecord],
                              Optional[Callable[[int], None]]]],
    ) -> None:
        """Make one batch durable, then finish its commits in epoch order.

        The blob holds every transaction's full frame sequence (BEGIN,
        ops, COMMIT) back to back in epoch order, so a torn write keeps
        an epoch-ordered prefix of whole commits — a transaction cut
        mid-frames is missing its COMMIT and replays as nothing.

        The durable watermark advances per commit as its callback
        completes, so a callback failure mid-batch fails exactly the
        unfinished suffix (`_lead_once` records epochs above the
        watermark).
        """
        sizes = iter(self._wal.append_batch(
            [record for _epoch, frames, _cb in batch for record in frames]))
        self._wal.group_sync()
        with self._cond:
            self._batches += 1
            self._syncs += 1
            self._commits += len(batch)
            self._largest_batch = max(self._largest_batch, len(batch))
        self._m_batches.inc()
        self._m_syncs.inc()
        self._m_commits.inc(len(batch))
        self._m_batch_size.observe(float(len(batch)))
        # Advance the watermark per commit (a callback failure mid-batch
        # must fail exactly the unfinished suffix) but wake the waiters
        # once per *batch*: a notify_all per commit would stampede every
        # parked follower through the condition B times per flush.
        hold = (self._finish_lock if self._finish_lock is not None
                else contextlib.nullcontext())
        try:
            with hold:
                for epoch, frames, on_durable in batch:
                    nbytes = sum(next(sizes) for _record in frames)
                    if on_durable is not None:
                        on_durable(nbytes)
                    with self._cond:
                        if epoch > self._durable:
                            self._durable = epoch
        finally:
            with self._cond:
                self._cond.notify_all()
