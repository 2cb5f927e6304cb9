"""The object store: transactions, the commit pipeline, replicated apply
and install, recovery, checkpoints and lifecycle.

Where bytes live is :mod:`repro.ode.placement`'s decision, what a
reader sees is :mod:`repro.ode.mvcc`'s, and what replicas and CDC
readers stream is :mod:`repro.ode.changelog`'s; durability comes from
the write-ahead log.

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
is truncated by a size-triggered checkpoint
(:data:`~repro.ode.changelog.WAL_CHECKPOINT_BYTES`, taken only when no
transaction is open and the barrier is idle) and at close/vacuum — not
per commit.  A crash anywhere recovers at reopen: if a COMMIT record is
durable the transaction is redone from the log — and every on-disk
record of an OID the log will redo is *purged* first, because a crash
mid-apply can leave both the old and the new version live on disk, and
a rebuild that kept both could resurrect the stale one.  If the COMMIT
record is not durable, apply never started and the pages are untouched.

One apply path.  Local commits and a replica's durable shipped units
are applied by one function, :meth:`ObjectStore._apply_unit`, which
holds the store's four pure crash points (:mod:`repro.faultsim.sites`).
An ``Exception`` escaping once a unit is durable rebuilds the volatile
state from stable storage (:meth:`ObjectStore._recover_volatile`) as a
reopen would; the primary re-raises to its client, a replica has none
and returns the recovered epoch.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    GroupCommitError,
    ObjectNotFoundError,
    ReplicaDivergedError,
    StalePrimaryError,
    StorageError,
    TransactionError,
)
from repro.obs import get_registry
from repro.ode import changelog
from repro.ode.bufferpool import BufferPool
from repro.ode.mvcc import MvccState, Snapshot, _MembershipReads
from repro.ode.oid import Oid
from repro.ode.placement import Placement
from repro.ode.wal import (
    OP_BEGIN,
    OP_COMMIT,
    OP_DELETE,
    OP_PUT,
    GroupCommit,
    WalRecord,
    WriteAheadLog,
)


def _noop() -> None:
    """Default continuation for the store's pure crash points."""


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
        self._placement = Placement(self.directory / self.DATA_FILE,
                                    pool_capacity, fault_gate=fault_gate)
        self._wal = WriteAheadLog(self.directory / self.WAL_FILE,
                                  fault_gate=fault_gate)
        self._commit_group = GroupCommit(self._wal, finish_lock=self._lock)
        self._mvcc = MvccState()
        registry = get_registry()
        self._m_gets = registry.counter("store.gets")
        self._m_puts = registry.counter("store.puts")
        self._m_deletes = registry.counter("store.deletes")
        self._m_snapshot_reads = registry.counter("mvcc.snapshot_reads")
        self._m_read_fallbacks = registry.counter("mvcc.read_fallbacks")
        self._m_apply_recoveries = registry.counter("store.apply_recoveries")
        self._txid: Optional[int] = None
        self._tx_counter = 0
        # Fenced primary term (see DESIGN.md §Replication).  Recovered
        # from the WAL below; a fresh store — and any log written before
        # terms existed — starts at term 1.
        self._term = 1
        # A recovery mid-flight fails any commit staged before it (the
        # log rebuild truncated that commit's operation records), and
        # dooms any transaction left open across it.
        self._generation = 0
        self._tx_doomed = False
        # Epochs are minted at stage time and published at finish time;
        # the mint counter never regresses in-process, so a failed
        # commit leaves at most a gap, never a reused epoch.
        self._epoch_minted = 0
        #: Derived state (the object manager's indexes): its
        #: ``apply_effects(epoch, effects)`` runs inside every
        #: :meth:`_apply_unit`, its ``on_store_rebuilt()`` after recovery
        #: or a resync replaced the contents wholesale.
        self.derived: Optional[Any] = None
        self._load_stable()
        self._change_log = changelog.ChangeLog(self.epoch)

    # -- recovery -------------------------------------------------------------

    def _load_stable(self) -> None:
        """Rebuild every volatile structure from the pages and the log,
        exactly as a reopen decides, and checkpoint."""
        replay = self._wal.replay()
        self._placement.load(purge=frozenset(
            record.oid for record in replay.operations))
        # Pre-term logs replay as term 0, hence the store's floor of 1.
        epoch = max(self._mvcc.epoch, replay.epoch)
        self._term = max(self._term, replay.term)
        for record in replay.operations:
            oid = Oid.parse(record.oid)
            if record.op == OP_PUT:
                self._placement.put(oid, record.payload)
            else:
                self._placement.delete(oid)
        # Chains may describe a commit the replay resolved the other way:
        # live snapshots degrade to the recovered, consistent state.
        self._mvcc.reset(self._placement.oids(), epoch)
        self._epoch_minted = max(self._epoch_minted, epoch)
        self._checkpoint()

    def _recover_volatile(self) -> None:
        """Rebuild pool/table/indexes from disk after a failed apply.

        The old buffer pool is discarded unflushed — its dirty frames
        are precisely the partial apply that must not survive.

        Recovery itself crosses fault gates (its replay writes pages and
        truncates the log), so under transient error injection it may
        fail too; it is retried a few times — each attempt starts from
        stable storage, so a half-done attempt costs nothing — before
        the store gives up and reports itself broken.
        """
        self._m_apply_recoveries.inc()
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
                self._load_stable()
                if self.derived is not None:
                    self.derived.on_store_rebuilt()
                if self.epoch != self._change_log.tail:
                    # The replay published commits the log never saw.
                    self._change_log.reset(self.epoch)
                return
            except StorageError as exc:
                last = exc
        raise last

    def _checkpoint(self) -> None:
        """Flush every dirty page, then truncate the log, stamping the
        current epoch and term."""
        self._placement.flush()
        self._wal.checkpoint(self.epoch, term=self._term)

    def _maybe_checkpoint(self) -> None:
        """Truncate the log when it has grown past the threshold.

        Only when no transaction is open and the barrier is idle: a
        queued commit's frames land *after* the truncation would run,
        and a checkpoint frame wedged into the middle of a batch's
        redo records would make recovery start replay halfway through
        a commit.  Both guards are stable while we hold the store
        lock: staging requires it.
        """
        if self._wal.size_bytes() < changelog.WAL_CHECKPOINT_BYTES:
            return
        with self._lock:
            if (self._txid is None and self._commit_group.idle()
                    and self._wal.size_bytes()
                    >= changelog.WAL_CHECKPOINT_BYTES):
                self._checkpoint()

    def _when_idle(self, action: Callable[[], Any]) -> Any:
        """Run *action* under the store lock with the commit barrier idle
        — drained outside the lock (the leader's finish callbacks take
        it), re-drained if a commit slipped in — so a log truncation
        cannot orphan a commit whose COMMIT record has not landed."""
        while True:
            self._commit_group.drain()
            with self._lock:
                if self._commit_group.idle():
                    return action()

    # -- the one apply path ------------------------------------------------------

    def _gate(self, site: str) -> None:
        """Cross one of the store's pure crash points (no-op ungated)."""
        if self._fault_gate is not None:
            self._fault_gate(site, None, _noop)

    def _apply_unit(self, epoch: int, frames: List[WalRecord], nbytes: int,
                    effects: Dict[Oid, Optional[bytes]]) -> None:
        """Apply one durable unit and publish it (store lock held): the
        one apply path of local commits and replicated units, and the
        only place the store's crash points are crossed.  *nbytes* is
        the unit's size in the WAL."""
        self._gate("store.commit.apply")
        placement = self._placement
        # Captured for every written OID, chain or not: a snapshot
        # release can prune a chain away before the publish.
        preimages = {oid: placement.read(oid) for oid in effects}
        for oid, payload in effects.items():
            if payload is None:
                placement.delete(oid)
            else:
                placement.put(oid, payload)
        # Index maintenance rides the commit blob: same durability (the
        # WAL already holds the whole unit), same crash matrix (the
        # gate), same atomicity (a failure here fails the unit, and
        # recovery rebuilds pages AND indexes from the log).  Crossed
        # with no derived state too, so the torture workload covers the
        # site unconditionally.
        self._gate("store.commit.index")
        if self.derived is not None:
            self.derived.apply_effects(epoch, effects)
        self._gate("store.commit.publish")
        self._mvcc.publish(epoch, effects, preimages)
        self._epoch_minted = max(self._epoch_minted, epoch)
        self._change_log.append(epoch, frames, nbytes)
        self._gate("store.commit.checkpoint")

    # -- transactions ------------------------------------------------------------------

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
                effects = self._unit_effects(self._tx_writes)
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

        On a failed flush or apply the outcome is ambiguous (the COMMIT
        record may or may not be on disk), so everything queued on the
        barrier is failed and the volatile state is rebuilt from stable
        storage — exactly what a reopen would decide — and the error is
        re-raised.  A dead leader (simulated process crash) propagates
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
                self._commit_group.reset(self.epoch)
            raise
        self._maybe_checkpoint()

    def _commit_finish(self, epoch: int, frames: List[WalRecord], nbytes: int,
                       effects: Dict[Oid, Optional[bytes]],
                       generation: int) -> None:
        """Apply + publish one durable commit (runs on the batch leader,
        in epoch order, after the batch fsync)."""
        with self._lock:
            if generation != self._generation:
                # The store rebuilt itself from stable storage after this
                # commit staged; the rebuild truncated its operation
                # records, so finishing it would apply state the log can
                # no longer redo.
                raise StorageError(
                    f"commit epoch {epoch} overtaken by store recovery")
            self._apply_unit(epoch, frames, nbytes, effects)

    def group_commit_stats(self) -> Dict[str, Any]:
        """Batch-size/latency behaviour of this store's commit barrier."""
        return self._commit_group.stats()

    def cancel_commit_waits(self, message: str) -> None:
        """Release every thread parked on the commit barrier with a clean
        :class:`~repro.errors.GroupCommitError` (server shutdown path).
        Already-durable commits are unaffected."""
        self._commit_group.shutdown_cancel(message)

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

    # -- replication and CDC: the change log, applying in -----------------------

    @property
    def change_log(self) -> changelog.ChangeLog:
        """Every published commit since the log's floor, for replica
        fetches and CDC readers (local commits and replicated applies
        alike, so a chained replica feeds its own readers)."""
        return self._change_log

    @staticmethod
    def _unit_effects(frames: List[WalRecord]) -> Dict[Oid, Optional[bytes]]:
        """Net effect of a unit's writes, last write per OID wins
        (``None`` = deleted)."""
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
        goes through :meth:`_apply_unit` in order — snapshot readers on
        the replica see exactly the primary's commit boundaries, at the
        primary's epochs.  A failure after the units are durable is
        resolved by recovery, which redoes them from the log; one before
        is resolved the same way and re-raised.  Returns the new applied
        epoch.
        """
        with self._lock:
            if self._txid is not None:
                raise TransactionError(
                    "cannot apply replicated commits with a transaction open")
            fresh = [(epoch, frames) for epoch, frames in units
                     if epoch > self.epoch]
            if not fresh:
                return self.epoch
            # Epochs are minted one per commit, so the shipped window
            # must extend this store's epoch with no hole: a skipped
            # epoch means a committed transaction this replica would
            # silently never see.  Terms fence the other direction: a
            # unit committed under a term below this store's comes from
            # a primary that was failed over away from, and applying it
            # would split-brain — rejected before anything is written.
            last = self.epoch
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
            durable = False
            try:
                sizes = iter(self._wal.append_batch(
                    [record for _epoch, frames in fresh for record in frames]))
                self._wal.group_sync()
                durable = True
                # Adopt a higher term arriving in the stream.  Durable
                # for free: the COMMIT records just fsynced above carry
                # it, and recovery reads the term back out of them.
                self._term = term
                for epoch, frames in fresh:
                    self._apply_unit(epoch, frames,
                                     sum(next(sizes) for _record in frames),
                                     self._unit_effects(frames))
            except Exception:
                self._recover_volatile()
                if not durable:
                    raise
            applied = self.epoch
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
            if epoch < self.epoch and not (term is not None
                                           and term > self._term):
                raise ReplicaDivergedError(
                    f"resync snapshot at epoch {epoch} is older than this "
                    f"replica (epoch {self.epoch})")
            if term is not None:
                self._term = term
            for oid in self._placement.oids():
                self._placement.delete(oid)
            for text, payload in records:
                self._placement.put(Oid.parse(text), payload)
            self._mvcc.reset(self._placement.oids(), epoch)
            # Wholesale replacement: the mint counter tracks the
            # installed epoch exactly, including *down* on a term-raise
            # rewind — anything minted above it belongs to the fenced
            # past and must not shadow the new primary's epochs.
            self._epoch_minted = epoch
            self._checkpoint()
            if self.derived is not None:
                self.derived.on_store_rebuilt()
            # The log's units belong to the replaced history; readers
            # below the installed epoch resync, none streams across it.
            self._change_log.reset(epoch)
            return epoch

    # -- MVCC: epochs, terms, snapshots ---------------------------------------------

    @property
    def epoch(self) -> int:
        """The last published commit epoch (0 on a fresh store)."""
        return self._mvcc.epoch

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
        return self._mvcc.watermark

    @property
    def lock(self):
        """The store's commit/structure lock, for callers that must keep
        a multi-step read of store state consistent (e.g. an index
        rebuild that scans a cluster and stamps ``built_epoch``)."""
        return self._lock

    def snapshot(self) -> Snapshot:
        """Pin the current epoch and return a consistent read view."""
        return Snapshot(self._mvcc, self._snapshot_lookup)

    def _snapshot_lookup(self, oids: Sequence[Oid],
                         epoch: int) -> List[Optional[bytes]]:
        """Committed value of each of *oids* at *epoch* (``None`` =
        absent).

        Fast path: the version chains, in one MVCC lock hold, without
        the store lock.  A miss means the pages hold the right answer —
        the misses are read under one store-lock acquisition, each page
        fetched once through the buffer pool.
        """
        self._m_snapshot_reads.inc(len(oids))
        entries = self._mvcc.lookup_many(oids, epoch)
        records = [None if entry is None else entry[1] for entry in entries]
        misses = [index for index, entry in enumerate(entries)
                  if entry is None]
        if not misses:
            return records
        self._m_read_fallbacks.inc(len(misses))
        with self._lock:
            # Re-check under the store lock: the commit leader applies
            # the pages and publishes the chain (with the pre-image we
            # need) under it, so a commit that overwrote one of these
            # OIDs while we waited has its chain in place by now.
            rechecked = self._mvcc.lookup_many(
                [oids[index] for index in misses], epoch)
            unread = []
            for index, entry in zip(misses, rechecked):
                if entry is None:
                    unread.append(index)
                else:
                    records[index] = entry[1]
            read = self._placement.read_many([oids[index] for index in unread])
        for index, record in zip(unread, read):
            records[index] = record
        return records

    def _reading(self) -> Tuple[MvccState, None]:
        return self._mvcc, None

    # -- public record API ---------------------------------------------------------------

    def allocate_oid(self, database: str, cluster: str) -> Oid:
        """Mint the next OID for a cluster (monotonic within the store)."""
        with self._lock:
            return self._placement.allocate(database, cluster)

    def put(self, oid: Oid, data: bytes) -> None:
        """Write a record.  Inside a transaction the write is buffered; outside
        it commits immediately through a single-op transaction."""
        if not data:
            raise StorageError("cannot store an empty record")
        with self._lock:
            self._m_puts.inc()
            self._write(OP_PUT, oid, data)

    def delete(self, oid: Oid) -> None:
        with self._lock:
            if not self.exists(oid):
                raise ObjectNotFoundError(f"no object {oid}")
            self._m_deletes.inc()
            self._write(OP_DELETE, oid)

    def _write(self, op: str, oid: Oid, payload: bytes = b"") -> None:
        """Buffer one write in the open transaction, or — outside one —
        commit it alone (autocommit)."""
        if self._txid is not None:
            self._tx_writes.append(WalRecord(op=op, txid=self._txid,
                                             oid=str(oid), payload=payload))
            return
        self.begin()
        try:
            self._write(op, oid, payload)
            self.commit()
        except Exception:
            if self.in_transaction:
                self.abort()
            raise

    def get(self, oid: Oid) -> bytes:
        value = self.find(oid)
        if value is None:
            raise ObjectNotFoundError(f"no object {oid}")
        return value

    def find(self, oid: Oid) -> Optional[bytes]:
        """The record of *oid* as this thread's transaction sees it,
        ``None`` when absent (or deleted in the open transaction)."""
        with self._lock:
            self._m_gets.inc()
            overlay = self._tx_overlay(oid)
            if overlay is not None:
                return overlay.payload if overlay.op == OP_PUT else None
            return self._placement.read(oid)

    def exists(self, oid: Oid) -> bool:
        with self._lock:
            overlay = self._tx_overlay(oid)
            if overlay is not None:
                return overlay.op == OP_PUT
            return oid in self._placement

    # -- maintenance ------------------------------------------------------------------------

    def fragmentation(self) -> float:
        """Fraction of data-page space not holding live payload (0..1)."""
        with self._lock:
            return self._placement.fragmentation()

    def vacuum(self) -> int:
        """Rewrite the page file densely; returns pages reclaimed.

        Must run outside a transaction.  The whole swap runs under the
        store lock with the commit barrier idle: a concurrent reader
        sees the store before or after the swap, never mid-swap, and
        the closing checkpoint orphans no queued commit.
        """
        return self._when_idle(self._vacuum_locked)

    def _vacuum_locked(self) -> int:
        if self._txid is not None:
            raise TransactionError("cannot vacuum inside a transaction")
        reclaimed = self._placement.vacuum()
        self._checkpoint()
        return reclaimed

    # -- lifecycle --------------------------------------------------------------------------

    @property
    def pool(self) -> BufferPool:
        return self._placement.pool

    def close(self) -> None:
        """Drain the commit barrier, flush the pages, checkpoint, close.

        The closing checkpoint replaces the per-commit one group commit
        removed: once the pages are flushed the log's contents are
        redundant, and truncating here keeps the reopen replay empty for
        a cleanly closed store.
        """
        self._when_idle(self._close_locked)

    def _close_locked(self) -> None:
        if self._txid is not None:
            self.abort()
        if not self._wal.closed:
            self._checkpoint()
            self._wal.close()
        self._placement.close()

    def __enter__(self) -> "ObjectStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
