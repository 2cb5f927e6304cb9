"""Crash-recovery torture for WAL-shipping replication.

Extends the single-store torture harness with a replica: the seeded
workload runs against a gated primary while a replica — fed by the
server's own :func:`~repro.repl.feed.fetch` from the primary's change
log — applies committed units at seeded, deliberately-laggy points
between transactions.  The schedule can also kill the replica mid-run
(same ``kill -9`` model as the primary) and, at ``crash_at``, kills the
primary itself.  After the
dust settles both stores are reopened, the replica catches up, and the
harness model-checks the full replication contract:

* the primary's survivors are an acceptable workload state — no acked
  write lost, exactly as in the single-store matrix;
* the replica's *published epoch never regresses*, across its own
  kills, the primary's kill, and the final catch-up (resync included);
* every epoch the replica published by streaming is a **contiguous
  prefix extension** of the primary's committed epoch sequence — the
  replica never skips a committed epoch and never invents one;
* after catch-up the replica's store is byte-identical to the
  primary's.

Everything is a function of ``(seed, crash_at, kill_replica)``, so a
failure line is a complete reproduction recipe.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.faultsim.harness import (
    TORTURE_POOL_CAPACITY,
    TortureWorkload,
    crash_store,
)
from repro.faultsim.plan import CrashSchedule, SimulatedCrash, derive_seed
from repro.ode.store import ObjectStore
from repro.ode.wal import OP_CHECKPOINT, OP_COMMIT, WriteAheadLog
from repro.repl.feed import fetch, units_from_wire

#: Probability that a post-commit quiescent point ships-and-applies.
APPLY_PROBABILITY = 0.6

#: Probability that a quiescent point kills the replica (when enabled).
KILL_PROBABILITY = 0.25


class ReplicatedCrashOutcome:
    """What one replicated schedule did — for failure messages."""

    def __init__(self, seed: int, crash_at: int, crashed: bool,
                 kill_replica: bool, replica_kills: int, resynced: bool,
                 survivors_ok: bool, epochs_monotonic: bool,
                 prefix_ok: bool, converged: bool, detail: str):
        self.seed = seed
        self.crash_at = crash_at
        self.crashed = crashed
        self.kill_replica = kill_replica
        self.replica_kills = replica_kills
        self.resynced = resynced
        self.survivors_ok = survivors_ok
        self.epochs_monotonic = epochs_monotonic
        self.prefix_ok = prefix_ok
        self.converged = converged
        self.detail = detail

    @property
    def ok(self) -> bool:
        return (self.survivors_ok and self.epochs_monotonic
                and self.prefix_ok and self.converged)

    def describe(self) -> str:
        return (
            f"replicated schedule seed={self.seed} crash_at={self.crash_at} "
            f"kill_replica={self.kill_replica} crashed={self.crashed} "
            f"replica_kills={self.replica_kills} resynced={self.resynced}\n"
            f"  survivors_ok={self.survivors_ok} "
            f"epochs_monotonic={self.epochs_monotonic} "
            f"prefix_ok={self.prefix_ok} converged={self.converged}\n"
            f"  {self.detail}"
        )


def _state(store: ObjectStore) -> Dict[str, bytes]:
    return {str(oid): store.get(oid) for oid in store.oids()}


def _run_gated_primary(primary_dir: Path, schedule: CrashSchedule,
                       workload: TortureWorkload, on_commit,
                       publish_primary) -> bool:
    """Open the gated primary, publish it to the caller, run the workload.

    Returns whether the schedule killed the primary.  Isolated in its
    own frame on purpose: :func:`crash_store` scavenges file handles
    from the crash traceback's frame locals, and the caller's frame
    holds the *replica* — which must survive the primary's death.
    """
    primary: Optional[ObjectStore] = None
    try:
        # The gate is armed from the first byte: a schedule can kill
        # the primary inside its own constructor, just like the
        # single-store matrix.
        primary = ObjectStore(primary_dir,
                              pool_capacity=TORTURE_POOL_CAPACITY,
                              fault_gate=schedule)
        publish_primary(primary)
        workload.run(primary, on_commit=on_commit)
        primary.close()
        return False
    except SimulatedCrash as exc:
        crash_store(primary, exc)
        return True


def run_replicated_crash(directory: Union[str, Path], seed: int,
                         crash_at: int, transactions: int = 4,
                         kill_replica: bool = False
                         ) -> ReplicatedCrashOutcome:
    """Run one replicated schedule end to end and model-check it.

    ``directory`` must be fresh; ``crash_at`` indexes the primary's
    gate-call schedule exactly as in
    :func:`repro.faultsim.harness.run_one_crash`.
    """
    directory = Path(directory)
    primary_dir = directory / "primary"
    replica_dir = directory / "replica"
    schedule = CrashSchedule(crash_at, seed)
    workload = TortureWorkload(seed, transactions)
    rng = random.Random(derive_seed(seed, "replication"))

    primary: Optional[ObjectStore] = None
    replica = ObjectStore(replica_dir, pool_capacity=TORTURE_POOL_CAPACITY)

    #: Every epoch the replica *published* by streaming, in publish
    #: order, across replica kills (the post-kill reopen must resume
    #: exactly where the durable WAL left it), as its own change log
    #: recorded them for its downstream readers.
    streamed: List[int] = []
    epoch_high = replica.epoch
    epochs_monotonic = True
    replica_kills = 0
    notes: List[str] = []

    def observe(current: int, where: str) -> None:
        nonlocal epoch_high, epochs_monotonic
        if current < epoch_high:
            epochs_monotonic = False
            notes.append(f"epoch regressed {epoch_high} -> {current} "
                         f"at {where}")
        epoch_high = max(epoch_high, current)

    def catch_up() -> None:
        before = replica.epoch
        reply = fetch(primary, before, max_units=transactions * 4)
        if reply["resync"]:
            return  # the log's floor passed us; the final catch-up resyncs
        units = units_from_wire(reply["units"])
        if units:
            replica.apply_replicated(units)
            streamed.extend(
                entry.epoch for entry in replica.change_log.read(before))
        observe(replica.epoch, "apply")

    def on_commit() -> None:
        nonlocal replica, replica_kills
        if kill_replica and rng.random() < KILL_PROBABILITY:
            replica_kills += 1
            before = replica.epoch
            crash_store(replica)
            replica = ObjectStore(replica_dir,
                                  pool_capacity=TORTURE_POOL_CAPACITY)
            observe(replica.epoch, f"replica reopen (was {before})")
        if rng.random() < APPLY_PROBABILITY:
            catch_up()

    def publish_primary(opened: ObjectStore) -> None:
        nonlocal primary
        primary = opened

    crashed = _run_gated_primary(
        primary_dir, schedule, workload, on_commit, publish_primary)

    # The primary's WAL still holds every committed unit of the final
    # window — read the committed epoch sequence out *before* reopening
    # truncates it at a fresh checkpoint.  A head CHECKPOINT record (a
    # clean close, or an open mid-run) vouches for every epoch at or
    # below its stamp: those commits were durable when the log was
    # truncated.
    wal = WriteAheadLog(primary_dir / ObjectStore.WAL_FILE)
    checkpointed = 0
    commits = set()
    for record in wal.records():
        if record.op == OP_CHECKPOINT:
            checkpointed = max(checkpointed, record.epoch)
        elif record.op == OP_COMMIT:
            commits.add(record.epoch)
    wal.close()
    committed_epochs = sorted(set(range(1, checkpointed + 1)) | commits)

    reopened = ObjectStore(primary_dir, pool_capacity=TORTURE_POOL_CAPACITY)
    survivors = _state(reopened)
    acceptable = workload.acceptable_states()
    survivors_ok = any(survivors == state for state in acceptable)
    if not survivors_ok:
        notes.append(f"survivors {sorted(survivors)} match no acceptable "
                     f"state (committed={sorted(acceptable[0])})")

    # Final catch-up: stream if the primary's post-restart change log
    # still covers the replica, else install a snapshot.  Either way
    # the replica must land exactly on the primary.
    resynced = False
    reply = fetch(reopened, replica.epoch)
    if not reply["resync"]:
        units = units_from_wire(reply["units"])
        if units:
            replica.apply_replicated(units)
    else:
        resynced = True
        with reopened.snapshot() as snapshot:
            records = [(str(oid), snapshot.get(oid))
                       for oid in snapshot.oids()]
            replica.install_replicated(snapshot.epoch, records)
    observe(replica.epoch, "final catch-up")

    converged = (_state(replica) == survivors
                 and replica.epoch == reopened.epoch)
    if not converged:
        notes.append(
            f"replica epoch {replica.epoch} vs primary {reopened.epoch}; "
            f"replica keys {sorted(_state(replica))} vs {sorted(survivors)}")

    # Contiguity: the streamed epochs must be exactly the primary's
    # committed epochs in (start, last-streamed] — no skip, no invention.
    # Streaming restarts from the durable epoch after a replica kill, so
    # drop exact re-publishes before checking order.
    deduped: List[int] = []
    for epoch in streamed:
        if not deduped or epoch > deduped[-1]:
            deduped.append(epoch)
    prefix_ok = True
    if deduped:
        expected = [epoch for epoch in committed_epochs
                    if deduped[0] <= epoch <= deduped[-1]]
        prefix_ok = deduped == expected
        if not prefix_ok:
            notes.append(f"streamed epochs {deduped} != committed window "
                         f"{expected} (committed={committed_epochs})")

    reopened.close()
    replica.close()
    return ReplicatedCrashOutcome(
        seed=seed, crash_at=crash_at, crashed=crashed,
        kill_replica=kill_replica, replica_kills=replica_kills,
        resynced=resynced, survivors_ok=survivors_ok,
        epochs_monotonic=epochs_monotonic, prefix_ok=prefix_ok,
        converged=converged, detail="; ".join(notes) or "clean")
