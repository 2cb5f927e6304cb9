"""Crash-recovery torture for replica promotion and fenced terms.

Extends the replicated torture harness to the failover story: the
seeded workload runs against a gated primary feeding **two** replicas
at seeded, laggy apply points; at ``crash_at`` the primary dies (or
survives the whole schedule — the controlled-handoff case), a seeded
choice of replica is promoted with
:func:`~repro.repl.promote.promote_store` (salvaging the dead
primary's durable WAL tail first), and a second workload runs against
the promoted node while the remaining replica catches up across the
promotion.  Optionally the old primary is *resurrected* mid-schedule:
it reopens at its old term, accepts one split-brain write, and the
harness proves the fence holds before re-subscribing it as a replica
of the new primary.

The model checks, per schedule:

* **no acked write lost** — the promoted node's state right after
  salvage is an acceptable state of the original workload, exactly the
  bar the single-store matrix holds the reopened primary to;
* **the failover reign is correct** — the post-promotion workload's
  committed image is fully present on the promoted node;
* **(term, epoch) never regresses on any node** — epochs may rewind
  only when the term rises (the fenced-rejoin snapshot), never
  otherwise;
* **at most one mint per term** — scanning every node's WAL for TERM
  records, no term was ever minted by two nodes;
* **the fence holds** (resurrect schedules) — the resurrected
  primary's split-brain unit and snapshot both raise
  :class:`~repro.errors.StalePrimaryError` at the promoted node, and
  the split-brain write is discarded when the old primary is fenced
  and re-subscribed;
* **the cluster converges** — every surviving node ends byte-identical
  to the promoted primary, at its epoch and term.

Everything is a function of ``(seed, crash_at, resurrect)``, so a
failure line is a complete reproduction recipe.  The schedule space is
the same primary gate-call enumeration as the other matrices
(:func:`~repro.faultsim.harness.enumerate_gate_calls`): replicas run
ungated, so shipping and applying cross no gates.

One deliberate liberty: mid-reign catch-up here may *stream* units
across the promotion (exercising term adoption in
:meth:`~repro.ode.store.ObjectStore.apply_replicated`) where the real
:class:`~repro.repl.replica.ReplicaApplier` always snapshot-resyncs on
a term raise.  The applier cannot rule out same-epoch divergence; this
harness can — the promoted node salvaged the dead primary's *entire*
acked history, so every node's prefix is a prefix of the promoted
node's — which makes streaming sound and lets the matrix cover both
catch-up paths.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import StalePrimaryError
from repro.faultsim.harness import (
    TORTURE_POOL_CAPACITY,
    TortureWorkload,
)
from repro.faultsim.plan import CrashSchedule, derive_seed
from repro.faultsim.replication import (
    APPLY_PROBABILITY,
    _run_gated_primary,
    _state,
)
from repro.ode.codec import encode_object
from repro.ode.oid import Oid
from repro.ode.store import ObjectStore
from repro.ode.wal import OP_TERM, WriteAheadLog
from repro.repl.feed import Unit, fetch, units_from_wire
from repro.repl.promote import promote_store

#: Probability that a mid-reign catch-up streams across the promotion
#: instead of snapshot-resyncing (both must work; see module docstring).
STREAM_PROBABILITY = 0.5


class PromotionCrashOutcome:
    """What one promotion schedule did — for failure messages."""

    def __init__(self, seed: int, crash_at: int, crashed: bool,
                 resurrect: bool, promoted: str, term: int, salvaged: int,
                 survivors_ok: bool, failover_ok: bool, monotonic: bool,
                 single_mint_ok: bool, fenced_ok: bool, converged: bool,
                 detail: str):
        self.seed = seed
        self.crash_at = crash_at
        self.crashed = crashed
        self.resurrect = resurrect
        self.promoted = promoted
        self.term = term
        self.salvaged = salvaged
        self.survivors_ok = survivors_ok
        self.failover_ok = failover_ok
        self.monotonic = monotonic
        self.single_mint_ok = single_mint_ok
        self.fenced_ok = fenced_ok
        self.converged = converged
        self.detail = detail

    @property
    def ok(self) -> bool:
        return (self.survivors_ok and self.failover_ok and self.monotonic
                and self.single_mint_ok and self.fenced_ok
                and self.converged)

    def describe(self) -> str:
        return (
            f"promotion schedule seed={self.seed} crash_at={self.crash_at} "
            f"resurrect={self.resurrect} crashed={self.crashed} "
            f"promoted={self.promoted} term={self.term} "
            f"salvaged={self.salvaged}\n"
            f"  survivors_ok={self.survivors_ok} "
            f"failover_ok={self.failover_ok} monotonic={self.monotonic} "
            f"single_mint_ok={self.single_mint_ok} "
            f"fenced_ok={self.fenced_ok} converged={self.converged}\n"
            f"  {self.detail}"
        )


def _minted_terms(wal_path: Path) -> List[int]:
    """Every term a node's on-disk WAL holds a TERM mint record for.

    TERM records are never shipped (``committed_units`` skips them), so
    they appear exactly where :meth:`ObjectStore.promote_term` minted
    them — which makes the union of these scans the cluster's minting
    history.
    """
    if not wal_path.exists():
        return []
    wal = WriteAheadLog(wal_path)
    try:
        return [record.term for record in wal.records()
                if record.op == OP_TERM]
    finally:
        wal.close()


def _log_units(store: ObjectStore, after_epoch: int) -> Optional[List[Unit]]:
    """The units in *store*'s change log past *after_epoch*; ``None``
    when the log's floor has passed it."""
    entries = store.change_log.read(after_epoch)
    if entries is None:
        return None
    return [(entry.epoch, entry.frames) for entry in entries]


def run_promotion_crash(directory: Union[str, Path], seed: int,
                        crash_at: int, transactions: int = 4,
                        resurrect: bool = False) -> PromotionCrashOutcome:
    """Run one promotion schedule end to end and model-check it.

    ``directory`` must be fresh; ``crash_at`` indexes the primary's
    gate-call schedule exactly as in
    :func:`repro.faultsim.harness.run_one_crash`.
    """
    directory = Path(directory)
    primary_dir = directory / "primary"
    schedule = CrashSchedule(crash_at, seed)
    workload = TortureWorkload(seed, transactions)
    rng = random.Random(derive_seed(seed, "promotion"))

    primary: Optional[ObjectStore] = None
    replicas: Dict[str, ObjectStore] = {
        name: ObjectStore(directory / name,
                          pool_capacity=TORTURE_POOL_CAPACITY)
        for name in ("replica-a", "replica-b")
    }

    marks: Dict[str, Tuple[int, int]] = {}
    monotonic = True
    notes: List[str] = []

    def observe(name: str, store: ObjectStore, where: str) -> None:
        nonlocal monotonic
        mark = (store.term, store.epoch)
        prev = marks.get(name)
        if prev is not None and mark < prev:
            monotonic = False
            notes.append(f"{name}: (term, epoch) regressed "
                         f"{prev} -> {mark} at {where}")
        if prev is None or mark > prev:
            marks[name] = mark

    def catch_up(name: str) -> None:
        store = replicas[name]
        reply = fetch(primary, store.epoch, max_units=transactions * 4)
        if reply["resync"]:
            return  # the log's floor passed us; a later sync covers it
        units = units_from_wire(reply["units"])
        if units:
            store.apply_replicated(units)
        observe(name, store, "apply")

    def on_commit() -> None:
        for name in sorted(replicas):
            if rng.random() < APPLY_PROBABILITY:
                catch_up(name)

    def publish_primary(opened: ObjectStore) -> None:
        nonlocal primary
        primary = opened

    crashed = _run_gated_primary(
        primary_dir, schedule, workload, on_commit, publish_primary)

    def sync_full(upstream: ObjectStore, name: str) -> None:
        """Bring ``replicas[name]`` exactly level with *upstream*.

        Streams when the upstream's change log still covers the node
        (adopting any higher terms carried on the units), then falls
        back to a snapshot install whenever streaming alone cannot
        land it on the upstream's exact (term, epoch) — e.g. the term
        was minted after the last commit, so no unit carries it yet.
        """
        store = replicas[name]
        units = _log_units(upstream, store.epoch)
        if units:
            store.apply_replicated(units)
        if (store.epoch, store.term) != (upstream.epoch, upstream.term):
            with upstream.snapshot() as snap:
                records = [(str(oid), snap.get(oid))
                           for oid in snap.oids()]
                store.install_replicated(snap.epoch, records,
                                         term=upstream.term)
        observe(name, store, f"sync from {upstream.directory.name}")

    if not crashed:
        # Controlled handoff: the primary closed cleanly, checkpointing
        # its WAL at the final epoch — a lagged replica can no longer
        # salvage-bridge from the file, so the handoff catches both
        # replicas up from a clean reopen *before* the promotion.
        handoff = ObjectStore(primary_dir,
                              pool_capacity=TORTURE_POOL_CAPACITY)
        for name in sorted(replicas):
            sync_full(handoff, name)
        handoff.close()

    target_name = rng.choice(sorted(replicas))
    other_name = next(n for n in sorted(replicas) if n != target_name)
    target = replicas[target_name]

    result = promote_store(target, primary_directory=primary_dir)
    observe(target_name, target, "promotion")

    # (a) No acked write lost: the promoted node's post-salvage image
    # must be an acceptable state of the original workload — the same
    # bar the single-store matrix holds the reopened primary to.
    survivors = _state(target)
    acceptable = workload.acceptable_states()
    survivors_ok = any(survivors == state for state in acceptable)
    if not survivors_ok:
        notes.append(f"promoted survivors {sorted(survivors)} match no "
                     f"acceptable state (committed={sorted(acceptable[0])})")

    # Resurrect the old primary *before* the failover reign commits
    # anything: at this instant the promoted node sits exactly at the
    # dead primary's last acked epoch, so the split-brain unit is the
    # next epoch on both sides — the hardest case for the fence.
    fenced_ok = True
    old: Optional[ObjectStore] = None
    if resurrect:
        old = ObjectStore(primary_dir, pool_capacity=TORTURE_POOL_CAPACITY)
        observe("primary", old, "resurrect")
        split_oid = Oid("split", "brain", 0)
        old.begin()
        old.put(split_oid, encode_object(split_oid, "SplitBrain",
                                         {"data": b"stale reign"}))
        old.commit()
        observe("primary", old, "split-brain commit")

        # The stale unit extends the promoted node's epochs contiguously
        # — only the term check can reject it.
        stale_units = _log_units(old, target.epoch) or []
        if not stale_units:
            fenced_ok = False
            notes.append(f"expected a split-brain unit past epoch "
                         f"{target.epoch}, found none")
        try:
            target.apply_replicated(stale_units)
            if stale_units:
                fenced_ok = False
                notes.append("promoted node applied a stale-term unit")
        except StalePrimaryError:
            pass
        # A full snapshot from the old primary must bounce identically.
        with old.snapshot() as snap:
            records = [(str(oid), snap.get(oid)) for oid in snap.oids()]
            try:
                target.install_replicated(snap.epoch, records,
                                          term=old.term)
                fenced_ok = False
                notes.append("promoted node installed a stale-term snapshot")
            except StalePrimaryError:
                pass
        if _state(target) != survivors:
            fenced_ok = False
            notes.append("fenced rejection mutated the promoted node")

        # Fence the old primary: a snapshot under the new term rewinds
        # its epoch past the split-brain write — the one legal epoch
        # rewind, licensed by the term raise.
        with target.snapshot() as snap:
            records = [(str(oid), snap.get(oid)) for oid in snap.oids()]
            old.install_replicated(snap.epoch, records, term=target.term)
        observe("primary", old, "fenced rejoin")
        if str(split_oid) in {str(oid) for oid in old.oids()}:
            fenced_ok = False
            notes.append("split-brain write survived the fenced rejoin")
        replicas["primary"] = old  # now an ordinary follower

    # The failover reign: a second workload, disjoint OID namespace,
    # against the promoted node — followers catch up at seeded points,
    # streaming or resyncing across the promotion.
    failover_workload = TortureWorkload(
        derive_seed(seed, "failover"), transactions=max(2, transactions // 2))
    failover_workload.DATABASE = "failover"
    failover_workload.CLUSTER_PREFIX = "f"  # see TortureWorkload.CLUSTER_PREFIX

    def follower_sync() -> None:
        for name in sorted(replicas):
            if name == target_name or rng.random() >= APPLY_PROBABILITY:
                continue
            store = replicas[name]
            units = _log_units(target, store.epoch)
            if units and (target.term == store.term
                               or rng.random() < STREAM_PROBABILITY):
                store.apply_replicated(units)
            else:
                with target.snapshot() as snap:
                    records = [(str(oid), snap.get(oid))
                               for oid in snap.oids()]
                    store.install_replicated(snap.epoch, records,
                                             term=target.term)
            observe(name, store, "follower sync")

    failover_workload.run(target, on_commit=follower_sync)
    observe(target_name, target, "failover workload")

    # (b) The reign is correct: every committed failover write is
    # present on the promoted node, and the salvaged image untouched.
    final = _state(target)
    failover_state = {oid: payload for oid, payload in final.items()
                      if oid.startswith("failover:")}
    failover_ok = failover_state == failover_workload.committed
    if not failover_ok:
        notes.append(f"failover state {sorted(failover_state)} != committed "
                     f"{sorted(failover_workload.committed)}")
    preserved = {oid: payload for oid, payload in final.items()
                 if not oid.startswith("failover:")}
    if preserved != survivors:
        failover_ok = False
        notes.append("failover reign disturbed the salvaged image")

    # Final convergence: every follower lands exactly on the promoted
    # node's (term, epoch) and byte image.
    for name in sorted(replicas):
        if name != target_name:
            sync_full(target, name)
    converged = all(
        _state(store) == final
        and store.epoch == target.epoch and store.term == target.term
        for name, store in replicas.items() if name != target_name)
    if not converged:
        for name, store in sorted(replicas.items()):
            if name == target_name:
                continue
            notes.append(f"{name}: epoch {store.epoch}/{target.epoch} "
                         f"term {store.term}/{target.term} "
                         f"keys {sorted(_state(store))}")

    # (c) At most one mint per term, cluster-wide.  Scan the on-disk
    # WALs before closing anything — close() checkpoints truncate them.
    minters: Dict[int, List[str]] = {}
    wal_paths = {"primary": primary_dir / ObjectStore.WAL_FILE}
    for name in replicas:
        if name != "primary":
            wal_paths[name] = directory / name / ObjectStore.WAL_FILE
    for name, path in sorted(wal_paths.items()):
        for term in _minted_terms(path):
            minters.setdefault(term, []).append(name)
    single_mint_ok = all(len(names) == 1 for names in minters.values())
    if not single_mint_ok:
        notes.append(f"terms minted more than once: "
                     f"{ {t: n for t, n in minters.items() if len(n) > 1} }")
    if minters.get(result.term) != [target_name]:
        single_mint_ok = False
        notes.append(f"term {result.term} mint record not found on "
                     f"{target_name}: minters={minters}")

    for store in replicas.values():
        store.close()
    return PromotionCrashOutcome(
        seed=seed, crash_at=crash_at, crashed=crashed, resurrect=resurrect,
        promoted=target_name, term=result.term,
        salvaged=result.salvaged_units, survivors_ok=survivors_ok,
        failover_ok=failover_ok, monotonic=monotonic,
        single_mint_ok=single_mint_ok, fenced_ok=fenced_ok,
        converged=converged, detail="; ".join(notes) or "clean")
