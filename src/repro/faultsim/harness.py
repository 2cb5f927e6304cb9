"""The crash-recovery torture harness.

One torture *schedule* is: run a seeded transactional workload against a
store whose ``fault_gate`` is armed to crash at exactly gate call ``k``;
throw the dying process's buffered writes away; reopen the directory
with no gate; and model-check the survivors against a shadow dict.  The
invariant is the store's whole durability contract:

* every transaction the workload *committed* (``commit()`` returned) is
  fully visible;
* no transaction the workload never committed is visible at all;
* a crash *inside* ``commit()`` may resolve either way — but must
  resolve to exactly the pre-image or exactly the post-image, never a
  mix;
* the reopened store still works (a fresh put/get round-trips).

Everything is a function of ``(seed, crash_at)``, so the pair printed
with a failure is a complete reproduction recipe.

Crash model: the *process* dies, the operating system survives.  Python
buffered writes that were never flushed are lost; everything the file
objects flushed is durable.  (Gated writes flush through — see
:mod:`repro.ode.pagefile` — so a torn write injected by a gate is on
disk when the crash hits.)  :func:`crash_store` implements the death:
every storage file descriptor is redirected to ``/dev/null`` *before*
the handles are closed, so close-time and GC-time flushes of unflushed
buffers go nowhere, exactly as if the process had been killed.
"""

from __future__ import annotations

import os
import random
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.faultsim.plan import (
    CountingGate,
    CrashSchedule,
    SimulatedCrash,
    derive_seed,
)
from repro.ode.codec import encode_object
from repro.ode.oid import Oid
from repro.ode.page import MAX_RECORD_SIZE
from repro.ode.pagefile import PageFile
from repro.ode.store import ObjectStore
from repro.ode.wal import WriteAheadLog

#: Pool small enough that the fragment chain's transaction evicts dirty
#: pages mid-apply, two to a write-back batch — the schedules that tear
#: the store's write-back ordering.
TORTURE_POOL_CAPACITY = 2


# -- simulated process death -------------------------------------------------------


def _file_handles(obj: object) -> List[object]:
    """The open storage file objects hiding inside a storage object."""
    handles = []
    if isinstance(obj, ObjectStore):
        handles += _file_handles(obj._placement.pagefile)
        handles += _file_handles(obj._wal)
    elif isinstance(obj, PageFile):
        handles += [obj._fh, obj._journal]
    elif isinstance(obj, WriteAheadLog):
        handles += [obj._fh]
    return [fh for fh in handles if fh is not None and not fh.closed]


def _discard_handles(handles: List[object]) -> None:
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        for fh in handles:
            try:
                os.dup2(devnull, fh.fileno())
            except (OSError, ValueError):
                pass
        for fh in handles:
            try:
                fh.close()
            except (OSError, ValueError):
                pass
    finally:
        os.close(devnull)


def crash_store(store: Optional[ObjectStore],
                exc: Optional[BaseException] = None) -> None:
    """Kill a store the way ``kill -9`` would.

    Unflushed buffered data is dropped (the handles are pointed at
    ``/dev/null`` before closing), flushed data stays.  ``exc`` — the
    :class:`SimulatedCrash` that escaped — lets the harness also reach
    storage objects from a store that died *inside its constructor*,
    before the caller ever got a reference: the traceback frames still
    hold them.
    """
    handles = _file_handles(store) if store is not None else []
    tb = exc.__traceback__ if exc is not None else None
    while tb is not None:
        for value in list(tb.tb_frame.f_locals.values()):
            for fh in _file_handles(value):
                if fh not in handles:
                    handles.append(fh)
        tb = tb.tb_next
    _discard_handles(handles)


# -- the workload ------------------------------------------------------------------


class TortureWorkload:
    """A seeded sequence of transactions plus its shadow model.

    Each transaction is a random mix of inserts, overwrites and deletes
    (one transaction carries a fragment-chain-sized payload, so the
    multi-page paths are always on the schedule).  The shadow state
    tracks what *must* be on disk:

    * :attr:`committed` — the image after the last ``commit()`` that
      returned;
    * :attr:`pending` / :attr:`in_commit` — while ``commit()`` is
      executing, the image it is trying to make durable; a crash in
      that window may legally land on either.
    """

    DATABASE = "torture"

    #: Cluster-name prefix for generated OIDs.  A second workload aimed
    #: at the *same* store must override this (not just ``DATABASE``):
    #: a store hosts one database, so its cluster membership is keyed by
    #: ``(cluster, number)`` alone — two workloads sharing cluster names
    #: would collide there even with distinct database prefixes.
    CLUSTER_PREFIX = "c"

    def __init__(self, seed: int, transactions: int = 4):
        self.seed = seed
        self.transactions = transactions
        self.committed: Dict[str, bytes] = {}
        self.pending: Optional[Dict[str, bytes]] = None
        self.in_commit = False

    # The op mix: mostly small records, one oversized record (fragment
    # chain), deletes and overwrites once there is something to hit.
    def _plan_transaction(self, rng: random.Random, index: int,
                          state: Dict[str, bytes]) -> List[Tuple[str, str, bytes]]:
        ops: List[Tuple[str, str, bytes]] = []
        for op_index in range(rng.randint(1, 3)):
            live = sorted(state)
            roll = rng.random()
            oversized = index == self.transactions // 2 and op_index == 0
            if live and roll < 0.25 and not oversized:
                oid = rng.choice(live)
                del state[oid]
                ops.append(("delete", oid, b""))
                continue
            if live and roll < 0.45:
                oid = rng.choice(live)
            else:
                oid = str(Oid(self.DATABASE,
                              f"{self.CLUSTER_PREFIX}{rng.randrange(2)}",
                              index * 10 + op_index))
            if oversized:
                size = MAX_RECORD_SIZE * 2 + rng.randint(1, 64)
            else:
                size = rng.randint(8, 96)
            # Records must be self-describing: the page scan at reopen
            # decodes every unfragmented record as an object.
            payload = encode_object(
                Oid.parse(oid), "TortureRecord",
                {"data": bytes(rng.randrange(256) for _ in range(size))})
            state[oid] = payload
            ops.append(("put", oid, payload))
        return ops

    def run(self, store: ObjectStore,
            on_commit: Optional[Callable[[], None]] = None) -> None:
        """Run every transaction; a gate's SimulatedCrash flies through.

        ``on_commit`` runs after each successful commit, outside any
        transaction — the replication torture harness uses it to ship
        and apply units (and kill replicas) at quiescent points, where
        a replica-side :class:`SimulatedCrash` cannot be mistaken for a
        primary commit failure.
        """
        rng = random.Random(derive_seed(self.seed, "workload"))
        for index in range(self.transactions):
            next_state = dict(self.committed)
            ops = self._plan_transaction(rng, index, next_state)
            store.begin()
            for op, oid, payload in ops:
                if op == "put":
                    store.put(Oid.parse(oid), payload)
                else:
                    store.delete(Oid.parse(oid))
            self.pending = next_state
            self.in_commit = True
            store.commit()
            self.committed = next_state
            self.in_commit = False
            self.pending = None
            if on_commit is not None:
                on_commit()

    def acceptable_states(self) -> List[Dict[str, bytes]]:
        states = [self.committed]
        if self.in_commit and self.pending is not None:
            states.append(self.pending)
        return states


# -- running schedules -------------------------------------------------------------


def enumerate_gate_calls(directory: Union[str, Path], seed: int,
                         transactions: int = 4) -> List[str]:
    """Pass 1: run the workload uninjured and list every gate crossing.

    The returned list *is* the schedule space: crash point ``k`` of
    :func:`run_one_crash` is its ``k``-th entry, and its set of distinct
    sites is what the coverage test compares against the registry.
    """
    gate = CountingGate()
    store = ObjectStore(directory, pool_capacity=TORTURE_POOL_CAPACITY,
                        fault_gate=gate)
    TortureWorkload(seed, transactions).run(store)
    store.close()
    return gate.calls


class CrashOutcome:
    """What one ``(seed, crash_at)`` schedule did — for failure messages."""

    def __init__(self, seed: int, crash_at: int, crashed: bool,
                 fired: Optional[Tuple[str, int, str]],
                 in_commit: bool, survivors: Dict[str, bytes],
                 acceptable: List[Dict[str, bytes]]):
        self.seed = seed
        self.crash_at = crash_at
        self.crashed = crashed
        self.fired = fired
        self.in_commit = in_commit
        self.survivors = survivors
        self.acceptable = acceptable

    @property
    def state_ok(self) -> bool:
        return any(self.survivors == state for state in self.acceptable)

    def describe(self) -> str:
        site = self.fired[0] if self.fired else "-"
        flavor = self.fired[2] if self.fired else "-"
        lines = [
            f"schedule seed={self.seed} crash_at={self.crash_at} "
            f"site={site} flavor={flavor} in_commit={self.in_commit}",
            f"  survivors: {sorted(self.survivors)}",
        ]
        for index, state in enumerate(self.acceptable):
            label = "committed" if index == 0 else "pending"
            extra = sorted(set(self.survivors) - set(state))
            missing = sorted(set(state) - set(self.survivors))
            wrong = sorted(oid for oid in set(state) & set(self.survivors)
                           if state[oid] != self.survivors[oid])
            lines.append(f"  vs {label}: missing={missing} "
                         f"extra={extra} wrong-bytes={wrong}")
        return "\n".join(lines)


def run_one_crash(directory: Union[str, Path], seed: int, crash_at: int,
                  transactions: int = 4) -> CrashOutcome:
    """Run one schedule end to end and model-check the reopened store.

    ``directory`` must be fresh.  Reproduce any failure with the same
    ``(seed, crash_at)`` pair against a fresh directory.
    """
    schedule = CrashSchedule(crash_at, seed)
    workload = TortureWorkload(seed, transactions)
    store: Optional[ObjectStore] = None
    crashed = False
    try:
        store = ObjectStore(directory, pool_capacity=TORTURE_POOL_CAPACITY,
                            fault_gate=schedule)
        workload.run(store)
        store.close()
    except SimulatedCrash as exc:
        crashed = True
        crash_store(store, exc)
    reopened = ObjectStore(directory, pool_capacity=TORTURE_POOL_CAPACITY)
    try:
        survivors = {str(oid): reopened.get(oid) for oid in reopened.oids()}
        # The reopened store must not just look right — it must work.
        probe = Oid(TortureWorkload.DATABASE, "probe", 0)
        reopened.put(probe, b"alive")
        if reopened.get(probe) != b"alive":
            raise AssertionError(
                f"reopened store broke on a fresh put/get "
                f"(seed={seed} crash_at={crash_at})")
        reopened.delete(probe)
    finally:
        reopened.close()
    return CrashOutcome(
        seed=seed, crash_at=crash_at, crashed=crashed,
        fired=schedule.fired, in_commit=workload.in_commit,
        survivors=survivors, acceptable=workload.acceptable_states())
