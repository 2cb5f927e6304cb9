"""The replicated crash-recovery matrix and its property-based check.

Same shape as ``test_crash_recovery``: pass 1 enumerates the primary's
gate crossings, then schedules kill the primary at sampled crossings —
with and without replica kills — and the harness model-checks the
replication contract (no acked write lost, no epoch regression,
streamed epochs a contiguous prefix of the primary's commits,
convergence after catch-up).

The replica-side matrix gates the *replica* instead: it crashes the
replica at each of its own gate crossings while it catches up, then
reopens it and checks it converges on the primary.

Knobs: ``FAULTSIM_SEED`` (extra seed), ``FAULTSIM_TRANSACTIONS``
(workload length), ``FAULTSIM_REPL_STRIDE`` (1 = the full matrix; the
default samples every other crossing to keep the tier-1 run fast).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path
from typing import Dict

import pytest

from repro.faultsim import (
    STORE_SITES,
    CountingGate,
    CrashSchedule,
    SimulatedCrash,
    crash_store,
    enumerate_gate_calls,
    run_replicated_crash,
)
from repro.faultsim.harness import TORTURE_POOL_CAPACITY, TortureWorkload
from repro.ode.store import ObjectStore

DEFAULT_SEEDS = [0, 1]


def _seeds():
    seeds = list(DEFAULT_SEEDS)
    extra = os.environ.get("FAULTSIM_SEED")
    if extra is not None:
        seed = int(extra)
        if seed not in seeds:
            seeds.append(seed)
    return seeds


def _transactions():
    return int(os.environ.get("FAULTSIM_TRANSACTIONS", "4"))


def _stride():
    return max(1, int(os.environ.get("FAULTSIM_REPL_STRIDE", "2")))


@pytest.mark.parametrize("kill_replica", [False, True])
@pytest.mark.parametrize("seed", _seeds())
def test_replicated_crash_matrix(tmp_path, seed, kill_replica):
    transactions = _transactions()
    calls = enumerate_gate_calls(tmp_path / "enumerate", seed,
                                 transactions=transactions)
    assert calls, "workload crossed no gates — the hooks are dead"
    # Sampled crossings plus the edges: the last gate (close-time
    # checkpoint, the schedule that used to regress the epoch counter)
    # and one past the end (a run that never crashes).
    points = sorted(set(
        list(range(0, len(calls), _stride())) + [len(calls) - 1, len(calls)]))
    for crash_at in points:
        outcome = run_replicated_crash(
            tmp_path / f"crash{crash_at}", seed, crash_at,
            transactions=transactions, kill_replica=kill_replica)
        assert outcome.crashed == (crash_at < len(calls)), outcome.describe()
        assert outcome.ok, outcome.describe()


def test_replicated_schedules_are_reproducible(tmp_path):
    seed, crash_at = DEFAULT_SEEDS[0], 11
    first = run_replicated_crash(tmp_path / "a", seed, crash_at,
                                 kill_replica=True)
    second = run_replicated_crash(tmp_path / "b", seed, crash_at,
                                  kill_replica=True)
    assert first.ok and second.ok
    assert first.replica_kills == second.replica_kills
    assert first.resynced == second.resynced


# -- replica-side schedules: the replica's own gate crossings ---------------------


def _state(store: ObjectStore) -> Dict[str, bytes]:
    return {str(oid): store.get(oid) for oid in store.oids()}


def _workload_units(directory: Path, seed: int):
    """Run the seeded workload on an ungated primary; return its change
    log's units, its final state and its epoch."""
    primary = ObjectStore(directory, pool_capacity=TORTURE_POOL_CAPACITY)
    try:
        TortureWorkload(seed, _transactions()).run(primary)
        units = [(entry.epoch, entry.frames)
                 for entry in primary.change_log.read(0)]
        return units, _state(primary), primary.epoch
    finally:
        primary.close()


def _catch_up(replica: ObjectStore, units) -> None:
    """Apply the units *replica* lacks, two per call."""
    fresh = [unit for unit in units if unit[0] > replica.epoch]
    for start in range(0, len(fresh), 2):
        replica.apply_replicated(fresh[start:start + 2])


def _gated_catch_up(directory: Path, units, gate) -> bool:
    """Open a replica behind *gate* and catch it up; returns whether the
    gate killed it.  Holds no primary, so the crash's handle scavenging
    reaches the replica alone."""
    replica = None
    try:
        replica = ObjectStore(directory, pool_capacity=TORTURE_POOL_CAPACITY,
                              fault_gate=gate)
        _catch_up(replica, units)
        replica.close()
        return False
    except SimulatedCrash as exc:
        crash_store(replica, exc)
        return True


@pytest.mark.parametrize("seed", _seeds())
def test_replica_crash_matrix(tmp_path, seed):
    """Kill the *replica* at its own gate crossings during catch-up:
    it reopens, catches up and equals the primary.  A replica applies
    through the primary's apply path, so every store site is on its
    schedule and each one is crashed at least once."""
    units, state, epoch = _workload_units(tmp_path / "primary", seed)
    gate = CountingGate()
    assert not _gated_catch_up(tmp_path / "enumerate", units, gate)
    calls = gate.calls
    assert set(STORE_SITES) <= set(calls), calls
    points = (set(range(0, len(calls), _stride())) | {len(calls) - 1}
              | {calls.index(site) for site in STORE_SITES})
    fired = set()
    for crash_at in sorted(points):
        directory = tmp_path / f"crash{crash_at}"
        schedule = CrashSchedule(crash_at, seed)
        assert _gated_catch_up(directory, units, schedule), crash_at
        fired.add(schedule.fired[0])
        replica = ObjectStore(directory, pool_capacity=TORTURE_POOL_CAPACITY)
        try:
            _catch_up(replica, units)
            assert replica.epoch == epoch, schedule.fired
            assert _state(replica) == state, schedule.fired
        finally:
            replica.close()
    assert set(STORE_SITES) <= fired


# -- property-based: applied epochs are a contiguous prefix ----------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

_GATE_CALL_COUNTS: Dict[int, int] = {}


def _gate_call_count(seed: int) -> int:
    if seed not in _GATE_CALL_COUNTS:
        scratch = Path(tempfile.mkdtemp(prefix="repl-enum-"))
        try:
            _GATE_CALL_COUNTS[seed] = len(
                enumerate_gate_calls(scratch, seed,
                                     transactions=_transactions()))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    return _GATE_CALL_COUNTS[seed]


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 3), point=st.integers(0, 10_000),
       kill_replica=st.booleans())
def test_replica_epochs_are_contiguous_prefix(seed, point, kill_replica):
    """For any schedule: every epoch the replica publishes by streaming
    extends the primary's committed sequence contiguously, and the
    replica's published epoch never regresses — kills included."""
    crash_at = point % (_gate_call_count(seed) + 1)
    scratch = Path(tempfile.mkdtemp(prefix="repl-prop-"))
    try:
        outcome = run_replicated_crash(
            scratch, seed, crash_at, transactions=_transactions(),
            kill_replica=kill_replica)
        assert outcome.prefix_ok, outcome.describe()
        assert outcome.epochs_monotonic, outcome.describe()
        assert outcome.converged, outcome.describe()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
