"""The crash-recovery torture matrix.

For each seed, pass 1 runs the seeded workload over an armed-but-silent
gate to enumerate every gate crossing; then one schedule per crossing
reruns the workload in a fresh directory, kills the store at exactly
that crossing (torn/lost/skipped write, seeded), reopens without a
gate, and model-checks the survivors — no committed object lost, no
uncommitted object visible, no mixed state, and the store still works.

Knobs (both optional):

* ``FAULTSIM_SEED`` — an extra seed appended to the default list (CI's
  fixed matrix and random smoke run both use it);
* ``FAULTSIM_TRANSACTIONS`` — workload length (default 4).

Reproduce any failure with the ``seed``/``crash_at`` pair in its
message::

    run_one_crash(Path("/tmp/repro"), seed=S, crash_at=K)
"""

from __future__ import annotations

import os

import pytest

from repro.errors import FaultInjectedError
from repro.faultsim import (
    FaultPlan,
    RandomFaultGate,
    STORAGE_SITES,
    enumerate_gate_calls,
    run_one_crash,
)
from repro.ode.bufferpool import BufferPool
from repro.ode.codec import encode_object
from repro.ode.oid import Oid
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


@pytest.mark.parametrize("seed", _seeds())
def test_every_crash_point_recovers(tmp_path, seed):
    transactions = _transactions()
    calls = enumerate_gate_calls(tmp_path / "enumerate", seed,
                                 transactions=transactions)
    assert calls, "workload crossed no gates — the hooks are dead"

    # Coverage: the schedule space must reach every registered site.  A
    # site in the registry the workload cannot reach would silently
    # shrink the matrix, so it fails loudly here instead.
    assert set(calls) == set(STORAGE_SITES), (
        f"seed={seed}: workload covers {sorted(set(calls))}, "
        f"registry says {sorted(STORAGE_SITES)}")

    for crash_at in range(len(calls)):
        outcome = run_one_crash(tmp_path / f"crash{crash_at}", seed,
                                crash_at, transactions=transactions)
        assert outcome.crashed, (
            f"seed={seed} crash_at={crash_at}: schedule never fired "
            f"(pass 1 saw {len(calls)} calls)")
        assert outcome.state_ok, outcome.describe()


#: The seeds of CI's fixed-seed matrix; tier-1 runs the full matrix on
#: DEFAULT_SEEDS and the write-back batch crossings on all of these.
FIXED_SEEDS = [0, 1, 2, 3]


def _write_back_batches(calls):
    """Each page write-back batch among *calls*, in order, as
    ``(crossings, inside_apply)``: *crossings* are the call indices of
    its journal write, journal sync, page writes and page sync, and
    *inside_apply* says it ran between a commit's ``store.commit.apply``
    and ``store.commit.index`` crash points (a dirty eviction mid-apply,
    not the closing flush)."""
    batches = []
    inside_apply = False
    for index, site in enumerate(calls):
        if site == "store.commit.apply":
            inside_apply = True
        elif site == "store.commit.index":
            inside_apply = False
        if site != "pagefile.journal.write":
            continue
        assert calls[index + 1] == "pagefile.journal.sync", calls
        end = index + 2
        while calls[end] == "pagefile.write_page":
            end += 1
        assert end > index + 2, f"a batch at call {index} wrote no page"
        assert calls[end] == "pagefile.sync", calls
        batches.append((list(range(index, end + 1)), inside_apply))
    return batches


def _mid_apply_batches(calls):
    """The batches of two or more pages a dirty eviction wrote mid-apply."""
    return [crossings for crossings, inside_apply in _write_back_batches(calls)
            if inside_apply and len(crossings) >= 5]


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_matrix_crosses_a_multi_page_write_back_mid_apply(tmp_path, seed):
    """The matrix's pool is small enough that a transaction evicts dirty
    pages while it is applied, and every dirty frame leaves in that one
    batch.  Each crossing of such a batch — the journal write (torn,
    lost or never started), the journal sync, every page write and the
    page sync — is a crash point the reopened store survives."""
    calls = enumerate_gate_calls(tmp_path / "enumerate", seed)
    batches = _mid_apply_batches(calls)
    assert batches, (
        f"seed={seed}: no multi-page write-back mid-apply in "
        f"{_write_back_batches(calls)}")
    for crash_at in batches[0]:
        outcome = run_one_crash(tmp_path / f"crash{crash_at}", seed, crash_at)
        assert outcome.crashed and outcome.fired[0] == calls[crash_at], (
            outcome.describe())
        assert outcome.state_ok, outcome.describe()


def test_per_victim_write_back_would_empty_the_mid_apply_batches(
        tmp_path, monkeypatch):
    """The shape check above is not vacuous: with one victim written back
    per eviction the enumerated crossings hold single-page batches only,
    so the test fails if batched write-back disappears."""
    def evict_alone(pool, page_no):
        frame = pool._frames[page_no]
        if frame.page.dirty:
            pool._pagefile.write_pages_atomic(
                {page_no: frame.page.to_bytes()})
        del pool._frames[page_no]

    monkeypatch.setattr(BufferPool, "_evict", evict_alone)
    for seed in FIXED_SEEDS:
        calls = enumerate_gate_calls(tmp_path / f"enumerate{seed}", seed)
        assert any(inside for _crossings, inside
                   in _write_back_batches(calls)), f"seed={seed}"
        assert _mid_apply_batches(calls) == [], f"seed={seed}"


def test_run_past_the_last_gate_call_is_clean(tmp_path):
    """crash_at beyond the schedule space = a run that never crashes;
    the reopened store must hold exactly the committed image."""
    seed = DEFAULT_SEEDS[0]
    calls = enumerate_gate_calls(tmp_path / "enumerate", seed)
    outcome = run_one_crash(tmp_path / "run", seed, crash_at=len(calls))
    assert not outcome.crashed
    assert outcome.state_ok, outcome.describe()


def test_schedules_are_reproducible(tmp_path):
    """Same (seed, crash_at) twice — same injected fault, same survivors."""
    seed, crash_at = DEFAULT_SEEDS[0], 17
    first = run_one_crash(tmp_path / "a", seed, crash_at)
    second = run_one_crash(tmp_path / "b", seed, crash_at)
    assert first.crashed and second.crashed
    assert first.fired == second.fired
    assert first.survivors == second.survivors


def test_transient_fault_injection_never_corrupts(tmp_path):
    """Error-injection mode: transient FaultInjectedErrors instead of
    crashes.  The store must surface the typed error, resolve the
    ambiguous transaction itself, keep serving, and leave a reopenable
    directory equal to its own final answer."""
    seed = 2
    gate = RandomFaultGate(FaultPlan(seed), rate=0.08, budget=10)
    store = None
    for _attempt in range(20):
        try:
            store = ObjectStore(tmp_path / "store", pool_capacity=8,
                                fault_gate=gate)
            break
        except FaultInjectedError:
            continue
    assert store is not None, f"seed={seed}: store never opened"

    shadow = {}
    for index in range(60):
        oid = Oid("err", "c0", index % 12)
        payload = encode_object(oid, "Rec", {"i": index})
        try:
            store.put(oid, payload)
            shadow[str(oid)] = payload
        except FaultInjectedError:
            # The put may or may not have committed; the store resolved
            # it — its answer must be the old value or the new one.
            actual = store.get(oid) if store.exists(oid) else None
            acceptable = (payload, shadow.get(str(oid)))
            assert actual in acceptable, (
                f"seed={seed} op={index}: store resolved an injected "
                f"fault to a value that is neither old nor new")
            if actual is None:
                shadow.pop(str(oid), None)
            else:
                shadow[str(oid)] = actual
    assert gate.injected, f"seed={seed}: the gate never injected anything"

    for oid_text, payload in shadow.items():
        assert store.get(Oid.parse(oid_text)) == payload
    for _attempt in range(20):
        try:
            store.close()
            break
        except FaultInjectedError:
            continue

    reopened = ObjectStore(tmp_path / "store")
    try:
        survivors = {str(oid): reopened.get(oid) for oid in reopened.oids()}
    finally:
        reopened.close()
    assert survivors == shadow, (
        f"seed={seed}: reopened state diverged from the live store's "
        f"own final answer (injections: {gate.injected})")
