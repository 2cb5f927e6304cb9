"""The site registry must match the source, and an armed-but-silent
gate must change nothing — the two properties that make the torture
matrix trustworthy."""

from __future__ import annotations

import re
from pathlib import Path

import repro.ode
from repro.faultsim import CountingGate, STORAGE_SITES
from repro.ode.codec import encode_object
from repro.ode.oid import Oid
from repro.ode.pagefile import PageFile
from repro.ode.store import ObjectStore
from repro.ode.wal import WriteAheadLog

#: Every string literal passed to a gate call in the storage sources.
#: ``self._fault_gate("site", ...)`` at pagefile/wal sites,
#: ``self._gate("site")`` at the store's pure crash points.
_GATE_CALL = re.compile(r'self\._(?:fault_)?gate\(\s*"([^"]+)"')


def _sites_in_source() -> set:
    """Scanned over every module of the package, so a gate added in a
    new module cannot escape the registry check."""
    found = set()
    for path in Path(repro.ode.__file__).parent.rglob("*.py"):
        found |= set(_GATE_CALL.findall(path.read_text()))
    return found


def test_registry_matches_source():
    """A new write/sync point cannot be added without torture coverage:
    adding a gate call makes this fail until the registry (and with it
    the coverage assertion in test_crash_recovery) knows the site."""
    assert _sites_in_source() == set(STORAGE_SITES)


def test_registry_sites_are_unique():
    assert len(STORAGE_SITES) == len(set(STORAGE_SITES))


def test_gates_default_to_none(tmp_path):
    store = ObjectStore(tmp_path)
    try:
        assert store._fault_gate is None
        assert store._placement.pagefile._fault_gate is None
        assert store._wal._fault_gate is None
    finally:
        store.close()
    assert PageFile(tmp_path / "plain.pages")._fault_gate is None
    assert WriteAheadLog(tmp_path / "plain.log")._fault_gate is None


def _run_workload(directory, fault_gate=None):
    store = ObjectStore(directory, pool_capacity=4, fault_gate=fault_gate)
    oids = [Oid("db", "c", n) for n in range(8)]
    for oid in oids:
        store.put(oid, encode_object(oid, "Rec", {"n": oid.number}))
    store.begin()
    store.put(oids[0], encode_object(oids[0], "Rec", {"n": -1}))
    store.delete(oids[5])
    store.commit()
    store.close()


def test_counting_gate_run_is_byte_identical_to_ungated(tmp_path):
    """A gate that injects nothing must be invisible on disk — the
    torture runs exercise the very bytes production writes."""
    _run_workload(tmp_path / "plain")
    gate = CountingGate()
    _run_workload(tmp_path / "gated", fault_gate=gate)
    assert gate.calls, "the gated run never crossed a gate"
    assert set(gate.calls) <= set(STORAGE_SITES)
    for name in (ObjectStore.DATA_FILE, ObjectStore.WAL_FILE):
        plain = (tmp_path / "plain" / name).read_bytes()
        gated = (tmp_path / "gated" / name).read_bytes()
        assert plain == gated, f"{name} differs between gated and ungated runs"
