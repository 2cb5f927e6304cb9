"""The primary side of WAL shipping: units from the store's change log.

A *unit* is one committed transaction's WAL frame sequence (BEGIN, the
ops, COMMIT) tagged with the epoch it was published at.  Every store
keeps the units published since its log's floor in memory
(:class:`~repro.ode.changelog.ChangeLog`, bounded by the WAL checkpoint
size), on local commits and replicated applies alike, so any node —
primary or chained replica — can serve fetches.  :func:`fetch` answers
two regimes:

stream
    ``after_epoch`` at or past the log's floor: serve the units after it.
resync
    the log's floor has passed ``after_epoch`` (trimmed, reopened, or a
    snapshot installed since); the gap is unbridgeable and the fetcher
    must take a full snapshot.

``fetch`` never waits and reads only memory, so the server calls it
inline on its event loop; the long poll
(:meth:`repro.net.aserver._AsyncConnection._repl_fetch`) parks on the
loop until the next append wakes it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.errors import ReplicationError
from repro.obs import get_registry
from repro.ode.store import ObjectStore
from repro.ode.wal import WalRecord

Unit = Tuple[int, List[WalRecord]]

#: Long-poll waits are capped server-side so a dead fetcher cannot park
#: a request forever.
MAX_WAIT_SECONDS = 2.0


def units_to_wire(units: List[Unit]) -> List[List[Any]]:
    """Flatten units into codec-friendly lists for a wire reply."""
    return [
        [epoch, [[r.op, r.txid, r.oid, r.payload, r.epoch, r.term]
                 for r in frames]]
        for epoch, frames in units
    ]


def units_from_wire(wire: List[List[Any]]) -> List[Unit]:
    """Inverse of :func:`units_to_wire`.

    A unit of any other shape raises
    :class:`~repro.errors.ReplicationError` naming it, so an applier
    records the error and stops instead of dying on an ``IndexError``.
    """
    units = []
    for index, unit in enumerate(wire):
        try:
            epoch, frames = unit
            records = [
                WalRecord(op=op, txid=txid, oid=oid, payload=payload,
                          epoch=frame_epoch, term=term)
                for op, txid, oid, payload, frame_epoch, term in frames]
        except (TypeError, ValueError) as exc:
            raise ReplicationError(
                f"malformed replication unit #{index} "
                f"{repr(unit)[:80]}: {exc}") from None
        if not isinstance(epoch, int):
            raise ReplicationError(
                f"malformed replication unit #{index}: epoch {epoch!r}")
        units.append((epoch, records))
    return units


def fetch(store: ObjectStore, after_epoch: int,
          max_units: int = 64) -> Dict[str, Any]:
    """Units extending ``after_epoch`` from the store's change log, or a
    resync order; never waits.

    Returns ``{"units": [...], "epoch": <primary epoch>,
    "term": <primary term>, "resync": bool}``.  When ``resync`` is true
    the fetcher's epoch is below the log's floor and it must install a
    snapshot.  ``term`` lets a fetcher detect a superseded upstream
    (term below its own) or a term raise it must resync under —
    streaming across a promotion could silently skip same-epoch
    divergence.  ``units`` (wire form) are guaranteed to be *every*
    committed epoch in ``(after_epoch, last unit]``, in order — the
    contiguity the replica's apply path insists on.
    """
    entries = store.change_log.read(after_epoch, max_units)
    if entries is None:
        get_registry().counter("repl.feed.resyncs").inc()
        return {"units": [], "epoch": store.epoch, "term": store.term,
                "resync": True}
    return {
        "units": units_to_wire([(entry.epoch, entry.frames)
                                for entry in entries]),
        "epoch": store.epoch,
        "term": store.term,
        "resync": False,
    }
