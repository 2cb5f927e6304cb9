"""Replica promotion: controlled and crash-forced failover to a replica.

Two promotion paths share the term mint
(:meth:`~repro.ode.store.ObjectStore.promote_term`):

controlled
    the admin points ``python -m repro promote`` (or any client issuing
    ``OP_REPL_PROMOTE``) at a *running replica server*; the server stops
    its appliers, flips to primary, and mints the next fenced term in
    every database's WAL (:meth:`~repro.net.server.OdeServer.promote`).
    The old primary is assumed cleanly demoted or already drained.

crash-forced
    the primary process is dead and its replica set must elect a new
    writer *without losing any acknowledged write*.  Acked means the
    commit's COMMIT record was fsynced into the primary's WAL — so the
    dead primary's log file still holds every acked unit, even the ones
    replication never shipped.  :func:`salvage_units` reads that file
    directly (no store reopen, no directory lock fight with a crashed
    process's leftovers) and :func:`promote_store` applies the salvaged
    tail to the chosen replica before minting its new term: the replica
    is promoted *at or past* everything the dead primary ever
    acknowledged.

Fencing invariant, both paths: the TERM record is durable before the
first write of the new reign can be accepted, so a node (or client)
comparing terms can always tell the reigning primary from a resurrected
old one — progress across the cluster is ordered by ``(term, epoch)``
lexicographically, and an epoch may only rewind when the term rises.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple, Union

from repro.errors import ReplicationError
from repro.ode.store import ObjectStore
from repro.ode.wal import WalRecord, WriteAheadLog

Unit = Tuple[int, List[WalRecord]]


class PromotionResult(NamedTuple):
    """What a crash-forced promotion did."""

    term: int            #: the freshly minted fenced term
    epoch: int           #: the promoted store's epoch after salvage
    salvaged_units: int  #: dead-primary units applied before the mint


def salvage_units(primary_wal: Union[str, Path],
                  after_epoch: int) -> List[Unit]:
    """Committed units past *after_epoch* from a dead primary's WAL file.

    Reads the log file directly — the primary process is gone, nothing
    else holds the write handle — and returns exactly the units whose
    COMMIT records are intact, i.e. exactly the writes the primary ever
    acknowledged.  Raises :class:`~repro.errors.ReplicationError` when
    the log's head checkpoint is *past* ``after_epoch``: the file no
    longer holds every acked unit the caller is missing, so a salvage
    from it could not promise zero acked-write loss (the caller should
    pick a less-lagged replica, or accept the gap explicitly by
    re-calling from the checkpoint epoch).
    """
    path = Path(primary_wal)
    if not path.exists():
        return []
    wal = WriteAheadLog(path)
    try:
        units, floor = wal.committed_units(after_epoch)
    finally:
        wal.close()
    if floor is not None and after_epoch < floor:
        raise ReplicationError(
            f"dead primary's WAL was checkpointed at epoch {floor}; "
            f"cannot salvage the acked tail after epoch {after_epoch}")
    return units


def promote_store(store: ObjectStore,
                  primary_directory: Optional[Union[str, Path]] = None,
                  ) -> PromotionResult:
    """Crash-force one replica store to primary, salvaging first.

    With ``primary_directory`` given, the dead primary's durable WAL
    tail beyond this store's epoch is applied before the term mint —
    the no-acked-write-lost half of the promotion.  The mint itself is
    fsynced before this returns; the caller may accept writes the
    moment it does.
    """
    salvaged = 0
    if primary_directory is not None:
        units = salvage_units(
            Path(primary_directory) / ObjectStore.WAL_FILE, store.epoch)
        if units:
            store.apply_replicated(units)
            salvaged = len(units)
    term = store.promote_term()
    return PromotionResult(term=term, epoch=store.epoch,
                           salvaged_units=salvaged)
