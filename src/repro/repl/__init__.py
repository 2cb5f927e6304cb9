"""WAL-shipping replication: primary fetch, replica apply loop.

The group-commit barrier already emits commits as epoch-ordered,
batch-atomic WAL blobs; this package turns that stream into read
replicas.  Every store keeps its recently published units in one
in-memory change log (:class:`~repro.ode.changelog.ChangeLog`, shared with
CDC push); :func:`~repro.repl.feed.fetch` serves long-polling fetchers
from it, and a :class:`~repro.repl.replica.ReplicaApplier` on each
replica pulls units over the ordinary wire protocol and applies them
with :meth:`~repro.ode.store.ObjectStore.apply_replicated`, publishing
the primary's epochs to local snapshot readers.

The invariant the whole design hangs on: a replica's applied epochs are
always a contiguous prefix of the primary's committed epochs.  Shipping
happens strictly after durability *and* publication on the primary, the
apply path persists units to the replica's own WAL before touching
pages, and any gap the log cannot bridge (its floor passed the replica:
trimmed, reopened, or reset by a snapshot install) forces a full
snapshot resync instead of a silent hole.

Failover (:mod:`repro.repl.promote`): a replica can be promoted to
primary — controlled, or crash-forced with the dead primary's durable
WAL tail salvaged first — under a *fenced term* durably minted at
promotion.  Cluster progress is ordered by ``(term, epoch)``; a
resurrected old primary's lower term is rejected everywhere
(:class:`~repro.errors.StalePrimaryError`) instead of split-braining.
"""

from repro.repl.feed import fetch, units_from_wire, units_to_wire
from repro.repl.promote import (
    PromotionResult,
    promote_store,
    salvage_units,
)
from repro.repl.replica import ReplicaApplier, bootstrap_replica

__all__ = [
    "ReplicaApplier",
    "PromotionResult",
    "bootstrap_replica",
    "fetch",
    "promote_store",
    "salvage_units",
    "units_from_wire",
    "units_to_wire",
]
