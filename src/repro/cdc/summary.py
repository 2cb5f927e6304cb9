"""Delta summaries: the compact unit CDC ships to browsers.

A committed transaction's WAL unit names every object it touched; a
front end refreshing a window tree does not need the payloads — only
*which* objects changed and at which epoch, grouped by cluster (the
class extent a window sequences over).  :func:`summarize_unit` boils a
unit down to that ``(epoch, {cluster: oids})`` shape, and the router
fans the summary out to subscribers instead of the unit itself, so a
thousand idle browsers cost a thousand small frames, not a thousand
copies of the commit.

A summary with ``resync=True`` carries no per-object detail: it is the
overflow escape hatch — "your delta stream broke at epoch ``epoch``;
invalidate wholesale and start over from there" (see
:class:`~repro.cdc.router.CdcSubscriber`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from repro.ode.oid import Oid
from repro.ode.wal import OP_DELETE, OP_PUT, WalRecord


@dataclass(frozen=True)
class ChangeSummary:
    """One commit's (or one coalesced resync's) change notification."""

    epoch: int
    #: cluster name -> OID strings touched in that cluster (puts and
    #: deletes alike; the consumer purges either way).
    changes: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    #: True when delta detail was lost (queue overflow): the consumer
    #: must invalidate wholesale and treat ``epoch`` as its new floor.
    resync: bool = False

    @property
    def oid_count(self) -> int:
        return sum(len(oids) for oids in self.changes.values())

    def clusters(self) -> Tuple[str, ...]:
        return tuple(self.changes)

    def restrict(self, clusters) -> "ChangeSummary":
        """The summary seen through a subscriber's cluster filter.

        ``clusters=None`` means "everything".  A resync summary passes
        any filter untouched — lost detail is lost for every cluster.
        """
        if clusters is None or self.resync:
            return self
        wanted = {
            name: oids for name, oids in self.changes.items()
            if name in clusters
        }
        return ChangeSummary(epoch=self.epoch, changes=wanted)


def summarize_unit(epoch: int, frames: List[WalRecord]) -> ChangeSummary:
    """Extract the ``(epoch, cluster, oids)`` delta of one committed unit.

    BEGIN/COMMIT framing records carry no object; puts and deletes both
    count as "changed" — the consumer's cached copy is stale either way.
    Order within a cluster is preserved (first touch wins) so summaries
    are deterministic for tests and the wire.
    """
    changes: Dict[str, List[str]] = {}
    seen = set()
    for record in frames:
        if record.op not in (OP_PUT, OP_DELETE) or not record.oid:
            continue
        if record.oid in seen:
            continue
        seen.add(record.oid)
        cluster = Oid.parse(record.oid).cluster
        changes.setdefault(cluster, []).append(record.oid)
    return ChangeSummary(
        epoch=epoch,
        changes={name: tuple(oids) for name, oids in changes.items()},
    )


def summary_to_wire(summary: ChangeSummary) -> Dict[str, Any]:
    """The codec-dict form an ``OP_CDC_EVENT`` frame carries."""
    return {
        "epoch": summary.epoch,
        "changes": {name: list(oids)
                    for name, oids in summary.changes.items()},
        "resync": summary.resync,
    }


def summary_from_wire(value: Mapping[str, Any]) -> ChangeSummary:
    """Inverse of :func:`summary_to_wire`."""
    return ChangeSummary(
        epoch=int(value.get("epoch", 0)),
        changes={
            str(name): tuple(str(oid) for oid in oids)
            for name, oids in (value.get("changes") or {}).items()
        },
        resync=bool(value.get("resync", False)),
    )
