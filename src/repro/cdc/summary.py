"""Delta summaries: the compact unit CDC ships to browsers.

A committed transaction's WAL unit names every object it touched; a
front end refreshing a window tree does not need the payloads — only
*which* objects changed and at which epoch, grouped by cluster (the
class extent a window sequences over).  :func:`summarize_unit` boils a
unit down to that ``(epoch, {cluster: oids})`` shape, and the server
pushes the summary instead of the unit itself, so a thousand idle
browsers cost a thousand small frames, not a thousand copies of the
commit.

A subscriber's only server-side state is a :class:`ChangeCursor`: an
``(after_epoch, clusters)`` position in the store's
:class:`~repro.ode.changelog.ChangeLog`.  Each log entry is summarized
once, by the first cursor to read it, and the summary is cached on the
entry for every other cursor.

A summary with ``resync=True`` carries no per-object detail: it is the
escape hatch for a cursor the log's floor overtook — "your delta stream
broke; invalidate wholesale and treat epoch ``epoch`` as your floor".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import get_registry
from repro.ode.oid import Oid
from repro.ode.changelog import ChangeLog
from repro.ode.wal import OP_DELETE, OP_PUT, WalRecord


@dataclass(frozen=True)
class ChangeSummary:
    """One commit's (or one coalesced resync's) change notification."""

    epoch: int
    #: cluster name -> OID strings touched in that cluster (puts and
    #: deletes alike; the consumer purges either way).
    changes: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    #: True when delta detail was lost (the reader fell below the change
    #: log's floor): the consumer must invalidate wholesale and treat
    #: ``epoch`` as its new floor.
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


class ChangeCursor:
    """One subscription's position in a store's change log.

    ``read`` returns the summaries of every unit past the cursor that
    touches its clusters, and advances it.  A cursor the log's floor
    has overtaken gets one resync marker at the log's newest epoch and
    continues from there: however far behind, one event, never a pile.
    """

    __slots__ = ("after", "clusters")

    def __init__(self, after: int, clusters: Optional[Sequence[str]] = None):
        self.after = after
        self.clusters = frozenset(clusters) if clusters is not None else None

    def read(self, log: ChangeLog) -> List[ChangeSummary]:
        entries = log.read(self.after)
        if entries is None:
            self.after = log.tail
            get_registry().counter("cdc.coalesced").inc()
            return [ChangeSummary(epoch=self.after, resync=True)]
        summaries = []
        for entry in entries:
            if entry.summary is None:
                entry.summary = summarize_unit(entry.epoch, entry.frames)
                get_registry().counter("cdc.events").inc()
            narrowed = entry.summary.restrict(self.clusters)
            if narrowed.changes:
                summaries.append(narrowed)
        if entries:
            self.after = entries[-1].epoch
        return summaries
