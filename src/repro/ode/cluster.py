"""Clusters and cluster cursors.

"Persistent objects of the same type are grouped together into a cluster;
the name of a cluster is the same as that of the corresponding type" (paper
§2).  The object-set window's control panel — ``reset`` / ``next`` /
``previous`` (§3.2) — is a cursor over a cluster.

The cursor walks OIDs lazily in OID order, one store step per move.  It
does not filter: a selection runs through the planner
(:mod:`repro.core.queryplan`).
"""

from __future__ import annotations

import math
from typing import List, Optional, Union

from repro.errors import StorageError
from repro.ode.oid import Oid
from repro.ode.mvcc import Snapshot
from repro.ode.store import ObjectStore

#: Anything a cluster can read its membership through: the live store
#: (a *live* view that sees every commit as it lands) or a pinned
#: :class:`~repro.ode.mvcc.Snapshot` (one consistent epoch).
ClusterReader = Union[ObjectStore, Snapshot]


class Cluster:
    """Read view of one class's persistent extent.

    Constructed over the store itself the view is live; constructed over
    a snapshot it is frozen at the snapshot's epoch — same interface,
    the object manager picks whichever the caller asked for.
    """

    def __init__(self, store: ClusterReader, database: str, class_name: str):
        self._store = store
        self.database = database
        self.class_name = class_name

    def __len__(self) -> int:
        return self._store.cluster_size(self.class_name)

    def numbers(self) -> List[int]:
        return self._store.cluster_numbers(self.class_name)

    def oid(self, number: int) -> Oid:
        return Oid(self.database, self.class_name, number)

    def oids(self) -> List[Oid]:
        return [self.oid(n) for n in self.numbers()]

    def _step(self, number: float, forward: bool) -> Optional[Oid]:
        found = self._store.cluster_step(self.class_name, number, forward)
        return None if found is None else self.oid(found)

    def first(self) -> Optional[Oid]:
        return self._step(-1, True)

    def last(self) -> Optional[Oid]:
        return self._step(math.inf, False)

    def after(self, number: int) -> Optional[Oid]:
        """The next live OID strictly after *number*, if any."""
        return self._step(number, True)

    def before(self, number: int) -> Optional[Oid]:
        """The previous live OID strictly before *number*, if any."""
        return self._step(number, False)

    def range(self, after: float, limit: int,
              forward: bool = True) -> List[int]:
        """Up to *limit* live OID numbers past *after*, nearest first —
        greater and ascending when *forward*, else smaller and
        descending (one batch of a scan or a cursor window, without
        reading the whole membership)."""
        return self._store.cluster_range(self.class_name, after, limit,
                                         forward)


class ClusterCursor:
    """Sequencing cursor: the semantics behind reset/next/previous buttons.

    A fresh (or reset) cursor sits *before* the first object; ``next`` then
    yields the first member.  ``previous`` at the front and ``next`` past the
    end return ``None`` and leave the position unchanged, matching how the
    paper's control panel behaves at cluster boundaries.
    """

    def __init__(self, cluster: Cluster):
        self._cluster = cluster
        self._position: Optional[int] = None  # current OID number

    @property
    def cluster(self) -> Cluster:
        return self._cluster

    def reset(self) -> None:
        self._position = None

    def current(self) -> Optional[Oid]:
        if self._position is None:
            return None
        return self._cluster.oid(self._position)

    def next(self) -> Optional[Oid]:
        """Advance to the next object; ``None`` at the end."""
        found = (
            self._cluster.first()
            if self._position is None
            else self._cluster.after(self._position)
        )
        if found is not None:
            self._position = found.number
        return found

    def previous(self) -> Optional[Oid]:
        """Step back to the previous object; ``None`` at the front."""
        if self._position is None:
            return None
        found = self._cluster.before(self._position)
        if found is not None:
            self._position = found.number
        return found

    def seek(self, oid: Oid) -> None:
        """Position the cursor on a specific object (used by tests/joins)."""
        if oid.cluster != self._cluster.class_name:
            raise StorageError(
                f"cursor over {self._cluster.class_name!r} cannot seek to {oid}"
            )
        self._position = oid.number

    def close(self) -> None:
        """Release cursor resources (no-op for a live-view cursor)."""


class SnapshotCursor(ClusterCursor):
    """A sequencing cursor that owns the snapshot it walks.

    The whole ``next``/``previous`` walk renders one commit epoch —
    concurrent commits never make an in-progress walk skip or repeat.
    ``reset`` additionally slides the snapshot forward to the current
    epoch, matching the paper's reset button: back to the top, seeing
    the database as it is now.  ``close`` releases the pinned epoch
    (an abandoned cursor's snapshot unpins itself on collection).
    """

    def __init__(self, cluster: Cluster,
                 snapshot: Optional[Snapshot] = None):
        super().__init__(cluster)
        self._snapshot = snapshot

    @property
    def epoch(self) -> Optional[int]:
        return self._snapshot.epoch if self._snapshot is not None else None

    def reset(self) -> None:
        if self._snapshot is not None and not self._snapshot.closed:
            self._snapshot.refresh()
        super().reset()

    def close(self) -> None:
        if self._snapshot is not None:
            self._snapshot.close()
