"""Snapshot isolation (MVCC).

Every commit publishes a monotonically increasing *epoch* (stamped into
WAL COMMIT and CHECKPOINT records, so the counter survives reopen).
:meth:`~repro.ode.store.ObjectStore.snapshot` pins the current epoch and
returns a :class:`Snapshot` whose reads see exactly the committed state
as of that epoch, without taking the store lock on the hot path.

The mechanism is a bounded in-memory *version chain* per OID —
``[(epoch, payload-or-None), ...]`` ascending, where the first entry is
a pre-image stamped epoch 0 captured just before the commit overwrites
the OID.  A snapshot read walks the chain for the newest entry at or
below its epoch; a chain miss provably means the OID is unmodified
since the pruning watermark (older than every live snapshot), so the
read falls back to the current pages under the store lock.  Entries
superseded by a newer entry at or below the watermark (``min`` live
snapshot epoch, else the current epoch) are dropped, and a chain left
with one entry at or below the watermark is dropped whole — the pages
hold that value — so with no snapshot open no chain outlives its
commit.  Each commit prunes the chains it grew, and a snapshot release
sweeps every chain only when it raised the watermark.  Cluster
memberships (:mod:`repro.ode.membership`) are versioned the same way.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ObjectNotFoundError, StorageError
from repro.obs import get_registry
from repro.ode.membership import ClusterMembership
from repro.ode.oid import Oid, is_version_cluster

Chain = List[Tuple[int, Optional[bytes]]]  # ascending (epoch, payload-or-None)

#: What a read of a cluster the store has never seen goes to.
_NO_MEMBERS = ClusterMembership("")


class MvccState:
    """The published view: epoch, version chains, pins and cluster
    memberships, behind one leaf-level lock — held briefly, never over
    I/O, taken after the store lock when both are needed."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # Only the chains some pinned reader may still need: all a
        # watermark sweep has to visit.
        self._chains: Dict[Oid, Chain] = {}
        self._pins: Dict[int, int] = {}
        # Committed membership per cluster, for the live view and for
        # snapshots alike; an emptied cluster keeps its (empty) entry.
        self._members: Dict[str, ClusterMembership] = {}
        self._epoch = 0
        registry = get_registry()
        self._m_pruned = registry.counter("mvcc.pruned")
        self._m_full_sweeps = registry.counter("mvcc.full_sweeps")
        self._m_versions_live = registry.gauge("mvcc.versions_live")
        self._m_snapshots_open = registry.gauge("mvcc.snapshots_open")
        self._m_snapshot_age = registry.histogram(
            "mvcc.snapshot_age", bounds=[float(2 ** i) for i in range(24)])

    @property
    def epoch(self) -> int:
        """The last published commit epoch (0 on a fresh store)."""
        return self._epoch

    def reset(self, oids: Iterable[Oid], epoch: int) -> None:
        """Re-derive the view from a rebuilt object table: the cluster
        memberships as committed, no version chains, the given *epoch* —
        all in one step for readers."""
        members: Dict[str, ClusterMembership] = {}
        for oid in oids:
            if oid.cluster not in members:
                members[oid.cluster] = ClusterMembership(oid.database)
            members[oid.cluster].numbers.append(oid.number)
        for membership in members.values():
            membership.numbers.sort()
        with self._lock:
            self._chains.clear()
            self._m_versions_live.set(0)
            self._members = members
            self._epoch = epoch

    # -- pins ------------------------------------------------------------------

    @property
    def watermark(self) -> int:
        """The oldest epoch any live snapshot can still observe."""
        with self._lock:
            return self._watermark_locked()

    def _watermark_locked(self) -> int:
        return min(self._pins) if self._pins else self._epoch

    def pin(self) -> int:
        """Pin the current epoch and return it."""
        with self._lock:
            epoch = self._epoch
            self._pins[epoch] = self._pins.get(epoch, 0) + 1
            self._m_snapshots_open.inc()
            return epoch

    def release(self, epoch: int) -> None:
        with self._lock:
            remaining = self._pins.get(epoch, 0) - 1
            self._m_snapshots_open.dec()
            self._m_snapshot_age.observe(float(self._epoch - epoch))
            if remaining > 0:
                self._pins[epoch] = remaining
                return
            self._pins.pop(epoch, None)
            # Only the last pin of the *oldest* pinned epoch holds the
            # watermark down; any other release can free nothing.
            watermark = self._watermark_locked()
            if watermark > epoch:
                self._m_full_sweeps.inc()
                for members in self._members.values():
                    members.prune(watermark)
                self._prune_locked(list(self._chains.items()))

    # -- publish and prune -------------------------------------------------------

    def publish(self, epoch: int, effects: Dict[Oid, Optional[bytes]],
                preimages: Dict[Oid, Optional[bytes]]) -> None:
        """Make an applied commit visible to readers, atomically: a
        reader sees entirely before it or entirely after.  Where a
        written OID has no chain, its pre-image (the value the commit
        overwrote) becomes the chain's base entry, stamped epoch 0."""
        with self._lock:
            touched = []
            # With no reader pinned (none can appear before the epoch
            # is set below) nobody will ever need this commit undone.
            undo_epoch = epoch if self._pins else None
            for oid, payload in effects.items():
                chain = self._chains.get(oid)
                if chain is None:
                    chain = self._chains[oid] = [(0, preimages[oid])]
                    self._m_versions_live.inc()
                chain.append((epoch, payload))
                self._m_versions_live.inc()
                touched.append((oid, chain))
                members = self._members.get(oid.cluster)
                if members is None:
                    members = self._members[oid.cluster] = (
                        ClusterMembership(oid.database))
                members.change(oid.number, payload is not None, undo_epoch)
            self._epoch = epoch
            self._prune_locked(touched)

    def _prune_locked(self, chains: Iterable[Tuple[Oid, Chain]]) -> None:
        """Drop versions no live snapshot can reach (lock held).

        Within a chain, everything superseded by a newer entry at or
        below the watermark goes.  A chain whose newest entry is at or
        below the watermark goes whole: that entry is the OID's current
        committed value, which every reader sees and the pages hold.

        *chains* are the ones that can have prunable entries: those one
        commit just grew — O(commit size) — or, when a snapshot release
        raised the watermark, every chain.
        """
        watermark = self._watermark_locked()
        pruned = 0
        for oid, chain in chains:
            if chain[-1][0] <= watermark:
                del self._chains[oid]
                pruned += len(chain)
                continue
            for index in range(len(chain) - 2, 0, -1):
                if chain[index][0] <= watermark:
                    del chain[:index]
                    pruned += index
                    break
        if pruned:
            self._m_pruned.inc(pruned)
            self._m_versions_live.dec(pruned)

    # -- lookup ------------------------------------------------------------------

    def lookup_many(self, oids: Sequence[Oid], epoch: int
                    ) -> List[Optional[Tuple[int, Optional[bytes]]]]:
        """The newest chain entry of each of *oids* at or below *epoch*,
        in one lock hold; ``None`` is a miss — the OID is unmodified
        since the watermark (every modification creates a chain; pruning
        only removes what no live snapshot needs), so the pages hold it."""
        if not self._chains:   # nothing modified since the watermark
            return [None] * len(oids)
        with self._lock:
            chains = self._chains
            return [_newest(chains.get(oid, ()), epoch) for oid in oids]


def _newest(chain: Chain,
            epoch: int) -> Optional[Tuple[int, Optional[bytes]]]:
    """The newest entry of *chain* at or below *epoch*, else ``None``."""
    for index in range(len(chain) - 1, -1, -1):
        if chain[index][0] <= epoch:
            return chain[index]
    return None


class _MembershipReads:
    """The cluster-membership reads, written once for both readers: the
    store answers them for the live view (everything committed so far),
    a :class:`Snapshot` as of the epoch it pins."""

    def _reading(self) -> Tuple[MvccState, Optional[int]]:
        """The view to read, and the epoch to answer as of (``None``:
        the live view)."""
        raise NotImplementedError

    def cluster_names(self, include_shadow: bool = False) -> List[str]:
        """Names of the non-empty clusters, sorted.  Shadow version
        clusters (``<name>#v``, an implementation detail of
        :mod:`repro.ode.versions`) are filtered from the listing unless
        ``include_shadow`` is set."""
        view, epoch = self._reading()
        with view._lock:
            names = sorted(name for name, members in view._members.items()
                           if members.size(epoch))
        if include_shadow:
            return names
        return [name for name in names if not is_version_cluster(name)]

    def cluster_size(self, cluster: str) -> int:
        view, epoch = self._reading()
        with view._lock:
            return view._members.get(cluster, _NO_MEMBERS).size(epoch)

    def cluster_numbers(self, cluster: str) -> List[int]:
        """OID numbers of a cluster, ascending (sequencing order)."""
        return self.cluster_range(cluster, -1)

    def cluster_step(self, cluster: str, number: float,
                     forward: bool) -> Optional[int]:
        """The member number nearest to *number* strictly after it
        (*forward*) or before it, ``None`` past either end — one
        sequencing step, without materialising the cluster."""
        view, epoch = self._reading()
        with view._lock:
            return next(view._members.get(cluster, _NO_MEMBERS).walk(
                epoch, number, forward), None)

    def cluster_range(self, cluster: str, after: float,
                      limit: Optional[int] = None,
                      forward: bool = True) -> List[int]:
        """Up to *limit* member numbers past *after*, nearest first:
        greater and ascending when *forward*, else smaller and
        descending."""
        view, epoch = self._reading()
        with view._lock:
            return list(itertools.islice(
                view._members.get(cluster, _NO_MEMBERS).walk(
                    epoch, after, forward),
                limit))

    def oids(self) -> List[Oid]:
        """Every member OID, in cluster then sequencing order."""
        view, epoch = self._reading()
        with view._lock:   # numbers only: Oids are built unlocked
            clusters = [(members.database, cluster,
                         list(members.walk(epoch, -1)))
                        for cluster, members in sorted(view._members.items())]
        return [Oid(database, cluster, number)
                for database, cluster, numbers in clusters
                for number in numbers]


class Snapshot(_MembershipReads):
    """A consistent read-only view of the store at one commit epoch.

    Reads (:meth:`get`, :meth:`exists`, :meth:`cluster_numbers`, …) see
    exactly the committed state as of :attr:`epoch` — never a later
    commit, never half of one — and never consult the write path's
    transaction overlay, so a snapshot on a store with an open
    transaction sees only committed data.

    Snapshots pin their epoch: old versions of objects overwritten after
    the snapshot was taken are retained until it is closed.  Close
    promptly (use ``with store.snapshot() as snap``), or call
    :meth:`refresh` to slide a long-lived snapshot forward.
    """

    __slots__ = ("_view", "_lookup", "_epoch", "_closed")

    def __init__(self, view: MvccState,
                 lookup: Callable[[Sequence[Oid], int],
                                  List[Optional[bytes]]]):
        self._view = view
        #: The store's committed-value read of a batch of OIDs (chain,
        #: else pages).
        self._lookup = lookup
        self._epoch = view.pin()
        self._closed = False

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("snapshot is closed")

    def _reading(self) -> Tuple[MvccState, int]:
        self._check_open()
        return self._view, self._epoch

    # -- reads -----------------------------------------------------------------

    def get(self, oid: Oid) -> bytes:
        value = self.find(oid)
        if value is None:
            raise ObjectNotFoundError(f"no object {oid} at epoch {self._epoch}")
        return value

    def find(self, oid: Oid) -> Optional[bytes]:
        """The record of *oid* at this epoch, ``None`` when absent."""
        self._check_open()
        return self._lookup([oid], self._epoch)[0]

    def find_many(self, oids: Sequence[Oid]) -> List[Optional[bytes]]:
        """:meth:`find` of each of *oids*: the chains in one lock hold,
        the misses in one store-lock hold that reads each page once."""
        self._check_open()
        return self._lookup(oids, self._epoch)

    def exists(self, oid: Oid) -> bool:
        return self.find(oid) is not None

    # -- lifecycle -------------------------------------------------------------

    def refresh(self) -> int:
        """Re-pin at the store's current epoch and return it.

        Cursor resets and subtree re-syncs use this to pick up commits
        made after the snapshot was taken, without churning objects.
        """
        self._check_open()
        fresh = self._view.pin()
        self._view.release(self._epoch)
        self._epoch = fresh
        return fresh

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._view.release(self._epoch)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        # An abandoned snapshot must not pin its epoch forever — old
        # versions would never prune.  Explicit close() is still the
        # contract; this is the backstop.
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter teardown
            pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Snapshot(epoch={self._epoch}, {state})"
