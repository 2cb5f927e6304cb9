"""Transactional attribute indexes for selection pushdown.

The paper pushes selection predicates down to the object manager (§5.2),
which "uses it to filter objects retrieved from the databases".  A filter
over a cluster is a full scan; Ode's successors added attribute indexes so
common predicates (equality and ranges over scalar attributes) avoid the
scan.  This module provides them:

* :class:`AttributeIndex` — an ordered, *epoch-versioned* index over one
  public scalar attribute of one class.  Every entry carries the commit
  epoch that added it and the commit epoch that removed it, so a probe
  can answer either at head (the live index) or as-of any pinned
  snapshot epoch — a reader inside ``pinned()`` never sees an entry
  newer than its snapshot.
* :class:`IndexManager` — registry + maintenance.  Indexes are NOT
  updated eagerly on object writes: maintenance rides the commit blob.
  The manager fills the store's ``derived`` slot and mutates its
  indexes inside ``_apply_unit`` (local and replicated units alike) —
  under the store lock, after the pages are applied, *before* the epoch
  publishes — stamping each delta with the commit's epoch.  A transaction that
  aborts (or dies before its fsync) therefore never touches an index,
  and the ``store.commit.index`` fault gate puts the maintenance step
  under the same crash matrix as the pages themselves.  On the rebuild
  paths (recovery, replica resync) the store notifies the manager to
  re-derive everything from committed state.

Entries removed at or below the MVCC watermark (the oldest pinned
epoch) are unreachable by every possible reader and are garbage
collected amortized, mirroring the store's version-chain pruning.

An index also owns its attribute's statistics: the selection planner
costs a probe on the live row count (``len``),
:meth:`AttributeIndex.distinct_count` and
:meth:`AttributeIndex.live_bounds`, which the index keeps as it goes.

Index upkeep decodes only the indexed attributes of a record
(:func:`~repro.ode.codec.decode_fields`).  The equivalence battery in
``tests/ode/test_index_equivalence.py`` proves probe ≡ scan at head and
under pins.
"""

from __future__ import annotations

import bisect
import datetime
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import SchemaError
from repro.ode.oid import Oid
from repro.ode.types import (
    BoolType,
    DateType,
    FloatType,
    IntType,
    StringType,
)

_INDEXABLE_TYPES = (IntType, FloatType, StringType, DateType, BoolType)

#: "Never removed" sentinel epoch; compares above every real epoch.
_LIVE = float("inf")

#: Entry layout: ``[sort_key, number, added_epoch, removed_epoch]``.
#: Mutable on purpose — retiring an entry stamps ``removed_epoch`` in
#: place, which does not disturb the (key, number) sort order.
_KEY = 0
_NUMBER = 1
_ADDED = 2
_REMOVED = 3

_entry_pos = lambda entry: (entry[_KEY], entry[_NUMBER])  # noqa: E731


def _sort_key(value: Any) -> Tuple:
    """A total order over all indexable values (type rank, then value)."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, datetime.date):
        return (4, value.toordinal())
    raise SchemaError(f"value {value!r} is not indexable")


class AttributeIndex:
    """Ordered (value, oid-number) index over one attribute of one class.

    Epoch semantics: ``insert``/``remove`` default to epoch 0, which
    makes a hand-built index (unit tests, benchmarks) behave exactly
    like the historical unversioned one — every entry is visible at
    every epoch and at head.  The commit path passes the commit's real
    epoch, and probes pass a snapshot epoch to read as-of.
    """

    #: Compaction thresholds: dead entries are swept only when they are
    #: both numerous and a large fraction of the list, so maintenance
    #: stays amortized O(1) per retired entry.
    _COMPACT_MIN_DEAD = 64

    def __init__(self, class_name: str, attribute: str):
        self.class_name = class_name
        self.attribute = attribute
        #: Readers planning against a pinned snapshot older than the
        #: build cannot use this index: objects deleted before the build
        #: have no entry at all (the build only sees live state), so a
        #: pre-build snapshot would get an incomplete probe.  The
        #: planner falls back to a scan below this epoch.
        self.built_epoch = 0
        self._lock = threading.RLock()
        self._entries: List[list] = []          # sorted by (key, number)
        self._live_of: Dict[int, list] = {}     # number -> live entry
        self._key_counts: Dict[Tuple, int] = {}  # live key -> live entries
        self._dead = 0

    def __len__(self) -> int:
        """Live entries (head cardinality), matching the unversioned API."""
        return len(self._live_of)

    # -- maintenance -----------------------------------------------------------

    def insert(self, number: int, value: Any, epoch: int = 0) -> None:
        key = _sort_key(value)
        with self._lock:
            live = self._live_of.get(number)
            if live is not None:
                if live[_KEY] == key:
                    return  # value unchanged: the existing entry stands
                self._retire(live, epoch)
            entry = [key, number, epoch, _LIVE]
            bisect.insort(self._entries, entry, key=_entry_pos)
            self._live_of[number] = entry
            self._key_counts[key] = self._key_counts.get(key, 0) + 1

    def remove(self, number: int, epoch: int = 0) -> None:
        with self._lock:
            live = self._live_of.get(number)
            if live is not None:
                self._retire(live, epoch)

    def update(self, number: int, value: Any, epoch: int = 0) -> None:
        self.insert(number, value, epoch)

    def _retire(self, entry: list, epoch: int) -> None:
        entry[_REMOVED] = epoch
        del self._live_of[entry[_NUMBER]]
        key = entry[_KEY]
        remaining = self._key_counts.get(key, 0) - 1
        if remaining <= 0:
            self._key_counts.pop(key, None)
        else:
            self._key_counts[key] = remaining
        self._dead += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._live_of.clear()
            self._key_counts.clear()
            self._dead = 0

    def prune(self, watermark: int) -> int:
        """Drop entries no possible reader can see; returns entries freed.

        An entry removed at or below *watermark* (the oldest pinned
        epoch) is invisible to every pin that exists or can still be
        taken.  Compaction is amortized: it only runs when the dead
        entries are both numerous and a big fraction of the list.
        """
        with self._lock:
            if (self._dead < self._COMPACT_MIN_DEAD
                    or self._dead * 2 < len(self._entries)):
                return 0
            before = len(self._entries)
            self._entries = [entry for entry in self._entries
                             if entry[_REMOVED] > watermark]
            self._dead = sum(1 for entry in self._entries
                             if entry[_REMOVED] is not _LIVE)
            return before - len(self._entries)

    # -- probes ----------------------------------------------------------------

    @staticmethod
    def _visible(entry: list, epoch: Optional[int]) -> bool:
        if epoch is None:
            return entry[_REMOVED] is _LIVE
        return entry[_ADDED] <= epoch < entry[_REMOVED]

    def equal(self, value: Any, epoch: Optional[int] = None) -> List[int]:
        """OID numbers whose attribute equals *value*, ascending.

        ``epoch=None`` probes the live index (head); a snapshot epoch
        returns exactly the entries that commit history made visible at
        that epoch.
        """
        key = _sort_key(value)
        with self._lock:
            left = bisect.bisect_left(self._entries, (key, -1),
                                      key=_entry_pos)
            numbers = []
            for entry in self._entries[left:]:
                if entry[_KEY] != key:
                    break
                if self._visible(entry, epoch):
                    numbers.append(entry[_NUMBER])
        return sorted(numbers)

    def range(self, low: Any = None, high: Any = None,
              include_low: bool = True, include_high: bool = True,
              epoch: Optional[int] = None) -> List[int]:
        """OID numbers with low <= value <= high (bounds optional)."""
        with self._lock:
            start = 0
            end = len(self._entries)
            if low is not None:
                low_key = _sort_key(low)
                start = (bisect.bisect_left(self._entries, (low_key, -1),
                                            key=_entry_pos)
                         if include_low
                         else bisect.bisect_right(
                             self._entries, (low_key, float("inf")),
                             key=_entry_pos))
            if high is not None:
                high_key = _sort_key(high)
                end = (bisect.bisect_right(self._entries,
                                           (high_key, float("inf")),
                                           key=_entry_pos)
                       if include_high
                       else bisect.bisect_left(self._entries, (high_key, -1),
                                               key=_entry_pos))
            numbers = [entry[_NUMBER] for entry in self._entries[start:end]
                       if self._visible(entry, epoch)]
        return sorted(numbers)

    # -- statistics ------------------------------------------------------------

    def distinct_count(self) -> int:
        """Distinct live keys (head), maintained incrementally."""
        with self._lock:
            return len(self._key_counts)

    def live_bounds(self) -> Optional[Tuple[Tuple, Tuple]]:
        """(min, max) sort keys over live entries, or None when empty.

        Scans inward past dead entries at the ends; pruning keeps that
        amortized short.
        """
        with self._lock:
            lo = hi = None
            for entry in self._entries:
                if entry[_REMOVED] is _LIVE:
                    lo = entry[_KEY]
                    break
            for entry in reversed(self._entries):
                if entry[_REMOVED] is _LIVE:
                    hi = entry[_KEY]
                    break
            if lo is None or hi is None:
                return None
            return lo, hi


class IndexManager:
    """Creates, maintains, and serves attribute indexes for one database.

    Maintenance is commit-driven: the owning :class:`ObjectManager`
    fills the store's ``derived`` slot with it: :meth:`apply_effects`
    runs in every commit, :meth:`on_store_rebuilt` after rebuilds.
    Nothing here is called from the object-write path any more — an
    uncommitted write is invisible to every index.
    """

    def __init__(self, manager):
        self._manager = manager  # ObjectManager; kept loose to avoid a cycle
        self._indexes: Dict[Tuple[str, str], AttributeIndex] = {}
        self._by_cluster: Dict[str, List[AttributeIndex]] = {}
        self._lock = threading.RLock()

    # -- lifecycle ------------------------------------------------------------

    def create_index(self, class_name: str, attribute: str) -> AttributeIndex:
        """Create (and build) an index over a public scalar attribute.

        The build runs under the store lock so it cannot interleave with
        a commit's apply step: the index captures exactly one committed
        state, stamped as its ``built_epoch``.
        """
        key = (class_name, attribute)
        with self._lock:
            if key in self._indexes:
                raise SchemaError(
                    f"index on {class_name}.{attribute} already exists")
        attr = self._manager.schema.find_attribute(class_name, attribute)
        if not attr.is_public:
            raise SchemaError(
                f"cannot index private attribute {class_name}.{attribute}")
        if not isinstance(attr.type_spec, _INDEXABLE_TYPES):
            raise SchemaError(
                f"attribute {class_name}.{attribute} has unindexable type "
                f"{type(attr.type_spec).__name__}")
        index = AttributeIndex(class_name, attribute)
        with self._manager.store.lock:
            with self._lock:
                if key in self._indexes:
                    raise SchemaError(
                        f"index on {class_name}.{attribute} already exists")
                self._indexes[key] = index
                self._by_cluster.setdefault(class_name, []).append(index)
            self.rebuild(class_name, attribute)
        return index

    def drop_index(self, class_name: str, attribute: str) -> None:
        with self._lock:
            index = self._indexes.pop((class_name, attribute), None)
            if index is None:
                raise SchemaError(f"no index on {class_name}.{attribute}")
            siblings = self._by_cluster.get(class_name, [])
            if index in siblings:
                siblings.remove(index)
            if not siblings:
                self._by_cluster.pop(class_name, None)

    def get(self, class_name: str, attribute: str) -> Optional[AttributeIndex]:
        """The index serving (class, attribute), consulting superclasses.

        An index on a base class's attribute does NOT cover subclass
        clusters (clusters are per-class, §2), so only exact class matches
        are served.
        """
        with self._lock:
            return self._indexes.get((class_name, attribute))

    def has_index(self, class_name: str, attribute: str) -> bool:
        with self._lock:
            return (class_name, attribute) in self._indexes

    def indexes(self) -> List[AttributeIndex]:
        with self._lock:
            return list(self._indexes.values())

    def rebuild(self, class_name: str, attribute: str) -> None:
        """Re-derive one index from committed state (under the store lock).

        Entries are stamped epoch 0 — visible at every epoch — and the
        index's ``built_epoch`` advances to the store's current epoch:
        pins older than the rebuild fall back to scans (deletes older
        than the build left no entries to version).
        """
        index = self._indexes[(class_name, attribute)]
        store = self._manager.store
        with store.lock:
            index.clear()
            for oid, values in self._manager.scan_values(class_name,
                                                         (attribute,)):
                index.insert(oid.number, values.get(attribute))
            index.built_epoch = store.epoch

    # -- commit-driven maintenance (the store's derived-state hook) -------------

    def apply_effects(self, epoch: int,
                      effects: Dict[Oid, Optional[bytes]]) -> None:
        """Apply one commit's net effect to every covering index.

        Runs inside the store's commit path — under the store lock,
        after the pages are applied, before the epoch publishes — so a
        head reader cannot observe the index ahead of the data, and a
        pinned reader filters these entries out by epoch.
        """
        from repro.ode.codec import decode_fields

        touched: List[AttributeIndex] = []
        with self._lock:
            for oid, payload in effects.items():
                indexes = self._by_cluster.get(oid.cluster)
                if not indexes:
                    continue
                if payload is None:
                    for index in indexes:
                        index.remove(oid.number, epoch)
                else:
                    _oid, _class_name, values = decode_fields(
                        payload, [index.attribute for index in indexes])
                    for index in indexes:
                        index.insert(oid.number,
                                     values.get(index.attribute), epoch)
                touched.extend(index for index in indexes
                               if index not in touched)
        if touched:
            watermark = self._manager.store.watermark
            for index in touched:
                index.prune(watermark)

    def on_store_rebuilt(self) -> None:
        """Re-derive everything after wholesale state replacement.

        The store calls this after recovery (``_recover_volatile``) and
        replica resync (``install_replicated``): the incremental deltas
        the indexes were built from may describe commits the rebuild
        resolved the other way, so committed state is the only truth
        left.
        """
        with self._lock:
            keys = list(self._indexes)
        for class_name, attribute in keys:
            self.rebuild(class_name, attribute)

    # -- compatibility shims ---------------------------------------------------

    def definitions(self) -> List[Tuple[str, str]]:
        """(class, attribute) pairs, for snapshot shipping/persistence."""
        with self._lock:
            return sorted(self._indexes)

    def verify_against(self, class_name: str, attribute: str,
                       members: Iterable) -> List[str]:
        """Disagreements between one index and its base cluster (head).

        For the correctness battery: *members* is the committed cluster
        content as ``(number, value)`` pairs; returns human-readable
        mismatch descriptions (empty = exact agreement).
        """
        index = self._indexes[(class_name, attribute)]
        problems: List[str] = []
        expected: Dict[int, Any] = dict(members)
        live = set(index.range())
        missing = sorted(set(expected) - live)
        stray = sorted(live - set(expected))
        problems.extend(f"missing entry for number {n}" for n in missing)
        problems.extend(f"stray entry for number {n}" for n in stray)
        for number, value in expected.items():
            if number in live and number not in set(index.equal(value)):
                problems.append(
                    f"number {number} indexed under the wrong key "
                    f"(expected {value!r})")
        return problems
