"""The Ode object manager.

OdeView never reads pages: "OdeView calls the Ode object manager to get the
stored representation of the object into an object buffer" (paper §4.2).
The object manager is the single gateway between the front end and storage:

* creating, updating, and deleting persistent objects, with type checking,
  constraint enforcement, and trigger firing;
* fetching :class:`ObjectBuffer` s — the decoded, self-contained form a
  display function receives;
* cluster cursors, and the row check of selection-predicate pushdown
  (paper §5.2: OdeView "passes the selection predicate to the object
  manager which uses it to filter objects retrieved from the databases");
* version snapshots for versioned classes.

An :class:`ObjectBuffer` deliberately carries everything a display function
needs (values, the public-attribute list, computed attributes) so display
code never imports the schema — the "principle of separation".
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Container,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    AccessError,
    ObjectNotFoundError,
    OdeError,
    SchemaError,
)
from repro.ode.classdef import MemberFunction, OdeClass
from repro.ode.cluster import Cluster, ClusterCursor, SnapshotCursor
from repro.ode.codec import (
    decode_fields,
    decode_header,
    encode_object,
    parse_oid,
)
from repro.ode.constraints import BehaviourRegistry
from repro.ode.mvcc import Snapshot
from repro.ode.oid import Oid
from repro.ode.schema import Schema
from repro.ode.store import ObjectStore

Predicate = Callable[["ObjectBuffer"], bool]
#: A selected row: its OID, its stored record, and its buffer when the
#: check built one (see :meth:`ObjectManager.matching`).
Match = Tuple[Oid, bytes, Optional["ObjectBuffer"]]

#: Maximum rounds of trigger-produced updates applied per update call.
_MAX_TRIGGER_ROUNDS = 8


@dataclass(frozen=True)
class ObjectBuffer:
    """The in-memory copy of one object, as handed to display functions.

    ``values`` holds every stored attribute (public and private);
    ``public_names`` says which of them encapsulation exposes; ``computed``
    holds the results of the class's pure public member functions, already
    evaluated (paper §5.1: displayed attributes "may actually be computed
    using other attributes").
    """

    oid: Oid
    class_name: str
    values: Mapping[str, Any]
    public_names: tuple
    computed: Mapping[str, Any] = field(default_factory=dict)

    def value(self, name: str, privileged: bool = False) -> Any:
        """Read one attribute, honouring encapsulation (paper §4.1 point 3)."""
        if name in self.computed:
            return self.computed[name]
        if name not in self.values:
            raise ObjectNotFoundError(
                f"object {self.oid} has no attribute {name!r}"
            )
        if name not in self.public_names and not privileged:
            raise AccessError(
                f"attribute {name!r} of {self.class_name} is private; "
                "privileged mode required"
            )
        return self.values[name]

    def public_view(self) -> Dict[str, Any]:
        """Public stored attributes plus computed attributes."""
        view = {name: self.values[name] for name in self.public_names}
        view.update(self.computed)
        return view

    def attribute_names(self, privileged: bool = False) -> List[str]:
        names = list(self.public_names) + list(self.computed)
        if privileged:
            names += [n for n in self.values if n not in self.public_names]
        return names


def check_identity(oid: Oid, stored: str) -> None:
    """Raise unless a record's stored OID text names *oid*."""
    if stored == str(oid):
        return
    stored_oid = parse_oid(stored)   # CodecError when malformed
    if stored_oid != oid:
        raise ObjectNotFoundError(
            f"record under {oid} claims identity {stored_oid}"
        )


#: Records read per :meth:`Snapshot.find_many` by a cluster scan and by
#: an index probe's candidate reads.
READ_BATCH = 64


@dataclass(frozen=True)
class _ClassLayout:
    """What building a buffer needs of a class, per schema version."""

    public_names: Tuple[str, ...]
    #: Public, side-effect-free member functions: the computed attributes.
    methods: Tuple[MemberFunction, ...]


class ObjectManager:
    """Typed object operations over one database's store and schema."""

    def __init__(self, store: ObjectStore, schema: Schema, database: str,
                 behaviours: Optional[BehaviourRegistry] = None):
        self._store = store
        self.schema = schema
        self.database = database
        self.behaviours = behaviours or BehaviourRegistry()
        self._version_manager = None  # created lazily to avoid an import cycle
        from repro.ode.index import IndexManager
        from repro.ode.opp.bindings import (
            CompiledConstraintCache,
            CompiledTriggerCache,
        )

        self.indexes = IndexManager(self)
        # Index maintenance rides the commit blob: the store calls back
        # between page apply and epoch publish, so index entries become
        # visible atomically with the data they index (and are re-derived
        # wholesale after a recovery or resync).
        store.derived = self.indexes
        #: The most recent EXPLAIN text a planner produced against this
        #: database (shown in the statistics window).
        self.last_explain: Optional[str] = None
        self._compiled_constraints = CompiledConstraintCache(schema)
        self._compiled_triggers = CompiledTriggerCache(schema)
        self._layouts: Dict[str, Tuple[int, _ClassLayout]] = {}
        from repro.obs import get_registry

        registry = get_registry()
        self._m_buffers = registry.counter("objectmanager.buffers")
        self._m_buffer_time = registry.histogram(
            "objectmanager.get_buffer_seconds")
        # Per-thread stack of pinned snapshots (see pinned()): reads on
        # a thread with a pin in effect come from that snapshot, so a
        # multi-step operation renders one commit epoch.
        self._pin_stack = threading.local()

    # -- helpers ------------------------------------------------------------

    @property
    def store(self) -> ObjectStore:
        return self._store

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Pin the store's current epoch (see :meth:`ObjectStore.snapshot`)."""
        return self._store.snapshot()

    @contextmanager
    def pinned(self) -> Iterator[Snapshot]:
        """Run the body against one pinned epoch.

        Every read this thread makes inside the ``with`` — buffers,
        clusters, counts, selects — comes from the same snapshot, so a
        subtree refresh (``core/sync.sequence``) renders one consistent
        state instead of interleaving with concurrent commits.  Nests;
        the innermost pin wins.
        """
        stack = getattr(self._pin_stack, "stack", None)
        if stack is None:
            stack = self._pin_stack.stack = []
        with self._store.snapshot() as snap:
            stack.append(snap)
            try:
                yield snap
            finally:
                stack.pop()

    def _current_snapshot(self) -> Optional[Snapshot]:
        stack = getattr(self._pin_stack, "stack", None)
        return stack[-1] if stack else None

    def ambient_snapshot(self) -> Optional[Snapshot]:
        """The innermost :meth:`pinned` snapshot on this thread, if any.

        The planner uses this to probe indexes at the reader's epoch
        instead of at head, so a pinned select never sees index entries
        newer than its snapshot.
        """
        return self._current_snapshot()

    def _versions(self):
        if self._version_manager is None:
            from repro.ode.versions import VersionManager

            self._version_manager = VersionManager(self._store, self.database)
        return self._version_manager

    @property
    def versions(self):
        """The version manager (histories of versioned objects)."""
        return self._versions()

    def _class(self, class_name: str) -> OdeClass:
        return self.schema.get_class(class_name)

    def _full_values(self, class_name: str, values: Mapping[str, Any]) -> Dict[str, Any]:
        """Fill defaults, reject unknown attributes, type-check everything."""
        attributes = {a.name: a for a in self.schema.all_attributes(class_name)}
        unknown = set(values) - set(attributes)
        if unknown:
            raise SchemaError(
                f"class {class_name!r} has no attributes {sorted(unknown)}"
            )
        complete: Dict[str, Any] = {}
        for name, attr in attributes.items():
            value = values.get(name, attr.type_spec.default())
            attr.type_spec.validate(value, self.schema)
            complete[name] = value
        return complete

    def _enforce_constraints(self, class_name: str, values: Mapping[str, Any]) -> None:
        mro = self.schema.mro(class_name)
        for constraint in self.behaviours.constraints_for(mro):
            constraint.enforce(class_name, values)
        # constraints declared in the class's O++ source (paper §1)
        for constraint in self._compiled_constraints.constraints_for(mro):
            constraint.enforce(class_name, values)

    def _fire_triggers(self, class_name: str,
                       values: Dict[str, Any]) -> Dict[str, Any]:
        """Run after-update triggers; apply their updates, bounded rounds."""
        mro = self.schema.mro(class_name)
        triggers = (self.behaviours.triggers_for(mro)
                    + self._compiled_triggers.triggers_for(mro))
        if not triggers:
            return values
        for _round in range(_MAX_TRIGGER_ROUNDS):
            changed = False
            for trigger in triggers:
                updates = trigger.maybe_fire(class_name, values)
                if updates:
                    values = dict(values)
                    values.update(self._check_updates(class_name, updates))
                    changed = True
            if not changed:
                return values
        return values

    def _check_updates(self, class_name: str,
                       updates: Mapping[str, Any]) -> Dict[str, Any]:
        checked: Dict[str, Any] = {}
        for name, value in updates.items():
            attr = self.schema.find_attribute(class_name, name)
            attr.type_spec.validate(value, self.schema)
            checked[name] = value
        return checked

    # -- object lifecycle --------------------------------------------------------

    def new_object(self, class_name: str, values: Optional[Mapping[str, Any]] = None,
                   oid: Optional[Oid] = None) -> Oid:
        """Create a persistent object; returns its OID."""
        cls = self._class(class_name)
        if not cls.persistent:
            raise SchemaError(f"class {class_name!r} is not persistent")
        complete = self._full_values(class_name, values or {})
        self._enforce_constraints(class_name, complete)
        if oid is None:
            oid = self._store.allocate_oid(self.database, class_name)
        elif oid.cluster != class_name:
            raise SchemaError(
                f"OID cluster {oid.cluster!r} does not match class {class_name!r}"
            )
        self._store.put(oid, encode_object(oid, class_name, complete))
        return oid

    def get_buffer(self, oid: Oid,
                   snapshot: Optional[Snapshot] = None) -> ObjectBuffer:
        """Fetch the object into an object buffer (paper §4.2)."""
        buffer = self.find_buffer(oid, snapshot)
        if buffer is None:
            raise ObjectNotFoundError(f"no object {oid}")
        return buffer

    def find_buffer(self, oid: Oid,
                    snapshot: Optional[Snapshot] = None
                    ) -> Optional[ObjectBuffer]:
        """:meth:`get_buffer` in one read, ``None`` when *oid* is absent.

        A record stored under *oid* that claims another identity still
        raises :class:`ObjectNotFoundError`.
        """
        with self._m_buffer_time.time():
            (data,) = self.find_records([oid], snapshot)
            return None if data is None else self.build_buffer(oid, data)

    def build_buffer(self, oid: Oid, data: bytes) -> ObjectBuffer:
        """The buffer of *oid*'s stored record *data*: decoded whole,
        its identity checked, its computed attributes evaluated."""
        self._m_buffers.inc()
        stored, class_name, values = decode_fields(data, None)
        check_identity(oid, stored)
        layout = self._layout(class_name)
        return ObjectBuffer(
            oid=oid,
            class_name=class_name,
            values=values,
            public_names=layout.public_names,
            computed=self._computed(class_name, layout, values),
        )

    def _computed(self, class_name: str, layout: "_ClassLayout",
                  values: Mapping[str, Any]) -> Dict[str, Any]:
        computed: Dict[str, Any] = {}
        bound = self.behaviours.methods.get(class_name, {})
        for method in layout.methods:
            fn = method.fn or bound.get(method.name)
            if fn is not None:
                computed[method.name] = fn(values)
        return computed

    def find_records(self, oids: Sequence[Oid],
                     snapshot: Optional[Snapshot] = None
                     ) -> List[Optional[bytes]]:
        """The stored records of *oids*, ``None`` where absent: from
        *snapshot* or the pinned one in one batch, else through the
        store, which honours the open transaction's overlay
        (read-your-writes)."""
        reader = snapshot or self._current_snapshot()
        if reader is not None:
            return reader.find_many(oids)
        return [self._store.find(oid) for oid in oids]

    def shipped(self, oid: Oid, data: bytes
                ) -> Tuple[str, Tuple[str, ...], Optional[Dict[str, Any]]]:
        """What a remote reader needs beside the stored record of *oid*:
        its class, the class's public names, and its computed values —
        ``None`` for a class with no computed methods.

        Only the header is read, and the identity checked, unless the
        class has computed methods: those are evaluated here, next to
        the data (paper §5.1), so that record alone is decoded.
        """
        stored, class_name, _offset = decode_header(data)
        try:
            check_identity(oid, stored)
            layout = self._layout(class_name)
        except OdeError:
            # Fail as a local read does: it walks the values first.
            decode_fields(data, None)
            raise
        if not layout.methods:
            return class_name, layout.public_names, None
        _stored, _class, values = decode_fields(data, None)
        return (class_name, layout.public_names,
                self._computed(class_name, layout, values))

    def _layout(self, class_name: str) -> "_ClassLayout":
        """The class's public names and computed methods, resolved once
        per schema version (the MRO walk is the costly part).  Method
        bodies bound through :attr:`behaviours` are still looked up per
        call: the registry changes without a schema bump."""
        cached = self._layouts.get(class_name)
        version = self.schema.version
        if cached is not None and cached[0] == version:
            return cached[1]
        layout = _ClassLayout(
            public_names=tuple(
                attr.name for attr in self.schema.all_attributes(class_name)
                if attr.is_public),
            methods=tuple(
                method for method in self.schema.all_methods(class_name)
                if method.is_public and not method.side_effects),
        )
        self._layouts[class_name] = (version, layout)
        return layout

    def update(self, oid: Oid, updates: Mapping[str, Any]) -> ObjectBuffer:
        """Apply attribute updates; enforce constraints; fire triggers."""
        return self.build_buffer(oid, self.update_record(oid, updates))

    def update_record(self, oid: Oid, updates: Mapping[str, Any]) -> bytes:
        """:meth:`update`, returning the stored record it wrote.

        The object is read through the store, which honours the open
        transaction's overlay, never from a :meth:`pinned` snapshot: a
        read-modify-write must start from the latest write, or a second
        update inside one pin would discard the first.
        """
        data = self._store.find(oid)
        if data is None:
            raise ObjectNotFoundError(f"no object {oid}")
        stored, class_name, values = decode_fields(data, None)
        check_identity(oid, stored)
        cls = self._class(class_name)
        if cls.versioned:
            self._versions().snapshot(oid, class_name, dict(values))
        values.update(self._check_updates(class_name, updates))
        self._enforce_constraints(class_name, values)
        values = self._fire_triggers(class_name, values)
        self._enforce_constraints(class_name, values)
        data = encode_object(oid, class_name, values)
        self._store.put(oid, data)
        return data

    def delete(self, oid: Oid) -> None:
        self._store.get(oid)  # raises ObjectNotFoundError if absent
        self._store.delete(oid)

    def exists(self, oid: Oid) -> bool:
        snapshot = self._current_snapshot()
        if snapshot is not None:
            return snapshot.exists(oid)
        return self._store.exists(oid)

    # -- clusters and sequencing --------------------------------------------------

    def cluster(self, class_name: str) -> Cluster:
        self._class(class_name)
        reader = self._current_snapshot() or self._store
        return Cluster(reader, self.database, class_name)

    def count(self, class_name: str) -> int:
        return len(self.cluster(class_name))

    def cursor(self, class_name: str) -> ClusterCursor:
        """A sequencing cursor over a cluster.

        The cursor owns a snapshot pinned at creation: the whole walk
        sees one commit epoch, ``reset()`` refreshes to the current one,
        and ``close()`` releases the pin.  Inside :meth:`pinned`, the
        ambient snapshot is shared instead (and stays pinned by the
        context, not the cursor).
        """
        self._class(class_name)
        ambient = self._current_snapshot()
        snapshot = ambient if ambient is not None else self._store.snapshot()
        cluster = Cluster(snapshot, self.database, class_name)
        return SnapshotCursor(
            cluster, snapshot=None if ambient is not None else snapshot)

    def select(self, class_name: str,
               predicate: Optional[Predicate] = None) -> Iterator[ObjectBuffer]:
        """All (matching) buffers of a cluster, in sequencing order, all
        from one snapshot — a select never observes half a concurrent
        commit.
        """
        for oid, data, buffer in self.matching(class_name, predicate):
            yield buffer or self.build_buffer(oid, data)

    def matching(self, class_name: str, predicate: Optional[Predicate],
                 candidates: Optional[Sequence[Oid]] = None
                 ) -> Iterator[Match]:
        """``(oid, stored record, buffer)`` of each row that satisfies
        *predicate* (every row when ``None``); the buffer is the one the
        check built whole, else ``None`` — a server ships the record,
        and no buffer is built for it.

        Without *candidates*, the rows are the cluster's members, in
        sequencing order, all from one snapshot.  With them (an index
        probe's, rechecked), the rows are those of *candidates* present
        in the store, read :data:`READ_BATCH` records per
        :meth:`find_records`.
        """
        if candidates is None:
            rows = self._snapshot_members(class_name)
        else:
            rows = self._present(candidates)
        if predicate is None:
            for oid, data in rows:
                yield oid, data, None
            return
        check = self._matcher(class_name, predicate)
        for oid, data in rows:
            passed = check(oid, data)
            if passed:
                yield oid, data, None if passed is True else passed

    def _snapshot_members(self, class_name: str
                          ) -> Iterator[Tuple[Oid, bytes]]:
        ambient = self._current_snapshot()
        if ambient is not None:
            yield from self._members(ambient, class_name)
        else:
            with self.pinned() as snapshot:
                yield from self._members(snapshot, class_name)

    def _present(self, oids: Sequence[Oid]) -> Iterator[Tuple[Oid, bytes]]:
        for start in range(0, len(oids), READ_BATCH):
            batch = oids[start:start + READ_BATCH]
            for oid, data in zip(batch, self.find_records(batch)):
                if data is not None:
                    yield oid, data

    def _members(self, snapshot: Snapshot, class_name: str
                 ) -> Iterator[Tuple[Oid, bytes]]:
        """``(oid, record)`` of every member of a cluster at *snapshot*,
        in sequencing order, read :data:`READ_BATCH` records per
        :meth:`Snapshot.find_many` — one store-lock hold and one fetch
        per page for each batch, not one per row."""
        numbers = snapshot.cluster_numbers(class_name)
        for start in range(0, len(numbers), READ_BATCH):
            oids = [Oid(self.database, class_name, number)
                    for number in numbers[start:start + READ_BATCH]]
            for oid, data in zip(oids, snapshot.find_many(oids)):
                if data is None:
                    raise ObjectNotFoundError(
                        f"no object {oid} at epoch {snapshot.epoch}")
                yield oid, data

    def _matcher(self, class_name: str, predicate: Predicate
                 ) -> Callable[[Oid, bytes], Any]:
        """Whether a stored record satisfies *predicate*: the one row
        check of a cluster scan and an index probe's recheck.  ``False``
        when it does not; when it does, ``True``, or the buffer the
        check had to build whole.

        A compiled predicate names the attributes it reads (``reads``,
        see :meth:`PredicateEvaluator.compile`).  Unless one of them is
        a computed method, the record is decoded for just those, its
        identity checked, and the predicate evaluated on a probe buffer
        with the class's public names, so encapsulation and
        missing-attribute errors fire exactly as on a full buffer.  The
        other attributes are skipped, their framing checked but not
        their payload (:func:`~repro.ode.codec.skip_value`): a record
        the predicate rejects is never decoded whole, and one it accepts
        is decoded whole by whoever builds its buffer — here, or a
        remote reader.
        """
        def full(oid: Oid, data: bytes) -> Any:
            buffer = self.build_buffer(oid, data)
            return buffer if predicate(buffer) else False

        reads = getattr(predicate, "reads", None)
        if reads is None or not self.schema.has_class(class_name):
            return full
        layout = self._layout(class_name)
        if any(method.name in reads for method in layout.methods):
            return full
        public_names = layout.public_names

        def probe_first(oid: Oid, data: bytes) -> Any:
            stored, stored_class, values = decode_fields(data, reads)
            check_identity(oid, stored)
            if stored_class != class_name:
                return full(oid, data)
            return bool(predicate(
                ObjectBuffer(oid, class_name, values, public_names)))

        return probe_first

    def scan_values(self, class_name: str, names: Container[str]
                    ) -> Iterator[Tuple[Oid, Dict[str, Any]]]:
        """``(oid, values)`` for every member of a cluster, decoding only
        the attributes in *names*, from one snapshot (index upkeep)."""
        with self.pinned() as snapshot:
            for oid, data in self._members(snapshot, class_name):
                stored, _class, values = decode_fields(data, names)
                check_identity(oid, stored)
                yield oid, values

    # -- transactions -----------------------------------------------------------------

    def begin(self) -> int:
        return self._store.begin()

    def commit(self) -> None:
        self._store.commit()

    def commit_stage(self) -> int:
        """Queue the open transaction on the group-commit barrier and
        return its minted epoch; :meth:`commit_wait` makes it durable.
        Splitting the two lets a caller release its own write lock while
        the batch fsync happens on the shared barrier."""
        return self._store.commit_stage()

    def commit_wait(self, epoch: int) -> None:
        self._store.commit_wait(epoch)

    def abort(self) -> None:
        self._store.abort()
        if self._version_manager is not None:
            # snapshot() may have indexed version records the abort just
            # rolled back; rebuild the index from committed state.
            self._version_manager.invalidate()
