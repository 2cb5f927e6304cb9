"""An Ode database on disk.

A database is a directory::

    lab.odb/
      catalog.json    the persistent schema (structs + class definitions)
      data.pages      slotted pages (objects)
      wal.log         write-ahead log
      display/        dynamically linked display modules, one per class
      icon.txt        optional ASCII icon shown in the database window

The catalog stores class *definitions*; behaviour (method bodies,
constraints, triggers) is re-bound at open time through the
:class:`~repro.ode.constraints.BehaviourRegistry` — the same split as Ode,
where method bodies live in compiled object files outside the catalog.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.errors import SchemaError, StorageError
from repro.ode.classdef import OdeClass
from repro.ode.constraints import BehaviourRegistry
from repro.ode.objectmanager import ObjectManager
from repro.ode.schema import Schema
from repro.ode.store import ObjectStore
from repro.ode.types import StructType

CATALOG_FILE = "catalog.json"
DISPLAY_DIR = "display"
ICON_FILE = "icon.txt"
BEHAVIOURS_FILE = "behaviours.py"
LOCK_FILE = "lock"
INDEXES_FILE = "indexes.json"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


#: Directories currently open *in this process* (same-pid double opens).
_OPEN_DIRECTORIES: set = set()

DEFAULT_ICON = "[db]"


class Database:
    """One open Ode database: schema + store + object manager."""

    def __init__(self, directory: Union[str, Path], create: bool = False,
                 pool_capacity: int = 64, fault_gate=None):
        self.directory = Path(directory)
        catalog_path = self.directory / CATALOG_FILE
        if create:
            if catalog_path.exists():
                raise StorageError(f"database already exists at {self.directory}")
            self.directory.mkdir(parents=True, exist_ok=True)
            self.schema = Schema()
            self._save_catalog()
        else:
            if not catalog_path.exists():
                raise StorageError(f"no database at {self.directory} (missing catalog)")
            with open(catalog_path, "r", encoding="utf-8") as fh:
                self.schema = Schema.from_dict(json.load(fh))
        self.name = self.directory.name.removesuffix(".odb")
        self._acquire_lock()
        try:
            self.behaviours = BehaviourRegistry()
            self.store = ObjectStore(
                self.directory,
                pool_capacity=pool_capacity,
                fault_gate=fault_gate)
            self.objects = ObjectManager(
                self.store, self.schema, self.name, self.behaviours
            )
            (self.directory / DISPLAY_DIR).mkdir(exist_ok=True)
            self._load_behaviours()
            self._rebuild_persistent_indexes()
        except BaseException:
            # A failed open must not leave the single-writer lock behind,
            # or the database stays unopenable for the rest of the process.
            store = getattr(self, "store", None)
            if store is not None:
                try:
                    store.close()
                except Exception:
                    pass
            self._release_lock()
            raise

    # -- creation helpers ---------------------------------------------------

    @classmethod
    def create(cls, directory: Union[str, Path], **kwargs) -> "Database":
        return cls(directory, create=True, **kwargs)

    @classmethod
    def open(cls, directory: Union[str, Path], **kwargs) -> "Database":
        return cls(directory, create=False, **kwargs)

    # -- single-writer lock ----------------------------------------------------

    def _lock_path(self) -> Path:
        return self.directory / LOCK_FILE

    def _acquire_lock(self) -> None:
        """One process per database: the store has no concurrency control.

        A stale lock (its pid no longer runs) is stolen silently, so a
        crashed session never bricks the database.
        """
        resolved = self.directory.resolve()
        if resolved in _OPEN_DIRECTORIES:
            raise StorageError(
                f"database {self.name!r} is already open in this process"
            )
        lock = self._lock_path()
        if lock.exists():
            try:
                holder = int(lock.read_text().strip())
            except ValueError:
                holder = -1
            if holder > 0 and holder != os.getpid() and _pid_alive(holder):
                raise StorageError(
                    f"database {self.name!r} is locked by running "
                    f"process {holder}"
                )
        lock.write_text(str(os.getpid()))
        _OPEN_DIRECTORIES.add(resolved)
        self._locked = True

    def _release_lock(self) -> None:
        if getattr(self, "_locked", False):
            try:
                self._lock_path().unlink(missing_ok=True)
            finally:
                _OPEN_DIRECTORIES.discard(self.directory.resolve())
                self._locked = False

    # -- persistent index definitions --------------------------------------------

    def _indexes_path(self) -> Path:
        return self.directory / INDEXES_FILE

    def _saved_index_definitions(self) -> List[List[str]]:
        path = self._indexes_path()
        if not path.exists():
            return []
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise StorageError(f"corrupt index definitions file: {exc}") from exc

    def _save_index_definitions(self, definitions: List[List[str]]) -> None:
        self._indexes_path().write_text(
            json.dumps(definitions, indent=2), encoding="utf-8")

    def _rebuild_persistent_indexes(self) -> None:
        for class_name, attribute in self._saved_index_definitions():
            if self.schema.has_class(class_name):
                self.objects.indexes.create_index(class_name, attribute)

    def _rebuild_persistent_indexes_after_restore(self) -> None:
        """Re-run index builds once restored objects are in the store."""
        for class_name, attribute in self._saved_index_definitions():
            if self.schema.has_class(class_name):
                if self.objects.indexes.has_index(class_name, attribute):
                    self.objects.indexes.rebuild(class_name, attribute)
                else:
                    self.objects.indexes.create_index(class_name, attribute)

    def create_index(self, class_name: str, attribute: str) -> None:
        """Create an attribute index that persists across opens.

        The index *definition* is durable; entries are rebuilt from the
        cluster at open (the same strategy as the object table itself).
        """
        self.objects.indexes.create_index(class_name, attribute)
        definitions = self._saved_index_definitions()
        if [class_name, attribute] not in definitions:
            definitions.append([class_name, attribute])
            self._save_index_definitions(definitions)

    def drop_index(self, class_name: str, attribute: str) -> None:
        self.objects.indexes.drop_index(class_name, attribute)
        definitions = [
            pair for pair in self._saved_index_definitions()
            if pair != [class_name, attribute]
        ]
        self._save_index_definitions(definitions)

    def vacuum(self) -> int:
        """Rewrite the page file densely; returns pages reclaimed.

        OID numbers are stable under vacuum, so attribute indexes and any
        OIDs held by open browsers stay valid.
        """
        return self.store.vacuum()

    def server_stats(self) -> Dict[str, Any]:
        """This database's numbers, under the keys of an ``OP_STATS``
        reply (a server adds its own keys to this dict).  Each number is
        read from its owner: cluster membership, the indexes, the store,
        its pool and commit barrier, and the ``mvcc.*`` metrics."""
        from repro.obs import get_registry

        objects, store = self.objects, self.store
        indexes = objects.indexes.indexes()
        statistics = [[f"stats {index.class_name}.{index.attribute}",
                       f"{len(index)} rows, {index.distinct_count()} distinct"]
                      for index in indexes]
        for i, line in enumerate((objects.last_explain or "").splitlines()):
            statistics.append(["last explain" if i == 0 else "", line.strip()])
        pool = store.pool.stats
        registry = get_registry()
        return {
            "schema_version": self.schema.version,
            "clusters": {name: objects.count(name)
                         for name in self.schema.class_names()},
            "indexes": [{"class": index.class_name,
                         "attribute": index.attribute,
                         "entries": len(index)} for index in indexes],
            "statistics": statistics,
            "fragmentation": store.fragmentation(),
            "pool": {"hits": pool.hits, "misses": pool.misses,
                     "evictions": pool.evictions,
                     "prefetches": pool.prefetches,
                     "writebacks": pool.writebacks,
                     "writeback_batches": pool.writeback_batches},
            "epoch": store.epoch,
            "group_commit": store.group_commit_stats(),
            "mvcc": {
                "versions_live": registry.gauge("mvcc.versions_live").value,
                "snapshots_open": registry.gauge("mvcc.snapshots_open").value,
                "pruned": registry.counter("mvcc.pruned").value,
                "full_sweeps": registry.counter("mvcc.full_sweeps").value,
                "snapshot_reads": registry.counter("mvcc.snapshot_reads").value,
                "read_fallbacks": registry.counter("mvcc.read_fallbacks").value,
                "snapshot_age_p95":
                    registry.histogram("mvcc.snapshot_age").percentile(95),
            },
        }

    def _load_behaviours(self) -> None:
        """Dynamically load the database's behaviour module, if present.

        Ode keeps method bodies, constraints, and triggers in compiled
        object files outside the catalog; our analogue is an optional
        ``behaviours.py`` next to the database.  It must define
        ``bind(database)``, which re-attaches callables to the schema via
        ``database.behaviours``.
        """
        import importlib.util

        path = self.directory / BEHAVIOURS_FILE
        if not path.exists():
            return
        module_name = f"_ode_behaviours_{abs(hash(str(self.directory)))}"
        spec = importlib.util.spec_from_file_location(module_name, path)
        if spec is None or spec.loader is None:
            raise StorageError(f"cannot load behaviours from {path}")
        module = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(module)
            module.bind(self)
        except Exception as exc:
            raise StorageError(
                f"behaviour module {path} failed to bind: {exc}"
            ) from exc

    def reload_behaviours(self) -> None:
        """Unbind every behaviour and bind ``behaviours.py`` afresh (a
        replica does this when a resync brings the primary's changed or
        removed file).  The bodies bind into a fresh registry whose
        contents then replace the live one's, so concurrent reads see
        the old bodies or the new, and a file that fails to bind leaves
        the old ones in place.
        """
        live, self.behaviours = self.behaviours, BehaviourRegistry()
        try:
            self._load_behaviours()
            fresh = self.behaviours
        finally:
            self.behaviours = live
        live.constraints = fresh.constraints
        live.triggers = fresh.triggers
        live.methods = fresh.methods

    # -- catalog ---------------------------------------------------------------

    def _save_catalog(self) -> None:
        path = self.directory / CATALOG_FILE
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.schema.to_dict(), fh, indent=2, sort_keys=True)
        tmp.replace(path)

    def define_struct(self, struct: StructType) -> None:
        self.schema.add_struct(struct)
        self._save_catalog()

    def define_class(self, cls: OdeClass) -> None:
        """Register a class and persist the catalog.

        This is the schema-change operation OdeView must survive without
        recompilation (paper §4.5): nothing in the front end is touched.
        """
        self.schema.add_class(cls)
        self._save_catalog()

    def define_from_source(self, source: str) -> None:
        """Define structs and classes from O++ source text.

        Parses the source, resolves it against the current schema, persists
        the catalog — the textual path to the same place
        :meth:`define_class` reaches programmatically.
        """
        from repro.ode.opp.parser import parse_program
        from repro.ode.opp.typecheck import build_schema

        build_schema(parse_program(source), self.schema)
        self._save_catalog()

    def drop_class(self, name: str) -> None:
        if self.store.cluster_size(name):
            raise SchemaError(
                f"cannot drop class {name!r}: its cluster is not empty"
            )
        self.schema.drop_class(name)
        self._save_catalog()

    def evolve_class(self, cls: OdeClass) -> None:
        self.schema.replace_class(cls)
        self._save_catalog()

    # -- per-database paths --------------------------------------------------------

    @property
    def display_dir(self) -> Path:
        return self.directory / DISPLAY_DIR

    @property
    def icon(self) -> str:
        """ASCII icon for the database window (Figure 1)."""
        icon_path = self.directory / ICON_FILE
        if icon_path.exists():
            return icon_path.read_text(encoding="utf-8").strip() or DEFAULT_ICON
        return DEFAULT_ICON

    def set_icon(self, icon: str) -> None:
        (self.directory / ICON_FILE).write_text(icon, encoding="utf-8")

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        self.store.close()
        self._release_lock()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"Database({self.name!r} at {self.directory})"


def discover_databases(root: Union[str, Path]) -> List[Path]:
    """Find Ode databases under *root* — what the initial 'database' window
    lists (Figure 1).  A database is any directory holding a catalog file."""
    root = Path(root)
    if not root.exists():
        return []
    found = [
        path for path in sorted(root.iterdir())
        if path.is_dir() and (path / CATALOG_FILE).exists()
    ]
    return found
