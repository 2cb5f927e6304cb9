"""Database statistics: the planner's catalog and the statistics window.

Two layers share this module:

* :class:`StatisticsCatalog` — per-cluster cardinality and per-attribute
  selectivity estimates, the numbers the query planner's cost model runs
  on.  Cardinality is maintained incrementally on every commit (the
  index manager's apply hook feeds it from inside the commit path);
  attribute statistics (row count, distinct keys, min/max bounds) are
  refreshed from the covering index whenever a commit touches it.
  ``seed()`` lets tests and fixtures pin estimates without building
  data, which is how the planner regression suite forces probe-wins /
  scan-wins / break-even shapes.
* The statistics *window* — not a paper figure, but the kind of
  companion window a production release of OdeView would ship: one
  glance at the open database's clusters, index coverage, planner
  estimates, buffer-pool behaviour, and dynamic-linker cache.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.windowing.wintypes import at, panel, text_window


# -- the planner's catalog ----------------------------------------------------

@dataclass(frozen=True)
class AttributeStatistics:
    """Summary of one indexed attribute's value distribution."""

    rows: int                      # live entries (= live cluster members)
    distinct: int                  # distinct live keys
    min_key: Optional[Tuple]       # smallest live sort key (rank, value)
    max_key: Optional[Tuple]       # largest live sort key
    source: str = "index"          # "index" (observed) | "seed" (pinned)


class StatisticsCatalog:
    """Cardinality and selectivity estimates for one database.

    Thread-safe; written from inside the store's commit path (via the
    index manager's apply hook) and read lock-free-ish by planners.
    Seeded values are pinned: they win over observed numbers until
    :meth:`unseed`, which is what planner regression fixtures rely on.
    """

    #: Fallback selectivities when no statistics cover an attribute.
    DEFAULT_EQ_SELECTIVITY = 0.05
    DEFAULT_RANGE_SELECTIVITY = 0.30

    def __init__(self, objects=None):
        self._objects = objects    # ObjectManager, for lazy first counts
        self._lock = threading.RLock()
        self._cardinality: Dict[str, int] = {}
        self._attributes: Dict[Tuple[str, str], AttributeStatistics] = {}
        self._seeded_cardinality: Dict[str, int] = {}
        self._seeded_attributes: Dict[Tuple[str, str],
                                      AttributeStatistics] = {}
        self.commits_observed = 0
        #: The most recent EXPLAIN text a planner produced against this
        #: database — surfaced in the statistics window.
        self.last_explain: Optional[str] = None

    # -- cardinality -----------------------------------------------------------

    def cardinality(self, class_name: str) -> int:
        """Estimated live members of a cluster (exact when tracked)."""
        with self._lock:
            if class_name in self._seeded_cardinality:
                return self._seeded_cardinality[class_name]
        return self._tracked_cardinality(class_name)

    def _tracked_cardinality(self, class_name: str) -> int:
        with self._lock:
            if class_name in self._cardinality:
                return self._cardinality[class_name]
        count = 0
        if self._objects is not None:
            try:
                count = self._objects.count(class_name)
            except Exception:  # unknown class / closed store: estimate 0
                count = 0
        with self._lock:
            return self._cardinality.setdefault(class_name, count)

    def adjust_cardinality(self, class_name: str, delta: int) -> None:
        """Incremental maintenance from the commit path."""
        # First sight of this cluster initializes from the store, whose
        # membership excludes the commit being applied until its epoch
        # publishes — so the delta goes on top, as for a tracked one.
        tracked = self._tracked_cardinality(class_name)
        with self._lock:
            self.commits_observed += 1
            self._cardinality[class_name] = max(
                0, self._cardinality.get(class_name, tracked) + delta)

    # -- attribute statistics --------------------------------------------------

    def attribute(self, class_name: str,
                  attribute: str) -> Optional[AttributeStatistics]:
        with self._lock:
            seeded = self._seeded_attributes.get((class_name, attribute))
            if seeded is not None:
                return seeded
            return self._attributes.get((class_name, attribute))

    def observe_index(self, index) -> None:
        """Refresh one attribute's statistics from its covering index."""
        bounds = index.live_bounds()
        stats = AttributeStatistics(
            rows=len(index),
            distinct=index.distinct_count(),
            min_key=bounds[0] if bounds else None,
            max_key=bounds[1] if bounds else None,
        )
        with self._lock:
            self._attributes[(index.class_name, index.attribute)] = stats

    def forget_attribute(self, class_name: str, attribute: str) -> None:
        with self._lock:
            self._attributes.pop((class_name, attribute), None)

    # -- fixtures --------------------------------------------------------------

    def seed(self, class_name: str, cardinality: Optional[int] = None,
             attributes: Optional[Dict[str, Dict[str, Any]]] = None) -> None:
        """Pin estimates for planner fixtures.

        ``attributes`` maps attribute name to keyword arguments of
        :class:`AttributeStatistics` (``rows`` defaults to the seeded
        cardinality).  Seeded numbers beat observed ones until
        :meth:`unseed`.
        """
        with self._lock:
            if cardinality is not None:
                self._seeded_cardinality[class_name] = int(cardinality)
            for name, spec in (attributes or {}).items():
                spec = dict(spec)
                spec.setdefault("rows", self._seeded_cardinality.get(
                    class_name, self._cardinality.get(class_name, 0)))
                spec.setdefault("distinct", spec["rows"])
                spec.setdefault("min_key", None)
                spec.setdefault("max_key", None)
                spec["source"] = "seed"
                self._seeded_attributes[(class_name, name)] = (
                    AttributeStatistics(**spec))

    def unseed(self, class_name: Optional[str] = None) -> None:
        with self._lock:
            if class_name is None:
                self._seeded_cardinality.clear()
                self._seeded_attributes.clear()
                return
            self._seeded_cardinality.pop(class_name, None)
            for key in [k for k in self._seeded_attributes
                        if k[0] == class_name]:
                del self._seeded_attributes[key]

    def invalidate(self) -> None:
        """Drop observed numbers (store recovered/resynced); keep seeds."""
        with self._lock:
            self._cardinality.clear()
            self._attributes.clear()

    # -- selectivity estimators ------------------------------------------------

    def estimate_equal(self, class_name: str, attribute: str,
                       value: Any) -> float:
        """Estimated rows matching ``attribute == value``."""
        total = self.cardinality(class_name)
        stats = self.attribute(class_name, attribute)
        if stats is not None and stats.distinct > 0 and stats.rows > 0:
            return min(float(total), stats.rows / stats.distinct)
        return max(1.0, total * self.DEFAULT_EQ_SELECTIVITY) if total else 0.0

    def estimate_range(self, class_name: str, attribute: str,
                       low: Any = None, high: Any = None) -> float:
        """Estimated rows in a (half-)bounded range over *attribute*.

        Interpolates within the observed [min, max] when the bounds and
        the probe are on the same numeric rank (ints/floats and dates);
        otherwise falls back to a fixed selectivity.
        """
        total = self.cardinality(class_name)
        if not total:
            return 0.0
        stats = self.attribute(class_name, attribute)
        fraction = self._range_fraction(stats, low, high)
        if fraction is None:
            fraction = self.DEFAULT_RANGE_SELECTIVITY
            if low is None or high is None:
                fraction = min(1.0, fraction * 1.5)  # half-open: wider
        rows = stats.rows if stats is not None and stats.rows else total
        return max(1.0, min(float(total), rows * fraction))

    @staticmethod
    def _range_fraction(stats: Optional[AttributeStatistics],
                        low: Any, high: Any) -> Optional[float]:
        if stats is None or stats.min_key is None or stats.max_key is None:
            return None
        # Import here: the catalog must stay importable without ode.
        from repro.ode.index import _sort_key

        lo_key = stats.min_key if low is None else _sort_key(low)
        hi_key = stats.max_key if high is None else _sort_key(high)
        ranks = {stats.min_key[0], stats.max_key[0], lo_key[0], hi_key[0]}
        if len(ranks) != 1:
            return None
        span = stats.max_key[1] - stats.min_key[1]
        if not isinstance(span, (int, float)):
            return None
        if span <= 0:
            # Degenerate domain: everything matches or nothing does.
            covers = lo_key <= stats.min_key <= hi_key
            return 1.0 if covers else 0.0
        lo = max(lo_key[1], stats.min_key[1])
        hi = min(hi_key[1], stats.max_key[1])
        if lo > hi:
            return 0.0
        return max(0.0, min(1.0, (hi - lo) / span))

    # -- display ---------------------------------------------------------------

    def describe_rows(self) -> List[Tuple[str, str]]:
        """(label, value) rows for the statistics window."""
        rows: List[Tuple[str, str]] = []
        with self._lock:
            rows.append(("planner commits observed",
                         str(self.commits_observed)))
            for key in sorted(set(self._attributes)
                              | set(self._seeded_attributes)):
                stats = self._seeded_attributes.get(key,
                                                    self._attributes.get(key))
                rows.append((
                    f"stats {key[0]}.{key[1]}",
                    f"{stats.rows} rows, {stats.distinct} distinct "
                    f"({stats.source})"))
            if self.last_explain:
                for i, line in enumerate(self.last_explain.splitlines()):
                    rows.append(("last explain" if i == 0 else "",
                                 line.strip()))
        return rows


def gather_statistics(db_session) -> List[Tuple[str, str]]:
    """(label, value) rows for one open database.

    A remote database reports the server's numbers (one STATS round
    trip) plus the client side of the wire: cache behaviour and the
    ``net.client.*`` metrics registry rows.
    """
    database = db_session.database
    objects = database.objects
    rows: List[Tuple[str, str]] = []
    rows.append(("schema version", str(database.schema.version)))
    rows.append(("classes", str(len(database.schema.class_names()))))
    if getattr(database, "remote", False):
        rows.extend(_remote_statistics(database))
    else:
        for class_name in database.schema.class_names():
            rows.append((f"cluster {class_name}",
                         f"{objects.count(class_name)} objects"))
        indexes = objects.indexes.indexes()
        if indexes:
            for index in indexes:
                rows.append((f"index {index.class_name}.{index.attribute}",
                             f"{len(index)} entries"))
        else:
            rows.append(("indexes", "(none)"))
        catalog = getattr(objects, "statistics", None)
        if catalog is not None:
            rows.extend(catalog.describe_rows())
        rows.append(("fragmentation",
                     f"{database.store.fragmentation():.0%} of page space dead"))
        pool = database.store.pool
        stats = pool.stats
        rows.append(("pool hits / misses",
                     f"{stats.hits} / {stats.misses} "
                     f"({stats.hit_rate:.0%} hit rate)"))
        rows.append(("pool evictions", str(stats.evictions)))
        rows.append(("pool prefetches", str(stats.prefetches)))
        fetch = pool.fetch_time
        if fetch.count:
            rows.append(("page fetch latency",
                         f"{fetch.count} fetches, mean "
                         f"{fetch.mean * 1e6:.0f}µs, p95 "
                         f"{fetch.percentile(95) * 1e6:.0f}µs"))
        else:
            rows.append(("page fetch latency", "(no fetches yet)"))
        from repro.obs.metrics import get_registry

        registry = get_registry()
        rows.append(("commit epoch", str(database.store.epoch)))
        rows.extend(_group_commit_rows(
            database.store.group_commit_stats(), registry))
        rows.append(("mvcc versions live",
                     str(registry.gauge("mvcc.versions_live").value)))
        rows.append(("mvcc snapshots open",
                     str(registry.gauge("mvcc.snapshots_open").value)))
        rows.append(("mvcc reads / fallbacks",
                     f"{registry.counter('mvcc.snapshot_reads').value} / "
                     f"{registry.counter('mvcc.read_fallbacks').value}"))
        rows.append(("mvcc versions pruned / full sweeps",
                     f"{registry.counter('mvcc.pruned').value} / "
                     f"{registry.counter('mvcc.full_sweeps').value}"))
        age = registry.histogram("mvcc.snapshot_age")
        if age.count:
            rows.append(("snapshot age (epochs)",
                         f"mean {age.mean:.1f}, p95 {age.percentile(95):.0f}"))
    loader = db_session.registry.loader.stats
    rows.append(("display modules loaded", str(loader.loads)))
    rows.append(("display cache hits", str(loader.cache_hits)))
    return rows


def _group_commit_rows(stats, registry=None) -> List[Tuple[str, str]]:
    """Rows for one store's commit barrier (local or server-reported).

    ``registry`` adds the process-wide ``wal.group.*`` family for the
    local case — the per-store numbers and the registry mirrors diverge
    when several stores share the process.
    """
    rows: List[Tuple[str, str]] = []
    if not stats:
        return rows
    batches = stats.get("batches", 0)
    if batches:
        rows.append(("wal.group batches / commits",
                     f"{batches} / {stats.get('commits', 0)} "
                     f"(mean batch {stats.get('batch_size_mean', 0.0):.1f}, "
                     f"max {stats.get('batch_size_max', 0)})"))
        rows.append(("wal.group syncs", str(stats.get("syncs", 0))))
    if stats.get("wait_count"):
        rows.append(("commit wait latency",
                     f"mean {stats.get('wait_mean_ms', 0.0):.2f}ms, "
                     f"p95 {stats.get('wait_p95_ms', 0.0):.2f}ms"))
    if registry is not None:
        family = registry.snapshot_prefix("wal.group.")
        for name in ("wal.group.batches", "wal.group.commits",
                     "wal.group.syncs"):
            if name in family:
                rows.append((f"{name} (process)", str(family[name])))
    return rows


def _remote_statistics(database) -> List[Tuple[str, str]]:
    """Server-reported and wire-level rows for a remote database."""
    from repro.obs.metrics import get_registry

    rows: List[Tuple[str, str]] = []
    stats = database.server_stats()
    for class_name, count in sorted(stats.get("clusters", {}).items()):
        rows.append((f"cluster {class_name}", f"{count} objects"))
    indexes = stats.get("indexes", [])
    if indexes:
        for index in indexes:
            rows.append((f"index {index['class']}.{index['attribute']}",
                         f"{index['entries']} entries (server)"))
    else:
        rows.append(("indexes", "(none)"))
    for label, value in stats.get("statistics", []):
        rows.append((f"server {label}" if label else "", str(value)))
    rows.append(("fragmentation",
                 f"{stats.get('fragmentation', 0.0):.0%} of page space dead "
                 f"(server)"))
    pool = stats.get("pool", {})
    rows.append(("server pool hits / misses",
                 f"{pool.get('hits', 0)} / {pool.get('misses', 0)}"))
    rows.append(("server commit epoch", str(stats.get("epoch", "?"))))
    rows.extend(
        (f"server {label}", value)
        for label, value in _group_commit_rows(stats.get("group_commit", {})))
    mvcc = stats.get("mvcc", {})
    if mvcc:
        rows.append(("server mvcc versions live",
                     str(mvcc.get("versions_live", 0))))
        rows.append(("server mvcc reads / fallbacks",
                     f"{mvcc.get('snapshot_reads', 0)} / "
                     f"{mvcc.get('read_fallbacks', 0)}"))
    if "read_lockfree" in stats:
        rows.append(("lock-free reads served", str(stats["read_lockfree"])))
    cdc = stats.get("cdc", {})
    if cdc:
        rows.append(("server cdc subscribers", str(cdc.get("subscribers", 0))))
        rows.append(("server cdc events / coalesced",
                     f"{cdc.get('events', 0)} / {cdc.get('coalesced', 0)}"))
    cache = database.objects.cache
    rows.append(("object cache",
                 f"{len(cache)} buffers, {cache.hits} hits / "
                 f"{cache.misses} misses"))
    rows.append(("cache invalidations", str(cache.invalidations)))
    rows.append(("cache epoch floor / latest",
                 f"{cache.floor} / {cache.latest}"))
    if cache.cdc_epoch is not None:
        rows.append(("cdc precise invalidation",
                     f"{cache.delta_applied} deltas, "
                     f"{cache.delta_evictions} evictions, "
                     f"{cache.resyncs} resyncs "
                     f"(basis epoch {cache.cdc_epoch})"))
    snapshot = get_registry().snapshot()
    for name in ("net.client.bytes_out", "net.client.bytes_in",
                 "net.client.retries", "net.client.reconnects",
                 "net.client.push_events", "net.client.subscribes"):
        if name in snapshot:
            rows.append((name, str(snapshot[name])))
    timings = snapshot.get("net.client.request_seconds")
    if isinstance(timings, dict) and timings.get("count"):
        rows.append(("request latency",
                     f"{timings['count']:.0f} requests, mean "
                     f"{timings['mean'] * 1e3:.1f}ms, p95 "
                     f"{timings['p95'] * 1e3:.1f}ms"))
    return rows


class StatisticsWindow:
    """A refreshable window of the statistics above."""

    def __init__(self, db_session):
        self.session = db_session
        self.window_name = f"{db_session.name}.stats"
        self._build()

    def _format(self) -> str:
        rows = gather_statistics(self.session)
        width = max(len(label) for label, _value in rows)
        return "\n".join(f"{label.ljust(width)} : {value}"
                         for label, value in rows)

    def _build(self) -> None:
        screen = self.session.app.ctx.screen
        if screen.has(self.window_name):
            screen.destroy(self.window_name)
        children = (
            text_window(f"{self.window_name}.body", self._format(),
                        scrollable=True, placement=at(0, 0)),
            # a refresh button, wired below
        )
        screen.create(panel(
            self.window_name, children,
            title=f"{self.session.name}: statistics"))
        from repro.windowing.wintypes import button

        screen.create(
            button(f"{self.window_name}.refresh", "refresh", "refresh"),
        )
        screen.on_click(f"{self.window_name}.refresh",
                        lambda _event: self.refresh())

    def refresh(self) -> None:
        screen = self.session.app.ctx.screen
        screen.set_content(f"{self.window_name}.body", self._format())

    def destroy(self) -> None:
        screen = self.session.app.ctx.screen
        for name in (self.window_name, f"{self.window_name}.refresh"):
            if screen.has(name):
                screen.destroy(name)
