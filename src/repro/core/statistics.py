"""The statistics window: one glance at an open database.

Not a paper figure, but the kind of companion window a production
release of OdeView would ship: the database's clusters, index coverage,
planner estimates, buffer-pool behaviour, commit barrier and MVCC
counters, then the dynamic linker's cache.

The database rows render one dict with the keys of an ``OP_STATS``
reply.  A local :class:`~repro.ode.database.Database` builds it;
a remote one gets it from its server, which adds its own keys (role,
term, replication, lock-free reads, CDC).  A remote window then adds
the server's read and CDC counters and the client side of the wire:
its object cache and the ``net.client.*`` metrics.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.windowing.wintypes import at, button, panel, text_window

Rows = List[Tuple[str, str]]


def gather_statistics(db_session) -> Rows:
    """(label, value) rows for one open database."""
    database = db_session.database
    stats = database.server_stats()
    rows = _database_rows(stats)
    if getattr(database, "remote", False):
        rows.extend(_server_rows(stats))
        rows.extend(_client_rows(database.objects.cache))
    loader = db_session.registry.loader.stats
    rows.append(("display modules loaded", str(loader.loads)))
    rows.append(("display cache hits", str(loader.cache_hits)))
    return rows


def _database_rows(stats: Dict[str, Any]) -> Rows:
    """The rows of the keys a database owns, alike local and remote."""
    clusters = stats["clusters"]
    rows: Rows = [("schema version", str(stats["schema_version"])),
                  ("classes", str(len(clusters)))]
    rows.extend((f"cluster {name}", f"{count} objects")
                for name, count in clusters.items())
    rows.extend((f"index {index['class']}.{index['attribute']}",
                 f"{index['entries']} entries")
                for index in stats["indexes"])
    if not stats["indexes"]:
        rows.append(("indexes", "(none)"))
    rows.extend((label, str(value)) for label, value in stats["statistics"])
    rows.append(("fragmentation",
                 f"{stats['fragmentation']:.0%} of page space dead"))
    pool = stats["pool"]
    total = pool["hits"] + pool["misses"]
    rows.append(("pool hits / misses",
                 f"{pool['hits']} / {pool['misses']} "
                 f"({pool['hits'] / total if total else 0.0:.0%} hit rate)"))
    rows.append(("pool evictions", str(pool["evictions"])))
    rows.append(("pool prefetches", str(pool["prefetches"])))
    rows.append(("pool write-backs", f"{pool['writebacks']} pages in "
                 f"{pool['writeback_batches']} batches"))
    rows.append(("commit epoch", str(stats["epoch"])))
    rows.extend(_group_commit_rows(stats["group_commit"]))
    mvcc = stats["mvcc"]
    rows.append(("mvcc versions live", str(mvcc["versions_live"])))
    rows.append(("mvcc snapshots open", str(mvcc["snapshots_open"])))
    rows.append(("mvcc reads / fallbacks",
                 f"{mvcc['snapshot_reads']} / {mvcc['read_fallbacks']}"))
    rows.append(("mvcc versions pruned / full sweeps",
                 f"{mvcc['pruned']} / {mvcc['full_sweeps']}"))
    rows.append(("snapshot age p95 (epochs)",
                 f"{mvcc['snapshot_age_p95']:.0f}"))
    return rows


def _group_commit_rows(stats: Dict[str, Any]) -> Rows:
    """Rows for one store's commit barrier."""
    rows: Rows = []
    if stats.get("batches"):
        rows.append(("wal.group batches / commits",
                     f"{stats['batches']} / {stats['commits']} "
                     f"(mean batch {stats['batch_size_mean']:.1f}, "
                     f"max {stats['batch_size_max']})"))
        rows.append(("wal.group syncs", str(stats["syncs"])))
    if stats.get("wait_count"):
        rows.append(("commit wait latency",
                     f"mean {stats['wait_mean_ms']:.2f}ms, "
                     f"p95 {stats['wait_p95_ms']:.2f}ms"))
    return rows


def _server_rows(stats: Dict[str, Any]) -> Rows:
    """The rows of the keys only a server adds."""
    cdc = stats["cdc"]
    return [
        ("lock-free reads served", str(stats["read_lockfree"])),
        ("server cdc subscribers", str(cdc["subscribers"])),
        ("server cdc events / coalesced",
         f"{cdc['events']} / {cdc['coalesced']}"),
    ]


def _client_rows(cache) -> Rows:
    """The client side of the wire: the object cache and ``net.client.*``."""
    from repro.obs.metrics import get_registry

    rows: Rows = [
        ("object cache", f"{len(cache)} buffers, {cache.hits} hits / "
                         f"{cache.misses} misses"),
        ("cache invalidations", str(cache.invalidations)),
        ("cache epoch floor / latest", f"{cache.floor} / {cache.latest}"),
    ]
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
