"""Synchronized browsing (paper §3.4, §4.4).

"Once the user has displayed a network of objects and the user applies a
sequencing operation to any object in this network, the sequencing
operation is automatically propagated over the network."

The propagation machinery itself lives in the navigation tree
(:meth:`Node._set_current` recursively pulls every child from its parent);
this module adds the measurable wrapper: apply a sequencing operation at a
node and report exactly which part of the subtree was refreshed — including
nodes whose windows are closed, which the paper calls out explicitly
("the refreshing is done irrespective of whether window is open or
closed").
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import OdeViewError
from repro.core.navigation import Node, SetNode, holding_buffers
from repro.obs import get_registry
from repro.ode.oid import Oid
from repro.windowing.events import DataChanged, EventLoop

SEQUENCING_OPS = ("next", "previous", "reset")


@dataclass(frozen=True)
class SyncReport:
    """What one sequencing operation touched."""

    op: str
    at: str                           # path of the node the user clicked
    result: Optional[Oid]             # new current object of that node
    refreshed_paths: tuple            # every node refreshed, tree order
    refresh_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def nodes_refreshed(self) -> int:
        return len(self.refreshed_paths)


def subtree_refresh_counts(node: Node) -> Dict[str, int]:
    return {descendant.path: descendant.refreshes for descendant in node.walk()}


def sequence(node: Node, op: str) -> SyncReport:
    """Apply a control-panel operation at *node* and propagate (paper §4.4).

    The subtree rooted at *node* is refreshed recursively; ancestors are
    untouched (the paper propagates along embedded references, i.e. down
    the window tree).
    """
    if op not in SEQUENCING_OPS:
        raise OdeViewError(f"unknown sequencing operation {op!r}")
    if not isinstance(node, SetNode):
        raise OdeViewError(
            f"node {node.path!r} has no control panel (not an object set)"
        )
    registry = get_registry()
    registry.counter("sync.operations").inc()
    before = subtree_refresh_counts(node)
    # Pin one snapshot for the whole propagation: every buffer fetched
    # and every cluster walked while the subtree refreshes comes from a
    # single commit epoch, so the refreshed network renders one
    # consistent database state even under concurrent writers.  Remote
    # managers pin per-operation on the server instead (their pinned()
    # is a no-op).  Under the pin each node's buffer is read once.
    pin = getattr(node.manager, "pinned", None)
    context = pin() if callable(pin) else nullcontext()
    with registry.histogram("sync.propagate_seconds").time(), context, \
            holding_buffers(node):
        if op == "next":
            result = node.next()
        elif op == "previous":
            result = node.previous()
        else:
            node.reset()
            result = None
    after = subtree_refresh_counts(node)
    refreshed = tuple(
        path for path in after if after[path] > before.get(path, 0)
    )
    return SyncReport(
        op=op,
        at=node.path,
        result=result,
        refreshed_paths=refreshed,
        refresh_counts=after,
    )


def network_paths(root: Node) -> List[str]:
    """Every node path in the displayed network, tree order."""
    return [descendant.path for descendant in root.walk()]


class ReactiveBrowse:
    """A displayed network that refreshes on server push instead of polling.

    Bridges a CDC subscription (:meth:`RemoteDatabase.watch`) to a
    navigation subtree across the thread boundary: change events arrive
    on the client's network thread, which may not touch the tree — it
    only queues the event here and posts a
    :class:`~repro.windowing.events.DataChanged` to the event loop.  The
    UI thread's handler then calls :meth:`apply_pending`, which refreshes
    exactly the nodes whose clusters the accumulated deltas named (every
    node, after a resync or reconnect).  The buffer cache has already
    been precisely invalidated by the time the event lands, so the
    refresh re-fetches only objects that actually changed.
    """

    def __init__(self, root: Node, database,
                 event_loop: Optional[EventLoop] = None,
                 window: str = "", clusters: Optional[List[str]] = None):
        watch = getattr(database, "watch", None)
        if not callable(watch):
            raise OdeViewError(
                "reactive browsing needs a remote database (CDC push); "
                "a local database commits in-process and refreshes inline")
        self.root = root
        self.window = window or root.path
        self._loop = event_loop
        self._lock = threading.Lock()
        self._queued: List = []          # network thread -> UI thread
        registry = get_registry()
        self._m_events = registry.counter("sync.reactive.events")
        self._m_applied = registry.counter("sync.reactive.applied")
        self._m_refreshed = registry.counter("sync.reactive.nodes_refreshed")
        self._m_lost = registry.counter("sync.reactive.lost")
        self.subscription = watch(clusters=clusters,
                                  on_refresh=self._on_event)

    # -- network thread ----------------------------------------------------------

    def _on_event(self, event) -> None:
        """Queue the event and wake the UI; never touches the tree."""
        self._m_events.inc()
        if event.lost:
            self._m_lost.inc()
        with self._lock:
            self._queued.append(event)
        if self._loop is not None:
            self._loop.post(DataChanged(
                window=self.window, epoch=event.epoch,
                clusters=tuple(event.changes),
                resync=bool(event.resync or event.lost)))

    # -- UI thread ---------------------------------------------------------------

    def pending(self) -> int:
        with self._lock:
            return len(self._queued)

    def apply_pending(self) -> Tuple[str, ...]:
        """Refresh the subtree for every queued event; returns the paths
        refreshed.  Safe to call with nothing queued (no-op)."""
        with self._lock:
            events, self._queued = self._queued, []
        if not events:
            return ()
        wholesale = any(e.resync or e.lost for e in events)
        touched = set()
        for event in events:
            touched.update(event.changes)
        before = subtree_refresh_counts(self.root)
        self._refresh(self.root, touched, wholesale)
        after = subtree_refresh_counts(self.root)
        refreshed = tuple(
            path for path in after if after[path] > before.get(path, 0))
        self._m_applied.inc()
        self._m_refreshed.inc(len(refreshed))
        return refreshed

    def _refresh(self, node: Node, touched: set, wholesale: bool) -> None:
        """Refresh *node* if its cluster was touched, else recurse.

        Refreshing a node re-pulls its whole subtree (``_set_current``
        propagates), so recursion stops at the shallowest touched node.
        """
        if wholesale or node.class_name in touched:
            if isinstance(node, SetNode):
                node.reload_keeping_current()
            elif node.parent is not None:
                node.pull_from_parent()
            else:
                node._set_current(node.current)
            return
        for child in node.children.values():
            self._refresh(child, touched, wholesale)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.subscription.alive

    def close(self) -> None:
        self.subscription.close()

    def __enter__(self) -> "ReactiveBrowse":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
