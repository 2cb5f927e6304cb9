"""The navigation tree: displayed objects and their reference children.

"The basic browsing paradigm encouraged by OdeView is to start from an
object and then explore the related objects in the database by following
the embedded chains of references" (paper §3.4).  "When the user follows a
chain of embedded references, a tree of windows is dynamically created"
(§4.4).

This module is that tree, kept free of window specifics so the sync logic
is testable on its own:

* :class:`SetNode` — an *object set*: sequencing over a list of OIDs, which
  is a whole cluster (the root object-set window of §3.2), a selection's
  matches (§5.2), or the value of a set-valued reference attribute of the
  parent's current object (Figure 8).
* :class:`RefNode` — a single object reached through a single-valued
  reference of the parent (Figure 7).

Children are created **lazily**, only when the user asks for a referenced
object (§4.6: "the corresponding objects and the related display methods
are loaded only if the user selects the appropriate buttons"); fetch counts
are recorded so ABL-LAZY can compare against eager expansion.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import OdeViewError
from repro.ode.objectmanager import ObjectBuffer, ObjectManager
from repro.ode.oid import Oid
from repro.ode.types import RefType, SetType


def reference_kind(manager: ObjectManager, class_name: str,
                   attr_name: str) -> str:
    """'ref' | 'set' | 'none' for one attribute of a class."""
    attr = manager.schema.find_attribute(class_name, attr_name)
    if isinstance(attr.type_spec, RefType):
        return "ref"
    if isinstance(attr.type_spec, SetType) and isinstance(
            attr.type_spec.element, RefType):
        return "set"
    return "none"


def reference_attributes(manager: ObjectManager, class_name: str) -> List[str]:
    """Attribute names an object panel offers navigation buttons for."""
    names = []
    for attr in manager.schema.all_attributes(class_name):
        if not attr.is_public:
            continue
        kind = "none"
        if isinstance(attr.type_spec, RefType):
            kind = "ref"
        elif isinstance(attr.type_spec, SetType) and isinstance(
                attr.type_spec.element, RefType):
            kind = "set"
        if kind != "none":
            names.append(attr.name)
    return names


@contextmanager
def holding_buffers(node: "Node") -> Iterator[None]:
    """Read each node of *node*'s subtree at most once while inside.

    Sequencing propagates down the subtree (paper §4.4): a node's displays
    and each child's pull all read the node's current object.  Inside this
    context the first read is kept and the rest reuse it; on exit every
    kept buffer is dropped, so a read outside a click sees current data.
    On a local manager the caller holds a pinned snapshot around it, so a
    kept buffer is what a fresh read would return; on a remote manager
    (whose pin is a no-op) the click reuses its first read.
    """
    nodes = list(node.walk())
    for each in nodes:
        each._holding = True
    try:
        yield
    finally:
        for each in nodes:
            each._holding = False
            each._held = None


class Node:
    """Base navigation node: one displayed object context."""

    def __init__(self, manager: ObjectManager, class_name: str, path: str,
                 parent: Optional["Node"] = None):
        self.manager = manager
        self.class_name = class_name
        self.path = path                      # unique dotted name, window prefix
        self.parent = parent
        self.children: Dict[str, "Node"] = {}  # by reference attribute name
        self.current: Optional[Oid] = None
        self.fetches = 0                      # object-buffer fetch counter
        self.refreshes = 0                    # how often sync refreshed us
        self.on_refresh: List[Callable[["Node"], None]] = []
        # Inside :func:`holding_buffers` (one click's propagation) the
        # current object's buffer is read once and kept here for the
        # node's displays and its children's pulls.
        self._holding = False
        self._held: Optional[ObjectBuffer] = None

    # -- object access ----------------------------------------------------------

    def buffer(self) -> Optional[ObjectBuffer]:
        if self.current is None:
            return None
        if self._held is not None:
            return self._held
        self.fetches += 1
        buffer = self.manager.get_buffer(self.current)
        if self._holding:
            self._held = buffer
        return buffer

    # -- children (lazy) -----------------------------------------------------------

    def child(self, attr_name: str) -> "Node":
        """The child node for a reference attribute, created on first use."""
        if attr_name in self.children:
            return self.children[attr_name]
        kind = reference_kind(self.manager, self.class_name, attr_name)
        if kind == "none":
            raise OdeViewError(
                f"attribute {attr_name!r} of {self.class_name!r} "
                "is not a reference"
            )
        attr = self.manager.schema.find_attribute(self.class_name, attr_name)
        if kind == "ref":
            target_class = attr.type_spec.class_name
            node: Node = RefNode(
                self.manager, target_class, f"{self.path}.{attr_name}",
                parent=self, attr_name=attr_name,
            )
        else:
            target_class = attr.type_spec.element.class_name
            node = SetNode(
                self.manager, target_class, f"{self.path}.{attr_name}",
                parent=self, attr_name=attr_name,
            )
        self.children[attr_name] = node
        node.pull_from_parent()
        return node

    def has_child(self, attr_name: str) -> bool:
        return attr_name in self.children

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()

    # -- refresh plumbing ---------------------------------------------------------------

    def _set_current(self, oid: Optional[Oid]) -> None:
        self.current = oid
        self._held = None
        self.refreshes += 1
        for callback in self.on_refresh:
            callback(self)
        for child in self.children.values():
            child.pull_from_parent()

    def pull_from_parent(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.path!r}, current={self.current})"


class RefNode(Node):
    """A single object reached via a single-valued reference (Figure 7)."""

    def __init__(self, manager, class_name, path, parent: Node, attr_name: str):
        super().__init__(manager, class_name, path, parent)
        self.attr_name = attr_name

    def pull_from_parent(self) -> None:
        """Re-read the parent's reference attribute (sync propagation)."""
        assert self.parent is not None
        parent_buffer = self.parent.buffer()
        value = None
        if parent_buffer is not None:
            value = parent_buffer.value(self.attr_name)
        self._set_current(value)


class SetNode(Node):
    """Sequencing over a list of member OIDs.

    A root SetNode sequences a whole cluster, or the OIDs its *source*
    returns (a selection's matches, re-read on every reload); a child
    SetNode sequences the parent's set-valued reference attribute.  The
    control-panel semantics match :class:`~repro.ode.cluster.ClusterCursor`:
    reset puts the cursor before the first member; next/previous return
    None at the ends.
    """

    def __init__(self, manager, class_name, path,
                 parent: Optional[Node] = None,
                 attr_name: Optional[str] = None,
                 source: Optional[Callable[[], List[Oid]]] = None):
        super().__init__(manager, class_name, path, parent)
        self.attr_name = attr_name
        self._source = source
        self._members: List[Oid] = []
        self._index = -1  # -1 = before first
        if parent is None:
            self.reload_members()

    # -- membership ------------------------------------------------------------

    def reload_members(self) -> None:
        """Recompute the member list from the source, the cluster or the
        parent attribute."""
        if self._source is not None:
            members = self._source()
        elif self.parent is None:
            members = self.manager.cluster(self.class_name).oids()
        else:
            parent_buffer = self.parent.buffer()
            members = []
            if parent_buffer is not None and self.attr_name is not None:
                members = [
                    oid for oid in parent_buffer.value(self.attr_name)
                    if isinstance(oid, Oid)
                ]
        self._members = members

    def members(self) -> List[Oid]:
        return list(self._members)

    def reload_keeping_current(self) -> None:
        """Reload the members and stay on the current one, found with
        one search of the reloaded list; when it is gone, land on the
        first member, like a parent-driven pull."""
        current = self.current
        self.reload_members()
        try:
            self._index = self._members.index(current)
        except ValueError:
            self._index = 0 if self._members else -1
        self._set_current(self._members[self._index]
                          if self._index >= 0 else None)

    @property
    def position(self) -> int:
        """Index of the current member; -1 before the first."""
        return self._index

    def member_count(self) -> int:
        return len(self._members)

    def pull_from_parent(self) -> None:
        """Parent moved: refresh membership and restart at the first member.

        This is the Figure 10 behaviour — sequencing the employee refreshes
        the department's employee-set display to the new department's
        members.
        """
        self.reload_members()
        self._index = 0 if self._members else -1
        self._set_current(self._members[0] if self._members else None)

    # -- sequencing (the control panel, §3.2) --------------------------------------------

    def reset(self) -> None:
        self._index = -1
        self._set_current(None)

    def next(self) -> Optional[Oid]:
        if self._index + 1 < len(self._members):
            self._index += 1
            self._set_current(self._members[self._index])
            return self.current
        return None

    def previous(self) -> Optional[Oid]:
        if self._index > 0:
            self._index -= 1
            self._set_current(self._members[self._index])
            return self.current
        return None

    def seek(self, oid: Oid) -> None:
        if oid not in self._members:
            raise OdeViewError(f"{oid} is not a member of {self.path}")
        self._index = self._members.index(oid)
        self._set_current(oid)
