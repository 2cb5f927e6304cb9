"""Runtime windows and the window tree.

A :class:`~repro.windowing.wintypes.WindowSpec` is pure data produced by a
display function; a :class:`Window` is the live object the screen manages:
it has identity, open/closed state, mutable content, a parent and children,
and geometry once the screen has laid it out.

"This tree maintains the state of each window (open or closed)" (paper
§4.4) — closed windows stay in the tree and keep receiving content updates,
because synchronized browsing refreshes windows "irrespective of whether
window is open or closed, as the user may open a window after performing
the sequencing operation".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import WindowError
from repro.windowing.wintypes import WindowKind, WindowSpec


@dataclass
class Geometry:
    """Absolute position and content size in character cells."""

    x: int = 0
    y: int = 0
    width: int = 0
    height: int = 0

    @property
    def right(self) -> int:
        return self.x + self.width

    @property
    def bottom(self) -> int:
        return self.y + self.height


class Window:
    """One live window."""

    _ids = itertools.count(1)

    def __init__(self, spec: WindowSpec, parent: Optional["Window"] = None):
        self.id = next(Window._ids)
        self.spec = spec
        self.parent = parent
        self.children: List["Window"] = []
        self.is_open = True
        self.content: Any = spec.content
        self.scroll_offset = 0
        self.z = 0
        self.geometry = Geometry()
        #: The text backend's last drawing of this window: ``(key, content,
        #: lines)``.  It lives and dies with the window, so the memo is
        #: bounded by the live tree.
        self.drawn: Optional[tuple] = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def kind(self) -> WindowKind:
        return self.spec.kind

    def set_content(self, content: Any) -> None:
        """Refresh content — allowed while closed (paper §4.4)."""
        self.content = content

    def scroll_to(self, line: int) -> None:
        if self.kind is not WindowKind.SCROLL_TEXT:
            raise WindowError(f"window {self.name!r} is not scrollable")
        self.scroll_offset = max(0, line)

    def text_lines(self) -> List[str]:
        if not isinstance(self.content, str):
            return []
        return self.content.split("\n")

    def walk(self) -> Iterator["Window"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        state = "open" if self.is_open else "closed"
        return f"Window({self.name!r}, {self.kind.value}, {state})"


class WindowTree:
    """All live windows, addressable by unique name."""

    def __init__(self) -> None:
        self._roots: List[Window] = []
        self._by_name: Dict[str, Window] = {}
        self._z_counter = 0

    # -- structure ------------------------------------------------------------

    def add(self, spec: WindowSpec, parent: Optional[Window] = None) -> Window:
        """Create a window (and, for panels, its children) from a spec."""
        if spec.name in self._by_name:
            raise WindowError(f"window name {spec.name!r} already in use")
        window = Window(spec, parent)
        self._by_name[spec.name] = window
        if parent is None:
            self._roots.append(window)
        else:
            parent.children.append(window)
        for child_spec in spec.children:
            self.add(child_spec, parent=window)
        return window

    def remove(self, name: str) -> None:
        """Destroy a window and its whole subtree."""
        window = self.get(name)
        for descendant in list(window.walk()):
            self._by_name.pop(descendant.name, None)
        if window.parent is None:
            self._roots.remove(window)
        else:
            window.parent.children.remove(window)

    def raise_to_front(self, name: str) -> None:
        """Put a top-level window on top of the draw order.

        Only the z order changes; layout (flow) order stays the creation
        order, so raising never moves windows around.
        """
        window = self.get(name)
        if window.parent is not None:
            raise WindowError("only top-level windows can be raised")
        self._z_counter += 1
        window.z = self._z_counter

    def draw_order(self) -> List[Window]:
        """Open top-level windows, lowest z first (back to front)."""
        indexed = list(enumerate(self._roots))
        indexed.sort(key=lambda pair: (pair[1].z, pair[0]))
        return [window for _index, window in indexed]

    # -- lookup ------------------------------------------------------------------

    def get(self, name: str) -> Window:
        try:
            return self._by_name[name]
        except KeyError:
            raise WindowError(f"no window named {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._by_name

    def roots(self) -> List[Window]:
        return list(self._roots)

    def all_windows(self) -> Iterator[Window]:
        for root in self._roots:
            yield from root.walk()

    def names(self) -> List[str]:
        return [window.name for window in self.all_windows()]

    def __len__(self) -> int:
        return len(self._by_name)

    # -- state --------------------------------------------------------------------

    def open(self, name: str) -> None:
        self.get(name).is_open = True

    def close(self, name: str) -> None:
        self.get(name).is_open = False

    def open_windows(self) -> List[Window]:
        return [window for window in self.all_windows() if window.is_open]

    def closed_roots(self) -> List[Window]:
        return [root for root in self._roots if not root.is_open]
