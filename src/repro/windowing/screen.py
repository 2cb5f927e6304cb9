"""The screen: window creation, geometry solving, event routing, rendering.

The screen is OdeView's side of the display protocol.  It takes the pure
:class:`WindowSpec` data a display function produced, instantiates live
windows, solves the parameterised relative placements into absolute
character-cell geometry, routes click events, and asks the active backend
to render.  Display functions never see any of this — the "principle of
separation" (paper §4.2).

Geometry model: every window has a content area of ``width x height``
character cells.  Sizes default to the content's natural size.  Top-level
(ROOT) windows flow left-to-right, wrapping at the screen width, in
creation order; the user (or session driver) may drag any top-level window
to an explicit position afterwards, reproducing the paper's observation
that the user, not OdeView, picks window placement (§4.6).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set

from repro.errors import LayoutError, WindowError
from repro.windowing.events import Click, Drag, Event, EventLoop, MenuSelect
from repro.windowing.raster import RasterImage
from repro.windowing.window import Window, WindowTree
from repro.windowing.wintypes import Relation, WindowKind, WindowSpec

#: Horizontal/vertical gap between flowed top-level windows.
_GAP = 1
#: Border cells a backend draws around a window (one on each side).
_BORDER = 2


class Screen:
    """One display surface backed by a rendering backend."""

    def __init__(self, backend, width: int = 120):
        if width < 20:
            raise WindowError(f"screen width {width} too small")
        self.backend = backend
        self.width = width
        self.tree = WindowTree()
        self.events = EventLoop()
        self._dragged: Dict[str, tuple] = {}
        # State of the layout pass in progress (None outside one): natural
        # sizes by window id, and the sibling groups already solved, keyed
        # by parent id (0 for the top-level group).
        self._sizes: Optional[Dict[int, tuple]] = None
        self._solved: Optional[Set[int]] = None
        self.events.on_any(self._handle_builtin)

    # -- window lifecycle ------------------------------------------------------

    def create(self, spec: WindowSpec, parent: Optional[str] = None) -> Window:
        parent_window = self.tree.get(parent) if parent else None
        return self.tree.add(spec, parent_window)

    def destroy(self, name: str) -> None:
        window = self.tree.get(name)
        for descendant in window.walk():
            self.events.remove_window_handlers(descendant.name)
            self._dragged.pop(descendant.name, None)
        self.tree.remove(name)

    def open(self, name: str) -> None:
        self.tree.open(name)

    def close(self, name: str) -> None:
        self.tree.close(name)

    def get(self, name: str) -> Window:
        return self.tree.get(name)

    def has(self, name: str) -> bool:
        return self.tree.has(name)

    def set_content(self, name: str, content: Any) -> None:
        self.tree.get(name).set_content(content)

    # -- events -----------------------------------------------------------------

    def on_click(self, name: str, handler: Callable[[Event], None]) -> None:
        self.events.on(name, handler)

    def click(self, name: str) -> None:
        """Post and dispatch a click (what the session driver calls)."""
        self.tree.get(name)  # validate the target exists
        self.events.post(Click(window=name))
        self.events.run()

    def select_menu_item(self, name: str, item: str) -> None:
        window = self.tree.get(name)
        if window.kind is not WindowKind.MENU:
            raise WindowError(f"window {name!r} is not a menu")
        items = window.content or ()
        if item not in items:
            raise WindowError(f"menu {name!r} has no item {item!r}")
        self.events.post(MenuSelect(window=name, item=item))
        self.events.run()

    def raise_window(self, name: str) -> None:
        """Bring a top-level window to the front (drawn last, i.e. on top)."""
        self.tree.raise_to_front(name)

    def scroll(self, name: str, delta: int) -> int:
        """Scroll a scrollable window by *delta* lines; returns the offset."""
        window = self.tree.get(name)
        window.scroll_to(window.scroll_offset + delta)
        return window.scroll_offset

    def type_text(self, name: str, text: str) -> None:
        """Type into a window (the condition box of paper §5.2)."""
        self.tree.get(name)
        from repro.windowing.events import KeyInput

        self.events.post(KeyInput(window=name, text=text))
        self.events.run()

    def drag(self, name: str, to_x: int, to_y: int) -> None:
        window = self.tree.get(name)
        if window.parent is not None:
            raise WindowError("only top-level windows can be dragged")
        self.events.post(Drag(window=name, to_x=to_x, to_y=to_y))
        self.events.run()

    def _handle_builtin(self, event: Event) -> None:
        if isinstance(event, Drag):
            self._dragged[event.window] = (event.to_x, event.to_y)

    # -- geometry -------------------------------------------------------------------

    def natural_size(self, window: Window) -> tuple:
        """Content size in cells when the spec leaves width/height at 0."""
        spec = window.spec
        width, height = spec.width, spec.height
        if width and height:
            return width, height
        kind = window.kind
        if kind in (WindowKind.STATIC_TEXT, WindowKind.SCROLL_TEXT):
            lines = window.text_lines()
            natural_w = max((len(line) for line in lines), default=1)
            natural_h = max(len(lines), 1)
        elif kind in (WindowKind.BUTTON, WindowKind.OID):
            label = str(window.content or window.name)
            natural_w, natural_h = len(label) + 2, 1
        elif kind is WindowKind.MENU:
            items = window.content or ()
            natural_w = max((len(str(item)) for item in items), default=1) + 2
            natural_h = max(len(items), 1)
        elif kind is WindowKind.RASTER_IMAGE:
            image = window.content
            if isinstance(image, RasterImage):
                natural_w, natural_h = image.width, image.height
            else:
                natural_w, natural_h = 1, 1
        elif kind is WindowKind.PANEL:
            natural_w, natural_h = self._panel_extent(window)
        else:  # pragma: no cover - enum is closed
            natural_w, natural_h = 1, 1
        if not width and spec.title:
            # leave room for "+- title -" in the top border
            natural_w = max(natural_w, len(spec.title) + 3)
        return (width or natural_w, height or natural_h)

    def _size(self, window: Window) -> tuple:
        """:meth:`natural_size`, computed once per window per layout pass."""
        sizes = self._sizes
        if sizes is None:
            return self.natural_size(window)
        size = sizes.get(window.id)
        if size is None:
            size = sizes[window.id] = self.natural_size(window)
        return size

    def _panel_extent(self, panel: Window) -> tuple:
        """Bounding box of the panel's laid-out (open) children."""
        self._layout_children(panel)
        right = bottom = 0
        for child in panel.children:
            if not child.is_open:
                continue
            geo = child.geometry
            right = max(right, geo.x + geo.width + _BORDER)
            bottom = max(bottom, geo.y + geo.height + _BORDER)
        return max(right, 1), max(bottom, 1)

    def _layout_children(self, parent: Optional[Window]) -> None:
        """Solve placements of one sibling group into *relative* coordinates.

        Children coordinates are relative to the parent's content origin;
        top-level windows are relative to the screen.  Within a layout
        pass each group is solved once: a panel's group is solved when its
        extent is measured, or here when a fixed width and height meant it
        never was.
        """
        solved = self._solved
        if solved is not None:
            key = parent.id if parent else 0
            if key in solved:
                return
            solved.add(key)
        siblings = parent.children if parent else self.tree.roots()
        placed: Dict[str, Window] = {}
        flow_x, flow_y, row_height = 0, 0, 0
        for window in siblings:
            if not window.is_open:
                placed[window.name] = window
                continue
            width, height = self._size(window)
            outer_w, outer_h = width + _BORDER, height + _BORDER
            placement = window.spec.placement
            if window.name in self._dragged:
                window.geometry.x, window.geometry.y = self._dragged[window.name]
            elif placement.relation is Relation.AT:
                window.geometry.x = placement.dx
                window.geometry.y = placement.dy
            elif placement.relation in (Relation.BELOW, Relation.RIGHT_OF):
                anchor = placed.get(placement.anchor)
                if anchor is None or not anchor.is_open:
                    raise LayoutError(
                        f"window {window.name!r} anchored to missing or closed "
                        f"sibling {placement.anchor!r}"
                    )
                anchor_w, anchor_h = self._size(anchor)
                if placement.relation is Relation.BELOW:
                    window.geometry.x = anchor.geometry.x + placement.dx
                    window.geometry.y = (anchor.geometry.y + anchor_h + _BORDER
                                         + placement.dy)
                else:
                    window.geometry.x = (anchor.geometry.x + anchor_w + _BORDER
                                         + _GAP + placement.dx)
                    window.geometry.y = anchor.geometry.y + placement.dy
            else:  # ROOT flow
                if flow_x and flow_x + outer_w > self.width:
                    flow_x = 0
                    flow_y += row_height + _GAP
                    row_height = 0
                window.geometry.x = flow_x
                window.geometry.y = flow_y
                flow_x += outer_w + _GAP
                row_height = max(row_height, outer_h)
            window.geometry.width = width
            window.geometry.height = height
            placed[window.name] = window
            self._layout_children(window)

    def layout(self) -> None:
        """Solve geometry for the whole tree (relative coordinates)."""
        self._sizes, self._solved = {}, set()
        try:
            self._layout_children(None)
        finally:
            self._sizes = self._solved = None

    # -- rendering ------------------------------------------------------------------

    def render(self) -> str:
        """Lay out and render the tree with the active backend."""
        self.layout()
        return self.backend.render(self.tree)
