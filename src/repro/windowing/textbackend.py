"""The headless text backend.

Renders a window tree to deterministic ASCII — the reproduction's
equivalent of the paper's X11/HP-Xwidgets screenshots.  Every figure in
EXPERIMENTS.md is produced by this backend.

Each window is drawn as a box::

    +- title ------+
    | content      |
    +--------------+

Scrollable windows mark their right border with ``^``/``v``; buttons render
as ``[label]``; raster images render through the ASCII ramp, scaled to the
window's content area; closed top-level windows appear in an icon bar at
the bottom, since they still exist (and keep refreshing) while closed.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.windowing.raster import RasterImage
from repro.windowing.window import Window, WindowTree
from repro.windowing.wintypes import WindowKind


class TextBackend:
    """Deterministic ASCII renderer.

    Compositing works on row strings: each window line is spliced into
    its row with one slice per row.  Each window keeps its last drawing
    on :attr:`Window.drawn`, keyed on everything the drawing reads (title,
    kind, size, scroll offset, content, and each open child's position
    and drawing), so an unchanged subtree is not drawn again.
    """

    name = "text"

    def render(self, tree: WindowTree) -> str:
        boxes: List[Tuple[int, int, List[str]]] = []
        max_right = 0
        max_bottom = 0
        for root in tree.draw_order():
            if not root.is_open:
                continue
            lines = self._draw_window(root)
            x, y = root.geometry.x, root.geometry.y
            boxes.append((x, y, lines))
            max_right = max(max_right, x + max(len(line) for line in lines))
            max_bottom = max(max_bottom, y + len(lines))

        rows = [" " * max_right] * max_bottom
        for x, y, lines in boxes:
            _blit(rows, x, y, lines)
        rendered = [row.rstrip() for row in rows]

        closed = tree.closed_roots()
        if closed:
            rendered.append("")
            rendered.append(
                "icons: " + " ".join(f"({window.name})" for window in closed)
            )
        return "\n".join(rendered).rstrip("\n")

    # -- drawing ---------------------------------------------------------------

    def _draw_window(self, window: Window) -> List[str]:
        """The window's framed lines, reused while nothing drawn changed."""
        width = max(window.geometry.width, 1)
        height = max(window.geometry.height, 1)
        children = None
        if window.kind is WindowKind.PANEL:
            children = tuple(
                (child.geometry.x, child.geometry.y, self._draw_window(child))
                for child in window.children if child.is_open)
        key = (window.spec.title, window.kind, width, height,
               window.scroll_offset, children)
        content = window.content
        drawn = window.drawn
        if drawn is not None and drawn[0] == key and (
                drawn[1] is content
                or (type(content) is str and drawn[1] == content)):
            return drawn[2]
        lines = self._frame(window, width, height, children)
        window.drawn = (key, content, lines)
        return lines

    def _frame(self, window: Window, width: int, height: int,
               children) -> List[str]:
        interior = self._interior(window, width, height, children)
        title = window.spec.title
        top = "+-"
        if title:
            top += f" {title} "
        top += "-" * max(0, width - len(top) + 1)
        top = top[: width + 1] + "+"
        scroll = window.kind is WindowKind.SCROLL_TEXT
        lines = [top]
        for row in range(height):
            body = interior[row] if row < len(interior) else ""
            body = body[:width].ljust(width)
            right = "|"
            if scroll and row == 0:
                right = "^"
            elif scroll and row == height - 1:
                right = "v"
            lines.append(f"|{body}{right}")
        lines.append("+" + "-" * width + "+")
        return lines

    def _interior(self, window: Window, width: int, height: int,
                  children) -> List[str]:
        kind = window.kind
        if kind is WindowKind.STATIC_TEXT:
            return window.text_lines()
        if kind is WindowKind.SCROLL_TEXT:
            lines = window.text_lines()
            start = min(window.scroll_offset, max(0, len(lines) - 1))
            return lines[start:start + height]
        if kind in (WindowKind.BUTTON, WindowKind.OID):
            label = str(window.content or window.name)
            return [f"[{label}]"[:width]]
        if kind is WindowKind.MENU:
            items = window.content or ()
            return [str(item) for item in items]
        if kind is WindowKind.RASTER_IMAGE:
            image = window.content
            if not isinstance(image, RasterImage):
                return ["<no image>"]
            if image.width != width or image.height != height:
                image = image.scale(width, height)
            return image.to_ascii().split("\n")
        if kind is WindowKind.PANEL:
            return self._draw_panel(children, width, height)
        return []

    def _draw_panel(self, children, width: int, height: int) -> List[str]:
        """Composite a panel's open children, given as ``(x, y, lines)``."""
        rows = [" " * width] * height
        for x, y, lines in children:
            _blit(rows, x, y, lines)
        return [row.rstrip() for row in rows]


def _blit(rows: List[str], x: int, y: int, lines: List[str]) -> None:
    """Splice *lines* into the row strings *rows* at ``(x, y)``, clipped
    to their edges (every row is as wide as the first).

    One splice per row; later calls overwrite earlier ones, so callers
    blit back to front.
    """
    room = (len(rows[0]) if rows else 0) - x
    skip = -x if x < 0 else 0
    start = x + skip
    for row in range(-y if y < 0 else 0, min(len(lines), len(rows) - y)):
        line = lines[row]
        end = len(line)
        if end > room:
            end = room
        if end > skip:
            target = rows[y + row]
            rows[y + row] = target[:start] + line[skip:end] + target[x + end:]
