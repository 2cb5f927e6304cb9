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
    """Deterministic ASCII renderer."""

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

        canvas = [[" "] * max_right for _ in range(max_bottom)]
        for x, y, lines in boxes:
            _blit(canvas, x, y, lines)
        rendered = [("".join(row)).rstrip() for row in canvas]

        closed = tree.closed_roots()
        if closed:
            rendered.append("")
            rendered.append(
                "icons: " + " ".join(f"({window.name})" for window in closed)
            )
        return "\n".join(rendered).rstrip("\n")

    # -- drawing ---------------------------------------------------------------

    def _draw_window(self, window: Window) -> List[str]:
        width = max(window.geometry.width, 1)
        height = max(window.geometry.height, 1)
        interior = self._interior(window, width, height)
        # frame
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

    def _interior(self, window: Window, width: int, height: int) -> List[str]:
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
            return self._draw_panel(window, width, height)
        return []

    def _draw_panel(self, panel: Window, width: int, height: int) -> List[str]:
        grid = [[" "] * width for _ in range(height)]
        for child in panel.children:
            if not child.is_open:
                continue
            _blit(grid, child.geometry.x, child.geometry.y,
                  self._draw_window(child))
        return ["".join(row).rstrip() for row in grid]


def _blit(canvas: List[List[str]], x: int, y: int, lines: List[str]) -> None:
    """Copy *lines* onto *canvas* at ``(x, y)``, clipped to its edges.

    One slice assignment per row; later calls overwrite earlier ones, so
    callers blit back to front.
    """
    height = len(canvas)
    width = len(canvas[0]) if canvas else 0
    skip = max(0, -x)
    for row in range(max(0, -y), min(len(lines), height - y)):
        line = lines[row]
        end = min(len(line), width - x)
        if end > skip:
            canvas[y + row][x + skip:x + end] = line[skip:end]
