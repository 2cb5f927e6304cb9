"""Raster images for the RASTER_IMAGE window type.

The paper's employee objects have a pictorial display (Figure 6), and the
acknowledgments credit a "bitmap filter" and "bitmap scaling routines" —
so the windowing layer gets a small grayscale raster type with scaling
(nearest-neighbour and box filter), a smoothing filter, and an ASCII
rendering the text backend uses.

Pixels are one byte each, 0 (black) .. 255 (white), row-major.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import RasterError

_ASCII_RAMP = "#%*+=-:. "  # dark .. light

#: Portraits kept by :func:`procedural_portrait`; a 12x12 one is 144 bytes,
#: and the lab database draws 55.
_PORTRAIT_CACHE_SIZE = 256


@dataclass(frozen=True)
class RasterImage:
    """An immutable grayscale bitmap."""

    width: int
    height: int
    pixels: bytes

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise RasterError(f"bad raster dimensions {self.width}x{self.height}")
        if len(self.pixels) != self.width * self.height:
            raise RasterError(
                f"raster {self.width}x{self.height} needs "
                f"{self.width * self.height} bytes, got {len(self.pixels)}"
            )

    # -- construction ---------------------------------------------------------

    @classmethod
    def blank(cls, width: int, height: int, value: int = 255) -> "RasterImage":
        if not 0 <= value <= 255:
            raise RasterError(f"pixel value {value} out of range")
        return cls(width, height, bytes([value]) * (width * height))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "RasterImage":
        if not rows or not rows[0]:
            raise RasterError("from_rows needs a non-empty grid")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise RasterError("ragged raster rows")
        flat = bytes(
            _clamp(value) for row in rows for value in row
        )
        return cls(width, len(rows), flat)

    # -- pixel access -------------------------------------------------------------

    def pixel(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise RasterError(f"pixel ({x},{y}) outside {self.width}x{self.height}")
        return self.pixels[y * self.width + x]

    def with_pixel(self, x: int, y: int, value: int) -> "RasterImage":
        self.pixel(x, y)  # bounds check
        data = bytearray(self.pixels)
        data[y * self.width + x] = _clamp(value)
        return RasterImage(self.width, self.height, bytes(data))

    # -- transforms -----------------------------------------------------------------

    def scale(self, new_width: int, new_height: int) -> "RasterImage":
        """Box-filter downscale / nearest-neighbour upscale."""
        if new_width <= 0 or new_height <= 0:
            raise RasterError("scale target must be positive")
        out = bytearray(new_width * new_height)
        for oy in range(new_height):
            y0 = oy * self.height // new_height
            y1 = max(y0 + 1, (oy + 1) * self.height // new_height)
            for ox in range(new_width):
                x0 = ox * self.width // new_width
                x1 = max(x0 + 1, (ox + 1) * self.width // new_width)
                total = 0
                for y in range(y0, y1):
                    row = y * self.width
                    for x in range(x0, x1):
                        total += self.pixels[row + x]
                out[oy * new_width + ox] = total // ((y1 - y0) * (x1 - x0))
        return RasterImage(new_width, new_height, bytes(out))

    def smooth(self) -> "RasterImage":
        """3x3 mean filter (the 'bitmap filter')."""
        out = bytearray(self.width * self.height)
        for y in range(self.height):
            for x in range(self.width):
                total = 0
                count = 0
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        nx, ny = x + dx, y + dy
                        if 0 <= nx < self.width and 0 <= ny < self.height:
                            total += self.pixels[ny * self.width + nx]
                            count += 1
                out[y * self.width + x] = total // count
        return RasterImage(self.width, self.height, bytes(out))

    def invert(self) -> "RasterImage":
        return RasterImage(
            self.width, self.height, bytes(255 - value for value in self.pixels)
        )

    # -- rendering -------------------------------------------------------------------

    def to_ascii(self, ramp: str = _ASCII_RAMP) -> str:
        """Character rendering, darkest pixels -> first ramp character."""
        if not ramp:
            raise RasterError("ascii ramp must be non-empty")
        steps = len(ramp)
        lines: List[str] = []
        for y in range(self.height):
            row = self.pixels[y * self.width:(y + 1) * self.width]
            lines.append("".join(ramp[min(value * steps // 256, steps - 1)]
                                 for value in row))
        return "\n".join(lines)


def _clamp(value: int) -> int:
    return max(0, min(255, int(value)))


@functools.lru_cache(maxsize=_PORTRAIT_CACHE_SIZE)
def procedural_portrait(seed: int, size: int = 16) -> RasterImage:
    """A deterministic 'photo' for an employee object's picture display.

    The lab database has no real bitmaps, so each employee gets a
    procedurally drawn face varying with *seed*: head outline, eyes, and a
    mouth whose shape depends on the seed bits.  Deterministic, so figure
    renderings are stable, and each ``(seed, size)`` is drawn once: callers
    share the returned (immutable) image.
    """
    if size < 8:
        raise RasterError("portrait size must be at least 8")
    grid = [[255] * size for _ in range(size)]
    center = (size - 1) / 2
    radius = size * 0.42 + (seed % 3) * 0.03 * size
    for y in range(size):
        for x in range(size):
            distance = math.hypot(x - center, y - center)
            if distance <= radius:
                grid[y][x] = 210
            if abs(distance - radius) < 0.6:
                grid[y][x] = 40
    eye_y = int(size * 0.38)
    eye_dx = max(2, size // 5) + (seed % 2)
    for ex in (int(center) - eye_dx, int(center) + eye_dx):
        if 0 <= ex < size:
            grid[eye_y][ex] = 0
            if seed % 5 == 0 and eye_y > 0:
                grid[eye_y - 1][ex] = 90  # raised eyebrows
    mouth_y = int(size * 0.68)
    mouth_half = max(1, size // 6)
    curve = 1 if seed % 4 in (0, 1) else -1  # smile or frown
    for dx in range(-mouth_half, mouth_half + 1):
        my = mouth_y + (curve if abs(dx) == mouth_half else 0)
        mx = int(center) + dx
        if 0 <= mx < size and 0 <= my < size:
            grid[my][mx] = 20
    return RasterImage.from_rows(grid)
