"""Floorplan geometry: rectangles, placed blocks, and whole floorplans.

A :class:`Floorplan` maps PE instance names to placed rectangular
:class:`Block` s.  The thermal model needs exactly two geometric facts about
a floorplan: each block's area (vertical heat path) and the shared boundary
length between each pair of blocks (lateral heat path), both provided here.

Units: all coordinates and lengths are in **millimetres**; areas in mm².
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import FloorplanError

__all__ = ["Rect", "Block", "Floorplan"]

#: Geometric slack (mm) below which two coordinates are considered equal.
_EPS = 1e-9


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle ``[x, x+w] × [y, y+h]`` (mm)."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w <= 0.0 or self.h <= 0.0:
            raise FloorplanError(
                f"rectangle dimensions must be positive, got {self.w}×{self.h}"
            )

    @property
    def x2(self) -> float:
        """Right edge coordinate."""
        return self.x + self.w

    @property
    def y2(self) -> float:
        """Top edge coordinate."""
        return self.y + self.h

    @property
    def area(self) -> float:
        """Area in mm²."""
        return self.w * self.h

    @property
    def center(self) -> Tuple[float, float]:
        """Centre point ``(cx, cy)``."""
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    @property
    def aspect_ratio(self) -> float:
        """Long side divided by short side (>= 1)."""
        return max(self.w, self.h) / min(self.w, self.h)

    def overlaps(self, other: "Rect") -> bool:
        """True if the two rectangles share interior area (not just edges)."""
        return (
            self.x < other.x2 - _EPS
            and other.x < self.x2 - _EPS
            and self.y < other.y2 - _EPS
            and other.y < self.y2 - _EPS
        )

    def shared_edge_length(self, other: "Rect") -> float:
        """Length of the common boundary between two non-overlapping rects.

        Returns 0.0 for rectangles that merely touch at a corner or do not
        touch at all.  This is the lateral-coupling length used by the
        HotSpot-style block thermal model.
        """
        # vertical contact: one rect's right edge is the other's left edge
        if abs(self.x2 - other.x) < _EPS or abs(other.x2 - self.x) < _EPS:
            lo = max(self.y, other.y)
            hi = min(self.y2, other.y2)
            return max(0.0, hi - lo)
        # horizontal contact: one rect's top edge is the other's bottom edge
        if abs(self.y2 - other.y) < _EPS or abs(other.y2 - self.y) < _EPS:
            lo = max(self.x, other.x)
            hi = min(self.x2, other.x2)
            return max(0.0, hi - lo)
        return 0.0

    def manhattan_distance(self, other: "Rect") -> float:
        """Manhattan distance between centres (mm) — wirelength proxy."""
        (cx1, cy1), (cx2, cy2) = self.center, other.center
        return abs(cx1 - cx2) + abs(cy1 - cy2)

    def translated(self, dx: float, dy: float) -> "Rect":
        """This rectangle shifted by ``(dx, dy)``."""
        return Rect(self.x + dx, self.y + dy, self.w, self.h)

    def rotated(self) -> "Rect":
        """This rectangle with width and height exchanged (same origin)."""
        return Rect(self.x, self.y, self.h, self.w)


@dataclass(frozen=True)
class Block:
    """A named, placed rectangle — one PE on the die."""

    name: str
    rect: Rect

    def __post_init__(self) -> None:
        if not self.name:
            raise FloorplanError("block name must be non-empty")

    @property
    def area(self) -> float:
        """Block area in mm²."""
        return self.rect.area


class Floorplan:
    """A set of non-overlapping named blocks on a die.

    Construction does **not** check overlap (search algorithms build
    intermediate plans freely); call :meth:`validate` before handing a plan
    to the thermal model.
    """

    def __init__(self, blocks: Iterable[Block] = ()):
        self._blocks: Dict[str, Block] = {}
        for block in blocks:
            self.add(block)

    def add(self, block: Block) -> Block:
        """Add a block; names must be unique."""
        if block.name in self._blocks:
            raise FloorplanError(f"duplicate block name {block.name!r}")
        self._blocks[block.name] = block
        return block

    def place(self, name: str, x: float, y: float, w: float, h: float) -> Block:
        """Convenience wrapper building and adding a block."""
        return self.add(Block(name, Rect(x, y, w, h)))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks.values())

    def __contains__(self, name: str) -> bool:
        return name in self._blocks

    def __repr__(self) -> str:
        return f"Floorplan(blocks={len(self._blocks)}, die={self.die_size()})"

    def block(self, name: str) -> Block:
        """Return the block called *name*."""
        try:
            return self._blocks[name]
        except KeyError:
            raise FloorplanError(f"no block named {name!r} in floorplan")

    def blocks(self) -> List[Block]:
        """All blocks, in insertion order."""
        return list(self._blocks.values())

    def block_names(self) -> List[str]:
        """All block names, in insertion order."""
        return list(self._blocks)

    # ------------------------------------------------------------------
    def bounding_box(self) -> Rect:
        """Smallest axis-aligned rectangle containing every block."""
        if not self._blocks:
            raise FloorplanError("empty floorplan has no bounding box")
        rects = [b.rect for b in self._blocks.values()]
        x1 = min([r.x for r in rects])
        y1 = min([r.y for r in rects])
        x2 = max([r.x + r.w for r in rects])
        y2 = max([r.y + r.h for r in rects])
        return Rect(x1, y1, x2 - x1, y2 - y1)

    def die_size(self) -> Tuple[float, float]:
        """``(width, height)`` of the bounding box, or (0, 0) when empty."""
        if not self._blocks:
            return (0.0, 0.0)
        box = self.bounding_box()
        return (box.w, box.h)

    @property
    def die_area(self) -> float:
        """Bounding-box area (mm²)."""
        if not self._blocks:
            return 0.0
        return self.bounding_box().area

    @property
    def block_area(self) -> float:
        """Sum of block areas (mm²)."""
        return sum(b.area for b in self)

    @property
    def whitespace_fraction(self) -> float:
        """Fraction of the die not covered by blocks, in [0, 1)."""
        die = self.die_area
        if die <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.block_area / die)

    # ------------------------------------------------------------------
    def adjacency(self) -> Dict[Tuple[str, str], float]:
        """Shared-edge lengths between every touching pair of blocks.

        Keys are ``(name_a, name_b)`` with ``name_a < name_b``; values are
        contact lengths in mm.  Pairs with zero contact are omitted.
        """
        result: Dict[Tuple[str, str], float] = {}
        blocks = self.blocks()
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                contact = a.rect.shared_edge_length(b.rect)
                if contact > _EPS:
                    key = (a.name, b.name) if a.name < b.name else (b.name, a.name)
                    result[key] = contact
        return result

    def validate(self) -> None:
        """Raise :class:`~repro.errors.FloorplanError` on any block overlap."""
        blocks = self.blocks()
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                if a.rect.overlaps(b.rect):
                    raise FloorplanError(
                        f"blocks {a.name!r} and {b.name!r} overlap: "
                        f"{a.rect} vs {b.rect}"
                    )

    def total_wirelength(self, nets: Iterable[Tuple[str, str, float]]) -> float:
        """Weighted Manhattan wirelength over ``(src, dst, weight)`` nets."""
        total = 0.0
        for src, dst, weight in nets:
            total += weight * self.block(src).rect.manhattan_distance(
                self.block(dst).rect
            )
        return total

    def normalised(self) -> "Floorplan":
        """Copy translated so the bounding box's corner sits at the origin."""
        if not self._blocks:
            return Floorplan()
        box = self.bounding_box()
        return Floorplan(
            Block(b.name, b.rect.translated(-box.x, -box.y)) for b in self
        )
