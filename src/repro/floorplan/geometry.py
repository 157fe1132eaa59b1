"""Floorplan geometry: rectangles, placed blocks, and whole floorplans.

A :class:`Floorplan` maps PE instance names to placed rectangular
:class:`Block` s.  The thermal model needs exactly two geometric facts about
a floorplan: each block's area (vertical heat path) and the shared boundary
length between each pair of blocks (lateral heat path), both provided here.

A floorplan stores its blocks as columns — names plus x/y/w/h float lists
in insertion order — and builds a :class:`Block` only when a caller reads
one.  The searches that score thousands of plans (the slicing evaluator,
the block thermal model, the co-synthesis model memo) read the columns.

Units: all coordinates and lengths are in **millimetres**; areas in mm².
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Dict, Iterable, Iterator, List, Tuple

from ..errors import FloorplanError

__all__ = ["Rect", "Block", "Floorplan"]

#: Geometric slack (mm) below which two coordinates are considered equal.
_EPS = 1e-9


def _check_rect(x: float, y: float, w: float, h: float) -> None:
    """Reject a non-finite corner and a non-positive or non-finite side.

    NaN fails every comparison, so it never gets into a plan (and so
    never into a float-tuple memo key).
    """
    if -math.inf < x < math.inf and -math.inf < y < math.inf and (
        0.0 < w < math.inf and 0.0 < h < math.inf
    ):
        return
    for field, value in (("x", x), ("y", y)):
        if not -math.inf < value < math.inf:
            raise FloorplanError(f"rectangle {field} must be finite, got {value}")
    for field, value in (("w", w), ("h", h)):
        if not 0.0 < value < math.inf:
            raise FloorplanError(
                f"rectangle {field} must be positive and finite, got {value}"
            )


def _overlap(xa, ya, x2a, y2a, xb, yb, x2b, y2b) -> bool:
    """Do ``[xa, x2a] × [ya, y2a]`` and ``[xb, x2b] × [yb, y2b]`` share
    interior area (not just edges)?"""
    return xa < x2b - _EPS and xb < x2a - _EPS and ya < y2b - _EPS and yb < y2a - _EPS


def _shared_edge(xa, ya, x2a, y2a, xb, yb, x2b, y2b) -> float:
    """Length of the common boundary of two non-overlapping rectangles
    given by their corners; 0.0 for a corner touch or no contact."""
    # vertical contact: one rect's right edge is the other's left edge
    if abs(x2a - xb) < _EPS or abs(x2b - xa) < _EPS:
        return max(0.0, min(y2a, y2b) - max(ya, yb))
    # horizontal contact: one rect's top edge is the other's bottom edge
    if abs(y2a - yb) < _EPS or abs(y2b - ya) < _EPS:
        return max(0.0, min(x2a, x2b) - max(xa, xb))
    return 0.0


def _centre_distance(xa, ya, wa, ha, xb, yb, wb, hb) -> float:
    """Manhattan distance between the centres of two rectangles."""
    return abs((xa + wa / 2.0) - (xb + wb / 2.0)) + abs(
        (ya + ha / 2.0) - (yb + hb / 2.0)
    )


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle ``[x, x+w] × [y, y+h]`` (mm)."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        _check_rect(self.x, self.y, self.w, self.h)

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
        return _overlap(
            self.x, self.y, self.x2, self.y2, other.x, other.y, other.x2, other.y2
        )

    def shared_edge_length(self, other: "Rect") -> float:
        """Length of the common boundary between two non-overlapping rects.

        Returns 0.0 for rectangles that merely touch at a corner or do not
        touch at all.  This is the lateral-coupling length used by the
        HotSpot-style block thermal model.
        """
        return _shared_edge(
            self.x, self.y, self.x2, self.y2, other.x, other.y, other.x2, other.y2
        )

    def manhattan_distance(self, other: "Rect") -> float:
        """Manhattan distance between centres (mm) — wirelength proxy."""
        return _centre_distance(
            self.x, self.y, self.w, self.h, other.x, other.y, other.w, other.h
        )

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
        self._index: Dict[str, int] = {}
        self._names: List[str] = []
        self._x: List[float] = []
        self._y: List[float] = []
        self._w: List[float] = []
        self._h: List[float] = []
        for block in blocks:
            self.add(block)

    @classmethod
    def _from_columns(
        cls,
        names: List[str],
        xs: List[float],
        ys: List[float],
        ws: List[float],
        hs: List[float],
    ) -> "Floorplan":
        """A plan adopting the given column lists, each row checked as
        :meth:`place` checks it (rectangle, name, uniqueness), in row order."""
        index = dict(zip(names, range(len(names))))
        # fast accept: a finite total has no NaN or inf in it, and then the
        # minima are exact; any doubt goes to the row-by-row check
        if names and not (
            len(index) == len(names)
            and all(names)
            and math.isfinite(sum(xs) + sum(ys) + sum(ws) + sum(hs))
            and min(ws) > 0.0
            and min(hs) > 0.0
        ):
            index = {}
            for row, (name, x, y, w, h) in enumerate(zip(names, xs, ys, ws, hs)):
                _check_rect(x, y, w, h)
                if not name:
                    raise FloorplanError("block name must be non-empty")
                if name in index:
                    raise FloorplanError(f"duplicate block name {name!r}")
                index[name] = row
        plan = object.__new__(cls)
        plan._index = index
        plan._names, plan._x, plan._y, plan._w, plan._h = names, xs, ys, ws, hs
        return plan

    def add(self, block: Block) -> Block:
        """Add a block; names must be unique."""
        if block.name in self._index:
            raise FloorplanError(f"duplicate block name {block.name!r}")
        rect = block.rect
        self._index[block.name] = len(self._names)
        self._names.append(block.name)
        self._x.append(rect.x)
        self._y.append(rect.y)
        self._w.append(rect.w)
        self._h.append(rect.h)
        return block

    def place(self, name: str, x: float, y: float, w: float, h: float) -> Block:
        """Convenience wrapper building and adding a block."""
        return self.add(Block(name, Rect(x, y, w, h)))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._names)

    def _block_at(self, row: int) -> Block:
        return Block(
            self._names[row],
            Rect(self._x[row], self._y[row], self._w[row], self._h[row]),
        )

    def __iter__(self) -> Iterator[Block]:
        return map(self._block_at, range(len(self._names)))

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __repr__(self) -> str:
        return f"Floorplan(blocks={len(self)}, die={self.die_size()})"

    def _row(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise FloorplanError(f"no block named {name!r} in floorplan")

    def block(self, name: str) -> Block:
        """Return the block called *name*."""
        return self._block_at(self._row(name))

    def _rect_of(self, name: str) -> Tuple[float, float, float, float]:
        """``(x, y, w, h)`` of the block called *name*, from the columns."""
        row = self._row(name)
        return self._x[row], self._y[row], self._w[row], self._h[row]

    def blocks(self) -> List[Block]:
        """All blocks, in insertion order."""
        return list(self)

    def block_names(self) -> List[str]:
        """All block names, in insertion order."""
        return list(self._names)

    def _columns(
        self,
    ) -> Tuple[List[str], List[float], List[float], List[float], List[float]]:
        """The name, x, y, w and h columns in insertion order (read only)."""
        return self._names, self._x, self._y, self._w, self._h

    def _far_edges(self) -> Tuple[List[float], List[float]]:
        """Every block's right and top edge coordinates (``x + w``, ``y + h``)."""
        return list(map(add, self._x, self._w)), list(map(add, self._y, self._h))

    # ------------------------------------------------------------------
    def _extent(self) -> Tuple[float, float, float, float]:
        """``(x1, y1, x2, y2)`` of the bounding box; raises when empty."""
        if not self._names:
            raise FloorplanError("empty floorplan has no bounding box")
        return (
            min(self._x),
            min(self._y),
            max(map(add, self._x, self._w)),
            max(map(add, self._y, self._h)),
        )

    def bounding_box(self) -> Rect:
        """Smallest axis-aligned rectangle containing every block."""
        x1, y1, x2, y2 = self._extent()
        return Rect(x1, y1, x2 - x1, y2 - y1)

    def die_size(self) -> Tuple[float, float]:
        """``(width, height)`` of the bounding box, or (0, 0) when empty."""
        if not self._names:
            return (0.0, 0.0)
        x1, y1, x2, y2 = self._extent()
        return (x2 - x1, y2 - y1)

    @property
    def die_area(self) -> float:
        """Bounding-box area (mm²)."""
        width, height = self.die_size()
        return width * height

    @property
    def block_area(self) -> float:
        """Sum of block areas (mm²)."""
        return sum([w * h for w, h in zip(self._w, self._h)])

    @property
    def whitespace_fraction(self) -> float:
        """Fraction of the die not covered by blocks, in [0, 1)."""
        die = self.die_area
        if die <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.block_area / die)

    # ------------------------------------------------------------------
    def _contacts(self) -> List[Tuple[int, int, float]]:
        """``(i, j, length)`` for every touching pair of rows ``i < j``,
        in pair order; pairs with zero contact are omitted."""
        xs, ys = self._x, self._y
        x2s, y2s = self._far_edges()
        contacts = []
        count = len(xs)
        for i in range(count):
            xa, ya, x2a, y2a = xs[i], ys[i], x2s[i], y2s[i]
            for j in range(i + 1, count):
                contact = _shared_edge(xa, ya, x2a, y2a, xs[j], ys[j], x2s[j], y2s[j])
                if contact > _EPS:
                    contacts.append((i, j, contact))
        return contacts

    def adjacency(self) -> Dict[Tuple[str, str], float]:
        """Shared-edge lengths between every touching pair of blocks.

        Keys are ``(name_a, name_b)`` with ``name_a < name_b``; values are
        contact lengths in mm.  Pairs with zero contact are omitted.
        """
        names = self._names
        result: Dict[Tuple[str, str], float] = {}
        for i, j, contact in self._contacts():
            a, b = names[i], names[j]
            result[(a, b) if a < b else (b, a)] = contact
        return result

    def validate(self) -> None:
        """Raise :class:`~repro.errors.FloorplanError` on any block overlap."""
        xs, ys = self._x, self._y
        x2s, y2s = self._far_edges()
        count = len(xs)
        for i in range(count):
            xa, ya, x2a, y2a = xs[i], ys[i], x2s[i], y2s[i]
            for j in range(i + 1, count):
                if _overlap(xa, ya, x2a, y2a, xs[j], ys[j], x2s[j], y2s[j]):
                    a, b = self._block_at(i), self._block_at(j)
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
        if not self._names:
            return Floorplan()
        x1, y1, _, _ = self._extent()
        dx, dy = -x1, -y1
        return Floorplan._from_columns(
            list(self._names),
            [x + dx for x in self._x],
            [y + dy for y in self._y],
            list(self._w),
            list(self._h),
        )
