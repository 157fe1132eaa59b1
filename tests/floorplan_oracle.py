"""The object-by-object floorplan, kept as the oracle of the column-backed
``Floorplan``.

:class:`OracleFloorplan` is the floorplan as it was before its blocks
were stored as columns: a name → :class:`Block` dict whose geometry reads
each block's :class:`Rect`.  The rectangle predicates are the original
``Rect`` methods, written out here because ``Rect`` now delegates to the
column kernel.  ``tests/test_floorplan_columns.py`` compares the two.

:func:`oracle_edge_conductances` is the block model's edge assembly as
it was before it read the plan's columns: name-keyed, block by block,
through each block's rectangle.  ``tests/test_plan_peak_properties.py``
builds the edge-by-edge network from it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from repro.errors import FloorplanError
from repro.floorplan.geometry import Block, Rect
from repro.thermal.blockmodel import (
    SINK_NODE, _lateral_conductances, _periphery_conductance,
    _vertical_conductances, spreader_node,
)
from repro.thermal.package import PackageConfig
from repro.units import MM

__all__ = [
    "OracleFloorplan", "oracle_edge_conductances", "overlaps", "shared_edge_length",
]

_EPS = 1e-9


def overlaps(a: Rect, b: Rect) -> bool:
    """True if the two rectangles share interior area (not just edges)."""
    return (
        a.x < b.x2 - _EPS
        and b.x < a.x2 - _EPS
        and a.y < b.y2 - _EPS
        and b.y < a.y2 - _EPS
    )


def shared_edge_length(a: Rect, b: Rect) -> float:
    """Length of the common boundary between two non-overlapping rects."""
    if abs(a.x2 - b.x) < _EPS or abs(b.x2 - a.x) < _EPS:
        lo = max(a.y, b.y)
        hi = min(a.y2, b.y2)
        return max(0.0, hi - lo)
    if abs(a.y2 - b.y) < _EPS or abs(b.y2 - a.y) < _EPS:
        lo = max(a.x, b.x)
        hi = min(a.x2, b.x2)
        return max(0.0, hi - lo)
    return 0.0


class OracleFloorplan:
    """A name → :class:`Block` dict with the original geometry."""

    def __init__(self, blocks: Iterable[Block] = ()):
        self._blocks: Dict[str, Block] = {}
        for block in blocks:
            self.add(block)

    def add(self, block: Block) -> Block:
        if block.name in self._blocks:
            raise FloorplanError(f"duplicate block name {block.name!r}")
        self._blocks[block.name] = block
        return block

    def place(self, name: str, x: float, y: float, w: float, h: float) -> Block:
        return self.add(Block(name, Rect(x, y, w, h)))

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks.values())

    def __contains__(self, name: str) -> bool:
        return name in self._blocks

    def __repr__(self) -> str:
        return f"Floorplan(blocks={len(self._blocks)}, die={self.die_size()})"

    def block(self, name: str) -> Block:
        try:
            return self._blocks[name]
        except KeyError:
            raise FloorplanError(f"no block named {name!r} in floorplan")

    def blocks(self) -> List[Block]:
        return list(self._blocks.values())

    def block_names(self) -> List[str]:
        return list(self._blocks)

    def bounding_box(self) -> Rect:
        if not self._blocks:
            raise FloorplanError("empty floorplan has no bounding box")
        rects = [b.rect for b in self._blocks.values()]
        x1 = min([r.x for r in rects])
        y1 = min([r.y for r in rects])
        x2 = max([r.x + r.w for r in rects])
        y2 = max([r.y + r.h for r in rects])
        return Rect(x1, y1, x2 - x1, y2 - y1)

    def die_size(self) -> Tuple[float, float]:
        if not self._blocks:
            return (0.0, 0.0)
        box = self.bounding_box()
        return (box.w, box.h)

    @property
    def die_area(self) -> float:
        if not self._blocks:
            return 0.0
        return self.bounding_box().area

    @property
    def block_area(self) -> float:
        return sum(b.area for b in self)

    @property
    def whitespace_fraction(self) -> float:
        die = self.die_area
        if die <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.block_area / die)

    def adjacency(self) -> Dict[Tuple[str, str], float]:
        result: Dict[Tuple[str, str], float] = {}
        blocks = self.blocks()
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                contact = shared_edge_length(a.rect, b.rect)
                if contact > _EPS:
                    key = (a.name, b.name) if a.name < b.name else (b.name, a.name)
                    result[key] = contact
        return result

    def validate(self) -> None:
        blocks = self.blocks()
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                if overlaps(a.rect, b.rect):
                    raise FloorplanError(
                        f"blocks {a.name!r} and {b.name!r} overlap: "
                        f"{a.rect} vs {b.rect}"
                    )

    def total_wirelength(self, nets: Iterable[Tuple[str, str, float]]) -> float:
        total = 0.0
        for src, dst, weight in nets:
            total += weight * self.block(src).rect.manhattan_distance(
                self.block(dst).rect
            )
        return total

    def normalised(self) -> "OracleFloorplan":
        if not self._blocks:
            return OracleFloorplan()
        box = self.bounding_box()
        return OracleFloorplan(
            Block(b.name, b.rect.translated(-box.x, -box.y)) for b in self
        )


def oracle_edge_conductances(
    plan: OracleFloorplan, package: PackageConfig
) -> Dict[Tuple[str, str], float]:
    """Every edge conductance of the block model, block object by block
    object, keyed by lexicographically ordered node-name pairs."""
    edges: Dict[Tuple[str, str], float] = {}
    adjacency = plan.adjacency()
    blocks = plan.blocks()
    cells = {block.name: spreader_node(block.name) for block in blocks}

    def add(name_a: str, name_b: str, conductance: float) -> None:
        key = (name_a, name_b) if name_a < name_b else (name_b, name_a)
        edges[key] = edges.get(key, 0.0) + conductance

    for block in blocks:
        vertical, cell_to_sink = _vertical_conductances(block.area, package)
        add(block.name, cells[block.name], vertical)
        add(cells[block.name], SINK_NODE, cell_to_sink)

    shared = dict.fromkeys(cells, 0.0)
    for (name_a, name_b), contact in adjacency.items():
        shared[name_a] += contact
        shared[name_b] += contact
    overhang_m = max(
        package.spreader_thickness_m,
        (package.spreader_side_m - max(plan.die_size()) * MM) / 2.0,
    )
    for block in blocks:
        perimeter = 2.0 * (block.rect.w + block.rect.h)
        conductance = _periphery_conductance(
            max(0.0, perimeter - shared[block.name]), package, overhang_m
        )
        if conductance <= 0.0:
            continue
        add(cells[block.name], SINK_NODE, conductance)

    rects = {block.name: block.rect for block in blocks}
    for (name_a, name_b), shared_mm in adjacency.items():
        (xa, ya), (xb, yb) = rects[name_a].center, rects[name_b].center
        silicon, copper = _lateral_conductances(
            abs(xa - xb) + abs(ya - yb), shared_mm, package
        )
        add(name_a, name_b, silicon)
        add(cells[name_a], cells[name_b], copper)

    return edges
