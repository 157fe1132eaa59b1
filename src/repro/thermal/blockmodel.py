"""HotSpot-style block-level compact model.

Builds a :class:`~repro.thermal.network.ThermalNetwork` from a floorplan,
following the layer structure of HotSpot's block mode (Skadron et al.):

* one **silicon node per block** — heat is injected here; adjacent blocks
  couple laterally through the die slab (conductance ∝ shared edge length /
  centre distance);
* one **spreader node per block** — the copper heat spreader is cut into
  per-block cells; each block conducts vertically into its cell through the
  half-die + TIM + constriction resistance; spreader cells couple laterally
  through the copper (much stronger than silicon);
* a per-cell vertical path into a lumped **sink** node, plus a **periphery**
  path for cells on the die boundary: the part of the spreader that extends
  beyond the die collects heat from boundary cells in proportion to their
  *exposed* boundary length.  This term is what makes positions thermally
  distinct — in any stack whose per-layer vertical conductances are uniform,
  the *average* block temperature provably depends only on total power
  (lateral terms cancel in the sum), which would blind the paper's
  ``Avg_Temp`` scheduling term on homogeneous platforms.  Real packages are
  not such stacks precisely because boundary regions spread outward;
* the sink convects to **ambient**.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ThermalError
from ..floorplan.geometry import Floorplan, _centre_distance, _shared_edge
from ..thermal.materials import COPPER
from ..units import MM, mm2_to_m2
from .network import ThermalNetwork
from .package import PackageConfig, default_package

__all__ = [
    "SINK_NODE",
    "spreader_node",
    "build_block_network",
    "block_network_delta",
    "block_power_vector",
]

#: The lumped heat-sink node (convects to ambient).
SINK_NODE = "__sink__"

#: Prefix of per-block spreader-cell nodes.
_SPREADER_PREFIX = "__sp__"


def spreader_node(block_name: str) -> str:
    """Name of the spreader cell under *block_name*."""
    return _SPREADER_PREFIX + block_name


#: Contact-length threshold below which blocks do not couple laterally;
#: mirrors the ``_EPS`` cut inside :meth:`Floorplan.adjacency`.
_ADJACENCY_EPS = 1e-9


def _overhang_m(floorplan: Floorplan, package: PackageConfig) -> float:
    """Copper overhang width past the die edge (m); bbox-dependent."""
    return max(
        package.spreader_thickness_m,
        (package.spreader_side_m - max(floorplan.die_size()) * MM) / 2.0,
    )


def _vertical_conductances(
    area_mm2: float, package: PackageConfig
) -> Tuple[float, float]:
    """(block→cell, cell→sink) vertical conductances for one block area."""
    area_m2 = mm2_to_m2(area_mm2)
    vertical = 1.0 / package.vertical_resistance(area_m2)
    cell_to_sink = COPPER.conduction_resistance(
        package.spreader_thickness_m / 2.0, area_m2
    ) + COPPER.conduction_resistance(package.sink_thickness_m / 2.0, area_m2)
    return vertical, 1.0 / cell_to_sink


def _periphery_conductance(
    exposed_mm: float, package: PackageConfig, overhang_m: float
) -> float:
    """Spreader-cell → sink conductance through the copper overhang."""
    exposed_m = exposed_mm * MM
    if exposed_m <= 0.0:
        return 0.0
    return (
        COPPER.conductivity * package.spreader_thickness_m * exposed_m / overhang_m
    )


def _lateral_conductances(
    distance_mm: float, shared_mm: float, package: PackageConfig
) -> Tuple[float, float]:
    """(silicon, copper) lateral conductances for one abutting pair whose
    centres are *distance_mm* apart (Manhattan)."""
    distance_mm = max(distance_mm, 1e-6 / MM)
    silicon = package.lateral_conductance(shared_mm * MM, distance_mm * MM)
    copper = (
        COPPER.conductivity
        * package.spreader_thickness_m
        * (shared_mm * MM)
        / (distance_mm * MM)
    )
    return silicon, copper


def _edge_terms(
    floorplan: Floorplan, package: PackageConfig
) -> List[Tuple[int, int, float]]:
    """Every conductance term of the block model, read from the plan's
    columns, as ``(node_a, node_b, conductance)`` in the order the model
    adds them.

    Nodes are indices: block ``i`` is node ``i``, its spreader cell node
    ``n + i`` and the sink node ``2n`` (``n`` blocks).  A pair may get
    more than one term (a cell's sink path and its periphery path); the
    terms of a pair add up in this order.
    """
    names, xs, ys, ws, hs = floorplan._columns()
    count = len(names)
    sink = 2 * count
    terms: List[Tuple[int, int, float]] = []

    # vertical paths: block -> its spreader cell -> sink
    for block, (w, h) in enumerate(zip(ws, hs)):
        vertical, cell_to_sink = _vertical_conductances(w * h, package)
        terms.append((block, count + block, vertical))
        terms.append((count + block, sink, cell_to_sink))

    # periphery paths: boundary cells spread outward through the copper
    # overhang toward the sink; conductance scales with the exposed
    # boundary, the perimeter not shared with any other block
    contacts = floorplan._contacts()  # (i, j, length) rows, in pair order
    shared = [0.0] * count
    for i, j, contact in contacts:
        shared[i] += contact
        shared[j] += contact
    overhang_m = _overhang_m(floorplan, package)
    for block, (w, h, touching) in enumerate(zip(ws, hs, shared)):
        perimeter = 2.0 * (w + h)
        conductance = _periphery_conductance(
            max(0.0, perimeter - touching), package, overhang_m
        )
        if conductance > 0.0:
            terms.append((count + block, sink, conductance))

    # lateral paths: silicon between abutting blocks, copper between their
    # spreader cells
    for i, j, shared_mm in contacts:
        distance = _centre_distance(
            xs[i], ys[i], ws[i], hs[i], xs[j], ys[j], ws[j], hs[j]
        )
        silicon, copper = _lateral_conductances(distance, shared_mm, package)
        terms.append((i, j, silicon))
        terms.append((count + i, count + j, copper))
    return terms


def _node_names(floorplan: Floorplan) -> List[str]:
    """Node names in index order: blocks, their spreader cells, the sink."""
    names = floorplan.block_names()
    return names + [spreader_node(name) for name in names] + [SINK_NODE]


def _edge_conductances(
    floorplan: Floorplan, package: PackageConfig
) -> Dict[Tuple[str, str], float]:
    """Every edge conductance of the block model, keyed by node-name pair.

    Keys are lexicographically ordered ``(a, b)`` name pairs; values
    accumulate the :func:`_edge_terms` that :func:`build_block_network`
    accumulates per index pair, in the same order, so the floats are
    bit-identical.  :func:`block_network_delta` diffs two of these maps
    (or re-prices just the moved blocks' terms) to derive a sparse
    conductance perturbation without rebuilding a network.
    """
    nodes = _node_names(floorplan)
    edges: Dict[Tuple[str, str], float] = {}
    for ia, ib, conductance in _edge_terms(floorplan, package):
        a, b = nodes[ia], nodes[ib]
        key = (a, b) if a < b else (b, a)
        edges[key] = edges.get(key, 0.0) + conductance
    return edges


def _check_floorplan(floorplan: Floorplan) -> None:
    """Non-empty, no reserved block names, overlap-free."""
    if len(floorplan) == 0:
        raise ThermalError("cannot build a thermal model for an empty floorplan")
    for name in floorplan.block_names():
        if name == SINK_NODE or name.startswith(_SPREADER_PREFIX):
            raise ThermalError(f"floorplan uses reserved block name {name!r}")
    floorplan.validate()


def build_block_network(
    floorplan: Floorplan,
    package: Optional[PackageConfig] = None,
) -> ThermalNetwork:
    """Build the block-level RC network for *floorplan*.

    The floorplan must be non-empty and overlap-free (``validate()`` is
    called here).  Block names become silicon node names; per-block spreader
    cells and the :data:`SINK_NODE` are appended.  The network is assembled
    in one index-keyed pass: every edge conductance must be positive, and
    the sink must be grounded, as ``ThermalNetwork.connect`` and
    ``check_grounded`` would require.
    """
    _check_floorplan(floorplan)
    package = package or default_package()
    nodes = _node_names(floorplan)
    index = {name: slot for slot, name in enumerate(nodes)}

    total_area_m2 = mm2_to_m2(floorplan.block_area)
    spreader_area_m2 = package.spreader_side_m**2
    spare_spreader_fraction = max(
        0.1, 1.0 - min(1.0, total_area_m2 / spreader_area_m2)
    )
    # silicon nodes, then spreader cells with capacitance proportional to
    # covered area; the spare copper (periphery) capacitance is lumped
    # into the sink node
    _, _, _, ws, hs = floorplan._columns()
    areas_m2 = [mm2_to_m2(w * h) for w, h in zip(ws, hs)]
    capacitance = [package.block_capacitance(area) for area in areas_m2]
    capacitance += [
        package.spreader_capacitance() * min(1.0, area / spreader_area_m2)
        for area in areas_m2
    ]
    capacitance.append(
        package.sink_capacitance()
        + package.spreader_capacitance() * spare_spreader_fraction
    )
    ambient = [0.0] * (len(nodes) - 1) + [1.0 / package.convection_resistance]

    # conduction edges — vertical, periphery, and lateral terms, assembled
    # geometrically so the same terms can diff two floorplans
    edges: Dict[Tuple[int, int], float] = {}
    for ia, ib, conductance in _edge_terms(floorplan, package):
        key = (ia, ib) if ia < ib else (ib, ia)
        edges[key] = edges.get(key, 0.0) + conductance
    for (ia, ib), conductance in edges.items():
        if conductance <= 0.0:
            name_a, name_b = sorted((nodes[ia], nodes[ib]))
            raise ThermalError(
                f"conductance {name_a!r}-{name_b!r} must be positive, "
                f"got {conductance}"
            )

    network = ThermalNetwork._assembled(
        package.ambient_c, index, capacitance, ambient, edges
    )
    network.check_grounded()
    return network


def _diff_edge_maps(
    base: Mapping[Tuple[str, str], float],
    new: Mapping[Tuple[str, str], float],
) -> Dict[Tuple[str, str], float]:
    """Significant entries of ``new - base`` over the union of edge keys."""
    delta: Dict[Tuple[str, str], float] = {}
    for key in sorted(set(base) | set(new)):
        g_old = base.get(key, 0.0)
        g_new = new.get(key, 0.0)
        diff = g_new - g_old
        if abs(diff) <= 1e-15 * max(1.0, abs(g_old), abs(g_new)):
            continue
        delta[key] = diff
    return delta


def _moved_block_delta(
    anchor: Floorplan,
    candidate: Floorplan,
    package: PackageConfig,
    moved: Tuple[str, ...],
    anchor_adjacency: Mapping[Tuple[str, str], float],
    anchor_edges: Mapping[Tuple[str, str], float],
    overhang_m: float,
) -> Dict[Tuple[str, str], float]:
    """Conductance delta re-pricing only the moved blocks' terms.

    Valid only when the two floorplans share block set AND overhang (same
    die bounding box): then every changed edge involves a moved block —
    its vertical pair (on resize), its lateral pairs (old and new), and
    the periphery exposure of itself and its old/new neighbours.  Old
    lateral values are read back from *anchor_edges* (block-block and
    cell-cell keys carry exactly one lateral term each), so the delta is
    exact against the anchor's network.
    """
    moved_set = set(moved)
    delta: Dict[Tuple[str, str], float] = {}

    def bump(name_a: str, name_b: str, old: float, new: float) -> None:
        diff = new - old
        if abs(diff) <= 1e-15 * max(1.0, abs(old), abs(new)):
            return
        key = (name_a, name_b) if name_a < name_b else (name_b, name_a)
        delta[key] = delta.get(key, 0.0) + diff

    # vertical terms change only when a block's area changes (resize)
    for name in sorted(moved_set):
        _, _, w_old, h_old = anchor._rect_of(name)
        _, _, w_new, h_new = candidate._rect_of(name)
        if w_old * h_old == w_new * h_new:
            continue
        old_v, old_cs = _vertical_conductances(w_old * h_old, package)
        new_v, new_cs = _vertical_conductances(w_new * h_new, package)
        bump(name, spreader_node(name), old_v, new_v)
        bump(spreader_node(name), SINK_NODE, old_cs, new_cs)

    # lateral pairs involving a moved block, old and new
    old_pairs = {
        pair: contact
        for pair, contact in anchor_adjacency.items()
        if pair[0] in moved_set or pair[1] in moved_set
    }
    new_pairs: Dict[Tuple[str, str], float] = {}
    names, xs, ys, ws, hs = candidate._columns()
    for name in sorted(moved_set):
        x, y, w, h = candidate._rect_of(name)
        for other, xo, yo, wo, ho in zip(names, xs, ys, ws, hs):
            if other == name:
                continue
            if other in moved_set and other < name:
                continue  # moved-moved pairs priced once
            contact = _shared_edge(x, y, x + w, y + h, xo, yo, xo + wo, yo + ho)
            if contact > _ADJACENCY_EPS:
                key = (name, other) if name < other else (other, name)
                new_pairs[key] = contact
    for pair in sorted(set(old_pairs) | set(new_pairs)):
        name_a, name_b = pair
        cell_pair = (spreader_node(name_a), spreader_node(name_b))
        old_silicon = anchor_edges.get(pair, 0.0)
        old_copper = anchor_edges.get(cell_pair, 0.0)
        if pair in new_pairs:
            new_silicon, new_copper = _lateral_conductances(
                _centre_distance(
                    *candidate._rect_of(name_a), *candidate._rect_of(name_b)
                ),
                new_pairs[pair],
                package,
            )
        else:
            new_silicon = new_copper = 0.0
        bump(name_a, name_b, old_silicon, new_silicon)
        bump(cell_pair[0], cell_pair[1], old_copper, new_copper)

    # periphery exposure changes for moved blocks and their old/new
    # neighbours; everyone else keeps their contacts (and their exposure)
    affected = sorted(
        moved_set
        | {name for pair in old_pairs for name in pair}
        | {name for pair in new_pairs for name in pair}
    )
    for name in affected:
        shared_old = 0.0
        for pair, contact in anchor_adjacency.items():
            if name in pair:
                shared_old += contact
        shared_new = shared_old
        for pair, contact in old_pairs.items():
            if name in pair:
                shared_new -= contact
        for pair, contact in new_pairs.items():
            if name in pair:
                shared_new += contact
        _, _, w_old, h_old = anchor._rect_of(name)
        _, _, w_new, h_new = candidate._rect_of(name)
        exposed_old = max(0.0, 2.0 * (w_old + h_old) - shared_old)
        exposed_new = max(0.0, 2.0 * (w_new + h_new) - shared_new)
        bump(
            spreader_node(name),
            SINK_NODE,
            _periphery_conductance(exposed_old, package, overhang_m),
            _periphery_conductance(exposed_new, package, overhang_m),
        )
    return delta


def block_network_delta(
    anchor: Floorplan,
    candidate: Floorplan,
    package: Optional[PackageConfig] = None,
    anchor_edges: Optional[Dict[Tuple[str, str], float]] = None,
    anchor_adjacency: Optional[Dict[Tuple[str, str], float]] = None,
) -> Optional[Dict[Tuple[str, str], float]]:
    """Sparse conductance delta between two floorplans' block models.

    Returns a ``{(name_a, name_b): Δconductance}`` map such that adding
    every entry to *anchor*'s network reproduces *candidate*'s conductance
    matrix (capacitances — irrelevant to the steady state — may still
    differ).  Returns ``None`` when the two floorplans do not share the
    same block-name set, i.e. when no common node space exists and the
    caller must rebuild from scratch.

    When the die bounding box is unchanged, only terms involving the
    moved/resized blocks are re-priced — O(moved × blocks) instead of the
    full O(blocks²) edge map, which is what makes per-move incremental
    re-evaluation cheap.  A bbox change re-prices every periphery edge
    (the copper overhang narrows or widens for everyone), so that case
    falls back to a full edge-map diff.

    *anchor_edges* / *anchor_adjacency* let callers that diff many
    candidates against one anchor (the DSE evaluator) cache the anchor's
    geometry; when omitted they are recomputed.
    """
    if set(anchor.block_names()) != set(candidate.block_names()):
        return None
    package = package or default_package()
    moved = tuple(
        name
        for name in anchor.block_names()
        if anchor._rect_of(name) != candidate._rect_of(name)
    )
    if not moved:
        return {}
    base = (
        anchor_edges
        if anchor_edges is not None
        else _edge_conductances(anchor, package)
    )
    overhang = _overhang_m(anchor, package)
    if overhang != _overhang_m(candidate, package):
        return _diff_edge_maps(base, _edge_conductances(candidate, package))
    adjacency = (
        anchor_adjacency
        if anchor_adjacency is not None
        else anchor.adjacency()
    )
    return _moved_block_delta(
        anchor, candidate, package, moved, adjacency, base, overhang
    )


def block_power_vector(
    network: ThermalNetwork, power_by_block: Mapping[str, float]
):
    """Power vector for *network* with package nodes at zero power."""
    for name in power_by_block:
        if name == SINK_NODE or name.startswith(_SPREADER_PREFIX):
            raise ThermalError(f"cannot inject power into package node {name!r}")
    return network.power_vector(power_by_block)
