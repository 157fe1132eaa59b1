"""Grid-level compact thermal model.

A finer-grained alternative to the block model: the die bounding box is
discretised into an ``rows × cols`` grid of silicon cells; each cell
receives the power density of the block(s) covering it, conducts laterally
to its 4-neighbours and vertically into a per-cell spreader cell, which
couples laterally to neighbouring spreader cells and vertically (plus a
boundary-periphery path, matching the block model) into the sink.

The grid model serves two purposes in the reproduction:

* **validation** — block-model temperatures should track grid-model
  temperatures (tests assert rank correlation across power patterns);
* **reporting** — per-cell maps show the spatial gradient that the
  thermal-aware scheduler flattens (used by the hotspot-map example).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..errors import ThermalError
from ..floorplan.geometry import Floorplan
from ..units import MM, mm2_to_m2
from .blockmodel import SINK_NODE
from .materials import COPPER
from .network import ThermalNetwork, _source_power
from .package import PackageConfig, default_package
from .query import ThermalQueryEngine
from .steady import SteadyStateSolver

__all__ = ["GridModel", "cell_name", "cell_spreader_name"]


def cell_name(row: int, col: int) -> str:
    """Canonical name of the silicon grid cell at (row, col)."""
    return f"cell_{row}_{col}"


def cell_spreader_name(row: int, col: int) -> str:
    """Canonical name of the spreader cell under (row, col)."""
    return f"sp_{row}_{col}"


@dataclass
class _Cell:
    row: int
    col: int
    #: fraction of the cell covered by each block
    coverage: Dict[str, float]


class GridModel:
    """Grid discretisation of a floorplan's thermal behaviour.

    Parameters
    ----------
    floorplan:
        Validated, non-empty floorplan (mm coordinates).
    rows, cols:
        Grid resolution.  8×8 is plenty for 4–10 block dies.
    package:
        Package constants; defaults to the calibrated embedded package.
    """

    def __init__(
        self,
        floorplan: Floorplan,
        rows: int = 8,
        cols: int = 8,
        package: Optional[PackageConfig] = None,
    ):
        if rows < 1 or cols < 1:
            raise ThermalError(f"grid must be at least 1x1, got {rows}x{cols}")
        if len(floorplan) == 0:
            raise ThermalError("cannot grid an empty floorplan")
        floorplan.validate()
        self.floorplan = floorplan
        self.rows = rows
        self.cols = cols
        self.package = package or default_package()

        box = floorplan.bounding_box()
        self.origin = (box.x, box.y)
        self.cell_w = box.w / cols
        self.cell_h = box.h / rows
        self._cells = self._build_cells()
        self.network = self._build_network()
        self._solver = SteadyStateSolver(self.network)
        self._engine: Optional[ThermalQueryEngine] = None
        self._queries = 0

        # coverage matrices, hoisted out of the per-query loops:
        #   _power_split[c, b]  — fraction of block b's power landing on
        #                         cell c (columns sum to 1 for covered
        #                         blocks), so block powers -> cell powers
        #                         is one matvec;
        #   _read_weights[b, c] — coverage-weighted averaging of cell
        #                         temperatures back to block readings.
        self._block_order = tuple(self.floorplan.block_names())
        self._block_index = {
            name: i for i, name in enumerate(self._block_order)
        }
        coverage = np.zeros((len(self._cells), len(self._block_order)))
        for row, cell in enumerate(self._cells):
            for name, fraction in cell.coverage.items():
                coverage[row, self._block_index[name]] = fraction
        totals = coverage.sum(axis=0)  # total covered fraction per block
        self._covered = totals > 0.0
        safe_totals = np.where(self._covered, totals, 1.0)
        self._power_split = coverage / safe_totals
        self._read_weights = self._power_split.T
        self._cell_node_index = np.array(
            [self.network.index(cell_name(c.row, c.col)) for c in self._cells],
            dtype=int,
        )

    # ------------------------------------------------------------------
    def _build_cells(self) -> List[_Cell]:
        cells: List[_Cell] = []
        x0, y0 = self.origin
        for row in range(self.rows):
            for col in range(self.cols):
                cx1 = x0 + col * self.cell_w
                cy1 = y0 + row * self.cell_h
                cx2, cy2 = cx1 + self.cell_w, cy1 + self.cell_h
                coverage: Dict[str, float] = {}
                cell_area = self.cell_w * self.cell_h
                for block in self.floorplan:
                    rect = block.rect
                    ox = max(0.0, min(cx2, rect.x2) - max(cx1, rect.x))
                    oy = max(0.0, min(cy2, rect.y2) - max(cy1, rect.y))
                    overlap = ox * oy
                    if overlap > 0.0:
                        coverage[block.name] = overlap / cell_area
                cells.append(_Cell(row, col, coverage))
        return cells

    def _build_network(self) -> ThermalNetwork:
        package = self.package
        network = ThermalNetwork(package.ambient_c)
        cell_area_m2 = mm2_to_m2(self.cell_w * self.cell_h)
        spreader_area_m2 = package.spreader_side_m**2
        cell_fraction = min(1.0, cell_area_m2 / spreader_area_m2)

        for cell in self._cells:
            network.add_node(
                cell_name(cell.row, cell.col),
                capacitance=package.block_capacitance(cell_area_m2),
            )
        for cell in self._cells:
            network.add_node(
                cell_spreader_name(cell.row, cell.col),
                capacitance=package.spreader_capacitance() * cell_fraction,
            )
        network.add_node(
            SINK_NODE,
            capacitance=package.sink_capacitance(),
            ambient_conductance=1.0 / package.convection_resistance,
        )

        vertical_g = 1.0 / package.vertical_resistance(cell_area_m2)
        cell_to_sink = COPPER.conduction_resistance(
            package.spreader_thickness_m / 2.0, cell_area_m2
        ) + COPPER.conduction_resistance(package.sink_thickness_m / 2.0, cell_area_m2)
        overhang_m = max(
            package.spreader_thickness_m,
            (package.spreader_side_m - max(self.floorplan.die_size()) * MM) / 2.0,
        )
        for cell in self._cells:
            silicon = cell_name(cell.row, cell.col)
            spreader = cell_spreader_name(cell.row, cell.col)
            network.connect(silicon, spreader, vertical_g)
            network.connect(spreader, SINK_NODE, 1.0 / cell_to_sink)
            # periphery path for boundary cells, matching the block model
            exposed_m = 0.0
            if cell.row == 0 or cell.row == self.rows - 1:
                exposed_m += self.cell_w * MM
            if cell.col == 0 or cell.col == self.cols - 1:
                exposed_m += self.cell_h * MM
            if exposed_m > 0.0:
                network.connect(
                    spreader,
                    SINK_NODE,
                    COPPER.conductivity
                    * package.spreader_thickness_m
                    * exposed_m
                    / overhang_m,
                )

        # lateral 4-neighbour conduction in both layers
        g_si_h = package.lateral_conductance(self.cell_h * MM, self.cell_w * MM)
        g_si_v = package.lateral_conductance(self.cell_w * MM, self.cell_h * MM)
        g_cu_h = (
            COPPER.conductivity
            * package.spreader_thickness_m
            * (self.cell_h * MM)
            / (self.cell_w * MM)
        )
        g_cu_v = (
            COPPER.conductivity
            * package.spreader_thickness_m
            * (self.cell_w * MM)
            / (self.cell_h * MM)
        )
        for row in range(self.rows):
            for col in range(self.cols):
                if col + 1 < self.cols:
                    network.connect(
                        cell_name(row, col), cell_name(row, col + 1), g_si_h
                    )
                    network.connect(
                        cell_spreader_name(row, col),
                        cell_spreader_name(row, col + 1),
                        g_cu_h,
                    )
                if row + 1 < self.rows:
                    network.connect(
                        cell_name(row, col), cell_name(row + 1, col), g_si_v
                    )
                    network.connect(
                        cell_spreader_name(row, col),
                        cell_spreader_name(row + 1, col),
                        g_cu_v,
                    )
        network.check_grounded()
        return network

    # ------------------------------------------------------------------
    @property
    def block_order(self) -> Tuple[str, ...]:
        """Block names defining the index space of the array APIs."""
        return self._block_order

    @property
    def block_names(self) -> List[str]:
        """Names of the queryable blocks (PE instances)."""
        return list(self._block_order)

    @property
    def query_count(self) -> int:
        """Number of :meth:`block_temperatures` queries answered so far."""
        return self._queries

    @property
    def query_stats(self) -> Dict[str, int]:
        """Profiling counters, mirroring ``HotSpotModel.query_stats``."""
        engine = self._engine
        return {
            "queries": self._queries,
            "solver_solves": self._solver.solve_count,
            "engine_built": int(engine is not None),
            "engine_setup_solves": engine.setup_solves if engine else 0,
            "engine_fast_queries": engine.fast_queries if engine else 0,
        }

    def query_engine(self) -> ThermalQueryEngine:
        """Vectorized block-power → block-temperature engine.

        Folds the coverage split and the cell-averaging weights into one
        effective ``n_blocks × n_blocks`` response matrix (one multi-RHS
        backsolve per block at construction), so block-level queries and
        deltas cost the same as on the block model.
        """
        if self._engine is None:
            inject = np.zeros((len(self.network), len(self._block_order)))
            inject[self._cell_node_index, :] = self._power_split
            project = np.zeros((len(self._block_order), len(self.network)))
            project[:, self._cell_node_index] = self._read_weights
            self._engine = ThermalQueryEngine.from_linear_map(
                self.network, self._block_order, inject, project,
                solver=self._solver,
            )
        return self._engine

    def block_power_vector(
        self, power_by_block: Mapping[str, float]
    ) -> np.ndarray:
        """A :attr:`block_order`-indexed power vector from a block→W map."""
        vector = np.zeros(len(self._block_order), dtype=float)
        for name, power in power_by_block.items():
            self.floorplan.block(name)  # raises on unknown block
            vector[self._block_index[name]] = _source_power(name, power)
        return vector

    def _node_power_vector(self, block_powers: np.ndarray) -> np.ndarray:
        """Full node-power vector from a block-power vector (one matvec)."""
        vector = np.zeros(len(self.network), dtype=float)
        vector[self._cell_node_index] = self._power_split @ block_powers
        return vector

    def cell_powers(self, power_by_block: Mapping[str, float]) -> Dict[str, float]:
        """Distribute block powers onto cells by area coverage.

        Each block's power is split over the cells it covers in proportion
        to covered area, conserving total power exactly.  The coverage
        normalisation is precomputed at construction; this is one matvec.
        """
        cell_watts = self._power_split @ self.block_power_vector(power_by_block)
        return {
            cell_name(cell.row, cell.col): float(power)
            for cell, power in zip(self._cells, cell_watts)
            if power
        }

    def temperatures(self, power_by_block: Mapping[str, float]) -> Dict[str, float]:
        """Steady-state cell temperatures (°C) for block powers."""
        rise = self._solver.solve_rise(
            self._node_power_vector(self.block_power_vector(power_by_block))
        )
        ambient = self.package.ambient_c
        return {
            name: ambient + rise[index]
            for index, name in enumerate(self.network.node_names())
        }

    def temperature_map(self, power_by_block: Mapping[str, float]) -> np.ndarray:
        """Steady-state temperatures as a ``rows × cols`` array (°C)."""
        rise = self._solver.solve_rise(
            self._node_power_vector(self.block_power_vector(power_by_block))
        )
        return self.package.ambient_c + rise[self._cell_node_index].reshape(
            self.rows, self.cols
        )

    def block_temperatures(
        self, power_by_block: Mapping[str, float]
    ) -> Dict[str, float]:
        """Average temperature of each block's covered cells (°C).

        This is the quantity comparable with the block model's node
        temperatures.
        """
        self._queries += 1
        rise = self._solver.solve_rise(
            self._node_power_vector(self.block_power_vector(power_by_block))
        )
        cell_temps = self.package.ambient_c + rise[self._cell_node_index]
        block_temps = self._read_weights @ cell_temps
        return {
            name: float(temp)
            for name, temp, covered in zip(
                self._block_order, block_temps, self._covered
            )
            if covered
        }

    def peak_temperature(self, power_by_block: Mapping[str, float]) -> float:
        """Hottest block temperature (°C)."""
        return max(self.block_temperatures(power_by_block).values())

    def average_temperature(self, power_by_block: Mapping[str, float]) -> float:
        """Mean block temperature (°C) — the ``Avg_Temp`` DC term."""
        temps = self.block_temperatures(power_by_block)
        return sum(temps.values()) / len(temps)

    def block_temperatures_many(self, powers: np.ndarray) -> np.ndarray:
        """Batched block query: ``(k, n_blocks)`` W → ``(k, n_blocks)`` °C.

        Rows/columns follow :attr:`block_order`; all *k* power vectors
        share one multi-RHS backsolve.
        """
        matrix = np.asarray(powers, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != len(self._block_order):
            raise ThermalError(
                f"power matrix has shape {matrix.shape}, expected "
                f"(k, {len(self._block_order)})"
            )
        node_powers = np.zeros((len(self.network), matrix.shape[0]))
        node_powers[self._cell_node_index, :] = self._power_split @ matrix.T
        rises = self._solver.solve_rise_many(node_powers)
        cell_temps = self.package.ambient_c + rises[self._cell_node_index, :]
        return (self._read_weights @ cell_temps).T

    def average_temperature_delta(
        self,
        base_powers: np.ndarray,
        block: Union[int, str],
        delta_w: float,
    ) -> float:
        """Averaged block reading of ``base_powers + Δ·e_block``.

        Same superposition contract as
        :meth:`repro.thermal.hotspot.HotSpotModel.average_temperature_delta`.
        """
        engine = self.query_engine()
        index = (
            engine.block_index(block) if isinstance(block, str) else block
        )
        base = engine.average_temperature_vector(np.asarray(base_powers, float))
        return engine.average_temperature_delta(base, index, delta_w)
