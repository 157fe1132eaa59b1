"""Tests for the grid-level thermal model."""

import numpy as np
import pytest

from repro.analysis.compare import spearman_rank_correlation
from repro.errors import ThermalError
from repro.floorplan.geometry import Floorplan
from repro.thermal.gridmodel import GridModel, cell_name
from repro.thermal.hotspot import HotSpotModel


@pytest.fixture
def grid(two_block_plan):
    return GridModel(two_block_plan, rows=4, cols=8)


class TestConstruction:
    def test_bad_resolution_rejected(self, two_block_plan):
        with pytest.raises(ThermalError):
            GridModel(two_block_plan, rows=0, cols=4)

    def test_empty_floorplan_rejected(self):
        with pytest.raises(ThermalError):
            GridModel(Floorplan())

    def test_node_count(self, grid):
        # 32 silicon cells + 32 spreader cells + sink
        assert len(grid.network) == 65


class TestPowerMapping:
    def test_cell_powers_conserve_total(self, grid):
        powers = grid.cell_powers({"left": 7.0, "right": 3.0})
        assert sum(powers.values()) == pytest.approx(10.0)

    def test_power_lands_under_the_block(self, grid):
        powers = grid.cell_powers({"left": 8.0})
        # left block covers columns 0..3 of the 8-column grid
        for name, value in powers.items():
            col = int(name.split("_")[2])
            assert col < 4
            assert value > 0.0

    def test_unknown_block_rejected(self, grid):
        with pytest.raises(Exception):
            grid.cell_powers({"ghost": 1.0})

    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    def test_non_physical_power_rejected(self, grid, value):
        with pytest.raises(ThermalError, match="power on node 'right'"):
            grid.block_temperatures({"left": 1.0, "right": value})


class TestTemperatures:
    def test_loaded_side_hotter(self, grid):
        temps = grid.temperature_map({"left": 10.0})
        left_mean = temps[:, :4].mean()
        right_mean = temps[:, 4:].mean()
        assert left_mean > right_mean

    def test_map_shape_and_ambient_floor(self, grid):
        temps = grid.temperature_map({"left": 10.0})
        assert temps.shape == (4, 8)
        assert (temps >= grid.package.ambient_c - 1e-9).all()

    def test_block_temperatures_cover_blocks(self, grid):
        temps = grid.block_temperatures({"left": 10.0, "right": 2.0})
        assert set(temps) == {"left", "right"}
        assert temps["left"] > temps["right"]


class TestAgreementWithBlockModel:
    def test_rank_agreement_across_power_patterns(self, platform_plan):
        """Block-model block temperatures must rank like grid-model ones."""
        block_model = HotSpotModel(platform_plan)
        grid_model = GridModel(platform_plan, rows=4, cols=16)
        names = platform_plan.block_names()
        patterns = [
            {names[0]: 12.0},
            {names[1]: 12.0},
            {names[0]: 6.0, names[3]: 6.0},
            {n: 3.0 for n in names},
            {names[2]: 9.0, names[3]: 3.0},
        ]
        block_peaks = []
        grid_peaks = []
        for pattern in patterns:
            block_peaks.append(max(block_model.block_temperatures(pattern).values()))
            grid_peaks.append(max(grid_model.block_temperatures(pattern).values()))
        rho = spearman_rank_correlation(block_peaks, grid_peaks)
        assert rho >= 0.8

    def test_absolute_agreement_within_band(self, platform_plan):
        """Mean block temperatures of both models agree within a few °C."""
        block_model = HotSpotModel(platform_plan)
        grid_model = GridModel(platform_plan, rows=4, cols=16)
        powers = {n: 5.0 for n in platform_plan.block_names()}
        block_avg = block_model.average_temperature(powers)
        grid_temps = grid_model.block_temperatures(powers)
        grid_avg = sum(grid_temps.values()) / len(grid_temps)
        assert abs(block_avg - grid_avg) < 6.0


class TestRegisteredSolver:
    """``THERMAL_SOLVERS.get("gridmodel")`` is the grid model itself,
    carrying the HotSpot facade surface the flow runner reads."""

    @pytest.fixture
    def solver(self, two_block_plan):
        from repro.flow.registry import THERMAL_SOLVERS
        from repro.thermal.package import default_package

        return THERMAL_SOLVERS.get("gridmodel")(
            two_block_plan, default_package(), None
        )

    def test_factory_returns_a_grid_model(self, solver):
        assert isinstance(solver, GridModel)
        assert solver.block_names == ["left", "right"]

    def test_query_count_counts_block_queries(self, solver):
        powers = {"left": 5.0, "right": 1.0}
        assert solver.query_count == 0
        solver.block_temperatures(powers)
        assert solver.query_count == 1
        temps = solver.block_temperatures(powers)
        assert solver.peak_temperature(powers) == max(temps.values())
        assert solver.average_temperature(powers) == pytest.approx(
            sum(temps.values()) / len(temps)
        )
        assert solver.query_count == 4
        assert solver.query_stats["queries"] == 4

    def test_query_stats_keys_match_hotspot(self, solver, two_block_plan):
        assert set(solver.query_stats) == set(
            HotSpotModel(two_block_plan).query_stats
        )
