"""Tests for the HotSpotModel facade."""

import math

import numpy as np
import pytest

from repro.errors import ThermalError
from repro.floorplan.geometry import Floorplan
from repro.thermal.hotspot import HotSpotModel


@pytest.fixture
def model(platform_plan):
    return HotSpotModel(platform_plan)


class TestSteadyQueries:
    def test_block_names(self, model, platform_plan):
        assert model.block_names == platform_plan.block_names()

    def test_block_temperatures_cover_all_blocks(self, model):
        temps = model.block_temperatures({"pe0": 10.0})
        assert set(temps) == set(model.block_names)

    def test_unknown_block_rejected(self, model):
        with pytest.raises(ThermalError):
            model.block_temperatures({"ghost": 1.0})

    def test_peak_is_max_of_blocks(self, model):
        powers = {"pe0": 8.0, "pe2": 3.0}
        temps = model.block_temperatures(powers)
        assert model.peak_temperature(powers) == pytest.approx(max(temps.values()))

    def test_average_is_mean_of_blocks(self, model):
        powers = {"pe1": 6.0}
        temps = model.block_temperatures(powers)
        expected = sum(temps.values()) / len(temps)
        assert model.average_temperature(powers) == pytest.approx(expected)

    def test_query_count_tracks_solves(self, model):
        before = model.query_count
        model.block_temperatures({"pe0": 1.0})
        model.peak_temperature({"pe0": 1.0})
        assert model.query_count == before + 2

    def test_zero_power_gives_ambient(self, model):
        temps = model.block_temperatures({})
        for value in temps.values():
            assert value == pytest.approx(model.package.ambient_c)

    def test_balanced_cooler_than_concentrated(self, model):
        """Core paper premise: same total power, spread = cooler peak."""
        concentrated = model.peak_temperature({"pe1": 12.0})
        balanced = model.peak_temperature({pe: 3.0 for pe in model.block_names})
        assert balanced < concentrated


class TestNonFinitePower:
    """NaN and inf are refused where the power vector is assembled, naming
    the block, before any solve."""

    QUERIES = {
        "block_temperatures": lambda model, powers: model.block_temperatures(powers),
        "temperatures": lambda model, powers: model.temperatures(powers),
        "peak_temperature": lambda model, powers: model.peak_temperature(powers),
        "transient": lambda model, powers: model.transient([(1.0, powers)], dt=0.5),
    }

    @pytest.mark.parametrize("value", [math.nan, math.inf, np.float64("nan")])
    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_rejected_with_thermal_error(self, model, query, value):
        with pytest.raises(ThermalError, match="non-finite power on node 'pe1'"):
            self.QUERIES[query](model, {"pe0": 1.0, "pe1": value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejected_by_the_query_engine_too(self, model, value):
        with pytest.raises(ThermalError, match="non-finite power on node 'pe1'"):
            model.block_power_vector({"pe1": value})

    def test_negative_infinity_is_a_negative_power(self, model):
        with pytest.raises(ThermalError, match="negative power on node 'pe0'"):
            model.block_temperatures({"pe0": -math.inf})


class TestTransientQueries:
    def test_transient_runs_on_schedule_like_segments(self, model):
        segments = [
            (5.0, {"pe0": 10.0}),
            (5.0, {"pe1": 10.0}),
            (5.0, {}),
        ]
        result = model.transient(segments, dt=1.0)
        assert result.times[-1] == pytest.approx(15.0)

    def test_transient_peak_below_steady_peak(self, model):
        """A short burst cannot exceed the steady state of the same power."""
        steady_peak = model.peak_temperature({"pe0": 10.0})
        burst_peak = model.transient_peak([(1.0, {"pe0": 10.0})], dt=0.1)
        assert burst_peak <= steady_peak + 1e-6

    def test_transient_rejects_unknown_block(self, model):
        with pytest.raises(ThermalError):
            model.transient([(1.0, {"ghost": 1.0})], dt=0.1)

    def test_long_transient_approaches_steady(self, model):
        powers = {"pe0": 6.0, "pe3": 6.0}
        steady = model.block_temperatures(powers)
        result = model.transient([(3000.0, powers)], dt=10.0)
        final = result.final()
        for name in model.block_names:
            assert final[name] == pytest.approx(steady[name], abs=0.5)


class TestFork:
    """A fork shares the built state and nothing that counts queries."""

    POWERS = {"pe0": 7.5, "pe2": 2.25}

    def test_shares_network_factor_and_engine(self, model):
        fork = model.fork()
        assert fork.network is model.network
        assert fork._solver._factor is model._solver._factor
        engine = model.query_engine()
        assert fork.query_engine().response is engine.response
        assert fork.query_engine().avg_sensitivity is engine.avg_sensitivity
        # the engine is built once, by the first fork, for every later one
        assert model.fork().query_engine().response is engine.response

    def test_counters_start_fresh(self, model):
        model.peak_temperature(self.POWERS)
        model.block_temperatures_many(np.ones((3, len(model.block_names))))
        fork = model.fork()
        assert fork.query_count == 0
        stats = fork.query_stats
        assert stats["queries"] == stats["solver_solves"] == 0
        assert stats["engine_fast_queries"] == 0
        assert stats["engine_built"] == 1
        before = model.query_stats
        fork.block_temperatures(self.POWERS)
        fork.block_temperatures_many(np.ones((2, len(fork.block_names))))
        assert fork.query_count == 3
        assert model.query_stats == before

    def test_answers_equal_a_fresh_model_bit_for_bit(self, model, platform_plan):
        fork = model.fork()
        fresh = HotSpotModel(platform_plan)
        assert fork.block_temperatures(self.POWERS) == fresh.block_temperatures(
            self.POWERS
        )
        assert fork.peak_temperature(self.POWERS) == fresh.peak_temperature(
            self.POWERS
        )
        assert fork.average_temperature(self.POWERS) == fresh.average_temperature(
            self.POWERS
        )
        powers = np.arange(2 * len(fork.block_names), dtype=float).reshape(2, -1)
        assert np.array_equal(
            fork.block_temperatures_many(powers),
            fresh.block_temperatures_many(powers),
        )
        base = fork.block_power_vector(self.POWERS)
        assert fork.average_temperature_delta(
            base, "pe1", 4.0
        ) == fresh.average_temperature_delta(base, "pe1", 4.0)

    def test_answers_for_the_floorplan_it_is_given(self, model, platform_plan):
        copy = Floorplan(platform_plan)
        fork = model.fork(copy)
        assert fork.floorplan is copy
        assert model.fork().floorplan is model.floorplan

    def test_refuses_a_floorplan_with_other_block_names(self, model, platform_plan):
        renamed = Floorplan()
        for block in platform_plan:
            name = "ghost" if block.name == "pe3" else block.name
            rect = block.rect
            renamed.place(name, rect.x, rect.y, rect.w, rect.h)
        reordered = Floorplan(reversed(list(platform_plan)))
        for plan in (renamed, reordered):
            with pytest.raises(ThermalError, match="do not match model blocks"):
                model.fork(plan)
