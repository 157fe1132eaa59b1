"""Tests for co-synthesis cost functions."""

import pytest

from repro.analysis.metrics import ScheduleEvaluation
from repro.cosynth.cost import (
    FinalCost,
    ScreeningCost,
    performance_final_cost,
    performance_screening_cost,
    power_final_cost,
    screening_cost,
    thermal_final_cost,
)
from repro.errors import CoSynthesisError


def make_eval(max_temp=100.0, avg_temp=90.0, power=20.0, makespan=500.0,
              deadline=800.0):
    return ScheduleEvaluation(
        benchmark="bm",
        architecture="arch",
        policy="p",
        total_power=power,
        max_temperature=max_temp,
        avg_temperature=avg_temp,
        makespan=makespan,
        deadline=deadline,
        load_balance=1.0,
        pe_temperatures={},
        pe_powers={},
    )


class TestFinalCost:
    def test_thermal_cost_sums_temperatures(self):
        cost = thermal_final_cost()(make_eval(max_temp=100.0, avg_temp=90.0))
        assert cost == pytest.approx(190.0)

    def test_power_cost_uses_power_only(self):
        cost = power_final_cost()(make_eval(power=20.0))
        assert cost == pytest.approx(20.0)

    def test_performance_cost_zero_when_feasible(self):
        assert performance_final_cost()(make_eval()) == 0.0

    def test_deadline_miss_dominates(self):
        feasible = thermal_final_cost()(make_eval())
        missed = thermal_final_cost()(make_eval(makespan=900.0, deadline=800.0))
        assert missed > feasible + 1e5

    def test_weight_mixing(self):
        cost = FinalCost(max_temp_weight=2.0, avg_temp_weight=0.0, power_weight=1.0)
        assert cost(make_eval()) == pytest.approx(2.0 * 100.0 + 20.0)

    @pytest.mark.parametrize(
        "weights",
        [{"max_temp_weight": -1}, {"avg_temp_weight": -0.5}, {"power_weight": -2.0}],
    )
    def test_negative_weight_rejected_at_construction(self, weights):
        with pytest.raises(CoSynthesisError):
            FinalCost(**weights)


class TestScreeningCost:
    def test_feasible_cheaper_than_infeasible(self, bm1, bm1_library):
        from repro.core.scheduler import ListScheduler
        from repro.library.presets import default_platform

        platform = default_platform()
        schedule = ListScheduler(bm1, platform, bm1_library).run()
        assert schedule.meets_deadline
        feasible_cost = screening_cost()(schedule)

        tight = bm1.with_deadline(schedule.makespan / 2.0)
        tight_schedule = ListScheduler(tight, platform, bm1_library).run()
        assert not tight_schedule.meets_deadline
        assert screening_cost()(tight_schedule) > feasible_cost + 1e5

    def test_energy_ranks_feasible_allocations(self, bm1, bm1_library):
        from repro.core.scheduler import ListScheduler
        from repro.library.presets import default_platform

        schedule = ListScheduler(bm1, default_platform(), bm1_library).run()
        base = ScreeningCost(energy_weight=1.0, monetary_weight=0.0)(schedule)
        assert base == pytest.approx(schedule.total_energy)

    def test_performance_screening_ignores_energy(self, bm1, bm1_library):
        from repro.core.scheduler import ListScheduler
        from repro.library.presets import default_platform

        platform = default_platform()
        schedule = ListScheduler(bm1, platform, bm1_library).run()
        cost = performance_screening_cost()(schedule)
        assert cost == pytest.approx(0.1 * 0.0 + 1.0 * platform.total_cost)


class TestWeightValidation:
    """Negative and non-finite weights are refused by name: a NaN weight
    makes every cost NaN, and ranking by ``(cost, rank)`` then keeps
    whichever candidate came first."""

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["energy_weight", "monetary_weight"])
    def test_screening_cost(self, field, value):
        with pytest.raises(CoSynthesisError) as excinfo:
            ScreeningCost(**{field: value})
        assert str(excinfo.value) == (
            f"ScreeningCost.{field} must be finite and >= 0, got {value}"
        )

    @pytest.mark.parametrize("value", [-2.0, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["max_temp_weight", "avg_temp_weight", "power_weight"]
    )
    def test_final_cost(self, field, value):
        with pytest.raises(CoSynthesisError) as excinfo:
            FinalCost(**{field: value})
        assert str(excinfo.value) == (
            f"FinalCost.{field} must be finite and >= 0, got {value}"
        )

    def test_zero_weights_are_accepted(self):
        assert ScreeningCost(energy_weight=0.0, monetary_weight=0.0).energy_weight == 0.0
        assert FinalCost(0.0, 0.0, 0.0)(make_eval()) == 0.0
