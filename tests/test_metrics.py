"""Tests for schedule evaluation metrics."""

import pytest

from repro.analysis.metrics import evaluate_schedule
from repro.core.scheduler import ListScheduler
from repro.errors import ReproError
from repro.floorplan.platform import platform_floorplan
from repro.library.presets import default_platform
from repro.thermal.hotspot import HotSpotModel


@pytest.fixture
def scheduled_bm1(bm1, bm1_library):
    platform = default_platform()
    schedule = ListScheduler(bm1, platform, bm1_library).run()
    plan = platform_floorplan(platform)
    return schedule, plan


class TestEvaluateSchedule:
    def test_requires_exactly_one_model_source(self, scheduled_bm1):
        schedule, plan = scheduled_bm1
        model = HotSpotModel(plan)
        with pytest.raises(ReproError):
            evaluate_schedule(schedule)
        with pytest.raises(ReproError):
            evaluate_schedule(schedule, floorplan=plan, hotspot=model)

    def test_floorplan_and_hotspot_paths_agree(self, scheduled_bm1):
        schedule, plan = scheduled_bm1
        by_plan = evaluate_schedule(schedule, floorplan=plan)
        by_model = evaluate_schedule(schedule, hotspot=HotSpotModel(plan))
        assert by_plan.max_temperature == pytest.approx(by_model.max_temperature)
        assert by_plan.avg_temperature == pytest.approx(by_model.avg_temperature)

    def test_fields_consistent(self, scheduled_bm1):
        schedule, plan = scheduled_bm1
        evaluation = evaluate_schedule(schedule, floorplan=plan)
        assert evaluation.benchmark == "Bm1"
        assert evaluation.policy == schedule.policy_name
        assert evaluation.makespan == pytest.approx(schedule.makespan)
        assert evaluation.total_power == pytest.approx(
            schedule.total_average_power
        )
        assert evaluation.max_temperature >= evaluation.avg_temperature
        assert evaluation.meets_deadline == schedule.meets_deadline
        assert evaluation.slack == pytest.approx(schedule.slack)

    def test_temperatures_above_ambient(self, scheduled_bm1):
        schedule, plan = scheduled_bm1
        evaluation = evaluate_schedule(schedule, floorplan=plan)
        from repro.units import AMBIENT_C

        assert evaluation.avg_temperature > AMBIENT_C

    def test_as_row_keys(self, scheduled_bm1):
        schedule, plan = scheduled_bm1
        row = evaluate_schedule(schedule, floorplan=plan).as_row()
        for key in ("benchmark", "policy", "total_pow", "max_temp", "avg_temp"):
            assert key in row

    def test_pe_to_block_mapping(self, scheduled_bm1, bm1):
        """Evaluation works when floorplan block names differ from PE names."""
        schedule, plan = scheduled_bm1
        from repro.floorplan.geometry import Block, Floorplan

        renamed = Floorplan(
            Block(f"blk_{b.name}", b.rect) for b in plan
        )
        mapping = {pe: f"blk_{pe}" for pe in plan.block_names()}
        direct = evaluate_schedule(schedule, floorplan=plan)
        mapped = evaluate_schedule(
            schedule, floorplan=renamed, pe_to_block=mapping
        )
        assert mapped.max_temperature == pytest.approx(direct.max_temperature)
        assert set(mapped.pe_temperatures) == set(direct.pe_temperatures)
