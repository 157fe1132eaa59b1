"""Tests for the DVFS slack-reclamation extension."""

import pytest

from repro.core.heuristics import BaselinePolicy
from repro.core.scheduler import ListScheduler
from repro.errors import SchedulingError
from repro.extensions.dvfs import (
    DEFAULT_LEVELS,
    DVFSLevel,
    reclaim_slack,
    retime_schedule,
)
from repro.library.presets import default_platform


@pytest.fixture
def bm1_schedule(bm1, bm1_library):
    return ListScheduler(bm1, default_platform(), bm1_library).run(BaselinePolicy())


class TestDVFSLevel:
    def test_scales(self):
        level = DVFSLevel("half", frequency=0.5, voltage=0.6)
        assert level.time_scale == pytest.approx(2.0)
        assert level.power_scale == pytest.approx(0.5 * 0.36)
        assert level.energy_scale == pytest.approx(0.36)

    def test_nominal_scales_are_identity(self):
        nominal = DEFAULT_LEVELS[0]
        assert nominal.time_scale == 1.0
        assert nominal.power_scale == 1.0

    @pytest.mark.parametrize("freq,volt", [(0.0, 1.0), (1.5, 1.0), (1.0, 0.0), (1.0, 1.2)])
    def test_invalid_points_rejected(self, freq, volt):
        with pytest.raises(SchedulingError):
            DVFSLevel("bad", frequency=freq, voltage=volt)

    def test_default_ladder_ordered(self):
        times = [lvl.time_scale for lvl in DEFAULT_LEVELS]
        energies = [lvl.energy_scale for lvl in DEFAULT_LEVELS]
        assert times == sorted(times)
        assert energies == sorted(energies, reverse=True)


class TestRetime:
    def test_identity_retiming_preserves_times(self, bm1_schedule):
        durations = {a.task: a.duration for a in bm1_schedule}
        powers = {a.task: a.power for a in bm1_schedule}
        retimed = retime_schedule(bm1_schedule, durations, powers)
        assert retimed.makespan == pytest.approx(bm1_schedule.makespan)
        for assignment in bm1_schedule:
            other = retimed.assignment(assignment.task)
            assert other.pe == assignment.pe
            # identity retiming left-compacts, so starts can only move earlier
            assert other.start <= assignment.start + 1e-9

    def test_retimed_schedule_is_valid(self, bm1_schedule, bm1):
        durations = {a.task: a.duration * 1.1 for a in bm1_schedule}
        powers = {a.task: a.power for a in bm1_schedule}
        retimed = retime_schedule(bm1_schedule, durations, powers)
        retimed.validate()  # precedence + exclusivity still hold
        assert len(retimed) == bm1.num_tasks

    def test_longer_durations_longer_makespan(self, bm1_schedule):
        durations = {a.task: a.duration * 1.5 for a in bm1_schedule}
        powers = {a.task: a.power for a in bm1_schedule}
        retimed = retime_schedule(bm1_schedule, durations, powers)
        assert retimed.makespan > bm1_schedule.makespan


class TestReclaimSlack:
    def test_deadline_still_met(self, bm1_schedule):
        result = reclaim_slack(bm1_schedule)
        assert result.schedule.makespan <= bm1_schedule.graph.deadline + 1e-9
        result.schedule.validate()

    def test_energy_never_increases(self, bm1_schedule):
        result = reclaim_slack(bm1_schedule)
        assert result.energy_after <= result.energy_before + 1e-9

    def test_slack_is_actually_used(self, bm1_schedule):
        """Bm1 baseline has >100 units of slack: some task must slow down."""
        result = reclaim_slack(bm1_schedule)
        assert result.lowered_tasks > 0
        assert result.energy_saving_fraction > 0.01

    def test_levels_recorded_per_task(self, bm1_schedule, bm1):
        result = reclaim_slack(bm1_schedule)
        assert set(result.levels) == set(bm1.task_names())

    def test_no_slack_means_no_lowering(self, bm1_schedule):
        result = reclaim_slack(bm1_schedule, deadline=bm1_schedule.makespan)
        # compaction during retiming may create tiny slack, but with a
        # deadline equal to the makespan nothing substantial can slow down
        assert result.energy_saving_fraction < 0.25

    def test_deterministic(self, bm1_schedule):
        a = reclaim_slack(bm1_schedule)
        b = reclaim_slack(bm1_schedule)
        assert a.energy_after == pytest.approx(b.energy_after)
        assert {t: l.name for t, l in a.levels.items()} == {
            t: l.name for t, l in b.levels.items()
        }

    def test_reduces_temperature(self, bm1_schedule):
        """DVFS on top of the ASP lowers steady-state temperatures."""
        from repro.analysis.metrics import evaluate_schedule
        from repro.floorplan.platform import platform_floorplan

        plan = platform_floorplan(bm1_schedule.architecture)
        before = evaluate_schedule(bm1_schedule, floorplan=plan)
        result = reclaim_slack(bm1_schedule)
        after = evaluate_schedule(result.schedule, floorplan=plan)
        assert after.avg_temperature < before.avg_temperature

    def test_empty_levels_rejected(self, bm1_schedule):
        with pytest.raises(SchedulingError):
            reclaim_slack(bm1_schedule, levels=[])

    def test_first_level_must_be_nominal(self, bm1_schedule):
        with pytest.raises(SchedulingError):
            reclaim_slack(
                bm1_schedule,
                levels=[DVFSLevel("slow", frequency=0.5, voltage=0.7)],
            )

    def test_policy_name_tagged(self, bm1_schedule):
        result = reclaim_slack(bm1_schedule)
        assert result.schedule.policy_name.endswith("+dvfs")
