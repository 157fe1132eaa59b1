"""Tests for text rendering of schedules and floorplans."""

import pytest

from repro.analysis.gantt import render_floorplan, render_gantt, render_utilisation
from repro.core.scheduler import ListScheduler
from repro.errors import ReproError
from repro.floorplan.geometry import Floorplan
from repro.library.presets import default_platform


@pytest.fixture
def schedule(bm1, bm1_library):
    return ListScheduler(bm1, default_platform(), bm1_library).run()


class TestGantt:
    def test_one_row_per_pe(self, schedule):
        lines = render_gantt(schedule).splitlines()
        pe_lines = [l for l in lines if "|" in l]
        assert len(pe_lines) == len(schedule.architecture)

    def test_mentions_makespan_and_deadline(self, schedule):
        text = render_gantt(schedule)
        assert f"{schedule.makespan:.1f}" in text
        assert "deadline" in text

    def test_task_names_appear(self, schedule):
        text = render_gantt(schedule, width=120)
        # at least some task labels should be embedded
        shown = sum(1 for t in schedule.graph.task_names() if t in text)
        assert shown >= 3

    def test_narrow_width_rejected(self, schedule):
        with pytest.raises(ReproError):
            render_gantt(schedule, width=4)


class TestFloorplanRender:
    def test_all_blocks_in_legend(self, platform_plan):
        text = render_floorplan(platform_plan)
        for name in platform_plan.block_names():
            assert name in text

    def test_die_size_mentioned(self, platform_plan):
        text = render_floorplan(platform_plan)
        assert "24.0 x 6.0 mm" in text

    def test_empty_plan(self):
        assert "(empty floorplan)" in render_floorplan(Floorplan())

    def test_bad_scale_rejected(self, platform_plan):
        with pytest.raises(ReproError):
            render_floorplan(platform_plan, scale_mm=0.0)


class TestUtilisation:
    def test_one_bar_per_pe(self, schedule):
        lines = render_utilisation(schedule).splitlines()
        assert len(lines) == len(schedule.architecture)
        assert all("W avg" in line for line in lines)

    def test_percentages_bounded(self, schedule):
        text = render_utilisation(schedule)
        for line in text.splitlines():
            percent = float(line.split("|")[2].split("%")[0])
            assert 0.0 <= percent <= 100.0

    def test_bad_width_rejected(self, schedule):
        with pytest.raises(ReproError):
            render_utilisation(schedule, width=2)
