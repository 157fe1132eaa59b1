"""Tests for HotSpot-in-the-loop scheduler construction and the CLI.

The platform flow (Figure 1b) attaches a :class:`HotSpotModel` of the
fixed floorplan to the :class:`ListScheduler`; these tests pin that
composition directly.
"""

import subprocess
import sys

import pytest

from repro.core.heuristics import BaselinePolicy, ThermalPolicy
from repro.core.scheduler import ListScheduler
from repro.errors import ThermalError
from repro.floorplan.geometry import Floorplan
from repro.floorplan.platform import platform_floorplan
from repro.thermal.hotspot import HotSpotModel


class TestHotspotFor:
    def test_default_floorplan_is_platform_layout(self, platform4):
        model = HotSpotModel(platform_floorplan(platform4))
        reference = platform_floorplan(platform4)
        assert model.block_names == reference.block_names()

    def test_explicit_floorplan_used(self, platform4):
        plan = Floorplan()
        x = 0.0
        for pe in platform4:
            plan.place(pe.name, x, 0.0, 7.0, 7.0)  # custom oversized blocks
            x += 7.0
        model = HotSpotModel(plan)
        assert model.floorplan is plan
        assert model.block_names == [pe.name for pe in platform4]

    def test_missing_pe_block_rejected(self, bm1, bm1_library, platform4):
        plan = Floorplan()
        plan.place("pe0", 0, 0, 6, 6)  # only one of four PEs
        scheduler = ListScheduler(
            bm1, platform4, bm1_library, thermal=HotSpotModel(plan)
        )
        with pytest.raises(ThermalError, match="unknown block"):
            scheduler.run(ThermalPolicy())

    def test_custom_package(self, platform4):
        from repro.thermal.package import PackageConfig

        package = PackageConfig(convection_resistance=4.0)
        plan = platform_floorplan(platform4)
        hot = HotSpotModel(plan, package).peak_temperature({"pe0": 10.0})
        default_hot = HotSpotModel(plan).peak_temperature({"pe0": 10.0})
        assert hot > default_hot  # worse cooling = hotter


class TestThermalScheduler:
    def test_runs_all_policy_kinds(self, bm1, bm1_library, platform4):
        model = HotSpotModel(platform_floorplan(platform4))
        scheduler = ListScheduler(bm1, platform4, bm1_library, thermal=model)
        for policy in (BaselinePolicy(), ThermalPolicy()):
            schedule = scheduler.run(policy)
            schedule.validate(bm1_library)

    def test_scheduler_reusable_across_policies(self, bm1, bm1_library, platform4):
        model = HotSpotModel(platform_floorplan(platform4))
        scheduler = ListScheduler(bm1, platform4, bm1_library, thermal=model)
        first = scheduler.run(ThermalPolicy())
        second = scheduler.run(ThermalPolicy())
        assert [(a.task, a.pe) for a in first.assignments()] == [
            (a.task, a.pe) for a in second.assignments()
        ]


class TestCLI:
    def test_module_entry_point_runs_one_experiment(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "table3"],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert completed.returncode == 0
        assert "Table 3" in completed.stdout
        assert "thermal_aware" in completed.stdout

    def test_runner_rejects_unknown_experiment(self):
        from repro.errors import ExperimentError
        from repro.experiments.runner import run_experiment

        with pytest.raises(ExperimentError):
            run_experiment("nonexistent")

    def test_runner_main_returns_zero(self, capsys):
        from repro.experiments.runner import main

        assert main(["table3"]) == 0
        captured = capsys.readouterr()
        assert "Table 3" in captured.out
