"""Tests for the ASP list scheduler."""

import pytest

from repro.core.heuristics import (
    BaselinePolicy,
    CumulativePowerPolicy,
    TaskEnergyPolicy,
    TaskPowerPolicy,
    ThermalPolicy,
)
from repro.core.scheduler import ListScheduler
from repro.errors import (
    DeadlineMissError,
    InfeasibleAllocationError,
    UnknownTaskTypeError,
)
from repro.floorplan.platform import platform_floorplan
from repro.library.pe import Architecture, PEType
from repro.library.presets import default_platform
from repro.library.technology import TechnologyLibrary
from repro.taskgraph.graph import TaskGraph
from repro.thermal.hotspot import HotSpotModel


@pytest.fixture
def two_pe_arch():
    arch = Architecture("duo")
    arch.add_instance(PEType("fast", 6.0, 6.0))
    arch.add_instance(PEType("slow", 5.0, 5.0))
    return arch


@pytest.fixture
def simple_lib():
    library = TechnologyLibrary()
    library.add_entry("t0", "fast", wcet=10.0, wcpc=8.0)
    library.add_entry("t0", "slow", wcet=20.0, wcpc=3.0)
    library.add_entry("t1", "fast", wcet=15.0, wcpc=10.0)
    library.add_entry("t1", "slow", wcet=30.0, wcpc=4.0)
    return library


def fan_graph(width=4, deadline=400.0):
    graph = TaskGraph("fan", deadline)
    graph.add("src", "t0")
    for index in range(width):
        graph.add(f"w{index}", "t1")
        graph.add_edge("src", f"w{index}")
    return graph


class TestBasicCorrectness:
    def test_schedule_is_complete_and_valid(self, two_pe_arch, simple_lib):
        graph = fan_graph()
        schedule = ListScheduler(graph, two_pe_arch, simple_lib).run()
        assert len(schedule) == graph.num_tasks
        schedule.validate(simple_lib)

    def test_policy_name_recorded(self, two_pe_arch, simple_lib):
        schedule = ListScheduler(fan_graph(), two_pe_arch, simple_lib).run(
            TaskEnergyPolicy()
        )
        assert schedule.policy_name == "heuristic3"

    def test_chain_is_serial(self, simple_lib, two_pe_arch):
        graph = TaskGraph("chain", 500.0)
        graph.add("a", "t0")
        graph.add("b", "t0")
        graph.add_edge("a", "b")
        schedule = ListScheduler(graph, two_pe_arch, simple_lib).run()
        a, b = schedule.assignment("a"), schedule.assignment("b")
        assert b.start >= a.end

    def test_baseline_prefers_fast_pe_for_critical_path(
        self, two_pe_arch, simple_lib
    ):
        # a single task: DC = SC - wcet - start; the fast PE wins
        graph = TaskGraph("one", 100.0)
        graph.add("only", "t0")
        schedule = ListScheduler(graph, two_pe_arch, simple_lib).run()
        assert schedule.assignment("only").pe == "pe0"

    def test_parallel_tasks_use_both_pes(self, two_pe_arch, simple_lib):
        schedule = ListScheduler(fan_graph(width=4), two_pe_arch, simple_lib).run()
        used = {a.pe for a in schedule}
        assert used == {"pe0", "pe1"}

    def test_deterministic(self, two_pe_arch, simple_lib):
        a = ListScheduler(fan_graph(), two_pe_arch, simple_lib).run()
        b = ListScheduler(fan_graph(), two_pe_arch, simple_lib).run()
        assert [(x.task, x.pe, x.start) for x in a.assignments()] == [
            (x.task, x.pe, x.start) for x in b.assignments()
        ]

    def test_durations_and_powers_match_library(self, two_pe_arch, simple_lib):
        schedule = ListScheduler(fan_graph(), two_pe_arch, simple_lib).run()
        for assignment in schedule:
            pe = two_pe_arch.pe(assignment.pe)
            task_type = "t0" if assignment.task == "src" else "t1"
            assert assignment.duration == pytest.approx(
                simple_lib.wcet(task_type, pe)
            )
            assert assignment.power == pytest.approx(
                simple_lib.power(task_type, pe)
            )


class TestFeasibilityChecks:
    def test_uncovered_task_type_raises_at_build(self, two_pe_arch):
        library = TechnologyLibrary()
        library.add_entry("t0", "fast", 10.0, 5.0)
        graph = TaskGraph("g", 100.0)
        graph.add("a", "orphan-type")
        with pytest.raises(UnknownTaskTypeError):
            ListScheduler(graph, two_pe_arch, library)

    def test_deadline_check_raises(self, two_pe_arch, simple_lib):
        graph = fan_graph(width=6, deadline=20.0)  # impossible deadline
        scheduler = ListScheduler(graph, two_pe_arch, simple_lib)
        with pytest.raises(DeadlineMissError) as excinfo:
            scheduler.run(check_deadline=True)
        assert excinfo.value.makespan > excinfo.value.deadline

    def test_deadline_not_checked_by_default(self, two_pe_arch, simple_lib):
        graph = fan_graph(width=6, deadline=20.0)
        schedule = ListScheduler(graph, two_pe_arch, simple_lib).run()
        assert not schedule.meets_deadline

    def test_thermal_policy_without_model_raises(self, two_pe_arch, simple_lib):
        scheduler = ListScheduler(fan_graph(), two_pe_arch, simple_lib)
        with pytest.raises(InfeasibleAllocationError):
            scheduler.run(ThermalPolicy())


class TestHeterogeneousChoices:
    def test_h1_prefers_low_power_pe(self, two_pe_arch, simple_lib):
        # one task, huge weight: slow PE draws 3 W vs fast 8 W
        graph = TaskGraph("one", 1000.0)
        graph.add("only", "t0")
        schedule = ListScheduler(graph, two_pe_arch, simple_lib).run(
            TaskPowerPolicy(weight=100.0)
        )
        assert schedule.assignment("only").pe == "pe1"

    def test_h3_prefers_low_energy_pe(self, two_pe_arch, simple_lib):
        # t0: fast = 10*8 = 80 J, slow = 20*3 = 60 J
        graph = TaskGraph("one", 1000.0)
        graph.add("only", "t0")
        schedule = ListScheduler(graph, two_pe_arch, simple_lib).run(
            TaskEnergyPolicy(weight=10.0)
        )
        assert schedule.assignment("only").pe == "pe1"

    def test_h2_balances_energy_across_pes(self, two_pe_arch, simple_lib):
        schedule = ListScheduler(fan_graph(width=6), two_pe_arch, simple_lib).run(
            CumulativePowerPolicy(weight=50.0)
        )
        counts = schedule.pe_task_counts()
        assert counts["pe1"] >= 2  # the slow PE gets meaningful work


class TestThermalScheduling:
    def test_thermal_scheduler_runs_thermal_policy(self, bm1, bm1_library):
        platform = default_platform()
        scheduler = ListScheduler(
            bm1, platform, bm1_library,
            thermal=HotSpotModel(platform_floorplan(platform)),
        )
        schedule = scheduler.run(ThermalPolicy())
        schedule.validate(bm1_library)
        assert schedule.policy_name == "thermal"

    def test_thermal_beats_baseline_on_avg_temperature(self, bm1, bm1_library):
        """The paper's core claim on the platform architecture."""
        from repro.analysis.metrics import evaluate_schedule

        platform = default_platform()
        plan = platform_floorplan(platform)
        scheduler = ListScheduler(
            bm1, platform, bm1_library, thermal=HotSpotModel(plan)
        )
        baseline = scheduler.run(BaselinePolicy())
        thermal = scheduler.run(ThermalPolicy())
        eval_base = evaluate_schedule(baseline, floorplan=plan)
        eval_thermal = evaluate_schedule(thermal, floorplan=plan)
        assert eval_thermal.avg_temperature < eval_base.avg_temperature
        assert eval_thermal.meets_deadline

    def test_benchmarks_meet_deadlines_on_platform(
        self, bm1, bm1_library, bm2, bm2_library
    ):
        platform = default_platform()
        for graph, library in ((bm1, bm1_library), (bm2, bm2_library)):
            for policy in (BaselinePolicy(), TaskEnergyPolicy()):
                schedule = ListScheduler(graph, platform, library).run(policy)
                assert schedule.meets_deadline
                schedule.validate(library)
