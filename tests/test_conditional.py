"""Tests for conditional task graphs and their scheduling."""

import pytest

from repro.core.conditional import schedule_conditional
from repro.core.heuristics import TaskEnergyPolicy, ThermalPolicy
from repro.errors import SchedulingError, TaskGraphError
from repro.floorplan.platform import platform_floorplan
from repro.library.presets import default_platform, generate_technology_library
from repro.taskgraph.conditional import Condition, ConditionalTaskGraph


def build_branchy_ctg():
    """src -> branch --[m=hi]--> heavy -> join
                     \\-[m=lo]--> light -> join ; src -> always -> join"""
    ctg = ConditionalTaskGraph("branchy", deadline=600.0)
    ctg.add("src", "type0")
    ctg.add("branch", "type1")
    ctg.add("heavy", "type2", weight=2.0)
    ctg.add("light", "type2", weight=0.5)
    ctg.add("always", "type1")
    ctg.add("join", "type0")
    ctg.add_edge("src", "branch")
    ctg.add_edge("branch", "heavy", condition=Condition("m", "hi"))
    ctg.add_edge("branch", "light", condition=Condition("m", "lo"))
    ctg.add_edge("heavy", "join", data=2.0)
    ctg.add_edge("light", "join", data=2.0)
    ctg.add_edge("src", "always")
    ctg.add_edge("always", "join")
    ctg.declare_guard("m", {"hi": 0.3, "lo": 0.7})
    return ctg


def library_for(ctg):
    types = sorted({t.task_type for t in ctg.tasks()})
    return generate_technology_library(types, seed=42)


class TestStructure:
    def test_validate_passes(self):
        build_branchy_ctg().validate()

    def test_undeclared_guard_rejected(self):
        ctg = ConditionalTaskGraph("g", 100.0)
        ctg.add("a", "t")
        ctg.add("b", "t")
        ctg.add_edge("a", "b", condition=Condition("x", "yes"))
        with pytest.raises(TaskGraphError, match="undeclared"):
            ctg.validate()

    def test_unknown_outcome_rejected(self):
        ctg = ConditionalTaskGraph("g", 100.0)
        ctg.add("a", "t")
        ctg.add("b", "t")
        ctg.add_edge("a", "b", condition=Condition("x", "maybe"))
        ctg.declare_guard("x", {"yes": 0.5, "no": 0.5})
        with pytest.raises(TaskGraphError, match="maybe"):
            ctg.validate()

    def test_guard_split_across_tasks_rejected(self):
        ctg = ConditionalTaskGraph("g", 100.0)
        for name in "abcd":
            ctg.add(name, "t")
        ctg.add_edge("a", "c", condition=Condition("x", "yes"))
        ctg.add_edge("b", "d", condition=Condition("x", "no"))
        ctg.declare_guard("x", {"yes": 0.5, "no": 0.5})
        with pytest.raises(TaskGraphError, match="one branch task"):
            ctg.validate()

    def test_probabilities_must_sum_to_one(self):
        ctg = ConditionalTaskGraph("g", 100.0)
        with pytest.raises(TaskGraphError):
            ctg.declare_guard("x", {"yes": 0.5, "no": 0.6})

    def test_duplicate_guard_rejected(self):
        ctg = ConditionalTaskGraph("g", 100.0)
        ctg.declare_guard("x", {"yes": 1.0})
        with pytest.raises(TaskGraphError):
            ctg.declare_guard("x", {"no": 1.0})


class TestScenarios:
    def test_two_scenarios_with_probabilities(self):
        scenarios = build_branchy_ctg().scenarios()
        assert len(scenarios) == 2
        assert sum(s.probability for s in scenarios) == pytest.approx(1.0)
        labels = {s.label for s in scenarios}
        assert labels == {"m=hi", "m=lo"}

    def test_scenario_subgraphs_drop_untaken_branch(self):
        scenarios = {s.label: s for s in build_branchy_ctg().scenarios()}
        hi = scenarios["m=hi"].graph
        lo = scenarios["m=lo"].graph
        assert "heavy" in hi and "light" not in hi
        assert "light" in lo and "heavy" not in lo
        # the unconditional spine survives in both
        for graph in (hi, lo):
            for name in ("src", "branch", "always", "join"):
                assert name in graph

    def test_no_guards_single_scenario(self):
        ctg = ConditionalTaskGraph("plain", 100.0)
        ctg.add("a", "t")
        ctg.add("b", "t")
        ctg.add_edge("a", "b")
        scenarios = ctg.scenarios()
        assert len(scenarios) == 1
        assert scenarios[0].probability == 1.0
        assert scenarios[0].label == "(unconditional)"

    def test_two_guards_four_scenarios(self):
        ctg = ConditionalTaskGraph("g2", 400.0)
        for name in ("s", "b1", "b2", "x", "y", "p", "q", "j"):
            ctg.add(name, "t")
        ctg.add_edge("s", "b1")
        ctg.add_edge("s", "b2")
        ctg.add_edge("b1", "x", condition=Condition("g1", "a"))
        ctg.add_edge("b1", "y", condition=Condition("g1", "b"))
        ctg.add_edge("b2", "p", condition=Condition("g2", "a"))
        ctg.add_edge("b2", "q", condition=Condition("g2", "b"))
        for mid in ("x", "y", "p", "q"):
            ctg.add_edge(mid, "j")
        ctg.declare_guard("g1", {"a": 0.5, "b": 0.5})
        ctg.declare_guard("g2", {"a": 0.25, "b": 0.75})
        scenarios = ctg.scenarios()
        assert len(scenarios) == 4
        probabilities = sorted(s.probability for s in scenarios)
        assert probabilities == [0.125, 0.125, 0.375, 0.375]

    def test_worst_case_graph_contains_everything(self):
        union = build_branchy_ctg().worst_case_graph()
        assert union.num_tasks == 6
        assert union.has_edge("branch", "heavy")
        assert union.has_edge("branch", "light")


class TestConditionalScheduling:
    @pytest.fixture
    def setup(self):
        ctg = build_branchy_ctg()
        return ctg, default_platform(), library_for(ctg)

    def test_aggregation(self, setup):
        ctg, platform, library = setup
        plan = platform_floorplan(platform)
        result = schedule_conditional(
            ctg, platform, library, TaskEnergyPolicy(), floorplan=plan
        )
        assert len(result.results) == 2
        assert result.meets_deadline
        makespans = [r.schedule.makespan for r in result.results]
        assert result.worst_makespan == pytest.approx(max(makespans))

    def test_expected_metrics_are_weighted(self, setup):
        ctg, platform, library = setup
        plan = platform_floorplan(platform)
        result = schedule_conditional(
            ctg, platform, library, TaskEnergyPolicy(), floorplan=plan
        )
        expected = sum(
            r.scenario.probability * r.evaluation.total_power
            for r in result.results
        )
        assert result.expected_total_power == pytest.approx(expected)

    def test_heavy_branch_is_worst_case(self, setup):
        ctg, platform, library = setup
        plan = platform_floorplan(platform)
        result = schedule_conditional(
            ctg, platform, library, TaskEnergyPolicy(), floorplan=plan
        )
        assert result.worst_scenario == "m=hi"  # weight-2 branch dominates

    def test_thermal_policy_works_per_scenario(self, setup):
        ctg, platform, library = setup
        plan = platform_floorplan(platform)
        result = schedule_conditional(
            ctg, platform, library, ThermalPolicy(), floorplan=plan
        )
        for scenario_result in result.results:
            scenario_result.schedule.validate(library)

    def test_model_source_exclusive(self, setup):
        ctg, platform, library = setup
        with pytest.raises(SchedulingError):
            schedule_conditional(ctg, platform, library, TaskEnergyPolicy())

    def test_union_bound_at_least_worst_scenario(self, setup):
        """The classic all-branches bound dominates every scenario."""
        from repro.core.scheduler import ListScheduler

        ctg, platform, library = setup
        plan = platform_floorplan(platform)
        conditional = schedule_conditional(
            ctg, platform, library, TaskEnergyPolicy(), floorplan=plan
        )
        union = ListScheduler(ctg.worst_case_graph(), platform, library).run(
            TaskEnergyPolicy()
        )
        assert union.makespan >= conditional.worst_makespan - 1e-9

    def test_as_row(self, setup):
        ctg, platform, library = setup
        plan = platform_floorplan(platform)
        result = schedule_conditional(
            ctg, platform, library, TaskEnergyPolicy(), floorplan=plan
        )
        row = result.as_row()
        assert row["scenarios"] == 2
        assert row["meets_deadline"] is True
