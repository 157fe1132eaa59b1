"""Benchmark: conditional task graphs (the ref-[1] substrate).

Builds conditional variants of Bm1 by guarding its widest fan-out with a
two-outcome branch, schedules every scenario under heuristic 3 and the
thermal policy, and compares the scenario-aware worst case against the
classic all-branches (union) bound.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table
from repro.core.conditional import schedule_conditional
from repro.core.heuristics import TaskEnergyPolicy, ThermalPolicy
from repro.core.scheduler import ListScheduler
from repro.floorplan.platform import platform_floorplan
from repro.flow.spec import GraphSourceSpec, LibrarySpec
from repro.library.presets import default_platform
from repro.scenarios import build_workload
from repro.taskgraph.conditional import Condition, ConditionalTaskGraph
from repro.thermal.hotspot import HotSpotModel

from conftest import print_report


def conditionalise(graph, probability_hi=0.4):
    """Wrap *graph* in a CTG guarding its widest fan-out node's edges."""
    fan_out = max(graph.task_names(), key=graph.out_degree)
    successors = graph.successors(fan_out)
    ctg = ConditionalTaskGraph(graph.name + "-ctg", graph.deadline)
    for task in graph.tasks():
        ctg.add_task(task)
    split = len(successors) // 2
    guarded = {name: ("hi" if i < split else "lo")
               for i, name in enumerate(successors)}
    for edge in graph.edges():
        if edge.src == fan_out and edge.dst in guarded and len(successors) >= 2:
            ctg.add_edge(
                edge.src,
                edge.dst,
                edge.data,
                condition=Condition("path", guarded[edge.dst]),
            )
        else:
            ctg.add_edge(edge.src, edge.dst, edge.data)
    ctg.declare_guard("path", {"hi": probability_hi, "lo": 1.0 - probability_hi})
    ctg.validate()
    return ctg


@pytest.fixture(scope="module")
def conditional_rows():
    rows = []
    platform = default_platform()
    plan = platform_floorplan(platform)
    graph, library = build_workload(
        GraphSourceSpec(kind="benchmark", name="Bm1"), LibrarySpec()
    )
    ctg = conditionalise(graph)
    union_graph = ctg.worst_case_graph()
    model = HotSpotModel(plan)
    for policy in (TaskEnergyPolicy(), ThermalPolicy()):
        result = schedule_conditional(
            ctg, platform, library, policy, hotspot=model
        )
        union = ListScheduler(
            union_graph, platform, library, thermal=model
        ).run(policy)
        rows.append(
            {
                "policy": policy.name,
                "scenarios": len(result.results),
                "worst_makespan": round(result.worst_makespan, 1),
                "union_makespan": round(union.makespan, 1),
                "exp_max_temp": round(result.expected_max_temperature, 2),
                "exp_avg_temp": round(result.expected_avg_temperature, 2),
                "meets_deadline": result.meets_deadline,
            }
        )
    print_report(
        "Conditional task graphs — scenario-aware vs union bound (Bm1)",
        format_table(rows),
    )
    return rows


def test_all_scenarios_meet_deadline(conditional_rows):
    assert all(r["meets_deadline"] for r in conditional_rows)


def test_union_bound_dominates_worst_scenario(conditional_rows):
    for row in conditional_rows:
        assert row["union_makespan"] >= row["worst_makespan"] - 1e-9


def test_thermal_policy_cooler_in_expectation(conditional_rows):
    by_policy = {r["policy"]: r for r in conditional_rows}
    assert (
        by_policy["thermal"]["exp_avg_temp"]
        <= by_policy["heuristic3"]["exp_avg_temp"] + 1e-9
    )


def test_benchmark_conditional(benchmark, conditional_rows):
    platform = default_platform()
    plan = platform_floorplan(platform)
    graph, library = build_workload(
        GraphSourceSpec(kind="benchmark", name="Bm1"), LibrarySpec()
    )
    ctg = conditionalise(graph)
    benchmark(
        schedule_conditional,
        ctg,
        platform,
        library,
        TaskEnergyPolicy(),
        floorplan=plan,
    )
