"""Property-based tests for the ASP scheduler.

Invariants: for any generated workload, any policy, and any architecture
from the catalogue, the produced schedule is complete, precedence-correct,
mutually exclusive per PE, and WCET/WCPC-faithful.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heuristics import (
    BaselinePolicy,
    CumulativePowerPolicy,
    TaskEnergyPolicy,
    TaskPowerPolicy,
    ThermalPolicy,
)
from repro.core.scheduler import ListScheduler
from repro.floorplan.platform import platform_floorplan
from repro.library.pe import Architecture
from repro.library.presets import default_catalogue, generate_technology_library
from repro.taskgraph.generator import GraphSpec, generate_task_graph
from repro.thermal.hotspot import HotSpotModel

CATALOGUE = default_catalogue()
POLICIES = [
    BaselinePolicy(),
    TaskPowerPolicy(),
    CumulativePowerPolicy(),
    TaskEnergyPolicy(),
]


@st.composite
def workloads(draw):
    num_tasks = draw(st.integers(min_value=2, max_value=25))
    extra = draw(st.integers(min_value=0, max_value=max(0, num_tasks // 3)))
    spec = GraphSpec(
        "prop",
        num_tasks,
        num_tasks - 1 + extra,
        deadline=float(num_tasks * 200),
        num_task_types=draw(st.integers(min_value=1, max_value=6)),
    )
    graph_seed = draw(st.integers(min_value=0, max_value=2**31))
    lib_seed = draw(st.integers(min_value=0, max_value=2**31))
    graph = generate_task_graph(spec, graph_seed)
    task_types = sorted({t.task_type for t in graph})
    library = generate_technology_library(task_types, seed=lib_seed)
    return graph, library


@st.composite
def architectures(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    # always include a general-purpose core so every workload is feasible
    arch = Architecture("prop-arch")
    arch.add_instance(CATALOGUE[0])
    for _ in range(count - 1):
        arch.add_instance(draw(st.sampled_from(CATALOGUE[:4])))  # GP types only
    return arch


@given(
    workload=workloads(),
    arch=architectures(),
    policy_index=st.integers(min_value=0, max_value=len(POLICIES) - 1),
)
@settings(max_examples=30, deadline=None)
def test_schedule_always_valid(workload, arch, policy_index):
    graph, library = workload
    scheduler = ListScheduler(graph, arch, library)
    schedule = scheduler.run(POLICIES[policy_index])
    schedule.validate(library)
    assert len(schedule) == graph.num_tasks


@given(workload=workloads(), arch=architectures())
@settings(max_examples=15, deadline=None)
def test_thermal_schedule_always_valid(workload, arch):
    graph, library = workload
    model = HotSpotModel(platform_floorplan(arch))
    scheduler = ListScheduler(graph, arch, library, thermal=model)
    schedule = scheduler.run(ThermalPolicy())
    schedule.validate(library)


@given(workload=workloads(), arch=architectures())
@settings(max_examples=20, deadline=None)
def test_makespan_at_least_critical_path_lower_bound(workload, arch):
    """Makespan can never beat the min-WCET critical path."""
    graph, library = workload
    scheduler = ListScheduler(graph, arch, library)
    schedule = scheduler.run()
    lower_bound = graph.critical_path_length(library.min_wcet)
    assert schedule.makespan >= lower_bound - 1e-9


@given(workload=workloads(), arch=architectures())
@settings(max_examples=20, deadline=None)
def test_single_pe_makespan_equals_serial_sum(workload, arch):
    """On one PE the makespan is exactly the sum of that PE's WCETs."""
    graph, library = workload
    solo = Architecture("solo")
    solo.add_instance(CATALOGUE[0])
    scheduler = ListScheduler(graph, solo, library)
    schedule = scheduler.run()
    expected = sum(library.wcet(task, CATALOGUE[0]) for task in graph)
    assert schedule.makespan == pytest.approx(expected)


@given(workload=workloads())
@settings(max_examples=15, deadline=None)
def test_more_pes_never_hurt_makespan(workload):
    """Adding an identical PE cannot lengthen the baseline schedule.

    (List scheduling anomalies exist for *pathological priority functions*;
    with SC priorities and identical PEs the greedy earliest-start choice
    means each added identical PE weakly dominates.)
    """
    graph, library = workload
    small = Architecture("p2")
    for _ in range(2):
        small.add_instance(CATALOGUE[0])
    large = Architecture("p4")
    for _ in range(4):
        large.add_instance(CATALOGUE[0])
    mk_small = ListScheduler(graph, small, library).run().makespan
    mk_large = ListScheduler(graph, large, library).run().makespan
    assert mk_large <= mk_small + 1e-9
