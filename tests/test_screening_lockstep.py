"""Lockstep screening (``screen_allocations``) against its oracle.

The oracle is one ``ListScheduler(...).run(policy)`` per allocation.  The
lockstep array program must reproduce it exactly — same assignments, same
float bits — for every policy with a static penalty, and must hand every
other policy to the oracle itself.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heuristics import (
    BaselinePolicy,
    CumulativePowerPolicy,
    DCContext,
    TaskEnergyPolicy,
    TaskPowerPolicy,
    ThermalPolicy,
)
from repro.core.scheduler import (
    ListScheduler,
    _lockstep_capable,
    screen_allocations,
)
from repro.cosynth import framework
from repro.cosynth.allocation import feasible_allocations, make_architecture
from repro.cosynth.framework import CoSynthesisConfig, CoSynthesisFramework
from repro.errors import InfeasibleAllocationError, UnknownTaskTypeError
from repro.floorplan.genetic import GeneticConfig
from repro.library.pe import PEType
from repro.library.presets import (
    default_catalogue,
    generate_technology_library,
    library_for_graph,
)
from repro.obs import capture
from repro.taskgraph.benchmarks import benchmark
from repro.library.technology import TechnologyLibrary
from repro.taskgraph.generator import GraphSpec, generate_task_graph
from repro.taskgraph.graph import TaskGraph

CATALOGUE = default_catalogue()
STATIC_POLICIES = (BaselinePolicy, TaskPowerPolicy, TaskEnergyPolicy)

FAST = CoSynthesisConfig(
    max_pes=3,
    screening_keep=3,
    refine_iterations=1,
    genetic_config=GeneticConfig(population_size=8, generations=5),
)


def oracle(graph, library, allocations, policy):
    return [ListScheduler(graph, arch, library).run(policy) for arch in allocations]


def assert_same(got, want):
    assert len(got) == len(want)
    for fast, ref in zip(got, want):
        assert fast.architecture is ref.architecture
        assert fast.policy_name == ref.policy_name
        assert list(fast) == list(ref)  # commit order, exact floats
        assert fast.total_energy == ref.total_energy


@st.composite
def workloads(draw):
    """A generated graph whose deadline is often tight enough to trip the guard."""
    num_tasks = draw(st.integers(min_value=2, max_value=25))
    extra = draw(st.integers(min_value=0, max_value=max(0, num_tasks // 3)))
    spec = GraphSpec(
        "lockstep",
        num_tasks,
        num_tasks - 1 + extra,
        deadline=num_tasks * draw(st.floats(min_value=5.0, max_value=150.0)),
        num_task_types=draw(st.integers(min_value=1, max_value=6)),
    )
    graph = generate_task_graph(spec, draw(st.integers(0, 2**31)))
    task_types = sorted({t.task_type for t in graph})
    library = generate_technology_library(task_types, seed=draw(st.integers(0, 2**31)))
    return graph, library


@st.composite
def allocation_lists(draw):
    """1–6 catalogue allocations of 1–4 PEs: mixed sizes pad the slot
    axis, repeated types give exact DC ties.  A general-purpose core first
    keeps every allocation feasible; the rest may be accelerators."""
    allocations = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        size = draw(st.integers(min_value=1, max_value=4))
        types = [draw(st.sampled_from(CATALOGUE[:4]))]
        types += draw(st.lists(st.sampled_from(CATALOGUE), min_size=size - 1,
                               max_size=size - 1))
        allocations.append(make_architecture(types))
    return allocations


@given(
    workload=workloads(),
    allocations=allocation_lists(),
    policy_cls=st.sampled_from(STATIC_POLICIES),
    weight=st.floats(min_value=0.0, max_value=8.0),
)
@settings(max_examples=80, deadline=None)
def test_lockstep_equals_oracle(workload, allocations, policy_cls, weight):
    graph, library = workload
    policy = policy_cls(weight)
    assert _lockstep_capable(policy)
    assert_same(
        screen_allocations(graph, library, allocations, policy),
        oracle(graph, library, allocations, policy),
    )


@pytest.mark.parametrize("name", ["Bm1", "Bm2", "Bm3", "Bm4"])
def test_lockstep_equals_oracle_on_paper_benchmarks(name):
    graph = benchmark(name)
    library = library_for_graph(graph)
    allocations = feasible_allocations(graph, library, CATALOGUE, 4, 1)
    policy = TaskEnergyPolicy()
    assert_same(
        screen_allocations(graph, library, allocations, policy),
        oracle(graph, library, allocations, policy),
    )


def test_equal_dc_goes_to_earliest_finish():
    """b and a tie at DC 10 on PE X; a finishes first and must win even
    though b comes first in graph order."""
    graph = TaskGraph("tie", deadline=1000.0)
    graph.add("b", "tb")
    graph.add("a", "ta")
    graph.add("c", "tc")
    graph.add_edge("a", "c")
    library = TechnologyLibrary("tie")
    for task_type, pe_type, wcet in [
        ("ta", "X", 10.0), ("tc", "X", 10.0), ("tb", "X", 20.0), ("tb", "Y", 40.0),
    ]:
        library.add_entry(task_type, pe_type, wcet, 1.0)
    allocations = [make_architecture([PEType("X", 5.0, 5.0), PEType("Y", 5.0, 5.0)])]
    fast = screen_allocations(graph, library, allocations, BaselinePolicy())
    assert_same(fast, oracle(graph, library, allocations, BaselinePolicy()))
    assert next(iter(fast[0])).task == "a"


def test_deadline_guard_trips_like_the_oracle():
    """Heuristic 1 would put the lone task on the slow, low-power PE
    (finish 20); the deadline of 15 makes the guard pick the fast one."""
    graph = TaskGraph("one", deadline=15.0)
    graph.add("only", "t0")
    library = TechnologyLibrary("one")
    library.add_entry("t0", "fast", 10.0, 8.0)
    library.add_entry("t0", "slow", 20.0, 3.0)
    allocations = [make_architecture([PEType("fast", 6.0, 6.0),
                                      PEType("slow", 5.0, 5.0)])]
    fast = screen_allocations(graph, library, allocations, TaskPowerPolicy())
    assert_same(fast, oracle(graph, library, allocations, TaskPowerPolicy()))
    assert fast[0].assignment("only").pe == next(iter(allocations[0])).name


class EnergySquaredPolicy(TaskEnergyPolicy):
    """Overrides ``penalty`` but inherits heuristic 3's (now stale) hook."""

    name = "energy-squared"

    def penalty(self, ctx: DCContext) -> float:
        return self.weight * ctx.energy * ctx.energy


class LightEnergyPolicy(TaskEnergyPolicy):
    """Only changes the default weight, so the inherited hook still holds."""

    def __init__(self, weight: float = 0.05):
        super().__init__(weight)


class TestFallback:
    @pytest.fixture(scope="class")
    def bm1(self):
        graph = benchmark("Bm1")
        library = library_for_graph(graph)
        return graph, library, feasible_allocations(graph, library, CATALOGUE, 3, 1)

    def test_static_policies_are_lockstep(self):
        assert all(_lockstep_capable(cls()) for cls in STATIC_POLICIES)
        assert _lockstep_capable(LightEnergyPolicy())

    def test_state_dependent_policies_are_not(self):
        assert not _lockstep_capable(CumulativePowerPolicy())
        assert not _lockstep_capable(ThermalPolicy())
        assert not _lockstep_capable(EnergySquaredPolicy())

    @pytest.mark.parametrize("policy", [CumulativePowerPolicy(), EnergySquaredPolicy()])
    def test_fallback_runs_the_oracle(self, bm1, policy):
        graph, library, allocations = bm1
        with capture() as recorder:
            got = screen_allocations(graph, library, allocations, policy)
        assert_same(got, oracle(graph, library, allocations, policy))
        (span,) = [s for s in recorder.export_spans() if s["name"] == "cosynth.screen"]
        assert span["attrs"] == {"allocations": len(allocations), "lockstep": False}

    def test_stale_hook_is_not_used(self, bm1):
        """The override changes decisions, so using heuristic 3's hook
        would be caught here."""
        graph, library, allocations = bm1
        squared = screen_allocations(graph, library, allocations,
                                     EnergySquaredPolicy(0.01))
        plain = screen_allocations(graph, library, allocations,
                                   TaskEnergyPolicy(0.01))
        assert [list(s) for s in squared] != [list(s) for s in plain]

    def test_thermal_policy_needs_a_model(self, bm1):
        graph, library, allocations = bm1
        with pytest.raises(InfeasibleAllocationError):
            screen_allocations(graph, library, allocations, ThermalPolicy())

    def test_infeasible_allocation_raises_like_the_oracle(self, bm1):
        graph, library, allocations = bm1
        accel_only = make_architecture([CATALOGUE[-1]])
        with pytest.raises(UnknownTaskTypeError):
            oracle(graph, library, [accel_only], TaskEnergyPolicy())
        with pytest.raises(UnknownTaskTypeError):
            screen_allocations(graph, library, allocations + [accel_only],
                               TaskEnergyPolicy())

    def test_empty_allocation_list(self, bm1):
        graph, library, _ = bm1
        assert screen_allocations(graph, library, [], TaskEnergyPolicy()) == []


class TestCoSynthesisRun:
    def test_screen_and_refine_spans(self):
        graph = benchmark("Bm1")
        with capture() as recorder:
            result = CoSynthesisFramework(config=FAST).run(
                graph, library_for_graph(graph), ThermalPolicy()
            )
        spans = {s["name"]: s for s in recorder.export_spans()}
        assert spans["cosynth.screen"]["attrs"] == {
            "allocations": result.candidates_screened,
            "lockstep": True,
        }
        assert spans["cosynth.refine"]["attrs"] == {
            "candidates": result.candidates_evaluated,
        }

    def test_hotspot_queries_sum_every_kept_allocation(self, monkeypatch):
        models = []

        class RecordingScheduler(ListScheduler):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                models.append(self.thermal)

        monkeypatch.setattr(framework, "ListScheduler", RecordingScheduler)
        graph = benchmark("Bm4")
        result = CoSynthesisFramework(config=FAST).run(
            graph, library_for_graph(graph), ThermalPolicy()
        )
        counts = [model.query_count for model in models]
        assert len(counts) == FAST.screening_keep
        assert sum(count > 0 for count in counts) > 1
        assert result.hotspot_queries == sum(counts)
