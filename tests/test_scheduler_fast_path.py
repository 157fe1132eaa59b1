"""Decision-identity regression tests for the verified thermal fast path.

The scheduler's vectorized thermal query path must produce schedules
*byte-identical* to the per-candidate-solve reference (``fast_thermal=
False``), which itself is bit-identical to the seed implementation — same
backsolve, same reduction order.  These tests pin that across the paper
benchmarks, generated-workload families, all thermal policy variants, and
the grid-model solver, plus the Bm1 schedule itself as a hard snapshot.
"""

import pytest

from repro.core.heuristics import ThermalPolicy
from repro.core.scheduler import ListScheduler
from repro.extensions.policies import HybridThermalPolicy, ThermalPeakPolicy
from repro.floorplan.platform import platform_floorplan
from repro.library.presets import default_platform, library_for_graph
from repro.taskgraph.benchmarks import benchmark
from repro.taskgraph.generator import generate_family_graph
from repro.thermal.hotspot import HotSpotModel

THERMAL_POLICIES = [ThermalPolicy, ThermalPeakPolicy, HybridThermalPolicy]


def assignments(schedule):
    return [
        (a.task, a.pe, a.start, a.end, a.power)
        for a in schedule.assignments()
    ]


def platform_scheduler(graph, library):
    """The ASP on the default platform with its HotSpot model attached."""
    architecture = default_platform()
    model = HotSpotModel(platform_floorplan(architecture))
    return ListScheduler(graph, architecture, library, thermal=model)


def assert_decision_identical(scheduler, policy_cls):
    fast = scheduler.run(policy_cls())
    fast_stats = dict(scheduler.last_run_stats)
    reference = scheduler.run(policy_cls(), fast_thermal=False)
    assert assignments(fast) == assignments(reference)
    assert fast_stats["thermal_fast_path"] == 1
    assert fast_stats["thermal_fast_queries"] == (
        fast_stats["candidates_evaluated"]
    )
    # the whole point: only a small near-tie fraction is re-solved exactly
    assert fast_stats["thermal_exact_requeries"] < (
        fast_stats["candidates_evaluated"]
    )


#: Bm1 thermal-aware assignment sequence on the default platform — the
#: seed scheduler's decisions, frozen.  If this moves, the reproduction's
#: Table-3 numbers move with it.
BM1_THERMAL_ASSIGNMENTS = [
    ("t0", "pe0"), ("t2", "pe0"), ("t1", "pe0"), ("t3", "pe1"),
    ("t5", "pe2"), ("t4", "pe0"), ("t6", "pe3"), ("t7", "pe0"),
    ("t10", "pe2"), ("t8", "pe1"), ("t9", "pe0"), ("t12", "pe3"),
    ("t15", "pe2"), ("t13", "pe1"), ("t16", "pe0"), ("t14", "pe1"),
    ("t17", "pe3"), ("t11", "pe3"), ("t18", "pe0"),
]


def test_bm1_thermal_schedule_pinned_to_seed():
    graph = benchmark("Bm1")
    scheduler = platform_scheduler(graph, library_for_graph(graph))
    schedule = scheduler.run(ThermalPolicy())
    assert [
        (a.task, a.pe) for a in schedule.assignments()
    ] == BM1_THERMAL_ASSIGNMENTS


@pytest.mark.parametrize("bm", ["Bm1", "Bm2", "Bm3", "Bm4"])
@pytest.mark.parametrize("policy_cls", THERMAL_POLICIES)
def test_paper_benchmarks_decision_identical(bm, policy_cls):
    graph = benchmark(bm)
    scheduler = platform_scheduler(graph, library_for_graph(graph))
    assert_decision_identical(scheduler, policy_cls)


@pytest.mark.parametrize("family", ["layered", "chain", "wide", "forkjoin"])
@pytest.mark.parametrize("seed", [3, 11])
def test_generated_workloads_decision_identical(family, seed):
    graph = generate_family_graph(family, tasks=24, seed=seed)
    scheduler = platform_scheduler(graph, library_for_graph(graph))
    assert_decision_identical(scheduler, ThermalPolicy)


def test_gridmodel_solver_decision_identical(bm1, bm1_library):
    from repro.flow.registry import THERMAL_SOLVERS
    from repro.flow.spec import ThermalSpec
    from repro.thermal.package import default_package

    architecture = default_platform()
    adapter = THERMAL_SOLVERS.get("gridmodel")(
        platform_floorplan(architecture),
        default_package(),
        ThermalSpec(solver="gridmodel"),
    )
    scheduler = ListScheduler(bm1, architecture, bm1_library, thermal=adapter)
    assert_decision_identical(scheduler, ThermalPolicy)


def test_fast_path_reduces_solver_solves(bm1, bm1_library):
    """A full thermal ASP run needs far fewer backsolves than candidates."""
    scheduler = platform_scheduler(bm1, bm1_library)
    model = scheduler.thermal
    before = model.query_stats["solver_solves"]
    scheduler.run(ThermalPolicy())
    solves = model.query_stats["solver_solves"] - before
    candidates = scheduler.last_run_stats["candidates_evaluated"]
    assert candidates > 200
    assert solves < candidates / 4


def test_fast_path_skipped_without_query_engine(bm1, bm1_library):
    """Models without a query engine keep the per-candidate slow path."""

    class OpaqueModel:
        def __init__(self, inner):
            self._inner = inner

        def average_temperature(self, powers):
            return self._inner.average_temperature(powers)

        def block_temperatures(self, powers):
            return self._inner.block_temperatures(powers)

        def peak_temperature(self, powers):
            return self._inner.peak_temperature(powers)

    architecture = default_platform()
    inner = HotSpotModel(platform_floorplan(architecture))
    scheduler = ListScheduler(
        bm1, architecture, bm1_library, thermal=OpaqueModel(inner)
    )
    schedule = scheduler.run(ThermalPolicy())
    assert scheduler.last_run_stats["thermal_fast_path"] == 0
    assert scheduler.last_run_stats["thermal_fast_queries"] == 0

    reference = ListScheduler(
        bm1, architecture, bm1_library, thermal=HotSpotModel(inner.floorplan)
    ).run(ThermalPolicy())
    assert assignments(schedule) == assignments(reference)


def test_many_to_one_mapping_falls_back(bm1, bm1_library):
    """A many-to-one PE->block mapping disables the fast path, not the run."""
    from repro.floorplan.geometry import Floorplan

    architecture = default_platform()
    plan = Floorplan()
    plan.place("north", 0.0, 0.0, 8.0, 4.0)
    plan.place("south", 0.0, 4.0, 8.0, 4.0)
    model = HotSpotModel(plan)
    mapping = {"pe0": "north", "pe1": "north", "pe2": "south", "pe3": "south"}
    scheduler = ListScheduler(
        bm1, architecture, bm1_library, thermal=model, pe_to_block=mapping
    )
    schedule = scheduler.run(ThermalPolicy())
    assert scheduler.last_run_stats["thermal_fast_path"] == 0
    assert len(schedule) == len(bm1)
