"""The array step program of ``ListScheduler.run`` against its oracle.

``ListScheduler.run`` scores each step's candidates as one array program
and takes the penalty column from the policy's ``step_penalty`` hook, or
from per-candidate ``penalty`` calls when the hook is missing, stale or
returns ``None``.  ``asp_oracle.OracleScheduler`` is the per-candidate
loop it replaced.  These tests hold the two equal on schedules, run
statistics, thermal-model counters and the contexts a user policy sees,
and hold the array thermal queries and step hooks bit-identical to their
per-candidate forms.  They also pin the scheduler's one winner rule
(``_winner``) and the defaults that let a constant policy define only
``static_penalty``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.extensions.policies  # noqa: F401  (registers the thermal extensions)
from asp_oracle import OracleScheduler
from repro.core.heuristics import (
    POLICY_NAMES,
    DCContext,
    DCPolicy,
    DCStep,
    ThermalPolicy,
    policy_by_name,
)
from repro.core.scheduler import (
    ListScheduler,
    _hook_is_current,
    _lockstep_capable,
    _winner,
    screen_allocations,
)
from repro.cosynth.allocation import feasible_allocations
from repro.errors import InfeasibleAllocationError, UnknownTaskTypeError
from repro.floorplan.geometry import Floorplan
from repro.floorplan.platform import platform_floorplan
from repro.library.bus import shared_bus_comm
from repro.library.pe import Architecture, PEType
from repro.library.presets import default_catalogue, default_platform, library_for_graph
from repro.library.technology import TechnologyLibrary
from repro.power.model import PowerAccumulator
from repro.taskgraph.generator import generate_family_graph
from repro.taskgraph.graph import TaskGraph
from repro.thermal.gridmodel import GridModel
from repro.thermal.hotspot import HotSpotModel
from repro.thermal.package import default_package
from repro.thermal.query import ScheduledThermalQuery
from test_screening_lockstep import EnergySquaredPolicy


class RecordingPolicy(DCPolicy):
    """A user policy that defines only ``penalty`` and records each call."""

    name = "recording"

    def __init__(self, weight: float = 0.5):
        super().__init__(weight)
        self.calls = []

    def penalty(self, ctx: DCContext) -> float:
        self.calls.append(_snapshot(ctx))
        return self.weight * ctx.energy / ctx.horizon


class RecordingThermalPolicy(ThermalPolicy):
    """Overrides ``penalty`` below ``ThermalPolicy``'s hook, so the hook is
    stale and every candidate goes through ``penalty``, fast queries
    included."""

    name = "recording-thermal"

    def __init__(self, weight: float = 20.0):
        super().__init__(weight)
        self.calls = []

    def penalty(self, ctx: DCContext) -> float:
        self.calls.append(_snapshot(ctx))
        return super().penalty(ctx)


def _snapshot(ctx: DCContext) -> tuple:
    return (
        ctx.task_name, ctx.pe_name, ctx.wcet, ctx.power, ctx.energy,
        ctx.ready_time, ctx.start, ctx.finish, ctx.horizon,
        ctx.accumulator.energy_vector().tolist(),
        ctx.pe_to_block, ctx.thermal is not None,
        ctx.thermal_query is not None,
    )


#: Everything registered, plus the stale-hook and hook-less user policies.
POLICIES = tuple(POLICY_NAMES) + ("energy-squared", "recording", "recording-thermal")


def make_policy(name: str) -> DCPolicy:
    if name == "energy-squared":
        return EnergySquaredPolicy(0.01)
    if name == "recording":
        return RecordingPolicy()
    if name == "recording-thermal":
        return RecordingThermalPolicy()
    return policy_by_name(name)


@functools.lru_cache(maxsize=None)
def _workload(family: str, tasks: int, seed: int):
    graph = generate_family_graph(family, tasks=tasks, seed=seed)
    library = library_for_graph(graph)
    allocations = [
        arch
        for arch in feasible_allocations(graph, library, default_catalogue(), 3, 2)
        if len({pe.type_name for pe in arch}) >= 2
    ]
    return graph, library, allocations


_HOTSPOT = {}


def _hotspot(architecture: Architecture) -> HotSpotModel:
    key = tuple(pe.type_name for pe in architecture)
    if key not in _HOTSPOT:
        _HOTSPOT[key] = HotSpotModel(platform_floorplan(architecture))
    return _HOTSPOT[key]


@functools.lru_cache(maxsize=None)
def _grid_pair() -> tuple:
    """Two grid models of the default platform: oracle and array runs
    each query their own, so the counters can be compared."""
    plan = platform_floorplan(default_platform())
    return tuple(GridModel(plan, package=default_package()) for _ in range(2))


def _models(architecture: Architecture, solver: str) -> tuple:
    if solver == "gridmodel":
        return _grid_pair()
    base = _hotspot(architecture)
    return base.fork(), base.fork()


def _run(cls, graph, architecture, library, model, comm, name, fast_thermal):
    scheduler = cls(graph, architecture, library, thermal=model, comm=comm)
    policy = make_policy(name)
    schedule = scheduler.run(policy, fast_thermal=fast_thermal)
    return (
        schedule.assignments(),
        dict(scheduler.last_run_stats),
        model.query_count,
        dict(model.query_stats),
        getattr(policy, "calls", None),
    )


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    family=st.sampled_from(["layered", "chain", "wide", "forkjoin"]),
    tasks=st.integers(min_value=5, max_value=80),
    seed=st.integers(min_value=0, max_value=3),
    name=st.sampled_from(POLICIES),
    bus=st.booleans(),
    fast_thermal=st.booleans(),
    solver=st.sampled_from(["hotspot", "hotspot", "gridmodel"]),
    hetero=st.booleans(),
    pick=st.integers(min_value=0, max_value=10_000),
)
def test_array_step_equals_the_oracle(
    family, tasks, seed, name, bus, fast_thermal, solver, hetero, pick
):
    graph, library, allocations = _workload(family, tasks, seed)
    if hetero and solver == "hotspot" and allocations:
        architecture = allocations[pick % len(allocations)]
    else:
        architecture = default_platform()
    comm = shared_bus_comm() if bus else None
    model_new, model_oracle = _models(architecture, solver)
    got = _run(ListScheduler, graph, architecture, library, model_new, comm,
               name, fast_thermal)
    want = _run(OracleScheduler, graph, architecture, library, model_oracle,
                comm, name, fast_thermal)
    assert got == want


@pytest.mark.parametrize("name", ["thermal", "thermal-peak", "thermal-hybrid", "recording-thermal"])
def test_many_to_one_mapping_equals_the_oracle(bm1, bm1_library, name):
    """Two PEs on one block: no fast path, per-candidate model queries."""
    plan = Floorplan()
    plan.place("north", 0.0, 0.0, 8.0, 4.0)
    plan.place("south", 0.0, 4.0, 8.0, 4.0)
    base = HotSpotModel(plan)
    mapping = {"pe0": "north", "pe1": "north", "pe2": "south", "pe3": "south"}
    results = []
    for cls in (ListScheduler, OracleScheduler):
        model = base.fork()
        scheduler = cls(bm1, default_platform(), bm1_library, thermal=model,
                        pe_to_block=mapping)
        policy = make_policy(name)
        schedule = scheduler.run(policy)
        results.append((schedule.assignments(), dict(scheduler.last_run_stats),
                        dict(model.query_stats), getattr(policy, "calls", None)))
    assert results[0] == results[1]
    assert results[0][1]["thermal_fast_path"] == 0


def test_deadline_guard_off_equals_the_oracle(bm2, bm2_library):
    base = HotSpotModel(platform_floorplan(default_platform()))
    for name in ("heuristic3", "thermal-peak"):
        runs = [
            cls(bm2, default_platform(), bm2_library, thermal=base.fork(),
                deadline_guard=0.0).run(make_policy(name)).assignments()
            for cls in (ListScheduler, OracleScheduler)
        ]
        assert runs[0] == runs[1]


class TestStepHooks:
    def test_built_in_hooks_are_current(self):
        for name in POLICY_NAMES:
            assert _hook_is_current(policy_by_name(name), "step_penalty"), name

    def test_stale_and_missing_hooks_are_not(self):
        assert not _hook_is_current(EnergySquaredPolicy(), "step_penalty")
        assert not _hook_is_current(RecordingPolicy(), "step_penalty")
        assert not _hook_is_current(RecordingThermalPolicy(), "step_penalty")

    def test_base_hook_defers_to_penalty(self):
        accumulator = PowerAccumulator(["pe0"])
        values = np.ones(2)
        step = DCStep(
            task=np.arange(2), pe=np.zeros(2, dtype=int), wcet=values,
            power=values, energy=values, ready_time=values, start=values,
            finish=values, horizon=values, accumulator=accumulator,
        )
        assert DCPolicy().step_penalty(step) is None


# ----------------------------------------------------------------------
# array queries and step hooks, bit for bit
# ----------------------------------------------------------------------
@st.composite
def query_states(draw):
    """A HotSpot model over a 2–9-block row plan, a one-to-one mapping of
    1..n PEs onto its blocks, committed tasks and a candidate batch."""
    n_blocks = draw(st.integers(min_value=2, max_value=9))
    widths = draw(st.lists(st.floats(1.0, 6.0), min_size=n_blocks, max_size=n_blocks))
    heights = draw(st.lists(st.floats(1.0, 6.0), min_size=n_blocks, max_size=n_blocks))
    plan = Floorplan()
    x = 0.0
    for b, (width, height) in enumerate(zip(widths, heights)):
        plan.place(f"b{b}", x, 0.0, width, height)
        x += width
    n_pes = draw(st.integers(min_value=1, max_value=n_blocks))
    blocks = draw(st.permutations(range(n_blocks)))[:n_pes]
    pe_names = [f"pe{p}" for p in range(n_pes)]
    idle = draw(st.lists(st.floats(0.0, 3.0), min_size=n_pes, max_size=n_pes))
    accumulator = PowerAccumulator(pe_names, idle_power=dict(zip(pe_names, idle)))
    for pe, power, duration in draw(st.lists(
        st.tuples(st.integers(0, n_pes - 1), st.floats(0.5, 25.0), st.floats(0.5, 90.0)),
        max_size=12,
    )):
        accumulator.record(pe_names[pe], power, duration)
    k = draw(st.integers(min_value=1, max_value=24))
    pe = np.array(draw(st.lists(st.integers(0, n_pes - 1), min_size=k, max_size=k)))
    wcet = np.array(draw(st.lists(st.floats(0.5, 90.0), min_size=k, max_size=k)))
    power = np.array(draw(st.lists(st.floats(0.5, 25.0), min_size=k, max_size=k)))
    horizon = np.array(draw(st.lists(st.floats(1.0, 3000.0), min_size=k, max_size=k)))
    mapping = {name: f"b{b}" for name, b in zip(pe_names, blocks)}
    return HotSpotModel(plan), accumulator, mapping, pe, wcet, power, horizon


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(state=query_states())
def test_array_queries_equal_the_per_candidate_ones(state):
    model, accumulator, mapping, pe, wcet, power, horizon = state
    energy = wcet * power
    names = accumulator.pe_names()
    array_query = ScheduledThermalQuery(model.query_engine(), accumulator, mapping)
    scalar_query = ScheduledThermalQuery(model.query_engine(), accumulator, mapping)
    rows = list(zip((names[p] for p in pe.tolist()), energy.tolist(), horizon.tolist()))

    averages = array_query.average_temperatures(pe, energy, horizon)
    assert _same_bits(averages, [scalar_query.average_temperature(*r) for r in rows])
    matrix = array_query.block_temperature_matrix(pe, energy, horizon)
    assert _same_bits(matrix, [scalar_query.block_temperatures(*r) for r in rows])
    peaks = array_query.peak_temperatures(pe, energy, horizon)
    assert _same_bits(peaks, [scalar_query.peak_temperature(*r) for r in rows])
    assert array_query.fast_hits == scalar_query.fast_hits == 3 * len(pe)


@settings(max_examples=60, deadline=None)
@given(state=query_states())
def test_step_hooks_equal_per_candidate_penalties(state):
    """Each built-in hook gives, element for element, the bits ``penalty``
    gives for the same candidate — fast thermal queries and the
    accumulator-only heuristics alike."""
    model, accumulator, mapping, pe, wcet, power, horizon = state
    names = accumulator.pe_names()
    query = ScheduledThermalQuery(model.query_engine(), accumulator, mapping)
    zeros = np.zeros(len(pe))
    step = DCStep(
        task=zeros.astype(int), pe=pe, wcet=wcet, power=power, energy=wcet * power,
        ready_time=zeros, start=zeros, finish=zeros, horizon=horizon,
        accumulator=accumulator, thermal_query=query,
    )
    for name in POLICY_NAMES:
        policy = policy_by_name(name)
        hooked = np.broadcast_to(policy.step_penalty(step), pe.shape)
        each = [
            policy.penalty(DCContext(
                task_name="t", pe_name=names[p], wcet=w, power=pw, energy=e,
                ready_time=0.0, start=0.0, finish=0.0, accumulator=accumulator,
                horizon=h, thermal=model, pe_to_block=mapping, thermal_query=query,
            ))
            for p, w, pw, e, h in zip(pe.tolist(), wcet.tolist(), power.tolist(),
                                      step.energy.tolist(), horizon.tolist())
        ]
        assert _same_bits(hooked, each), name


# ----------------------------------------------------------------------
# the shared rule: constant policies and the winner
# ----------------------------------------------------------------------
class StaticOnlyPolicy(DCPolicy):
    """A user policy that defines only ``static_penalty``."""

    name = "static-only"

    def static_penalty(self, wcet, power):
        return self.weight * (wcet + 3.0 * power)


class SpelledOutPolicy(DCPolicy):
    """:class:`StaticOnlyPolicy`'s formula as a per-candidate ``penalty``:
    the oracle's reading of it."""

    name = "spelled-out"

    def penalty(self, ctx: DCContext) -> float:
        return self.weight * (ctx.wcet + 3.0 * ctx.power)


class TestStaticOnlyPolicy:
    """``penalty``, ``step_penalty`` and lockstep screening all default to
    ``static_penalty``, and each equals the per-candidate oracle."""

    @pytest.fixture(scope="class")
    def workload(self):
        graph = generate_family_graph("layered", tasks=40, seed=1)
        library = library_for_graph(graph)
        allocations = feasible_allocations(graph, library, default_catalogue(), 3, 2)
        return graph, library, allocations

    def test_every_hook_is_current(self):
        policy = StaticOnlyPolicy()
        assert _hook_is_current(policy, "step_penalty")
        assert _lockstep_capable(policy)
        assert not _hook_is_current(SpelledOutPolicy(), "step_penalty")

    @settings(max_examples=40, deadline=None)
    @given(state=query_states())
    def test_penalty_and_step_penalty_equal_the_formula(self, state):
        _, accumulator, _, pe, wcet, power, horizon = state
        zeros = np.zeros(len(pe))
        step = DCStep(
            task=zeros.astype(int), pe=pe, wcet=wcet, power=power,
            energy=wcet * power, ready_time=zeros, start=zeros, finish=zeros,
            horizon=horizon, accumulator=accumulator,
        )
        policy, spelled = StaticOnlyPolicy(0.7), SpelledOutPolicy(0.7)
        names = accumulator.pe_names()
        contexts = [
            DCContext(
                task_name="t", pe_name=names[p], wcet=w, power=pw, energy=w * pw,
                ready_time=0.0, start=0.0, finish=0.0, accumulator=accumulator,
                horizon=h,
            )
            for p, w, pw, h in zip(pe.tolist(), wcet.tolist(), power.tolist(),
                                   horizon.tolist())
        ]
        want = [spelled.penalty(ctx) for ctx in contexts]
        assert _same_bits([policy.penalty(ctx) for ctx in contexts], want)
        assert _same_bits(policy.step_penalty(step), want)

    def test_runs_equal_the_per_candidate_oracle(self, workload):
        graph, library, allocations = workload
        for architecture in (default_platform(), *allocations[:6]):
            scheduler = ListScheduler(graph, architecture, library)
            got = scheduler.run(StaticOnlyPolicy()).assignments()
            oracle = OracleScheduler(graph, architecture, library)
            assert got == oracle.run(SpelledOutPolicy()).assignments()

    def test_lockstep_screening_equals_the_per_candidate_oracle(self, workload):
        graph, library, allocations = workload
        screened = screen_allocations(graph, library, allocations, StaticOnlyPolicy())
        assert len(screened) == len(allocations)
        for schedule, architecture in zip(screened, allocations):
            oracle = OracleScheduler(graph, architecture, library)
            assert list(schedule) == list(oracle.run(SpelledOutPolicy()))


class TestWinner:
    """The one winner rule: exact max DC, then earliest finish, then the
    smallest row, whatever order the candidates come in."""

    @staticmethod
    def winner(dc, finish, rows):
        return _winner(np.array(dc), np.array(finish), np.array(rows))

    def test_max_dc_wins_outright(self):
        assert self.winner([1.0, 3.0, 2.0], [0.0, 9.0, 1.0], [0, 1, 2]) == 1

    def test_dc_tie_goes_to_the_earliest_finish(self):
        assert self.winner([2.0, 2.0, 2.0, 1.0], [5.0, 4.0, 6.0, 0.0], [0, 1, 2, 3]) == 1

    def test_full_tie_goes_to_the_smallest_row(self):
        # rows out of order: position 2 holds the smallest row
        assert self.winner([2.0, 2.0, 2.0], [4.0, 4.0, 4.0], [9, 5, 3]) == 2
        assert self.winner([2.0, 2.0, 2.0, 2.0], [7.0, 4.0, 4.0, 3.5], [0, 8, 6, 9]) == 3
        assert self.winner([2.0, 2.0, 2.0, 2.0], [7.0, 4.0, 4.0, 5.0], [0, 8, 6, 1]) == 2

    def test_signed_zeros_tie(self):
        assert self.winner([0.0, -0.0], [5.0, 3.0], [0, 1]) == 1
        assert self.winner([-0.0, 0.0], [3.0, 3.0], [4, 2]) == 1
        assert self.winner([-0.0, 0.0, -1e-300], [3.0, 3.0, 0.0], [1, 2, 0]) == 0


# ----------------------------------------------------------------------
# table builder: the errors a construction raised before
# ----------------------------------------------------------------------
class TestConstructionErrors:
    """Error types and messages are literals captured before the task × PE
    tables were built from the per-(task, PE type) builder."""

    @pytest.fixture
    def duo(self):
        arch = Architecture("duo")
        arch.add_instance(PEType("fast", 6.0, 6.0))
        arch.add_instance(PEType("slow", 5.0, 5.0))
        library = TechnologyLibrary("lib")
        library.add_entry("t0", "fast", 10.0, 5.0)
        library.add_entry("t1", "accel", 4.0, 2.0)
        return arch, library

    @staticmethod
    def graph(second_type: str) -> TaskGraph:
        graph = TaskGraph("g", 100.0)
        graph.add("a", "t0")
        graph.add("b", second_type)
        graph.add_edge("a", "b")
        return graph

    def test_task_with_no_pe_in_the_architecture(self, duo):
        arch, library = duo
        with pytest.raises(UnknownTaskTypeError) as excinfo:
            ListScheduler(self.graph("t1"), arch, library)
        assert str(excinfo.value) == (
            "task 'b' (type 't1') cannot run on any PE of architecture 'duo' "
            "(available types: ['fast', 'slow'])"
        )

    def test_task_type_unknown_to_the_library(self, duo):
        arch, library = duo
        with pytest.raises(UnknownTaskTypeError) as excinfo:
            ListScheduler(self.graph("orphan"), arch, library)
        assert str(excinfo.value) == (
            "task 'b' (type 'orphan') cannot run on any PE of architecture "
            "'duo' (available types: ['fast', 'slow'])"
        )

    def test_negative_guard(self, duo):
        arch, library = duo
        with pytest.raises(InfeasibleAllocationError) as excinfo:
            ListScheduler(self.graph("t0"), arch, library, deadline_guard=-1.0)
        assert str(excinfo.value) == "deadline_guard must be >= 0, got -1.0"

    def test_feasible_graph_skips_check_graph(self, duo, monkeypatch):
        arch, library = duo

        def forbidden(*args, **kwargs):
            raise AssertionError("check_graph runs only for an unsupported task")

        monkeypatch.setattr(TechnologyLibrary, "check_graph", forbidden)
        ListScheduler(self.graph("t0"), arch, library)
