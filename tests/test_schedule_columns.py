"""The column-backed ``Schedule`` against its Assignment-built oracle.

``Schedule`` stores task, PE, start, end and power columns in placement
order and builds an ``Assignment`` only when one is read;
``tests/schedule_oracle.py`` keeps the task → ``Assignment`` dict it
replaced.  Over random placements every metric must be equal bit for bit
(energies are per-row ``power × (end − start)`` floats summed with builtin
``sum`` in placement order), a bad row must raise the error its
``Assignment`` would, and screening's schedules must give the screening
costs and rows the oracle gives.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heuristics import BaselinePolicy, TaskEnergyPolicy, TaskPowerPolicy
from repro.core.schedule import Assignment, Schedule
from repro.core.scheduler import ListScheduler, screen_allocations
from repro.cosynth.allocation import feasible_allocations
from repro.cosynth.cost import performance_screening_cost, screening_cost
from repro.errors import ReproError, SchedulingError
from repro.library.pe import Architecture, PEType
from repro.library.presets import default_catalogue, library_for_graph
from repro.taskgraph.benchmarks import benchmark
from repro.taskgraph.graph import TaskGraph

from schedule_oracle import OracleSchedule

ARCH = Architecture("three-pe")
for _type in (PEType("a", 4.0, 4.0, idle_power=0.1), PEType("b", 5.0, 3.0, idle_power=0.35)):
    ARCH.add_instance(_type)
ARCH.add_instance(PEType("c", 2.0, 2.0, idle_power=0.0))
PE_NAMES = [pe.name for pe in ARCH]

times = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
powers = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


@st.composite
def placements(draw):
    """Rows ``(task, pe, start, end, power)`` with unique tasks, in
    placement order (start times need not be sorted)."""
    count = draw(st.integers(min_value=0, max_value=30))
    rows = []
    for index in range(count):
        start = draw(times)
        length = draw(st.floats(min_value=1e-6, max_value=1e3))
        rows.append((f"t{index:02d}", draw(st.sampled_from(PE_NAMES)), start,
                     start + length, draw(powers)))
    return draw(st.permutations(rows))


def graph_of(rows, deadline):
    graph = TaskGraph("g", deadline=deadline)
    for task, *_ in rows:
        graph.add(task, "t0")
    return graph


def built(rows, deadline=500.0):
    graph = graph_of(rows, deadline)
    columns = [list(column) for column in zip(*rows)] if rows else [[]] * 5
    tasks, pes, starts, ends, watts = columns
    schedule = Schedule._from_columns(
        graph, ARCH, "p", tasks, pes, starts, ends, watts
    )
    assignments = [Assignment(*row) for row in rows]
    return schedule, Schedule(graph, ARCH, assignments, "p"), OracleSchedule(
        graph, ARCH, assignments, "p"
    )


def outcome(call):
    try:
        return "ok", call()
    except ReproError as exc:
        return type(exc), str(exc)


@given(rows=placements(), deadline=st.floats(min_value=1.0, max_value=2e4))
@settings(max_examples=300, deadline=None)
def test_metrics_match_the_assignment_oracle(rows, deadline):
    columns, from_assignments, oracle = built(rows, deadline)
    for schedule in (columns, from_assignments):
        assert len(schedule) == len(oracle)
        assert list(schedule) == list(oracle)
        assert schedule.assignments() == oracle.assignments()
        assert schedule.makespan == oracle.makespan
        assert schedule.meets_deadline == oracle.meets_deadline
        assert schedule.slack == oracle.slack
        assert schedule.total_energy == oracle.total_energy
        assert list(schedule.pe_energy().items()) == list(oracle.pe_energy().items())
        assert schedule.pe_busy_time() == oracle.pe_busy_time()
        assert schedule.pe_task_counts() == oracle.pe_task_counts()
        for include_idle in (True, False):
            assert outcome(lambda: schedule.average_powers(include_idle=include_idle)) == (
                outcome(lambda: oracle.average_powers(include_idle=include_idle))
            )
        assert outcome(lambda: schedule.total_average_power) == outcome(
            lambda: oracle.total_average_power
        )
        assert schedule.power_intervals() == oracle.power_intervals()
        assert repr(schedule) == repr(oracle)
        for pe in PE_NAMES:
            assert schedule.pe_assignments(pe) == oracle.pe_assignments(pe)
        for task, *_ in rows:
            assert schedule.assignment(task) == oracle.assignment(task)
        assert outcome(lambda: schedule.assignment("ghost")) == outcome(
            lambda: oracle.assignment("ghost")
        )


BAD_ROWS = [
    # (start, end, power) of the bad row
    (5.0, 5.0, 1.0),
    (5.0, 4.0, 1.0),
    (-1.0, 4.0, 1.0),
    (0.0, 4.0, -0.5),
    (-1.0, -2.0, -1.0),
]


@pytest.mark.parametrize("later_bad_row", [False, True])
@pytest.mark.parametrize("bad", BAD_ROWS)
@pytest.mark.parametrize("position", [0, 2, 4])
def test_a_bad_row_raises_its_assignment_error(bad, position, later_bad_row):
    rows = [(f"t{i}", "pe0", 10.0 * i, 10.0 * i + 5.0, 1.0) for i in range(5)]
    rows[position] = (rows[position][0], "pe1", *bad)
    if later_bad_row:  # it never decides the error
        rows.append(("t9", "pe2", 3.0, 1.0, -1.0))
    with pytest.raises(SchedulingError) as expected:
        for row in rows:
            Assignment(*row)
    tasks, pes, starts, ends, watts = (list(c) for c in zip(*rows))
    with pytest.raises(SchedulingError) as excinfo:
        Schedule._from_columns(graph_of(rows, 100.0), ARCH, "p", tasks, pes, starts, ends, watts)
    assert str(excinfo.value) == str(expected.value)


def test_nan_rows_are_accepted_as_assignments_accept_them():
    rows = [("a", "pe0", math.nan, 1.0, 1.0), ("b", "pe1", 0.0, 1.0, math.nan)]
    tasks, pes, starts, ends, watts = (list(c) for c in zip(*rows))
    schedule = Schedule._from_columns(graph_of(rows, 10.0), ARCH, "p", tasks, pes, starts, ends, watts)
    assert [a.task for a in schedule] == ["a", "b"]


def test_repeated_task_is_refused_after_the_row_checks():
    rows = [("a", "pe0", 0.0, 1.0, 1.0), ("a", "pe1", 1.0, 2.0, 1.0)]
    tasks, pes, starts, ends, watts = (list(c) for c in zip(*rows))
    graph = graph_of(rows[:1], 10.0)
    with pytest.raises(SchedulingError, match="task 'a' assigned twice"):
        Schedule._from_columns(graph, ARCH, "p", tasks, pes, starts, ends, watts)
    with pytest.raises(SchedulingError, match="task 'a' assigned twice"):
        Schedule(graph, ARCH, [Assignment(*row) for row in rows])
    ends[1] = 0.5
    with pytest.raises(SchedulingError, match="end 0.5 <= start 1.0"):
        Schedule._from_columns(graph, ARCH, "p", tasks, pes, starts, ends, watts)


@pytest.mark.parametrize("name", ["Bm1", "Bm2", "Bm3", "Bm4"])
@pytest.mark.parametrize(
    "policy", [TaskEnergyPolicy(), BaselinePolicy(), TaskPowerPolicy()],
    ids=["heuristic3", "baseline", "heuristic1"],
)
def test_screening_rows_and_costs_are_unchanged(name, policy):
    graph = benchmark(name)
    library = library_for_graph(graph)
    allocations = feasible_allocations(graph, library, default_catalogue(), 4, 1)
    schedules = screen_allocations(graph, library, allocations, policy)
    costs = (screening_cost(), performance_screening_cost())
    for architecture, schedule in zip(allocations, schedules):
        oracle = OracleSchedule(graph, architecture, list(schedule), policy.name)
        for cost in costs:
            assert cost(schedule) == cost(oracle)
        assert (round(schedule.makespan, 1), schedule.meets_deadline) == (
            round(oracle.makespan, 1), oracle.meets_deadline,
        )
        assert list(schedule.average_powers().items()) == list(
            oracle.average_powers().items()
        )
    # the column schedule equals the per-allocation ASP's, row for row
    for architecture, schedule in list(zip(allocations, schedules))[::17]:
        reference = ListScheduler(graph, architecture, library).run(policy)
        assert list(schedule) == list(reference)
        assert schedule.total_energy == reference.total_energy
