"""The Allocation and Scheduling Procedure (ASP).

A list scheduler in the style of Xie & Wolf's co-synthesis inner loop
(ref [1] of the paper), extended with the pluggable ``Pow``/``Avg_Temp``
dynamic-criticality term of Hung et al.:

1. compute every task's static criticality (SC);
2. repeatedly, over all *ready* tasks × supporting PEs, evaluate

   ``DC = SC − WCET − max(avail(PE), ready(task)) − policy.penalty(...)``

   and commit the candidate with the highest DC (deterministic
   tie-breaking: earliest finish, then graph order, then PE order);
3. stop when every task is placed.

Each step scores all its candidates as one array program.  The penalty
column comes from the policy's :meth:`~repro.core.heuristics.DCPolicy.
step_penalty` hook when the policy defines it at or below the class that
defines ``penalty``; otherwise (and whenever the hook returns ``None``)
the scheduler calls ``penalty`` once per candidate with the same
:class:`~repro.core.heuristics.DCContext` values, in the same order, as
a per-candidate loop would.  The DC arithmetic and the winner rule exist
once, as ``_dc`` and ``_winner``.  Every step goes through both, and so
does the thermal fast path's exact re-score of its near ties: the
candidates within a small band of the best DC get their penalties from
per-candidate model queries, so decisions equal those of per-candidate
steady-state solves.  Lockstep screening scores through ``_dc`` too.

The procedure always produces a complete schedule; deadline satisfaction is
checked afterwards (``check_deadline=True`` raises
:class:`~repro.errors.DeadlineMissError`, the co-synthesis loop instead
inspects :attr:`Schedule.meets_deadline` and iterates).

:func:`screen_allocations` runs the same procedure for many architectures
at once — co-synthesis screening — as one lockstep array program whenever
the policy's penalty is a per-(task, PE) constant.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import DeadlineMissError, InfeasibleAllocationError, ThermalError
from ..library.bus import CommunicationModel, zero_cost_comm
from ..obs import Counters, get_recorder
from ..library.pe import Architecture
from ..library.technology import TechnologyLibrary
from ..power.model import PowerAccumulator
from ..taskgraph.graph import TaskGraph
from ..taskgraph.task import Task
from ..thermal.hotspot import HotSpotModel
from ..thermal.query import ScheduledThermalQuery
from .criticality import static_criticality
from .heuristics import BaselinePolicy, DCContext, DCPolicy, DCStep
from .schedule import Schedule

__all__ = ["ListScheduler", "screen_allocations"]


#: ``ListScheduler``'s default deadline-guard weight; screening always uses it.
_DEADLINE_GUARD = 10.0


def _criticality(
    graph: TaskGraph, library: TechnologyLibrary
) -> Tuple[np.ndarray, np.ndarray]:
    """Every task's static criticality, and the critical path left after it,
    as graph-order arrays.

    The second array feeds the deadline guard: a candidate finishing at
    time t leaves at least ``downstream[task]`` units of successor work
    (mean-WCET estimate) to run.
    """
    sc = static_criticality(graph, library)
    tasks = graph.tasks()
    sc = np.array([sc[task.name] for task in tasks])
    return sc, sc - np.array([library.mean_wcet(task) for task in tasks])


def _dc(base, start, finish, downstream, penalty, deadline: float, guard: float):
    """The seed's DC: ``((SC − WCET) − start) − penalty``, then minus
    ``guard · overrun`` where the estimated completion ``finish +
    downstream`` overruns *deadline*.

    *base* is ``SC − WCET``; every argument is an array or broadcasts to
    one.  A zero *guard* skips the guard term.
    """
    dc = (base - start) - penalty
    if guard:
        overrun = (finish + downstream) - deadline
        dc = np.where(overrun > 0.0, dc - guard * overrun, dc)
    return dc


def _winner(dc: np.ndarray, finish: np.ndarray, rows: np.ndarray) -> int:
    """Position of the exact max *dc*; ties go to the earliest *finish*,
    then to the smallest row (graph order, then PE order)."""
    tied = (dc == dc.max()).nonzero()[0]
    if tied.size == 1:
        return int(tied[0])
    ends = finish[tied]
    tied = tied[ends == ends.min()]
    return int(tied[rows[tied].argmin()])


def _type_tables(
    tasks: Sequence[Task], library: TechnologyLibrary, type_names: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """WCET, WCPC and support of every task on every PE type.

    Three (task × PE type) arrays; WCET and WCPC are 0 where the type
    does not support the task.
    """
    shape = (len(tasks), len(type_names))
    wcet, power, support = np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=bool)
    for t, task in enumerate(tasks):
        for k, type_name in enumerate(type_names):
            if library.supports(task, type_name):
                wcet[t, k] = library.wcet(task, type_name)
                power[t, k] = library.power(task, type_name)
                support[t, k] = True
    return wcet, power, support


def _hook_is_current(policy: DCPolicy, hook: str) -> bool:
    """True when *policy*'s *hook* is defined at or below the class that
    defines ``penalty``.

    A subclass that overrides ``penalty`` below the class defining a hook
    has made the inherited hook stale.
    """
    mro = type(policy).__mro__
    owner = next((k for k in mro if hook in vars(k)), None)
    rule = next((k for k in mro if "penalty" in vars(k)), None)
    return owner is not None and rule is not None and issubclass(owner, rule)


class ListScheduler:
    """Reusable ASP engine bound to one (graph, architecture, library).

    The scheduler binds to the library *contents* at construction: every
    task's supporting PEs, WCETs and WCPCs are resolved once in
    ``__init__``, so :meth:`run` makes no library lookups and entries
    added to the library afterwards are not seen.

    Parameters
    ----------
    graph, architecture, library:
        The workload, the PE set, and the WCET/WCPC store.
    thermal:
        HotSpot facade over the architecture's floorplan; required by
        thermal policies, ignored by the others.
    pe_to_block:
        Optional PE-name → thermal-block-name mapping; defaults to the
        identity (floorplans built from architectures use PE names).
    comm:
        Communication-cost model.  Defaults to the paper's configuration
        (communication is free); pass
        :func:`repro.library.bus.shared_bus_comm` to charge cross-PE edges
        one bus transfer each.
    deadline_guard:
        Weight of the real-time guard term ``max(0, finish − deadline)``
        subtracted from DC.  The power/thermal penalties reward slower,
        cooler placements; the guard keeps that trade *inside* the deadline
        by making past-deadline finishes steeply unattractive whenever an
        in-deadline alternative exists.  Set to 0.0 to disable (pure paper
        equation).
    """

    def __init__(
        self,
        graph: TaskGraph,
        architecture: Architecture,
        library: TechnologyLibrary,
        thermal: Optional[HotSpotModel] = None,
        pe_to_block: Optional[Mapping[str, str]] = None,
        deadline_guard: float = _DEADLINE_GUARD,
        comm: Optional[CommunicationModel] = None,
    ):
        if deadline_guard < 0.0:
            raise InfeasibleAllocationError(
                f"deadline_guard must be >= 0, got {deadline_guard}"
            )
        names = graph.task_names()
        pes = list(architecture)
        # (task × PE) tables, gathered by PE-type column, so run() makes
        # no library lookups
        types: Dict[str, int] = {}
        column = [types.setdefault(pe.type_name, len(types)) for pe in pes]
        tables = _type_tables(graph.tasks(), library, list(types))
        wcet, power, support = (table[:, column] for table in tables)
        unsupported = np.flatnonzero(~support.any(axis=1))
        if unsupported.size:
            library.check_graph(graph, architecture)  # names the first bad task
            raise InfeasibleAllocationError(
                f"task {names[unsupported[0]]!r} has no supporting PE in "
                f"{architecture.name!r}"
            )
        self.graph = graph
        self.architecture = architecture
        self.library = library
        self.thermal = thermal
        self.pe_to_block = dict(pe_to_block) if pe_to_block else None
        self.deadline_guard = float(deadline_guard)
        self.comm = comm if comm is not None else zero_cost_comm()
        self._pe_names = [pe.name for pe in pes]
        self._idle_power = {pe.name: pe.pe_type.idle_power for pe in pes}
        index = {name: i for i, name in enumerate(names)}
        self._successors = [[index[s] for s in graph.successors(n)] for n in names]
        self._predecessors = [
            [(index[p], graph.edge(p, n).data) for p in graph.predecessors(n)]
            for n in names
        ]
        # one row per supported (task, PE) pair in row-major order, so row
        # order is graph order, then architecture order
        row_task, row_pe = np.nonzero(support)
        self._row_task, self._row_pe = row_task, row_pe
        self._row_wcet = wcet[support]
        self._row_power = power[support]
        self._row_energy = self._row_wcet * self._row_power
        sc, downstream = _criticality(graph, library)
        self._row_base = sc[row_task] - self._row_wcet  # DC's first operation
        self._row_downstream = downstream[row_task]
        bounds = np.searchsorted(row_task, np.arange(len(names) + 1))
        self._task_rows = [
            np.arange(lo, hi)
            for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
        ]
        #: Profiling counters of the most recent :meth:`run` (steps,
        #: candidates evaluated, thermal fast-path hits); see
        #: ``docs/PERFORMANCE.md``.  A :class:`~repro.obs.Counters`
        #: bundle — reads like the plain dict it used to be, but the
        #: values also land in an enabled obs registry.
        self.last_run_stats: Counters = Counters(namespace="scheduler")

    def _build_thermal_query(
        self, accumulator: PowerAccumulator
    ) -> Optional[ScheduledThermalQuery]:
        """The delta-query adapter for this run, if the model supports it.

        Models exposing ``query_engine()`` (HotSpot block model, grid
        model) get the O(1)-per-candidate path; anything else — including
        user-registered solvers — keeps the direct-query reference path.
        """
        engine_factory = getattr(self.thermal, "query_engine", None)
        if not callable(engine_factory):
            return None
        try:
            return ScheduledThermalQuery(
                engine_factory(), accumulator, self.pe_to_block
            )
        except ThermalError:
            # e.g. a many-to-one PE->block mapping: keep the exact legacy
            # dict semantics by falling back to per-candidate model queries
            return None

    def _penalties(
        self, policy: DCPolicy, step: DCStep, positions, thermal_query
    ) -> np.ndarray:
        """The per-candidate adapter: ``policy.penalty`` of the step's
        candidates at *positions*, one :class:`DCContext` each, in
        enumeration order."""
        names, pe_names = self.graph.task_names(), self._pe_names
        columns = (
            values[positions].tolist()
            for values in (
                step.task, step.pe, step.wcet, step.power, step.energy,
                step.ready_time, step.start, step.finish, step.horizon,
            )
        )
        return np.array([
            policy.penalty(DCContext(
                task_name=names[t],
                pe_name=pe_names[p],
                wcet=wcet,
                power=power,
                energy=energy,
                ready_time=ready,
                start=start,
                finish=finish,
                accumulator=step.accumulator,
                horizon=horizon,
                thermal=self.thermal,
                pe_to_block=self.pe_to_block,
                thermal_query=thermal_query,
            ))
            for t, p, wcet, power, energy, ready, start, finish, horizon in zip(*columns)
        ], dtype=float)

    def _release(
        self,
        t: int,
        finish: List[float],
        pe_of: List[int],
        ready_time: np.ndarray,
    ) -> np.ndarray:
        """Set the ready times of task *t*'s rows once its last
        predecessor is committed, and return those rows."""
        rows = self._task_rows[t]
        predecessors = self._predecessors[t]
        if self.comm.is_free:
            ready_time[rows] = max((finish[p] for p, _ in predecessors), default=0.0)
            return rows
        # data from predecessors on other PEs arrives late
        pe_names = self._pe_names
        for row in rows.tolist():
            pe_name = pe_names[self._row_pe[row]]
            ready = 0.0
            for p, data in predecessors:
                arrival = finish[p] + self.comm.delay(pe_names[pe_of[p]], pe_name, data)
                ready = max(ready, arrival)
            ready_time[row] = ready
        return rows

    # ------------------------------------------------------------------
    def run(
        self,
        policy: Optional[DCPolicy] = None,
        check_deadline: bool = False,
        fast_thermal: bool = True,
    ) -> Schedule:
        """Execute the ASP under *policy* (default: baseline).

        ``fast_thermal=False`` disables the vectorized thermal query path
        and forces per-candidate model queries — the reference mode the
        decision-identity tests compare against.
        """
        policy = policy if policy is not None else BaselinePolicy()
        if policy.requires_thermal and self.thermal is None:
            raise InfeasibleAllocationError(
                f"policy {policy.name!r} requires a thermal model; pass "
                f"`thermal=` when building the scheduler"
            )
        graph = self.graph
        names, pe_names = graph.task_names(), self._pe_names
        row_task, row_pe = self._row_task, self._row_pe
        avail = np.zeros(len(pe_names))
        finish = [0.0] * len(names)
        pe_of = [0] * len(names)  # committed task -> its PE (for comm delays)
        waiting = [len(p) for p in self._predecessors]
        ready_time = np.zeros(len(row_task))  # per row, set on release
        # the step's candidate rows: ready tasks in release order, each
        # task's PEs in architecture order
        rows = np.concatenate([np.zeros(0, dtype=np.intp)] + [
            self._release(t, finish, pe_of, ready_time)
            for t, count in enumerate(waiting) if count == 0
        ])
        accumulator = PowerAccumulator(pe_names, idle_power=self._idle_power)
        thermal_query = None
        if fast_thermal and policy.requires_thermal:
            thermal_query = self._build_thermal_query(accumulator)
        hook = _hook_is_current(policy, "step_penalty")
        # Verified fast path: rank every candidate with O(1) delta queries,
        # then re-evaluate only the candidates within `near_eps` of the best
        # DC through the exact reference query (one backsolve each).  Any
        # candidate outside the band can never win the seed comparison (the
        # fast/exact discrepancy is bounded orders of magnitude below the
        # band), so decisions — including tie-breaks — are identical to the
        # per-candidate-solve scheduler.
        near_eps = 1e-6 + getattr(policy, "weight", 0.0) * 1e-8
        guard, deadline = self.deadline_guard, graph.deadline
        # the schedule's columns, in placement order
        placed_task: List[str] = []
        placed_pe: List[str] = []
        starts: List[float] = []
        ends: List[float] = []
        powers: List[float] = []
        current_makespan = 0.0
        steps = 0
        candidates_evaluated = 0
        exact_requeries = 0

        while rows.size:
            task, pe, wcet = row_task[rows], row_pe[rows], self._row_wcet[rows]
            start = np.maximum(avail[pe], ready_time[rows])
            end = start + wcet
            step = DCStep(
                task=task,
                pe=pe,
                wcet=wcet,
                power=self._row_power[rows],
                energy=self._row_energy[rows],
                ready_time=ready_time[rows],
                start=start,
                finish=end,
                horizon=np.maximum(end, current_makespan),
                accumulator=accumulator,
                thermal_query=thermal_query,
            )
            candidates_evaluated += rows.size
            penalty = policy.step_penalty(step) if hook else None
            if penalty is None:
                penalty = self._penalties(policy, step, slice(None), thermal_query)
            base, downstream = self._row_base[rows], self._row_downstream[rows]
            dc = _dc(base, start, end, downstream, penalty, deadline, guard)
            if thermal_query is None:
                i = _winner(dc, end, rows)
            else:
                near = (dc >= dc.max() - near_eps).nonzero()[0]
                if near.size > 1:
                    # re-score the near ties through exact model queries
                    exact = self._penalties(policy, step, near, None)
                    exact_dc = _dc(
                        base[near], start[near], end[near], downstream[near],
                        exact, deadline, guard,
                    )
                    exact_requeries += near.size
                    i = int(near[_winner(exact_dc, end[near], rows[near])])
                else:
                    i = int(near[0])

            row, t, p = int(rows[i]), int(task[i]), int(pe[i])
            begin, done = float(start[i]), float(end[i])
            power, duration = float(self._row_power[row]), float(self._row_wcet[row])
            placed_task.append(names[t])
            placed_pe.append(pe_names[p])
            starts.append(begin)
            ends.append(done)
            powers.append(power)
            avail[p] = done
            finish[t] = done
            pe_of[t] = p
            current_makespan = max(current_makespan, done)
            accumulator.record(pe_names[p], power, duration)
            steps += 1
            rows = rows[task != t]
            released = []
            for successor in self._successors[t]:
                waiting[successor] -= 1
                if waiting[successor] == 0:
                    released.append(
                        self._release(successor, finish, pe_of, ready_time)
                    )
            if released:
                rows = np.concatenate((rows, *released))

        self.last_run_stats = Counters(
            namespace="scheduler",
            steps=steps,
            candidates_evaluated=candidates_evaluated,
            thermal_fast_path=int(thermal_query is not None),
            thermal_fast_queries=(
                thermal_query.fast_hits if thermal_query is not None else 0
            ),
            thermal_exact_requeries=exact_requeries,
        )
        schedule = Schedule._from_columns(
            graph, self.architecture, policy.name,
            placed_task, placed_pe, starts, ends, powers,
        )
        if check_deadline and not schedule.meets_deadline:
            raise DeadlineMissError(schedule.makespan, graph.deadline)
        return schedule


# ----------------------------------------------------------------------
# lockstep screening
# ----------------------------------------------------------------------
def _lockstep_capable(policy: DCPolicy) -> bool:
    """True when :func:`screen_allocations` runs *policy* in lockstep.

    That needs :meth:`DCPolicy.static_penalty` to give the penalty as a
    constant per (task, PE) pair.  A subclass that overrides ``penalty``
    below the class defining the hook has made the inherited hook stale,
    so it does not qualify either.
    """
    return (
        _hook_is_current(policy, "static_penalty")
        and policy.static_penalty(1.0, 1.0) is not None
    )


def screen_allocations(
    graph: TaskGraph,
    library: TechnologyLibrary,
    allocations: Sequence[Architecture],
    policy: DCPolicy,
) -> List[Schedule]:
    """Schedule *graph* on every architecture of *allocations* under *policy*.

    Returns, in allocation order, the schedules that
    ``ListScheduler(graph, arch, library).run(policy)`` returns (default
    deadline guard, communication free, no thermal model).  When the
    policy's :meth:`~repro.core.heuristics.DCPolicy.static_penalty` gives
    the penalty per (task, PE) pair, all allocations are scheduled together
    in one array program; otherwise each gets its own ``ListScheduler`` run,
    which is also the oracle the lockstep path is tested against.  The work
    runs in a ``cosynth.screen`` span whose ``lockstep`` attribute says
    which path ran.

    Lockstep state is shaped (allocation × task × PE slot), padded to the
    largest allocation.  WCET, WCPC and support come from a per-(task,
    PE type) table, gathered through a per-(allocation, slot) column index.
    Each step commits one task per allocation, scoring DC through ``_dc``
    at ``ListScheduler``'s default guard of 10.  The winner maximises DC;
    ties go to the earliest finish, then to the first (task, slot) in
    graph order, then architecture order.
    """
    allocations = list(allocations)
    lockstep = _lockstep_capable(policy)
    with get_recorder().span(
        "cosynth.screen", allocations=len(allocations), lockstep=lockstep
    ):
        if not lockstep:
            return [
                ListScheduler(graph, architecture, library).run(policy)
                for architecture in allocations
            ]
        return _screen_lockstep(graph, library, allocations, policy)


def _screen_lockstep(
    graph: TaskGraph,
    library: TechnologyLibrary,
    allocations: List[Architecture],
    policy: DCPolicy,
) -> List[Schedule]:
    """The array program behind :func:`screen_allocations`."""
    if not allocations:
        return []
    tasks = graph.tasks()
    names = graph.task_names()
    n_alloc, n_tasks = len(allocations), len(tasks)
    n_slots = max(len(architecture) for architecture in allocations)

    # per-(allocation, slot) column into the per-(task, PE type) tables
    type_column: Dict[str, int] = {}
    column = np.zeros((n_alloc, n_slots), dtype=np.intp)
    present = np.zeros((n_alloc, n_slots), dtype=bool)
    for a, architecture in enumerate(allocations):
        for s, pe in enumerate(architecture):
            column[a, s] = type_column.setdefault(pe.type_name, len(type_column))
            present[a, s] = True
    wcet_table, power_table, support_table = _type_tables(
        tasks, library, list(type_column)
    )
    supported = (support_table[:, column] & present).transpose(1, 0, 2)
    for a in np.flatnonzero(~supported.any(axis=2).all(axis=1)):
        library.check_graph(graph, allocations[a])  # names the first bad task
        raise InfeasibleAllocationError(
            f"a task has no supporting PE in {allocations[a].name!r}"
        )
    penalty_table = np.broadcast_to(
        policy.static_penalty(wcet_table, power_table), wcet_table.shape
    )
    sc, downstream = _criticality(graph, library)

    index = {name: t for t, name in enumerate(names)}
    successors = np.zeros((n_tasks, n_tasks), dtype=bool)
    for edge in graph.edges():
        successors[index[edge.src], index[edge.dst]] = True
    waiting = np.broadcast_to(successors.sum(axis=0), (n_alloc, n_tasks)).copy()
    ready = waiting == 0
    ready_time = np.zeros((n_alloc, n_tasks))
    avail = np.zeros((n_alloc, n_slots))
    rows = np.arange(n_alloc)
    placed = np.zeros((2, n_alloc, n_tasks), dtype=np.intp)  # task, slot
    timing = np.zeros((2, n_alloc, n_tasks))  # start, end
    for step in range(n_tasks):
        # score only the tasks some allocation has ready, as
        # (allocation × task × slot); ascending, so row-major order over
        # (task, slot) stays graph order, then PE order
        cols = np.flatnonzero(ready.any(axis=0))
        pick = cols[None, :, None], column[:, None, :]
        wcet = wcet_table[pick]
        start = np.maximum(avail[:, None, :], ready_time[:, cols, None])
        finish = start + wcet
        dc = _dc(
            sc[cols, None] - wcet, start, finish, downstream[cols, None],
            penalty_table[pick], graph.deadline, _DEADLINE_GUARD,
        )
        candidate = supported[:, cols] & ready[:, cols, None]
        best = np.where(candidate, dc, -np.inf).max(axis=(1, 2), keepdims=True)
        tied = candidate & (dc == best)
        earliest = np.where(tied, finish, np.inf).min(axis=(1, 2), keepdims=True)
        tied &= finish == earliest
        col_at, slot_at = np.divmod(tied.reshape(n_alloc, -1).argmax(axis=1), n_slots)
        task_at = cols[col_at]
        end = finish[rows, col_at, slot_at]
        placed[:, :, step] = task_at, slot_at
        timing[:, :, step] = start[rows, col_at, slot_at], end
        avail[rows, slot_at] = end
        ready[rows, task_at] = False
        released = successors[task_at]
        ready_time = np.where(released, np.maximum(ready_time, end[:, None]), ready_time)
        waiting -= released
        ready |= released & (waiting == 0)

    # each allocation's placement arrays become its schedule's columns,
    # one allocation at a time, so the Python floats never all exist at
    # once; powers are shared floats, as in ListScheduler rows
    power_rows = power_table.tolist()
    schedules = []
    for a, architecture in enumerate(allocations):
        pe_names = [pe.name for pe in architecture]
        types = column[a].tolist()
        task_at, slot_at = placed[:, a].tolist()
        starts, ends = timing[:, a].tolist()
        schedules.append(Schedule._from_columns(
            graph, architecture, policy.name,
            [names[t] for t in task_at],
            [pe_names[s] for s in slot_at],
            starts,
            ends,
            [power_rows[t][types[s]] for t, s in zip(task_at, slot_at)],
        ))
    return schedules
