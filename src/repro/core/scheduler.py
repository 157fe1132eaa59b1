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
from ..thermal.hotspot import HotSpotModel
from ..thermal.query import ScheduledThermalQuery
from .criticality import static_criticality
from .heuristics import BaselinePolicy, DCContext, DCPolicy
from .schedule import Assignment, Schedule

__all__ = ["ListScheduler", "screen_allocations"]


#: ``ListScheduler``'s default deadline-guard weight; screening always uses it.
_DEADLINE_GUARD = 10.0


def _criticality(
    graph: TaskGraph, library: TechnologyLibrary
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Every task's static criticality, and the critical path left after it.

    The second map feeds the deadline guard: a candidate finishing at time
    t leaves at least ``downstream[task]`` units of successor work
    (mean-WCET estimate) to run.
    """
    sc = static_criticality(graph, library)
    downstream = {
        name: sc[name] - library.mean_wcet(graph.task(name))
        for name in graph.task_names()
    }
    return sc, downstream


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
        library.check_graph(graph, architecture)  # fail fast on infeasibility
        self.graph = graph
        self.architecture = architecture
        self.library = library
        self.thermal = thermal
        self.pe_to_block = dict(pe_to_block) if pe_to_block else None
        self.deadline_guard = float(deadline_guard)
        self.comm = comm if comm is not None else zero_cost_comm()
        self._sc, self._downstream = _criticality(graph, library)
        self._graph_order = {name: i for i, name in enumerate(graph.task_names())}
        self._pe_order = {pe.name: i for i, pe in enumerate(architecture)}
        # pre-resolve per-task (pe_name, wcet, power) candidate rows in
        # architecture order, so run() makes no library lookups
        self._candidates: Dict[str, List[Tuple[str, float, float]]] = {}
        for task in graph:
            rows = [
                (pe.name, library.wcet(task, pe), library.power(task, pe))
                for pe in architecture
                if library.supports(task, pe)
            ]
            if not rows:
                raise InfeasibleAllocationError(
                    f"task {task.name!r} has no supporting PE in "
                    f"{architecture.name!r}"
                )
            self._candidates[task.name] = rows
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

    def _candidate_key(self, policy: DCPolicy, ctx: DCContext) -> tuple:
        """The seed comparison key for one candidate: maximise DC, then
        break ties toward earlier finish, then graph insertion order, then
        architecture order.

        Both the fast ranking pass and the exact near-tie re-scoring go
        through this one scoring expression — only ``ctx.thermal_query``
        differs — so the two passes cannot drift apart.
        """
        dc = (
            self._sc[ctx.task_name]
            - ctx.wcet
            - ctx.start
            - policy.penalty(ctx)
        )
        if self.deadline_guard:
            # estimated graph completion if this candidate is committed:
            # its finish plus the remaining critical path through it
            completion = ctx.finish + self._downstream[ctx.task_name]
            overrun = completion - self.graph.deadline
            if overrun > 0.0:
                dc -= self.deadline_guard * overrun
        return (
            -dc,
            ctx.finish,
            self._graph_order[ctx.task_name],
            self._pe_order[ctx.pe_name],
        )

    def _verify_near_ties(
        self,
        policy: DCPolicy,
        fast_candidates: List[tuple],
        near_eps: float,
        accumulator: PowerAccumulator,
        current_makespan: float,
    ) -> Tuple[tuple, int]:
        """Pick this step's winner from fast-ranked *fast_candidates*.

        Candidates whose fast DC is within *near_eps* of the best fast DC
        are re-scored through the exact reference query (``thermal_query``
        left unset, so the policy issues a real per-candidate model query);
        the winner among them is chosen with the seed's exact comparison
        key.  A single near candidate needs no re-query at all — the fast
        ranking already proves every other candidate loses.

        Returns ``(best, exact_requeries)`` with ``best`` shaped like the
        run loop's commit tuple.
        """
        best_fast_dc = -min(candidate[0][0] for candidate in fast_candidates)
        near = [
            candidate
            for candidate in fast_candidates
            if -candidate[0][0] >= best_fast_dc - near_eps
        ]
        if len(near) == 1:
            _, task_name, pe_name, start, end, power, wcet, _ = near[0]
            return (task_name, pe_name, start, end, power, wcet), 0
        best = None
        best_key = None
        for _, task_name, pe_name, start, end, power, wcet, ready_time in near:
            ctx = DCContext(
                task_name=task_name,
                pe_name=pe_name,
                wcet=wcet,
                power=power,
                energy=wcet * power,
                ready_time=ready_time,
                start=start,
                finish=end,
                accumulator=accumulator,
                horizon=max(current_makespan, end),
                thermal=self.thermal,
                pe_to_block=self.pe_to_block,
            )
            key = self._candidate_key(policy, ctx)
            if best_key is None or key < best_key:
                best_key = key
                best = (task_name, pe_name, start, end, power, wcet)
        return best, len(near)

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
        avail: Dict[str, float] = {pe.name: 0.0 for pe in self.architecture}
        finish: Dict[str, float] = {}
        unscheduled_preds: Dict[str, int] = {
            name: graph.in_degree(name) for name in graph.task_names()
        }
        # ready task -> latest predecessor finish, fixed once it is ready
        ready: Dict[str, float] = {
            n: 0.0 for n, d in unscheduled_preds.items() if d == 0
        }
        pe_of: Dict[str, str] = {}  # committed task -> its PE (for comm delays)
        accumulator = PowerAccumulator(
            avail.keys(),
            idle_power={
                pe.name: pe.pe_type.idle_power for pe in self.architecture
            },
        )
        thermal_query = None
        if fast_thermal and policy.requires_thermal:
            thermal_query = self._build_thermal_query(accumulator)
        # Verified fast path: rank every candidate with O(1) delta queries,
        # then re-evaluate only the candidates within `near_eps` of the best
        # DC through the exact reference query (one backsolve each).  Any
        # candidate outside the band can never win the seed comparison (the
        # fast/exact discrepancy is bounded orders of magnitude below the
        # band), so decisions — including tie-breaks — are identical to the
        # per-candidate-solve scheduler.
        near_eps = 1e-6 + getattr(policy, "weight", 0.0) * 1e-8
        assignments: List[Assignment] = []
        current_makespan = 0.0
        steps = 0
        candidates_evaluated = 0
        exact_requeries = 0
        comm_free = self.comm.is_free

        while ready:
            best = None  # (dc, -finish, -orders) comparison via explicit loop
            best_key = None
            fast_candidates = [] if thermal_query is not None else None
            for task_name, base_ready in ready.items():
                for pe_name, wcet, power in self._candidates[task_name]:
                    if comm_free:
                        ready_time = base_ready
                    else:
                        # data from predecessors on other PEs arrives late
                        ready_time = 0.0
                        for pred in graph.predecessors(task_name):
                            arrival = finish[pred] + self.comm.delay(
                                pe_of[pred], pe_name, graph.edge(pred, task_name).data
                            )
                            ready_time = max(ready_time, arrival)
                    start = max(avail[pe_name], ready_time)
                    end = start + wcet
                    candidates_evaluated += 1
                    ctx = DCContext(
                        task_name=task_name,
                        pe_name=pe_name,
                        wcet=wcet,
                        power=power,
                        energy=wcet * power,
                        ready_time=ready_time,
                        start=start,
                        finish=end,
                        accumulator=accumulator,
                        horizon=max(current_makespan, end),
                        thermal=self.thermal,
                        pe_to_block=self.pe_to_block,
                        thermal_query=thermal_query,
                    )
                    key = self._candidate_key(policy, ctx)
                    if fast_candidates is not None:
                        fast_candidates.append(
                            (key, task_name, pe_name, start, end, power,
                             wcet, ready_time)
                        )
                    elif best_key is None or key < best_key:
                        best_key = key
                        best = (task_name, pe_name, start, end, power, wcet)

            if fast_candidates is not None:
                best, requeried = self._verify_near_ties(
                    policy, fast_candidates, near_eps, accumulator,
                    current_makespan,
                )
                exact_requeries += requeried

            task_name, pe_name, start, end, power, wcet = best
            assignments.append(Assignment(task_name, pe_name, start, end, power))
            avail[pe_name] = end
            finish[task_name] = end
            pe_of[task_name] = pe_name
            current_makespan = max(current_makespan, end)
            accumulator.record(pe_name, power, wcet)
            del ready[task_name]
            steps += 1
            for successor in graph.successors(task_name):
                unscheduled_preds[successor] -= 1
                if unscheduled_preds[successor] == 0:
                    ready[successor] = max(
                        finish[p] for p in graph.predecessors(successor)
                    )

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
        schedule = Schedule(graph, self.architecture, assignments, policy.name)
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
    mro = type(policy).__mro__
    hook = next((k for k in mro if "static_penalty" in vars(k)), None)
    rule = next((k for k in mro if "penalty" in vars(k)), None)
    if hook is None or rule is None or not issubclass(hook, rule):
        return False
    return policy.static_penalty(1.0, 1.0) is not None


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
    Each step commits one task per allocation with the seed's arithmetic:
    ``DC = ((SC − WCET) − start) − penalty``, minus ``guard · overrun``
    (``ListScheduler``'s default guard of 10) where the estimated
    completion overruns the deadline.  The winner
    maximises DC; ties go to the earliest finish, then to the first
    (task, slot) in graph order, then architecture order.
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
    wcet_table = np.zeros((n_tasks, len(type_column)))
    power_table = np.zeros((n_tasks, len(type_column)))
    support_table = np.zeros((n_tasks, len(type_column)), dtype=bool)
    for t, task in enumerate(tasks):
        for type_name, k in type_column.items():
            if library.supports(task, type_name):
                wcet_table[t, k] = library.wcet(task, type_name)
                power_table[t, k] = library.power(task, type_name)
                support_table[t, k] = True
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
    sc = np.array([sc[name] for name in names])
    downstream = np.array([downstream[name] for name in names])

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
        dc = ((sc[cols, None] - wcet) - start) - penalty_table[pick]
        overrun = (finish + downstream[cols, None]) - graph.deadline
        dc = np.where(overrun > 0.0, dc - _DEADLINE_GUARD * overrun, dc)
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

    # one allocation's rows at a time, so the Python floats never all
    # exist at once; powers are shared floats, as in ListScheduler rows
    power_rows = power_table.tolist()
    schedules = []
    for a, architecture in enumerate(allocations):
        pe_names = [pe.name for pe in architecture]
        types = column[a].tolist()
        task_at, slot_at = placed[:, a].tolist()
        starts, ends = timing[:, a].tolist()
        assignments = [
            Assignment(names[t], pe_names[s], begin, end, power_rows[t][types[s]])
            for t, s, begin, end in zip(task_at, slot_at, starts, ends)
        ]
        schedules.append(Schedule(graph, architecture, assignments, policy.name))
    return schedules
