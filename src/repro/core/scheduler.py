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
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..errors import DeadlineMissError, InfeasibleAllocationError, ThermalError
from ..library.bus import CommunicationModel, zero_cost_comm
from ..obs import Counters
from ..library.pe import Architecture
from ..library.technology import TechnologyLibrary
from ..power.model import PowerAccumulator
from ..taskgraph.graph import TaskGraph
from ..thermal.hotspot import HotSpotModel
from ..thermal.query import ScheduledThermalQuery
from .criticality import static_criticality
from .heuristics import BaselinePolicy, DCContext, DCPolicy
from .schedule import Assignment, Schedule

__all__ = ["ListScheduler"]


class ListScheduler:
    """Reusable ASP engine bound to one (graph, architecture, library).

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
        deadline_guard: float = 10.0,
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
        self._sc = static_criticality(graph, library)
        # remaining critical path *after* each task (mean-WCET estimate),
        # used by the deadline guard: a candidate finishing at time t leaves
        # at least _downstream[task] units of successor work to run
        self._downstream = {
            name: self._sc[name] - library.mean_wcet(graph.task(name))
            for name in graph.task_names()
        }
        self._graph_order = {name: i for i, name in enumerate(graph.task_names())}
        self._pe_order = {pe.name: i for i, pe in enumerate(architecture)}
        # pre-resolve per-task candidate PE lists (architecture order)
        self._candidates: Dict[str, List[str]] = {}
        for task in graph:
            pes = [
                pe.name for pe in architecture if library.supports(task, pe)
            ]
            if not pes:
                raise InfeasibleAllocationError(
                    f"task {task.name!r} has no supporting PE in "
                    f"{architecture.name!r}"
                )
            self._candidates[task.name] = pes
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
        ready: Set[str] = {n for n, d in unscheduled_preds.items() if d == 0}
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

        while ready:
            best = None  # (dc, -finish, -orders) comparison via explicit loop
            best_key = None
            fast_candidates = [] if thermal_query is not None else None
            comm_free = self.comm.is_free
            for task_name in ready:
                task = graph.task(task_name)
                base_ready = max(
                    (finish[p] for p in graph.predecessors(task_name)),
                    default=0.0,
                )
                for pe_name in self._candidates[task_name]:
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
                    pe = self.architecture.pe(pe_name)
                    wcet = self.library.wcet(task, pe)
                    power = self.library.power(task, pe)
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
            ready.discard(task_name)
            steps += 1
            for successor in graph.successors(task_name):
                unscheduled_preds[successor] -= 1
                if unscheduled_preds[successor] == 0:
                    ready.add(successor)

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

