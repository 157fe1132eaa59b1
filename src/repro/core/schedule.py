"""Schedules: the output of the allocation-and-scheduling procedure.

A :class:`Schedule` is an immutable-ish record of committed
:class:`Assignment` s (task → PE with start/end times and power), held as
columns in placement order, plus the
derived quantities every experiment reports: makespan, deadline slack,
per-PE load, average powers, and the flat power intervals consumed by
:class:`repro.power.trace.PowerTrace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import SchedulingError
from ..library.pe import Architecture
from ..library.technology import TechnologyLibrary
from ..power.trace import PowerTrace
from ..taskgraph.graph import TaskGraph

__all__ = ["Assignment", "Schedule"]


def _check_row(task: str, start: float, end: float, power: float) -> None:
    """Reject one placement as :class:`Assignment` does."""
    if end <= start:
        raise SchedulingError(f"assignment of {task!r}: end {end} <= start {start}")
    if start < 0.0:
        raise SchedulingError(f"assignment of {task!r}: negative start")
    if power < 0.0:
        raise SchedulingError(f"assignment of {task!r}: negative power")


@dataclass(frozen=True)
class Assignment:
    """One task placed on one PE over ``[start, end)``."""

    task: str
    pe: str
    start: float
    end: float
    power: float

    def __post_init__(self) -> None:
        _check_row(self.task, self.start, self.end, self.power)

    @property
    def duration(self) -> float:
        """Execution time of the assignment."""
        return self.end - self.start

    @property
    def energy(self) -> float:
        """Dynamic energy: power × duration."""
        return self.power * self.duration


class Schedule:
    """A complete mapping + timing of a task graph onto an architecture.

    The placements are stored as columns — task, PE, start, end and power
    lists in placement order — and an :class:`Assignment` is built only
    when a caller reads one.  Energies are ``power × (end − start)`` per
    row, summed with builtin ``sum`` in placement order.
    """

    def __init__(
        self,
        graph: TaskGraph,
        architecture: Architecture,
        assignments: Iterable[Assignment],
        policy_name: str = "unknown",
    ):
        rows = list(assignments)
        self._adopt(graph, architecture, policy_name, *(
            [getattr(a, field) for a in rows]
            for field in ("task", "pe", "start", "end", "power")
        ))

    @classmethod
    def _from_columns(
        cls,
        graph: TaskGraph,
        architecture: Architecture,
        policy_name: str,
        tasks: List[str],
        pes: List[str],
        starts: List[float],
        ends: List[float],
        powers: List[float],
    ) -> "Schedule":
        """A schedule adopting the given column lists (placement order).

        Every row is checked as :class:`Assignment` checks it, first bad
        row first, before the tasks are checked for repeats — the order
        in which a list of assignments would fail.
        """
        # fast accept; NaN or a bad row fails it and goes to the row check
        if tasks and not (
            all(map(lt, starts, ends)) and min(starts) >= 0.0 and min(powers) >= 0.0
        ):
            for row in zip(tasks, starts, ends, powers):
                _check_row(*row)
        schedule = object.__new__(cls)
        schedule._adopt(
            graph, architecture, policy_name, tasks, pes, starts, ends, powers
        )
        return schedule

    def _adopt(
        self,
        graph: TaskGraph,
        architecture: Architecture,
        policy_name: str,
        tasks: List[str],
        pes: List[str],
        starts: List[float],
        ends: List[float],
        powers: List[float],
    ) -> None:
        self.graph = graph
        self.architecture = architecture
        self.policy_name = policy_name
        self._row: Dict[str, int] = {}
        for row, task in enumerate(tasks):
            if task in self._row:
                raise SchedulingError(f"task {task!r} assigned twice")
            self._row[task] = row
        self._task, self._pe = tasks, pes
        self._start, self._end, self._power = starts, ends, powers

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._task)

    def _assignment_at(self, row: int) -> Assignment:
        return Assignment(
            self._task[row], self._pe[row], self._start[row], self._end[row],
            self._power[row],
        )

    def __iter__(self) -> Iterator[Assignment]:
        return map(self._assignment_at, range(len(self._task)))

    def __repr__(self) -> str:
        return (
            f"Schedule({self.graph.name!r} on {self.architecture.name!r}, "
            f"policy={self.policy_name!r}, makespan={self.makespan:.1f}, "
            f"deadline={self.graph.deadline})"
        )

    def assignment(self, task: str) -> Assignment:
        """The assignment of *task*."""
        try:
            return self._assignment_at(self._row[task])
        except KeyError:
            raise SchedulingError(f"task {task!r} is not scheduled")

    def _sorted_rows(self) -> List[int]:
        """Rows sorted by (start, task name)."""
        starts, tasks = self._start, self._task
        return sorted(range(len(tasks)), key=lambda row: (starts[row], tasks[row]))

    def assignments(self) -> List[Assignment]:
        """All assignments, sorted by (start, task name)."""
        return [self._assignment_at(row) for row in self._sorted_rows()]

    def pe_assignments(self, pe: str) -> List[Assignment]:
        """Assignments on one PE, sorted by start time."""
        self.architecture.pe(pe)
        return sorted(
            (a for a in self if a.pe == pe),
            key=lambda a: a.start,
        )

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Completion time of the last task."""
        if not self._end:
            return 0.0
        return max(self._end)

    @property
    def meets_deadline(self) -> bool:
        """True if the makespan is within the graph deadline."""
        return self.makespan <= self.graph.deadline + 1e-9

    @property
    def slack(self) -> float:
        """Deadline minus makespan (negative when the deadline is missed)."""
        return self.graph.deadline - self.makespan

    def _energies(self) -> List[float]:
        """Every row's dynamic energy, ``power × (end − start)``."""
        return [
            power * (end - start)
            for start, end, power in zip(self._start, self._end, self._power)
        ]

    @property
    def total_energy(self) -> float:
        """Total dynamic energy over all assignments (J)."""
        return sum(self._energies())

    def pe_energy(self) -> Dict[str, float]:
        """Dynamic energy per PE (J), zero-filled for idle PEs."""
        energy = {pe.name: 0.0 for pe in self.architecture}
        for pe, value in zip(self._pe, self._energies()):
            energy[pe] += value
        return energy

    def pe_busy_time(self) -> Dict[str, float]:
        """Busy time per PE, zero-filled for idle PEs."""
        busy = {pe.name: 0.0 for pe in self.architecture}
        for pe, start, end in zip(self._pe, self._start, self._end):
            busy[pe] += end - start
        return busy

    def pe_task_counts(self) -> Dict[str, int]:
        """Number of tasks per PE."""
        counts = {pe.name: 0 for pe in self.architecture}
        for pe in self._pe:
            counts[pe] += 1
        return counts

    def average_powers(
        self, horizon: Optional[float] = None, include_idle: bool = True
    ) -> Dict[str, float]:
        """Average power per PE over ``[0, horizon]`` (W).

        This is the power vector handed to HotSpot when evaluating a
        finished schedule: committed energy averaged over the schedule
        length (default horizon = makespan), plus idle power.
        """
        span = self.makespan if horizon is None else float(horizon)
        if span <= 0.0:
            raise SchedulingError("cannot average power over a zero-length schedule")
        energy = self.pe_energy()
        powers = {}
        for pe in self.architecture:
            idle = pe.pe_type.idle_power if include_idle else 0.0
            powers[pe.name] = energy[pe.name] / span + idle
        return powers

    @property
    def total_average_power(self) -> float:
        """Sum of per-PE average powers (W) — the tables' "Total Pow."."""
        return sum(self.average_powers().values())

    def load_balance(self) -> float:
        """Peak-to-mean busy-time ratio across PEs (1 = perfectly balanced)."""
        busy = list(self.pe_busy_time().values())
        mean = sum(busy) / len(busy)
        if mean <= 0.0:
            return 1.0
        return max(busy) / mean

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def power_intervals(self) -> List[Tuple[float, float, str, float]]:
        """Flat ``(start, end, pe, power)`` intervals for PowerTrace."""
        return [
            (self._start[row], self._end[row], self._pe[row], self._power[row])
            for row in self._sorted_rows()
        ]

    def power_trace(self, include_idle: bool = True) -> PowerTrace:
        """Time-resolved power trace of this schedule."""
        idle = (
            {pe.name: pe.pe_type.idle_power for pe in self.architecture}
            if include_idle
            else {pe.name: 0.0 for pe in self.architecture}
        )
        return PowerTrace(
            self.power_intervals(), idle_power=idle, span=self.makespan
        )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, library: Optional[TechnologyLibrary] = None) -> None:
        """Check the schedule is complete, precedence-correct and exclusive.

        * every task of the graph is scheduled exactly once;
        * every assignment's PE exists in the architecture;
        * no two assignments overlap on the same PE;
        * every edge's destination starts at or after its source ends;
        * with *library*, each assignment's duration equals the WCET and its
          power equals the WCPC of the (task, PE) pair.
        """
        assignments = {a.task: a for a in self}
        graph_tasks = set(self.graph.task_names())
        scheduled = set(assignments)
        missing = graph_tasks - scheduled
        if missing:
            raise SchedulingError(f"unscheduled tasks: {sorted(missing)}")
        extra = scheduled - graph_tasks
        if extra:
            raise SchedulingError(f"assignments for unknown tasks: {sorted(extra)}")

        for pe_name in self._pe:
            self.architecture.pe(pe_name)  # raises if unknown

        for pe in self.architecture:
            timeline = self.pe_assignments(pe.name)
            for earlier, later in zip(timeline, timeline[1:]):
                if later.start < earlier.end - 1e-9:
                    raise SchedulingError(
                        f"overlap on {pe.name!r}: {earlier.task!r} "
                        f"[{earlier.start}, {earlier.end}) vs {later.task!r} "
                        f"[{later.start}, {later.end})"
                    )

        for edge in self.graph.edges():
            src = assignments[edge.src]
            dst = assignments[edge.dst]
            if dst.start < src.end - 1e-9:
                raise SchedulingError(
                    f"precedence violation: {edge.dst!r} starts at {dst.start} "
                    f"before {edge.src!r} ends at {src.end}"
                )

        if library is not None:
            for assignment in assignments.values():
                task = self.graph.task(assignment.task)
                pe = self.architecture.pe(assignment.pe)
                wcet = library.wcet(task, pe)
                if abs(assignment.duration - wcet) > 1e-6:
                    raise SchedulingError(
                        f"{assignment.task!r} on {assignment.pe!r}: duration "
                        f"{assignment.duration} != WCET {wcet}"
                    )
                wcpc = library.power(task, pe)
                if abs(assignment.power - wcpc) > 1e-6:
                    raise SchedulingError(
                        f"{assignment.task!r} on {assignment.pe!r}: power "
                        f"{assignment.power} != WCPC {wcpc}"
                    )
