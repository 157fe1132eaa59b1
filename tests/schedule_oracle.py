"""The Assignment-by-Assignment schedule, kept as the oracle of the
column-backed ``Schedule``.

:class:`OracleSchedule` is the schedule as it was before its placements
were stored as columns: a task → :class:`Assignment` dict whose metrics
read each assignment's ``energy`` and ``duration``.
``tests/test_schedule_columns.py`` compares the two.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.schedule import Assignment
from repro.errors import SchedulingError
from repro.library.pe import Architecture
from repro.taskgraph.graph import TaskGraph

__all__ = ["OracleSchedule"]


class OracleSchedule:
    """A task → :class:`Assignment` dict with the original metrics."""

    def __init__(
        self,
        graph: TaskGraph,
        architecture: Architecture,
        assignments: Iterable[Assignment],
        policy_name: str = "unknown",
    ):
        self.graph = graph
        self.architecture = architecture
        self.policy_name = policy_name
        self._assignments: Dict[str, Assignment] = {}
        for assignment in assignments:
            if assignment.task in self._assignments:
                raise SchedulingError(f"task {assignment.task!r} assigned twice")
            self._assignments[assignment.task] = assignment

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._assignments)

    def __iter__(self):
        return iter(self._assignments.values())

    def __repr__(self) -> str:
        return (
            f"Schedule({self.graph.name!r} on {self.architecture.name!r}, "
            f"policy={self.policy_name!r}, makespan={self.makespan:.1f}, "
            f"deadline={self.graph.deadline})"
        )

    def assignment(self, task: str) -> Assignment:
        """The assignment of *task*."""
        try:
            return self._assignments[task]
        except KeyError:
            raise SchedulingError(f"task {task!r} is not scheduled")

    def assignments(self) -> List[Assignment]:
        """All assignments, sorted by (start, task name)."""
        return sorted(self._assignments.values(), key=lambda a: (a.start, a.task))

    def pe_assignments(self, pe: str) -> List[Assignment]:
        """Assignments on one PE, sorted by start time."""
        self.architecture.pe(pe)
        return sorted(
            (a for a in self._assignments.values() if a.pe == pe),
            key=lambda a: a.start,
        )

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Completion time of the last task."""
        if not self._assignments:
            return 0.0
        return max(a.end for a in self._assignments.values())

    @property
    def meets_deadline(self) -> bool:
        """True if the makespan is within the graph deadline."""
        return self.makespan <= self.graph.deadline + 1e-9

    @property
    def slack(self) -> float:
        """Deadline minus makespan (negative when the deadline is missed)."""
        return self.graph.deadline - self.makespan

    @property
    def total_energy(self) -> float:
        """Total dynamic energy over all assignments (J)."""
        return sum(a.energy for a in self._assignments.values())

    def pe_energy(self) -> Dict[str, float]:
        """Dynamic energy per PE (J), zero-filled for idle PEs."""
        energy = {pe.name: 0.0 for pe in self.architecture}
        for assignment in self._assignments.values():
            energy[assignment.pe] += assignment.energy
        return energy

    def pe_busy_time(self) -> Dict[str, float]:
        """Busy time per PE, zero-filled for idle PEs."""
        busy = {pe.name: 0.0 for pe in self.architecture}
        for assignment in self._assignments.values():
            busy[assignment.pe] += assignment.duration
        return busy

    def pe_task_counts(self) -> Dict[str, int]:
        """Number of tasks per PE."""
        counts = {pe.name: 0 for pe in self.architecture}
        for assignment in self._assignments.values():
            counts[assignment.pe] += 1
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

    def power_intervals(self) -> List[Tuple[float, float, str, float]]:
        """Flat ``(start, end, pe, power)`` intervals for PowerTrace."""
        return [
            (a.start, a.end, a.pe, a.power) for a in self.assignments()
        ]
