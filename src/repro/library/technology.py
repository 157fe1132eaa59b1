"""The technology ("target") library: WCET and WCPC tables.

The paper: *"The target library stores the worst case power consumptions
(WCPC) and worst case execution times (WCET) for a task executed on
different PEs."*  This module implements that store, keyed by
``(task_type, pe_type)``.  A missing entry means the PE type cannot execute
the task type at all — which is how heterogeneous catalogues (e.g. an
accelerator that only supports two task types) are expressed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..errors import LibraryError, UnknownTaskTypeError
from ..taskgraph.graph import TaskGraph
from ..taskgraph.task import Task
from .pe import Architecture, PEInstance, PEType

__all__ = ["TechnologyLibrary"]

_Key = Tuple[str, str]  # (task_type, pe_type)


class TechnologyLibrary:
    """WCET/WCPC store for (task type, PE type) pairs.

    All accessors accept either a :class:`~repro.taskgraph.task.Task` (whose
    ``weight`` scales the WCET) or a bare task-type string, and either a
    :class:`~repro.library.pe.PEInstance` or a PE-type string.
    """

    def __init__(self, name: str = "library"):
        if not name:
            raise LibraryError("library name must be non-empty")
        self.name = name
        self._wcet: Dict[_Key, float] = {}
        self._wcpc: Dict[_Key, float] = {}
        # task type -> {pe_type: wcet} in insertion order, so the per-type
        # queries need no scan and sum in the same order as ``_wcet``
        self._by_task: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_entry(
        self, task_type: str, pe_type: str, wcet: float, wcpc: float
    ) -> None:
        """Register the (WCET, WCPC) of *task_type* on *pe_type*."""
        if not task_type or not pe_type:
            raise LibraryError("task_type and pe_type must be non-empty")
        if wcet <= 0.0:
            raise LibraryError(
                f"WCET of {task_type!r} on {pe_type!r} must be positive, got {wcet}"
            )
        if wcpc <= 0.0:
            raise LibraryError(
                f"WCPC of {task_type!r} on {pe_type!r} must be positive, got {wcpc}"
            )
        key = (task_type, pe_type)
        if key in self._wcet:
            raise LibraryError(f"duplicate library entry for {key}")
        self._wcet[key] = float(wcet)
        self._wcpc[key] = float(wcpc)
        self._by_task.setdefault(task_type, {})[pe_type] = float(wcet)

    # ------------------------------------------------------------------
    # normalisation helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _task_type_of(task) -> Tuple[str, float]:
        if isinstance(task, Task):
            return task.task_type, task.weight
        return str(task), 1.0

    @staticmethod
    def _pe_type_of(pe) -> str:
        if isinstance(pe, PEInstance):
            return pe.type_name
        if isinstance(pe, PEType):
            return pe.name
        return str(pe)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def supports(self, task, pe) -> bool:
        """True if *pe* can execute *task* at all."""
        task_type, _ = self._task_type_of(task)
        return (task_type, self._pe_type_of(pe)) in self._wcet

    def wcet(self, task, pe) -> float:
        """Worst-case execution time of *task* on *pe* (time units).

        A :class:`Task`'s ``weight`` multiplies the library WCET.
        """
        task_type, weight = self._task_type_of(task)
        pe_type = self._pe_type_of(pe)
        try:
            return self._wcet[(task_type, pe_type)] * weight
        except KeyError:
            raise UnknownTaskTypeError(
                f"library {self.name!r} has no WCET for task type "
                f"{task_type!r} on PE type {pe_type!r}"
            )

    def power(self, task, pe) -> float:
        """Worst-case power consumption of *task* on *pe* (W).

        Power is a property of (task type, PE type) and does not scale with
        task weight — a heavier task runs *longer* at the same power.
        """
        task_type, _ = self._task_type_of(task)
        pe_type = self._pe_type_of(pe)
        try:
            return self._wcpc[(task_type, pe_type)]
        except KeyError:
            raise UnknownTaskTypeError(
                f"library {self.name!r} has no WCPC for task type "
                f"{task_type!r} on PE type {pe_type!r}"
            )

    def energy(self, task, pe) -> float:
        """Worst-case energy of *task* on *pe*: ``WCET × WCPC`` (J)."""
        return self.wcet(task, pe) * self.power(task, pe)

    def task_types(self) -> List[str]:
        """All task types with at least one entry, sorted."""
        return sorted({task_type for task_type, _ in self._wcet})

    def pe_types(self) -> List[str]:
        """All PE types with at least one entry, sorted."""
        return sorted({pe_type for _, pe_type in self._wcet})

    def supported_pe_types(self, task) -> List[str]:
        """PE types able to execute *task*, sorted."""
        task_type, _ = self._task_type_of(task)
        return sorted(self._by_task.get(task_type, ()))

    def _wcets_of(self, task_type: str) -> Dict[str, float]:
        values = self._by_task.get(task_type)
        if not values:
            raise UnknownTaskTypeError(
                f"library {self.name!r} has no entries for task type {task_type!r}"
            )
        return values

    def mean_wcet(self, task) -> float:
        """Average WCET of *task* across all PE types supporting it.

        Used as the node cost when computing static criticality, so a
        task's priority does not depend on any particular PE choice.
        """
        task_type, weight = self._task_type_of(task)
        values = self._wcets_of(task_type)
        return weight * sum(values.values()) / len(values)

    def min_wcet(self, task) -> float:
        """Fastest WCET of *task* over all supporting PE types."""
        task_type, weight = self._task_type_of(task)
        return weight * min(self._wcets_of(task_type).values())

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def check_graph(self, graph: TaskGraph, architecture: Architecture) -> None:
        """Verify every task of *graph* can run on some PE of *architecture*.

        Raises :class:`~repro.errors.UnknownTaskTypeError` naming the first
        offending task.  The co-synthesis allocator calls this before
        spending scheduler time on an allocation.
        """
        available = {pe.type_name for pe in architecture}
        for task in graph:
            supported = set(self.supported_pe_types(task))
            if not supported & available:
                raise UnknownTaskTypeError(
                    f"task {task.name!r} (type {task.task_type!r}) cannot run "
                    f"on any PE of architecture {architecture.name!r} "
                    f"(available types: {sorted(available)})"
                )

    def entries(self) -> List[Tuple[str, str, float, float]]:
        """All (task_type, pe_type, wcet, wcpc) rows, sorted."""
        return sorted(
            (t, p, self._wcet[(t, p)], self._wcpc[(t, p)])
            for (t, p) in self._wcet
        )

    def __len__(self) -> int:
        return len(self._wcet)

    def __repr__(self) -> str:
        return (
            f"TechnologyLibrary({self.name!r}, entries={len(self._wcet)}, "
            f"task_types={len(self.task_types())}, pe_types={len(self.pe_types())})"
        )
