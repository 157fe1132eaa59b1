"""Co-synthesis cost functions.

The outer loop needs two scalars:

* a **screening cost** to rank allocations cheaply (no thermal model):
  deadline-feasible first, then low energy, then low catalogue cost;
* a **final cost** to pick the winning architecture after full evaluation:
  the paper's targets are peak and average temperature, with total power as
  the power-aware proxy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from ..analysis.metrics import ScheduleEvaluation
from ..core.schedule import Schedule
from ..errors import CoSynthesisError

__all__ = ["ScreeningCost", "FinalCost", "screening_cost", "thermal_final_cost",
           "power_final_cost", "performance_final_cost", "performance_screening_cost"]

#: Penalty added per missed-deadline time unit during screening, large
#: enough that any feasible allocation beats any infeasible one.
_DEADLINE_PENALTY = 1e6


def _check_weights(cost: object, fields: Tuple[str, ...]) -> None:
    """Reject a negative or non-finite weight, naming its field.

    A NaN weight would make every cost NaN, and ``(cost, rank)``
    comparisons would then keep whichever candidate came first.
    """
    for field in fields:
        value = getattr(cost, field)
        if not 0.0 <= value < math.inf:
            raise CoSynthesisError(
                f"{type(cost).__name__}.{field} must be finite and >= 0, "
                f"got {value}"
            )


@dataclass(frozen=True)
class ScreeningCost:
    """Cheap allocation-ranking cost (no thermal model).

    ``energy_weight`` ranks feasible allocations by schedule energy (the
    best power proxy available pre-floorplan); ``monetary_weight`` breaks
    remaining ties toward cheaper architectures.
    """

    energy_weight: float = 1.0
    monetary_weight: float = 0.1

    def __post_init__(self) -> None:
        _check_weights(self, ("energy_weight", "monetary_weight"))

    def __call__(self, schedule: Schedule) -> float:
        cost = 0.0
        if not schedule.meets_deadline:
            cost += _DEADLINE_PENALTY * (
                1.0 + schedule.makespan - schedule.graph.deadline
            )
        cost += self.energy_weight * schedule.total_energy
        cost += self.monetary_weight * schedule.architecture.total_cost
        return cost


@dataclass(frozen=True)
class FinalCost:
    """Full evaluation cost over a :class:`ScheduleEvaluation`.

    Deadline misses dominate everything; among feasible designs the
    weighted temperature/power mix decides.
    """

    max_temp_weight: float = 1.0
    avg_temp_weight: float = 1.0
    power_weight: float = 0.0

    def __post_init__(self) -> None:
        _check_weights(self, ("max_temp_weight", "avg_temp_weight", "power_weight"))

    def __call__(self, evaluation: ScheduleEvaluation) -> float:
        cost = 0.0
        if not evaluation.meets_deadline:
            cost += _DEADLINE_PENALTY * (1.0 - evaluation.slack)
        cost += self.max_temp_weight * evaluation.max_temperature
        cost += self.avg_temp_weight * evaluation.avg_temperature
        cost += self.power_weight * evaluation.total_power
        return cost


def screening_cost() -> ScreeningCost:
    """Default screening cost."""
    return ScreeningCost()


def thermal_final_cost() -> FinalCost:
    """Final cost for thermal-aware co-synthesis: temperatures only."""
    return FinalCost(max_temp_weight=1.0, avg_temp_weight=1.0, power_weight=0.0)


def power_final_cost() -> FinalCost:
    """Final cost for power-aware co-synthesis: power only.

    Power-aware flows pick architectures by power and only *report*
    temperatures afterwards — exactly the paper's power-aware columns.
    """
    return FinalCost(max_temp_weight=0.0, avg_temp_weight=0.0, power_weight=1.0)


def performance_final_cost() -> FinalCost:
    """Final cost for the traditional (baseline) co-synthesis flow.

    Neither power nor temperature is considered: deadline feasibility
    dominates and remaining ties resolve to the screening order (cheapest
    feasible architecture wins) — the paper's "does not take the power into
    consideration" baseline.
    """
    return FinalCost(max_temp_weight=0.0, avg_temp_weight=0.0, power_weight=0.0)


def performance_screening_cost() -> ScreeningCost:
    """Screening for the traditional flow: feasibility + monetary cost only."""
    return ScreeningCost(energy_weight=0.0, monetary_weight=1.0)
