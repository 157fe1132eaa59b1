"""The paper's contribution (S6): thermal-aware allocation & scheduling.

* :func:`~repro.core.criticality.static_criticality` — SC priorities;
* :mod:`repro.core.heuristics` — the DC ``Pow``/``Avg_Temp`` policies
  (baseline, power heuristics 1–3, thermal);
* :class:`~repro.core.scheduler.ListScheduler` — the ASP engine;
* :class:`~repro.core.schedule.Schedule` — its validated output.

Pass a :class:`~repro.thermal.HotSpotModel` as the scheduler's
``thermal`` argument to run the thermal policies (HotSpot in the loop,
Figure 1b).
"""

from .conditional import (
    ConditionalEvaluation,
    ScenarioResult,
    schedule_conditional,
)
from .criticality import static_criticality
from .heuristics import (
    POLICY_NAMES,
    BaselinePolicy,
    CumulativePowerPolicy,
    DCContext,
    DCPolicy,
    DCStep,
    TaskEnergyPolicy,
    TaskPowerPolicy,
    ThermalPolicy,
    policy_by_name,
)
from .schedule import Assignment, Schedule
from .scheduler import ListScheduler

__all__ = [
    "static_criticality",
    "DCContext",
    "DCStep",
    "DCPolicy",
    "BaselinePolicy",
    "TaskPowerPolicy",
    "CumulativePowerPolicy",
    "TaskEnergyPolicy",
    "ThermalPolicy",
    "policy_by_name",
    "POLICY_NAMES",
    "Assignment",
    "Schedule",
    "ListScheduler",
    "ConditionalEvaluation",
    "ScenarioResult",
    "schedule_conditional",
]
