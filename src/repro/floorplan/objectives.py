"""Floorplan cost functions.

The thermal-aware floorplanner of ref [3] minimises a weighted sum of chip
area and peak temperature (plus optional wirelength).  The temperature
evaluator is injected as a callable ``Floorplan -> float`` so this module
does not depend on :mod:`repro.thermal` (the thermal package depends on
floorplan geometry, not the other way round).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Tuple

from ..errors import FloorplanError
from .geometry import Floorplan

__all__ = ["FloorplanObjective", "area_objective", "thermal_objective"]

#: Signature of an injected peak-temperature evaluator.
TempEvaluator = Callable[[Floorplan], float]


@dataclass
class FloorplanObjective:
    """Weighted floorplan cost: ``α·area + β·peak_temp + γ·wirelength + aspect``.

    Parameters
    ----------
    area_weight:
        Weight on bounding-box area (mm²).
    temp_weight:
        Weight on the evaluated peak temperature (°C).  Requires
        ``temp_evaluator`` when non-zero.
    wirelength_weight:
        Weight on total Manhattan wirelength over ``nets``.
    aspect_weight, aspect_limit:
        Quadratic penalty on the die aspect ratio beyond ``aspect_limit``
        (keeps plans packageable).
    temp_evaluator:
        Callable returning the peak steady-state temperature of a plan.
    nets:
        ``(src, dst, weight)`` connectivity for the wirelength term.
    """

    area_weight: float = 1.0
    temp_weight: float = 0.0
    wirelength_weight: float = 0.0
    aspect_weight: float = 10.0
    aspect_limit: float = 3.0
    temp_evaluator: Optional[TempEvaluator] = None
    nets: Sequence[Tuple[str, str, float]] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.temp_weight > 0.0 and self.temp_evaluator is None:
            raise FloorplanError(
                "temp_weight > 0 requires a temp_evaluator callable"
            )
        for weight in (self.area_weight, self.temp_weight, self.wirelength_weight,
                       self.aspect_weight):
            if not (math.isfinite(weight) and weight >= 0.0):
                raise FloorplanError(
                    f"objective weights must be finite and >= 0, got {weight}"
                )
        if not math.isfinite(self.aspect_limit):
            raise FloorplanError(
                f"aspect_limit must be finite, got {self.aspect_limit}"
            )

    def __call__(self, plan: Floorplan) -> float:
        """Evaluate the cost of *plan* (lower is better)."""
        cost = 0.0
        # one bounding-box scan serves the area and the aspect term
        width, height = plan.die_size()  # (0, 0) for an empty plan
        if self.area_weight:
            cost += self.area_weight * (width * height)
        if self.temp_weight:
            cost += self.temp_weight * self.temp_evaluator(plan)
        if self.wirelength_weight and self.nets:
            cost += self.wirelength_weight * plan.total_wirelength(self.nets)
        if self.aspect_weight:
            if not len(plan):
                plan.bounding_box()  # raises: an empty plan has no aspect ratio
            aspect = max(width, height) / min(width, height)
            excess = max(0.0, aspect - self.aspect_limit)
            cost += self.aspect_weight * excess * excess
        return cost


def area_objective() -> FloorplanObjective:
    """Pure-area objective (the classic Wong–Liu cost)."""
    return FloorplanObjective(area_weight=1.0)


def thermal_objective(
    temp_evaluator: TempEvaluator,
    area_weight: float = 0.35,
    temp_weight: float = 1.0,
) -> FloorplanObjective:
    """Area + peak-temperature objective used by the thermal-aware flow.

    The default weights make one °C of peak temperature worth roughly
    3 mm² of die area, which reproduces the ref-[3] behaviour of spreading
    hot blocks apart without exploding the die.
    """
    return FloorplanObjective(
        area_weight=area_weight,
        temp_weight=temp_weight,
        temp_evaluator=temp_evaluator,
    )
