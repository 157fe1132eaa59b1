"""Extended DC policies beyond the paper.

The paper's thermal term is the *average* block temperature.  Two natural
variants are provided as extensions (exercised by the policy-variant
ablation bench):

* :class:`ThermalPeakPolicy` — penalise the predicted **peak** block
  temperature instead of the average.  In a linear RC model the average is
  a fixed linear functional of the power vector, so it cannot "see"
  concentration on one PE; the peak can, making this variant the stronger
  hotspot-avoidance signal.
* :class:`HybridThermalPolicy` — a convex mix of average and peak,
  recovering the paper's policy at ``peak_fraction = 0``.

Both register themselves into the core DC-policy registry at import time,
so ``repro.policy_by_name("thermal-peak")`` (or ``"thermal_peak"``) works
like any built-in name and ``repro.POLICY_NAMES`` lists them.
"""

from __future__ import annotations

from typing import Dict

from ..core.heuristics import DCContext, DCPolicy, register_dc_policy
from ..errors import SchedulingError

__all__ = [
    "ThermalPeakPolicy",
    "HybridThermalPolicy",
]


def _candidate_block_powers(ctx: DCContext) -> Dict[str, float]:
    """Per-block average powers with the candidate task injected."""
    averages = ctx.accumulator.average_powers(
        ctx.horizon, extra={ctx.pe_name: ctx.energy}
    )
    mapping = ctx.pe_to_block or {}
    return {mapping.get(pe, pe): watts for pe, watts in averages.items()}


@register_dc_policy
class ThermalPeakPolicy(DCPolicy):
    """Minimise the predicted peak block temperature (extension).

    Same HotSpot query as the paper's policy, but the penalty is the
    *maximum* returned temperature.  Unlike the average, the peak rises
    superlinearly with concentration on one PE position, so this policy
    actively spreads hot tasks.
    """

    name = "thermal-peak"
    requires_thermal = True

    def __init__(self, weight: float = 20.0):
        super().__init__(weight)

    def penalty(self, ctx: DCContext) -> float:
        if ctx.thermal is None:
            raise SchedulingError(
                "ThermalPeakPolicy needs a thermal model; build the "
                "scheduler with a floorplan/HotSpotModel"
            )
        if ctx.thermal_query is not None:
            peak = ctx.thermal_query.peak_temperature(
                ctx.pe_name, ctx.energy, ctx.horizon
            )
            return self.weight * peak
        peak = ctx.thermal.peak_temperature(_candidate_block_powers(ctx))
        return self.weight * peak


@register_dc_policy
class HybridThermalPolicy(DCPolicy):
    """Convex mix of average and peak temperature (extension).

    ``peak_fraction = 0`` reproduces the paper's ``Avg_Temp`` policy;
    ``peak_fraction = 1`` is :class:`ThermalPeakPolicy`.
    """

    name = "thermal-hybrid"
    requires_thermal = True

    def __init__(self, weight: float = 20.0, peak_fraction: float = 0.5):
        super().__init__(weight)
        if not (0.0 <= peak_fraction <= 1.0):
            raise SchedulingError(
                f"peak_fraction must be in [0, 1], got {peak_fraction}"
            )
        self.peak_fraction = peak_fraction

    def penalty(self, ctx: DCContext) -> float:
        if ctx.thermal is None:
            raise SchedulingError(
                "HybridThermalPolicy needs a thermal model; build the "
                "scheduler with a floorplan/HotSpotModel"
            )
        if ctx.thermal_query is not None:
            temps_arr = ctx.thermal_query.block_temperatures(
                ctx.pe_name, ctx.energy, ctx.horizon
            )
            average = float(temps_arr.sum()) / len(temps_arr)
            peak = float(temps_arr.max())
        else:
            powers = _candidate_block_powers(ctx)
            temps = ctx.thermal.block_temperatures(powers)
            average = sum(temps.values()) / len(temps)
            peak = max(temps.values())
        mixed = (1.0 - self.peak_fraction) * average + self.peak_fraction * peak
        return self.weight * mixed

