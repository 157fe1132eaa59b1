"""Simulated-annealing slicing floorplanner (Wong–Liu).

Baseline search engine against which the genetic floorplanner (ref [3]) is
compared in ablation A3.  Operates on
:class:`~repro.floorplan.slicing.PolishExpression` states with the classic
M1/M2/M3 (+rotation) move set and a geometric cooling schedule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..errors import FloorplanError, SlicingError
from ..library.pe import Architecture
from ..rng import SeedLike, as_random
from .genetic import _dims_of
from .geometry import Floorplan
from .objectives import FloorplanObjective, area_objective
from .slicing import PolishExpression

__all__ = ["AnnealingConfig", "AnnealingResult", "anneal_floorplan"]

#: Injected evaluation callback: expression -> (cost, floorplan).
EvaluateFn = Callable[[PolishExpression], Tuple[float, Floorplan]]


@dataclass(frozen=True)
class AnnealingConfig:
    """Cooling-schedule parameters.

    Defaults are sized for the library's typical 2–10 block problems; the
    schedule is intentionally short because the co-synthesis outer loop may
    run the floorplanner many times.
    """

    initial_temperature: float = 100.0
    final_temperature: float = 0.05
    cooling_rate: float = 0.92
    moves_per_temperature: int = 24

    def __post_init__(self) -> None:
        # inf * cooling_rate stays inf: the schedule would never end
        if not math.isfinite(self.initial_temperature):
            raise FloorplanError(
                f"initial_temperature must be finite, got {self.initial_temperature}"
            )
        if not (0.0 < self.final_temperature < self.initial_temperature):
            raise FloorplanError(
                "need 0 < final_temperature < initial_temperature"
            )
        if not (0.0 < self.cooling_rate < 1.0):
            raise FloorplanError("cooling_rate must be in (0, 1)")
        if self.moves_per_temperature < 1:
            raise FloorplanError("moves_per_temperature must be >= 1")


@dataclass
class AnnealingResult:
    """Outcome of one annealing run."""

    expression: PolishExpression
    floorplan: Floorplan
    cost: float
    evaluations: int
    accepted_moves: int

    @property
    def die_area(self) -> float:
        """Area of the resulting die (mm²)."""
        return self.floorplan.die_area


def anneal_floorplan(
    architecture: Architecture,
    objective: Optional[FloorplanObjective] = None,
    config: Optional[AnnealingConfig] = None,
    seed: SeedLike = None,
    initial: Optional[PolishExpression] = None,
    evaluate: Optional[EvaluateFn] = None,
    rng: Optional[random.Random] = None,
) -> AnnealingResult:
    """Anneal a slicing floorplan for *architecture*.

    Single-block architectures are returned immediately (nothing to search).
    The best-ever state is tracked separately from the current state, so the
    result never regresses due to late uphill acceptances.

    *evaluate* and *rng* are the DSE injection hooks: *evaluate* replaces
    the default expression scoring (slice the expression, then apply
    *objective*) with an arbitrary ``expression -> (cost, floorplan)``
    callback, and *rng* supplies an externally owned random stream (it
    wins over *seed*), letting a driver hand each run a deterministic
    substream.  With both omitted the behaviour — including the RNG call
    sequence — is exactly the legacy one.
    """
    if len(architecture) == 0:
        raise FloorplanError("cannot floorplan an empty architecture")
    objective = objective or area_objective()
    config = config or AnnealingConfig()
    rng = rng if rng is not None else as_random(seed)
    if evaluate is None:
        def evaluate(expression: PolishExpression) -> Tuple[float, Floorplan]:
            plan = expression.evaluate()
            return objective(plan), plan

    current = initial if initial is not None else PolishExpression.initial(
        _dims_of(architecture), order=architecture.pe_names()
    )
    current_cost, current_plan = evaluate(current)
    best, best_plan, best_cost = current, current_plan, current_cost
    evaluations = 1
    accepted = 0

    if len(architecture) == 1:
        return AnnealingResult(best, best_plan, best_cost, evaluations, accepted)

    temperature = config.initial_temperature
    while temperature > config.final_temperature:
        for _ in range(config.moves_per_temperature):
            try:
                candidate = current.random_move(rng)
            except SlicingError:
                continue
            cost, plan = evaluate(candidate)
            evaluations += 1
            delta = cost - current_cost
            if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
                current, current_plan, current_cost = candidate, plan, cost
                accepted += 1
                if cost < best_cost:
                    best, best_plan, best_cost = candidate, plan, cost
        temperature *= config.cooling_rate

    best_plan.validate()
    return AnnealingResult(best, best_plan, best_cost, evaluations, accepted)
