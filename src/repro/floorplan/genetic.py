"""Genetic-algorithm slicing floorplanner.

Reproduction of the thermal-aware floorplanner the paper invokes inside its
co-synthesis loop (ref [3]: Hung et al., "Thermal-Aware Floorplanning Using
Genetic Algorithms", ISQED 2005).  Chromosomes are normalized Polish
expressions; the GA combines

* **order crossover (OX)** on the operand (block) sequence, which preserves
  relative block adjacency from both parents,
* an **operator-skeleton inheritance** from the first parent,
* **mutation** via the Wong–Liu move set (M1/M2/M3 + rotation),
* tournament selection with elitism.

With a thermal objective (see
:func:`~repro.floorplan.objectives.thermal_objective`) the GA spreads
high-power blocks apart; with a pure area objective it behaves like a
conventional floorplanner — both modes are exercised by ablation A3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import FloorplanError, SlicingError
from ..library.pe import Architecture
from ..obs import get_recorder
from ..rng import SeedLike, as_random
from .geometry import Floorplan
from .objectives import FloorplanObjective, area_objective
from .slicing import OPERATORS, PolishExpression

__all__ = ["GeneticConfig", "GeneticResult", "evolve_floorplan"]

#: Injected evaluation callback: expression -> (cost, floorplan).
EvaluateFn = Callable[[PolishExpression], Tuple[float, Floorplan]]


@dataclass(frozen=True)
class GeneticConfig:
    """GA hyper-parameters (sized for 2–10 block problems)."""

    population_size: int = 24
    generations: int = 30
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.35
    elite_count: int = 2
    init_shuffle_moves: int = 4

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise FloorplanError("population_size must be >= 2")
        if self.generations < 1:
            raise FloorplanError("generations must be >= 1")
        if not (2 <= self.tournament_size <= self.population_size):
            raise FloorplanError("need 2 <= tournament_size <= population_size")
        if not (0.0 <= self.crossover_rate <= 1.0):
            raise FloorplanError("crossover_rate must be in [0, 1]")
        if not (0.0 <= self.mutation_rate <= 1.0):
            raise FloorplanError("mutation_rate must be in [0, 1]")
        if not (0 <= self.elite_count < self.population_size):
            raise FloorplanError("need 0 <= elite_count < population_size")


@dataclass
class GeneticResult:
    """Outcome of one GA run."""

    expression: PolishExpression
    floorplan: Floorplan
    cost: float
    evaluations: int
    generations_run: int
    history: List[float]  # best cost per generation

    @property
    def die_area(self) -> float:
        """Area of the resulting die (mm²)."""
        return self.floorplan.die_area


def _dims_of(architecture: Architecture) -> Dict[str, Tuple[float, float]]:
    return {
        pe.name: (pe.pe_type.width_mm, pe.pe_type.height_mm)
        for pe in architecture
    }


def _random_individual(
    dims: Dict[str, Tuple[float, float]], rng, shuffle_moves: int
) -> PolishExpression:
    order = list(dims)
    rng.shuffle(order)
    individual = PolishExpression.initial(dims, order=order)
    for _ in range(shuffle_moves):
        try:
            individual = individual.random_move(rng)
        except SlicingError:
            break
    return individual


def _order_crossover(parent_a: List[str], parent_b: List[str], rng) -> List[str]:
    """OX: keep a random slice of *parent_a*, fill the rest in *parent_b* order."""
    size = len(parent_a)
    if size < 2:
        return list(parent_a)
    i, j = sorted(rng.sample(range(size), 2))
    child: List[Optional[str]] = [None] * size
    child[i : j + 1] = parent_a[i : j + 1]
    kept = set(parent_a[i : j + 1])
    fill = [name for name in parent_b if name not in kept]
    fill_iter = iter(fill)
    for position in range(size):
        if child[position] is None:
            child[position] = next(fill_iter)
    return child  # type: ignore[return-value]


def _crossover(
    parent_a: PolishExpression, parent_b: PolishExpression, rng
) -> PolishExpression:
    """Child = parent_a's token skeleton + OX'd operand order + inherited rotations."""
    order = _order_crossover(parent_a.operands(), parent_b.operands(), rng)
    order_iter = iter(order)
    tokens = [
        token if token in OPERATORS else next(order_iter)
        for token in parent_a.tokens
    ]
    rotated = {
        name
        for name in order
        if (name in parent_a.rotated if rng.random() < 0.5 else name in parent_b.rotated)
    }
    # parent_a's skeleton over a permutation of its operands: well formed
    return PolishExpression._unchecked(tokens, dict(parent_a.dims), rotated)


def evolve_floorplan(
    architecture: Architecture,
    objective: Optional[FloorplanObjective] = None,
    config: Optional[GeneticConfig] = None,
    seed: SeedLike = None,
    evaluate: Optional[EvaluateFn] = None,
    rng: Optional[random.Random] = None,
) -> GeneticResult:
    """Evolve a slicing floorplan for *architecture* under *objective*.

    Deterministic for a given ``(architecture, objective, config, seed)``.
    Single-block architectures return immediately.

    *evaluate* and *rng* are the DSE injection hooks: *evaluate* replaces
    the default expression scoring (evaluate + normalise + *objective*)
    with an arbitrary ``expression -> (cost, floorplan)`` callback, and
    *rng* supplies an externally owned random stream (it wins over *seed*).
    With both omitted the behaviour — including the RNG call sequence — is
    exactly the legacy one.

    The default scoring assumes *objective* is a pure function of the
    plan: it slices and scores each distinct ``(tokens, rotated)``
    chromosome once per call and returns the stored ``(cost, plan)`` for
    repeats (elites, unmutated copies).  ``evaluations`` still counts
    every scoring request, repeats included.  An injected *evaluate* is
    called for every request, unmemoised.

    Offspring come from crossover over one parent's operator skeleton and
    from the Wong–Liu moves, which keep a chromosome well formed by
    construction, so they skip the full Polish-expression re-check.  Each
    call runs in a ``floorplan.evolve`` span (attributes ``blocks``,
    ``objective``, ``evaluations`` and ``distinct``, the number of
    chromosomes the default scoring sliced; ``None`` when *evaluate* is
    injected).
    """
    if len(architecture) == 0:
        raise FloorplanError("cannot floorplan an empty architecture")
    objective = objective or area_objective()
    config = config or GeneticConfig()
    rng = rng if rng is not None else as_random(seed)

    injected = evaluate is not None
    memo: Dict[tuple, Tuple[float, Floorplan]] = {}
    if evaluate is None:
        # elites and unmutated copies recur every generation: score each
        # distinct chromosome once per call (objective must be pure)
        def evaluate(individual: PolishExpression) -> Tuple[float, Floorplan]:
            key = (tuple(individual.tokens), frozenset(individual.rotated))
            scored_plan = memo.get(key)
            if scored_plan is None:
                plan = individual.evaluate().normalised()
                scored_plan = memo[key] = (objective(plan), plan)
            return scored_plan

    with get_recorder().span(
        "floorplan.evolve",
        blocks=len(architecture),
        objective="thermal" if objective.temp_weight > 0.0 else "area",
    ) as span:
        result = _search(_dims_of(architecture), evaluate, config, rng)
        span.annotate(
            evaluations=result.evaluations,
            distinct=None if injected else len(memo),
        )
    return result


def _search(
    dims: Dict[str, Tuple[float, float]],
    evaluate: EvaluateFn,
    config: GeneticConfig,
    rng: random.Random,
) -> GeneticResult:
    """The GA proper: seeded population, then ``config.generations`` rounds."""
    if len(dims) == 1:
        only = PolishExpression.initial(dims)
        cost, plan = evaluate(only)
        return GeneticResult(only, plan, cost, 1, 0, [cost])

    population = [
        _random_individual(dims, rng, config.init_shuffle_moves)
        for _ in range(config.population_size)
    ]
    scored = sorted(
        ((evaluate(ind), ind) for ind in population), key=lambda item: item[0][0]
    )
    evaluations = len(population)
    history: List[float] = [scored[0][0][0]]

    def tournament() -> PolishExpression:
        picks = rng.sample(range(len(scored)), config.tournament_size)
        return scored[min(picks)][1]  # scored is sorted: lower index = fitter

    for generation in range(config.generations):
        next_population: List[PolishExpression] = [
            item[1] for item in scored[: config.elite_count]
        ]
        while len(next_population) < config.population_size:
            parent_a, parent_b = tournament(), tournament()
            if rng.random() < config.crossover_rate:
                child = _crossover(parent_a, parent_b, rng)
            else:
                child = parent_a.copy()
            if rng.random() < config.mutation_rate:
                try:
                    child = child.random_move(rng)
                except SlicingError:
                    pass
            next_population.append(child)
        scored = sorted(
            ((evaluate(ind), ind) for ind in next_population),
            key=lambda item: item[0][0],
        )
        evaluations += len(next_population)
        history.append(scored[0][0][0])

    (best_cost, best_plan), best = scored[0]
    best_plan.validate()
    return GeneticResult(
        best, best_plan, best_cost, evaluations, config.generations, history
    )
