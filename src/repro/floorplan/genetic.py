"""Genetic-algorithm slicing floorplanner.

Reproduction of the thermal-aware floorplanner the paper invokes inside its
co-synthesis loop (ref [3]: Hung et al., "Thermal-Aware Floorplanning Using
Genetic Algorithms", ISQED 2005).  Chromosomes are normalized Polish
expressions, held as immutable ``(tokens, rotated)`` tuples; the GA combines

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

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..errors import FloorplanError, SlicingError
from ..library.pe import Architecture
from ..obs import get_recorder
from ..rng import SeedLike, _draws_bits, _shuffle, as_random
from .geometry import Floorplan
from .objectives import FloorplanObjective, area_objective
from .slicing import (
    OPERATORS, PolishExpression, _evaluate, _initial_tokens, _random_move,
)

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
        if self.init_shuffle_moves < 0:
            raise FloorplanError(
                f"init_shuffle_moves must be >= 0, got {self.init_shuffle_moves}"
            )


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


#: A GA individual: postfix tokens and rotated blocks.  Immutable and
#: hashable, so it is its own memo key and survivors are shared, not copied.
Chromosome = Tuple[Tuple[str, ...], FrozenSet[str]]


def _expression(
    chromosome: Chromosome, dims: Dict[str, Tuple[float, float]]
) -> PolishExpression:
    """A fresh public expression for *chromosome* (well formed by construction)."""
    tokens, rotated = chromosome
    return PolishExpression._unchecked(tokens, dims, rotated)


def _sample_indices(rng: random.Random, n: int, k: int) -> List[int]:
    """``rng.sample(range(n), k)``, draw for draw, straight over
    ``rng.getrandbits``.

    Mirrors CPython's :meth:`random.Random.sample` for a ``range``
    population: a pool swap when an ``n``-list is smaller than a
    ``k``-set, rejection sampling into a set otherwise; each index is
    ``sample``'s ``_randbelow`` draw (see :func:`repro.rng._randbelow`).
    A generator that draws another way gets its own ``sample``.
    """
    if not _draws_bits(rng):
        return rng.sample(range(n), k)
    getrandbits = rng.getrandbits
    result: List[int] = []
    if n <= _sample_setsize(k):
        pool = list(range(n))
        for left in range(n, n - k, -1):  # left: items still in the pool
            bits = left.bit_length()
            j = getrandbits(bits)
            while j >= left:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[left - 1]
        return result
    bits = n.bit_length()
    selected: Set[int] = set()
    for _ in range(k):
        # a draw past n and a repeat are both redrawn, in draw order
        j = getrandbits(bits)
        while j >= n or j in selected:
            j = getrandbits(bits)
        selected.add(j)
        result.append(j)
    return result


def _sample_setsize(k: int) -> int:
    """``sample``'s pool/set threshold: a small set's size minus an empty
    list's, grown for larger *k*."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return setsize


def _tournament(rng: random.Random, n: int, k: int) -> Callable[[], int]:
    """``lambda: min(_sample_indices(rng, n, k))``, draw for draw.

    When ``sample`` would take its pool branch on a generator drawing
    through ``getrandbits``, each draw's bound and bit length are fixed
    once for the GA's constant (population, tournament) sizes, and no
    pool is kept.  The smallest pick is the smallest index drawn: an
    index drawn for the first time still holds its own value, and the
    swap only copies values from the pool's last ``k`` places, none
    below ``n - k``, while the last draw is at most ``n - k``.
    """
    if not _draws_bits(rng) or n > _sample_setsize(k):
        return lambda: min(_sample_indices(rng, n, k))
    getrandbits = rng.getrandbits
    draws = [(left, left.bit_length()) for left in range(n, n - k, -1)]

    def pick() -> int:
        best = n
        for left, bits in draws:
            j = getrandbits(bits)
            while j >= left:
                j = getrandbits(bits)
            if j < best:
                best = j
        return best

    return pick


def _crossover(
    parent_a: Chromosome, parent_b: Chromosome, rng: random.Random
) -> Chromosome:
    """Child = parent_a's skeleton + OX'd operand order + inherited rotations.

    Order crossover (OX) keeps a random slice of parent_a's operands in
    place and fills the other positions in parent_b's order.  parent_a's
    skeleton over a permutation of its operands stays well formed.
    """
    (tokens_a, rotated_a), (tokens_b, rotated_b) = parent_a, parent_b
    positions: List[int] = []
    order: List[str] = []
    for position, token in enumerate(tokens_a):
        if token not in OPERATORS:
            positions.append(position)
            order.append(token)
    if len(order) >= 2:
        i, j = _sample_indices(rng, len(order), 2)
        if i > j:
            i, j = j, i
        kept = order[i : j + 1]
        kept_set = set(kept)
        order = [t for t in tokens_b if t not in OPERATORS and t not in kept_set]
        order[i:i] = kept
    tokens = list(tokens_a)
    for position, name in zip(positions, order):
        tokens[position] = name
    draw = rng.random
    rotated = frozenset([
        name
        for name in order
        if (name in rotated_a if draw() < 0.5 else name in rotated_b)
    ])
    return tuple(tokens), rotated


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
    the default expression scoring (slice the expression, then apply
    *objective*) with an arbitrary ``expression -> (cost, floorplan)``
    callback, and *rng* supplies an externally owned random stream (it
    wins over *seed*).  With both omitted the behaviour — including the
    RNG call sequence — is exactly the legacy one.

    The search runs on immutable ``(tokens, rotated)`` chromosomes with the
    slicing kernel of :mod:`repro.floorplan.slicing` (the same move code
    :class:`PolishExpression` delegates to).  Offspring come from
    crossover over one parent's operator skeleton and from the Wong–Liu
    moves, which keep a chromosome well formed by construction, so they
    skip the full Polish-expression check; elites and children that are
    neither crossed nor mutated are the parent chromosome itself.
    Every bounded draw — seeding shuffles, tournaments, the crossover
    slice, the moves — goes straight to ``rng.getrandbits`` through
    replicas of ``randrange``/``shuffle``/``choice``/``sample``
    (:mod:`repro.rng`, :func:`_sample_indices`, :func:`_tournament`)
    that consume exactly the draws of the methods they replace, so the
    stream, and every result, is the one those methods give.  An *rng*
    whose class overrides only ``random()`` draws through its own methods.

    The default scoring assumes *objective* is a pure function of the
    plan: it slices and scores each distinct chromosome once per call and
    returns the stored ``(cost, plan)`` for repeats.  ``evaluations``
    still counts every scoring request, repeats included.  An injected
    *evaluate* is called for every request, unmemoised, each time with a
    fresh :class:`PolishExpression`; ``GeneticResult.expression`` is one
    too.  Each call runs in a ``floorplan.evolve`` span (attributes
    ``blocks``, ``objective``, ``evaluations`` and ``distinct``, the
    number of chromosomes the default scoring sliced; ``None`` when
    *evaluate* is injected).
    """
    if len(architecture) == 0:
        raise FloorplanError("cannot floorplan an empty architecture")
    objective = objective or area_objective()
    config = config or GeneticConfig()
    rng = rng if rng is not None else as_random(seed)
    dims = _dims_of(architecture)

    memo: Dict[Chromosome, Tuple[float, Floorplan]] = {}
    if evaluate is None:
        # elites and unmutated children recur every generation: score each
        # distinct chromosome once per call (objective must be pure)
        def score(chromosome: Chromosome) -> Tuple[float, Floorplan]:
            scored_plan = memo.get(chromosome)
            if scored_plan is None:
                plan = _evaluate(chromosome[0], chromosome[1], dims)
                scored_plan = memo[chromosome] = (objective(plan), plan)
            return scored_plan
    else:
        def score(chromosome: Chromosome) -> Tuple[float, Floorplan]:
            return evaluate(_expression(chromosome, dims))

    with get_recorder().span(
        "floorplan.evolve",
        blocks=len(architecture),
        objective="thermal" if objective.temp_weight > 0.0 else "area",
    ) as span:
        result = _search(dims, score, config, rng)
        span.annotate(
            evaluations=result.evaluations,
            distinct=None if evaluate is not None else len(memo),
        )
    return result


def _search(
    dims: Dict[str, Tuple[float, float]],
    score: Callable[[Chromosome], Tuple[float, Floorplan]],
    config: GeneticConfig,
    rng: random.Random,
) -> GeneticResult:
    """The GA proper: seeded population, then ``config.generations`` rounds."""
    if len(dims) == 1:
        only: Chromosome = (tuple(dims), frozenset())
        cost, plan = score(only)
        return GeneticResult(_expression(only, dims), plan, cost, 1, 0, [cost])

    population: List[Chromosome] = []
    for _ in range(config.population_size):
        order = list(dims)
        _shuffle(rng, order)
        individual: Chromosome = (tuple(_initial_tokens(order)), frozenset())
        for _ in range(config.init_shuffle_moves):
            try:
                individual = _random_move(*individual, rng)
            except SlicingError:
                break
        population.append(individual)
    scored = sorted(
        ((score(ind), ind) for ind in population), key=lambda item: item[0][0]
    )
    evaluations = len(population)
    history: List[float] = [scored[0][0][0]]

    # the index of a tournament's winner: scored is sorted, lower is fitter
    tournament = _tournament(rng, config.population_size, config.tournament_size)

    for generation in range(config.generations):
        next_population: List[Chromosome] = [
            item[1] for item in scored[: config.elite_count]
        ]
        while len(next_population) < config.population_size:
            parent_a, parent_b = scored[tournament()][1], scored[tournament()][1]
            if rng.random() < config.crossover_rate:
                child = _crossover(parent_a, parent_b, rng)
            else:
                child = parent_a
            if rng.random() < config.mutation_rate:
                try:
                    child = _random_move(*child, rng)
                except SlicingError:
                    pass
            next_population.append(child)
        scored = sorted(
            ((score(ind), ind) for ind in next_population),
            key=lambda item: item[0][0],
        )
        evaluations += len(next_population)
        history.append(scored[0][0][0])

    (best_cost, best_plan), best = scored[0]
    best_plan.validate()
    return GeneticResult(
        _expression(best, dims), best_plan, best_cost, evaluations,
        config.generations, history,
    )
