"""Tests for the annealing and genetic floorplanners and fixed platforms."""

import pytest

from repro.errors import FloorplanError
from repro.floorplan.annealing import AnnealingConfig, anneal_floorplan
from repro.floorplan.genetic import GeneticConfig, evolve_floorplan
from repro.floorplan.objectives import (
    FloorplanObjective,
    area_objective,
    thermal_objective,
)
from repro.floorplan.platform import grid_floorplan, platform_floorplan, row_floorplan
from repro.library.pe import Architecture, PEType
from repro.library.presets import default_platform

FAST_SA = AnnealingConfig(
    initial_temperature=50.0,
    final_temperature=1.0,
    cooling_rate=0.8,
    moves_per_temperature=8,
)
FAST_GA = GeneticConfig(population_size=8, generations=6)


def hetero_arch(count=5):
    arch = Architecture("hetero")
    sizes = [(6.0, 6.0), (5.0, 4.0), (3.5, 3.5), (7.0, 7.0), (4.0, 2.0)]
    for index in range(count):
        w, h = sizes[index % len(sizes)]
        arch.add_instance(PEType(f"t{index}", w, h))
    return arch


class TestObjectives:
    def test_area_objective_value(self, two_block_plan):
        assert area_objective()(two_block_plan) == pytest.approx(72.0)

    def test_aspect_penalty_applies(self):
        from repro.floorplan.geometry import Floorplan

        thin = Floorplan()
        thin.place("a", 0, 0, 40.0, 2.0)  # aspect 20 >> limit 3
        objective = FloorplanObjective(area_weight=0.0, aspect_weight=1.0)
        assert objective(thin) == pytest.approx(17.0**2)

    def test_thermal_objective_requires_evaluator(self):
        with pytest.raises(FloorplanError):
            FloorplanObjective(temp_weight=1.0)

    def test_thermal_objective_uses_evaluator(self, two_block_plan):
        objective = thermal_objective(lambda plan: 100.0, area_weight=0.0)
        assert objective(two_block_plan) == pytest.approx(100.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(FloorplanError):
            FloorplanObjective(area_weight=-1.0)

    @pytest.mark.parametrize("field", [
        "area_weight", "temp_weight", "wirelength_weight", "aspect_weight",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, field, value):
        # a NaN weight makes every GA cost NaN and the population sort meaningless
        with pytest.raises(FloorplanError, match=str(value)):
            FloorplanObjective(temp_evaluator=lambda plan: 50.0, **{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_aspect_limit_rejected(self, value):
        with pytest.raises(FloorplanError, match="aspect_limit"):
            FloorplanObjective(aspect_limit=value)

    def test_wirelength_term(self, two_block_plan):
        objective = FloorplanObjective(
            area_weight=0.0,
            aspect_weight=0.0,
            wirelength_weight=1.0,
            nets=[("left", "right", 1.0)],
        )
        assert objective(two_block_plan) == pytest.approx(6.0)


class TestAnnealing:
    def test_result_is_valid_floorplan(self):
        result = anneal_floorplan(hetero_arch(), config=FAST_SA, seed=1)
        result.floorplan.validate()
        assert set(result.floorplan.block_names()) == {
            pe.name for pe in hetero_arch()
        }

    def test_deterministic(self):
        a = anneal_floorplan(hetero_arch(), config=FAST_SA, seed=5)
        b = anneal_floorplan(hetero_arch(), config=FAST_SA, seed=5)
        assert a.cost == b.cost
        assert a.expression.tokens == b.expression.tokens

    def test_improves_over_initial_row(self):
        # the initial expression of 5 mixed blocks is far from area-optimal;
        # even a short anneal must not end *worse* than it started
        from repro.floorplan.slicing import PolishExpression

        arch = hetero_arch()
        dims = {pe.name: (pe.pe_type.width_mm, pe.pe_type.height_mm) for pe in arch}
        initial_cost = area_objective()(
            PolishExpression.initial(dims, order=arch.pe_names()).evaluate()
        )
        result = anneal_floorplan(arch, config=FAST_SA, seed=2)
        assert result.cost <= initial_cost + 1e-9

    def test_single_block_shortcut(self):
        arch = hetero_arch(1)
        result = anneal_floorplan(arch, config=FAST_SA, seed=1)
        assert result.evaluations == 1
        assert len(result.floorplan) == 1

    def test_empty_architecture_rejected(self):
        with pytest.raises(FloorplanError):
            anneal_floorplan(Architecture("empty"), config=FAST_SA)

    def test_bad_config_rejected(self):
        with pytest.raises(FloorplanError):
            AnnealingConfig(initial_temperature=1.0, final_temperature=2.0)
        with pytest.raises(FloorplanError):
            AnnealingConfig(cooling_rate=1.5)
        with pytest.raises(FloorplanError):
            AnnealingConfig(moves_per_temperature=0)

    def test_infinite_initial_temperature_rejected(self):
        # inf * cooling_rate stays inf, so the schedule would never end;
        # only the constructor is exercised, never the anneal
        with pytest.raises(FloorplanError, match="initial_temperature.*inf"):
            AnnealingConfig(initial_temperature=float("inf"))


class TestGenetic:
    def test_result_is_valid_floorplan(self):
        result = evolve_floorplan(hetero_arch(), config=FAST_GA, seed=1)
        result.floorplan.validate()
        assert len(result.floorplan) == 5

    def test_deterministic(self):
        a = evolve_floorplan(hetero_arch(), config=FAST_GA, seed=9)
        b = evolve_floorplan(hetero_arch(), config=FAST_GA, seed=9)
        assert a.cost == b.cost
        assert a.expression.tokens == b.expression.tokens

    def test_history_monotone_nonincreasing(self):
        # elitism guarantees best-so-far never regresses
        result = evolve_floorplan(hetero_arch(), config=FAST_GA, seed=3)
        assert all(
            later <= earlier + 1e-9
            for earlier, later in zip(result.history, result.history[1:])
        )

    def test_single_block_shortcut(self):
        result = evolve_floorplan(hetero_arch(1), config=FAST_GA, seed=1)
        assert result.generations_run == 0

    def test_thermal_objective_spreads_hot_blocks(self):
        # two hot blocks + two cold: with a thermal objective the GA should
        # find a plan whose peak temperature is no worse than the area GA's
        from repro.thermal.hotspot import HotSpotModel

        arch = hetero_arch(4)
        powers = {"pe0": 12.0, "pe1": 12.0, "pe2": 0.5, "pe3": 0.5}

        def peak(plan):
            return HotSpotModel(plan).peak_temperature(powers)

        area_result = evolve_floorplan(arch, config=FAST_GA, seed=4)
        thermal_result = evolve_floorplan(
            arch,
            objective=thermal_objective(peak),
            config=FAST_GA,
            seed=4,
        )
        assert peak(thermal_result.floorplan) <= peak(area_result.floorplan) + 1e-6

    def test_negative_init_shuffle_moves_rejected(self):
        with pytest.raises(FloorplanError, match="init_shuffle_moves.*-3"):
            GeneticConfig(init_shuffle_moves=-3)
        assert GeneticConfig(init_shuffle_moves=0).init_shuffle_moves == 0

    def test_bad_config_rejected(self):
        with pytest.raises(FloorplanError):
            GeneticConfig(population_size=1)
        with pytest.raises(FloorplanError):
            GeneticConfig(tournament_size=1)
        with pytest.raises(FloorplanError):
            GeneticConfig(crossover_rate=1.5)
        with pytest.raises(FloorplanError):
            GeneticConfig(elite_count=24, population_size=24)


class TestPlatformLayouts:
    def test_grid_2x2(self, platform4):
        plan = grid_floorplan(platform4, columns=2)
        plan.validate()
        assert plan.die_size() == (pytest.approx(12.0), pytest.approx(12.0))

    def test_grid_near_square_default(self):
        plan = grid_floorplan(default_platform(count=9))
        assert plan.die_size() == (pytest.approx(18.0), pytest.approx(18.0))

    def test_grid_spacing(self, platform4):
        plan = grid_floorplan(platform4, columns=2, spacing_mm=1.0)
        assert plan.die_size() == (pytest.approx(13.0), pytest.approx(13.0))
        assert plan.adjacency() == {}  # spaced blocks do not touch

    def test_row_layout(self, platform4):
        plan = row_floorplan(platform4)
        plan.validate()
        assert plan.die_size() == (pytest.approx(24.0), pytest.approx(6.0))
        # three contacts in a row of four
        assert len(plan.adjacency()) == 3

    def test_platform_floorplan_is_row(self, platform4):
        plan = platform_floorplan(platform4)
        assert plan.die_size() == (pytest.approx(24.0), pytest.approx(6.0))

    def test_platform_floorplan_breaks_symmetry(self, platform4):
        # middle PEs must be thermally distinguishable from end PEs —
        # this is what makes Avg_Temp a useful placement signal (DESIGN.md)
        from repro.thermal.hotspot import HotSpotModel

        plan = platform_floorplan(platform4)
        model = HotSpotModel(plan)
        names = plan.block_names()
        temp_end = model.average_temperature({names[0]: 10.0})
        temp_mid = model.average_temperature({names[1]: 10.0})
        assert temp_mid > temp_end

    def test_empty_architecture_rejected(self):
        with pytest.raises(FloorplanError):
            grid_floorplan(Architecture("e"))
        with pytest.raises(FloorplanError):
            row_floorplan(Architecture("e"))

    def test_negative_spacing_rejected(self, platform4):
        with pytest.raises(FloorplanError):
            grid_floorplan(platform4, spacing_mm=-1.0)
        with pytest.raises(FloorplanError):
            row_floorplan(platform4, spacing_mm=-0.5)


class TestInjectedSearchHooks:
    """The DSE injection refactor must leave legacy behaviour untouched:
    ``rng=as_random(seed)`` and a default-replicating ``evaluate`` pin
    byte-identical results against the plain ``seed=`` path."""

    def test_annealer_injected_rng_matches_seed_path(self):
        from repro.rng import as_random

        legacy = anneal_floorplan(hetero_arch(), config=FAST_SA, seed=5)
        injected = anneal_floorplan(
            hetero_arch(), config=FAST_SA, rng=as_random(5)
        )
        assert injected.cost == legacy.cost
        assert injected.expression.tokens == legacy.expression.tokens
        assert injected.evaluations == legacy.evaluations

    def test_genetic_injected_rng_matches_seed_path(self):
        from repro.rng import as_random

        legacy = evolve_floorplan(hetero_arch(), config=FAST_GA, seed=9)
        injected = evolve_floorplan(
            hetero_arch(), config=FAST_GA, rng=as_random(9)
        )
        assert injected.cost == legacy.cost
        assert injected.expression.tokens == legacy.expression.tokens

    def test_annealer_injected_default_evaluate_is_identical(self):
        objective = area_objective()

        def evaluate(expression):
            plan = expression.evaluate().normalised()
            return objective(plan), plan

        legacy = anneal_floorplan(hetero_arch(), config=FAST_SA, seed=5)
        injected = anneal_floorplan(
            hetero_arch(), config=FAST_SA, seed=5, evaluate=evaluate
        )
        assert injected.cost == legacy.cost
        assert injected.expression.tokens == legacy.expression.tokens

    def test_genetic_injected_default_evaluate_is_identical(self):
        objective = area_objective()

        def evaluate(expression):
            plan = expression.evaluate().normalised()
            return objective(plan), plan

        legacy = evolve_floorplan(hetero_arch(), config=FAST_GA, seed=9)
        injected = evolve_floorplan(
            hetero_arch(), config=FAST_GA, seed=9, evaluate=evaluate
        )
        assert injected.cost == legacy.cost
        assert injected.expression.tokens == legacy.expression.tokens

    def test_custom_evaluate_drives_the_search(self):
        calls = []

        def evaluate(expression):
            plan = expression.evaluate().normalised()
            calls.append(plan)
            return float(len(calls)), plan  # monotone: first plan "wins"

        result = anneal_floorplan(
            hetero_arch(), config=FAST_SA, seed=5, evaluate=evaluate
        )
        assert result.evaluations == len(calls)
        assert result.cost == 1.0  # ever-rising costs keep the initial plan

    @pytest.mark.parametrize("count", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [1, 9, 2005])
    def test_genetic_default_memo_is_exact(self, count, seed):
        """The default path scores each distinct chromosome once and
        still matches an unmemoised default-replicating ``evaluate=``."""
        from repro.thermal.hotspot import HotSpotModel

        architecture = hetero_arch(count)
        powers = {pe.name: 3.0 + 4.0 * i for i, pe in enumerate(architecture)}
        temp_calls = []

        def peak_temp(plan):
            temp_calls.append(plan)
            return HotSpotModel(plan).peak_temperature(powers)

        objective = thermal_objective(peak_temp)
        memoised = evolve_floorplan(
            architecture, objective=objective, config=FAST_GA, seed=seed
        )
        memoised_calls = len(temp_calls)

        temp_calls.clear()
        requested = set()

        def evaluate(expression):
            requested.add(
                (tuple(expression.tokens), frozenset(expression.rotated))
            )
            plan = expression.evaluate().normalised()
            return objective(plan), plan

        injected = evolve_floorplan(
            architecture, objective=objective, config=FAST_GA, seed=seed,
            evaluate=evaluate,
        )
        assert memoised.cost == injected.cost
        assert memoised.expression.tokens == injected.expression.tokens
        assert memoised.expression.rotated == injected.expression.rotated
        assert memoised.history == injected.history
        assert memoised.evaluations == injected.evaluations
        assert [(b.name, b.rect) for b in memoised.floorplan] == [
            (b.name, b.rect) for b in injected.floorplan
        ]
        assert memoised_calls == len(requested)
        assert len(temp_calls) == injected.evaluations
        assert len(requested) < injected.evaluations  # repeats do occur
