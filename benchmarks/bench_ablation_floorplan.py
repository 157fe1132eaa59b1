"""Ablation A3: floorplanner choice (DESIGN.md §5.3).

Co-synthesis quality depends on the floorplanner feeding HotSpot.  This
ablation fixes one co-synthesized architecture + schedule per benchmark and
re-floorplans it four ways — row packing, area-GA, area-SA, and the
thermal-aware GA of ref [3] — comparing the resulting peak temperatures
under the schedule's average powers.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table
from repro.floorplan.annealing import AnnealingConfig, anneal_floorplan
from repro.floorplan.genetic import GeneticConfig, evolve_floorplan
from repro.floorplan.objectives import thermal_objective
from repro.floorplan.platform import row_floorplan
from repro.flow import cosynthesis_spec, run_flow
from repro.thermal.hotspot import HotSpotModel

from conftest import print_report

GA = GeneticConfig(population_size=20, generations=25)
SA = AnnealingConfig()


def peak_of(plan, powers):
    return HotSpotModel(plan).peak_temperature(powers)


def power_aware_design(name):
    """Power-aware co-synthesis of *name*: heuristic 3, power final cost."""
    return run_flow(cosynthesis_spec(name, policy="heuristic3", final_cost="power"))


@pytest.fixture(scope="module")
def floorplanner_rows():
    rows = []
    per_benchmark = {}
    for name in ("Bm1", "Bm2"):
        design = power_aware_design(name)
        arch = design.architecture
        powers = design.schedule.average_powers()

        def thermal_ga_objective():
            return thermal_objective(lambda plan: peak_of(plan, powers))

        plans = {
            "row": row_floorplan(arch),
            "area-sa": anneal_floorplan(arch, config=SA, seed=7).floorplan,
            "area-ga": evolve_floorplan(arch, config=GA, seed=7).floorplan,
            "thermal-ga": evolve_floorplan(
                arch, objective=thermal_ga_objective(), config=GA, seed=7
            ).floorplan,
        }
        per_benchmark[name] = {}
        for label, plan in plans.items():
            peak = peak_of(plan, powers)
            per_benchmark[name][label] = peak
            rows.append(
                {
                    "benchmark": name,
                    "architecture": arch.name,
                    "floorplanner": label,
                    "die_area": round(plan.die_area, 1),
                    "peak_temp": round(peak, 2),
                }
            )
    print_report(
        "Ablation A3 — floorplanner choice (peak temp under fixed powers)",
        format_table(rows),
    )
    return rows, per_benchmark


def test_thermal_ga_never_hotter_than_area_ga(floorplanner_rows):
    _, per_benchmark = floorplanner_rows
    for name, peaks in per_benchmark.items():
        assert peaks["thermal-ga"] <= peaks["area-ga"] + 1e-6, name


def test_thermal_ga_is_the_coolest_option(floorplanner_rows):
    _, per_benchmark = floorplanner_rows
    for name, peaks in per_benchmark.items():
        assert peaks["thermal-ga"] == min(peaks.values()), name


def test_all_plans_valid_and_complete(floorplanner_rows):
    rows, _ = floorplanner_rows
    assert all(r["die_area"] > 0 for r in rows)


def test_benchmark_thermal_ga(benchmark, floorplanner_rows):
    design = power_aware_design("Bm1")
    powers = design.schedule.average_powers()
    objective = thermal_objective(
        lambda plan: peak_of(plan, powers)
    )
    benchmark(
        evolve_floorplan,
        design.architecture,
        objective=objective,
        config=GeneticConfig(population_size=10, generations=8),
        seed=7,
    )
