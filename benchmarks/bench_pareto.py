"""Benchmark: power-vs-temperature Pareto front of the allocation space.

Presents Tables 1/2's deeper story: the power-aware and thermal-aware
winners are individual points on one trade-off curve.  Evaluates every
type-feasible allocation of <= 3 PEs for Bm1 under heuristic 3 and extracts
the non-dominated (power, peak temp, cost) set.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table
from repro.cosynth.pareto import explore_allocations, pareto_front
from repro.floorplan.genetic import GeneticConfig
from repro.flow.spec import GraphSourceSpec, LibrarySpec
from repro.scenarios import build_workload

from conftest import print_report

GA = GeneticConfig(population_size=10, generations=8)


@pytest.fixture(scope="module")
def bm1_points():
    graph, library = build_workload(
        GraphSourceSpec(kind="benchmark", name="Bm1"), LibrarySpec()
    )
    points = explore_allocations(
        graph, library, max_pes=3, genetic_config=GA
    )
    front = pareto_front(points)
    rows = [dict(p.as_row(), on_front=(p in front)) for p in points]
    rows.sort(key=lambda r: r["total_pow"])
    print_report(
        "Pareto exploration — Bm1 allocation space (H3 schedules)",
        format_table(rows),
    )
    return points, front


def test_front_nonempty_and_feasible(bm1_points):
    points, front = bm1_points
    assert front
    assert all(p.meets_deadline for p in front)


def test_front_strictly_smaller_than_space(bm1_points):
    points, front = bm1_points
    assert len(front) < len(points)


def test_no_front_point_dominated(bm1_points):
    points, front = bm1_points
    for candidate in front:
        assert not any(other.dominates(candidate) for other in points)


def test_front_shows_power_temperature_tradeoff(bm1_points):
    """Power and peak temperature genuinely trade off along the front
    whenever the front has more than one point."""
    _, front = bm1_points
    if len(front) >= 2:
        coolest = min(front, key=lambda p: p.max_temperature)
        most_frugal = min(front, key=lambda p: p.total_power)
        assert coolest.total_power >= most_frugal.total_power


def test_benchmark_pareto(benchmark, bm1_points):
    graph, library = build_workload(
        GraphSourceSpec(kind="benchmark", name="Bm1"), LibrarySpec()
    )
    benchmark(
        explore_allocations,
        graph,
        library,
        max_pes=2,
        genetic_config=GeneticConfig(population_size=6, generations=3),
    )
