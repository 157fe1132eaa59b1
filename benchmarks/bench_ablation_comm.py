"""Ablation A7 (extension): communication-cost sensitivity.

The paper's ASP charges no communication time.  This ablation re-runs the
platform flow with a shared bus of decreasing bandwidth and measures how
the policies' makespans and temperatures respond — quantifying how far the
paper's free-communication assumption can stretch before mapping decisions
change regime.
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import evaluate_schedule
from repro.analysis.report import format_table
from repro.core.heuristics import BaselinePolicy, TaskEnergyPolicy
from repro.core.scheduler import ListScheduler
from repro.floorplan.platform import platform_floorplan
from repro.flow.spec import GraphSourceSpec, LibrarySpec
from repro.library.bus import shared_bus_comm, zero_cost_comm
from repro.library.presets import default_platform
from repro.scenarios import build_workload

from conftest import print_report

#: (label, comm model) pairs from the paper's assumption to a slow bus.
COMM_CONFIGS = [
    ("free", zero_cost_comm()),
    ("fast-bus", shared_bus_comm(bandwidth=16.0, latency=0.5)),
    ("mid-bus", shared_bus_comm(bandwidth=4.0, latency=1.0)),
    ("slow-bus", shared_bus_comm(bandwidth=1.0, latency=4.0)),
]


@pytest.fixture(scope="module")
def comm_rows():
    rows = []
    platform = default_platform()
    plan = platform_floorplan(platform)
    for name in ("Bm1", "Bm2"):
        graph, library = build_workload(
            GraphSourceSpec(kind="benchmark", name=name), LibrarySpec()
        )
        for label, comm in COMM_CONFIGS:
            scheduler = ListScheduler(
                graph, platform, library, comm=comm
            )
            schedule = scheduler.run(TaskEnergyPolicy())
            evaluation = evaluate_schedule(schedule, floorplan=plan)
            migrations = sum(
                1
                for edge in graph.edges()
                if schedule.assignment(edge.src).pe
                != schedule.assignment(edge.dst).pe
            )
            rows.append(
                {
                    "benchmark": name,
                    "comm": label,
                    "makespan": round(schedule.makespan, 1),
                    "cross_pe_edges": migrations,
                    "max_temp": round(evaluation.max_temperature, 2),
                    "avg_temp": round(evaluation.avg_temperature, 2),
                    "meets_deadline": evaluation.meets_deadline,
                }
            )
    print_report(
        "Ablation A7 — communication-cost sensitivity (platform, H3)",
        format_table(rows),
    )
    return rows


def test_free_comm_is_fastest(comm_rows):
    for name in ("Bm1", "Bm2"):
        rows = {r["comm"]: r for r in comm_rows if r["benchmark"] == name}
        assert rows["free"]["makespan"] <= rows["slow-bus"]["makespan"] + 1e-9


def test_makespan_monotone_in_bus_slowness(comm_rows):
    order = ["free", "fast-bus", "mid-bus", "slow-bus"]
    for name in ("Bm1", "Bm2"):
        rows = {r["comm"]: r for r in comm_rows if r["benchmark"] == name}
        spans = [rows[label]["makespan"] for label in order]
        assert all(b >= a - 1e-9 for a, b in zip(spans, spans[1:]))


def test_deadlines_hold_even_on_slow_bus(comm_rows):
    assert all(r["meets_deadline"] for r in comm_rows)


def test_slow_bus_reduces_cross_pe_traffic(comm_rows):
    """With expensive hops the scheduler should not migrate *more*."""
    for name in ("Bm1", "Bm2"):
        rows = {r["comm"]: r for r in comm_rows if r["benchmark"] == name}
        assert (
            rows["slow-bus"]["cross_pe_edges"]
            <= rows["free"]["cross_pe_edges"] + 2
        )


def test_benchmark_comm(benchmark, comm_rows):
    graph, library = build_workload(
        GraphSourceSpec(kind="benchmark", name="Bm1"), LibrarySpec()
    )
    platform = default_platform()
    comm = shared_bus_comm()

    def run():
        return ListScheduler(graph, platform, library, comm=comm).run(
            TaskEnergyPolicy()
        )

    benchmark(run)
