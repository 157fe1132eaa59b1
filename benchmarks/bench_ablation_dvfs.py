"""Ablation A5 (extension): DVFS slack reclamation on top of the ASP.

After the thermal-aware ASP has fixed mapping and order, remaining deadline
slack can still be converted into temperature via voltage/frequency
scaling.  This bench measures how much the DVFS post-pass adds on top of
each scheduling policy, across the benchmark suite.
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import evaluate_schedule
from repro.analysis.report import format_table
from repro.extensions.dvfs import reclaim_slack
from repro.flow import platform_spec, run_flow
from repro.taskgraph.benchmarks import BENCHMARK_NAMES

from conftest import print_report

POLICIES = ["baseline", "heuristic3", "thermal"]


@pytest.fixture(scope="module")
def dvfs_rows():
    rows = []
    for name in BENCHMARK_NAMES:
        for policy in POLICIES:
            result = run_flow(platform_spec(name, policy=policy))
            before = result.evaluation
            reclaimed = reclaim_slack(result.schedule)
            after = evaluate_schedule(
                reclaimed.schedule, floorplan=result.floorplan
            )
            rows.append(
                {
                    "benchmark": name,
                    "policy": policy,
                    "avg_temp": round(before.avg_temperature, 2),
                    "avg_temp_dvfs": round(after.avg_temperature, 2),
                    "max_temp": round(before.max_temperature, 2),
                    "max_temp_dvfs": round(after.max_temperature, 2),
                    "energy_saving_%": round(
                        100.0 * reclaimed.energy_saving_fraction, 1
                    ),
                    "lowered_tasks": reclaimed.lowered_tasks,
                    "meets_deadline": after.meets_deadline,
                }
            )
    print_report(
        "Ablation A5 — DVFS slack reclamation on top of each policy",
        format_table(rows),
    )
    return rows


def test_dvfs_preserves_deadlines(dvfs_rows):
    assert all(r["meets_deadline"] for r in dvfs_rows)


def test_dvfs_never_heats(dvfs_rows):
    for row in dvfs_rows:
        assert row["avg_temp_dvfs"] <= row["avg_temp"] + 1e-9


def test_dvfs_saves_energy_where_slack_exists(dvfs_rows):
    # baseline schedules leave the most slack -> the most savings
    baseline_rows = [r for r in dvfs_rows if r["policy"] == "baseline"]
    assert all(r["energy_saving_%"] > 0.0 for r in baseline_rows)


def test_dvfs_narrows_policy_gap_but_thermal_still_wins_or_ties(dvfs_rows):
    """DVFS helps the baseline more (more slack), but thermal+DVFS stays
    at least competitive on every benchmark."""
    for name in BENCHMARK_NAMES:
        rows = {r["policy"]: r for r in dvfs_rows if r["benchmark"] == name}
        assert (
            rows["thermal"]["avg_temp_dvfs"]
            <= rows["baseline"]["avg_temp"] + 1e-9
        )


def test_benchmark_dvfs(benchmark, dvfs_rows):
    result = run_flow(platform_spec("Bm1", policy="baseline"))
    benchmark(reclaim_slack, result.schedule)
