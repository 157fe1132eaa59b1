"""Ablation A1: the thermal DC weight (DESIGN.md §5.1).

The paper fixes the weight of the ``Avg_Temp`` term implicitly.  This
ablation sweeps it on the platform flow: weight 0 degenerates to the
baseline, moderate weights trade deadline slack for temperature, and
overly large weights overshoot deadlines (which is why the co-synthesis
flow carries the Figure-1a backoff loop).
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table
from repro.flow import platform_spec, run_flow

from conftest import print_report

WEIGHTS = [0.0, 5.0, 10.0, 20.0, 40.0]


@pytest.fixture(scope="module")
def weight_sweep():
    rows = []
    for name in ("Bm1", "Bm2"):
        for weight in WEIGHTS:
            spec = platform_spec(name, policy="thermal", weight=weight)
            evaluation = run_flow(spec).evaluation
            rows.append(
                {
                    "benchmark": name,
                    "weight": weight,
                    "max_temp": round(evaluation.max_temperature, 2),
                    "avg_temp": round(evaluation.avg_temperature, 2),
                    "makespan": round(evaluation.makespan, 1),
                    "slack": round(evaluation.slack, 1),
                    "meets_deadline": evaluation.meets_deadline,
                }
            )
    print_report(
        "Ablation A1 — thermal DC weight sweep (platform flow)",
        format_table(rows),
    )
    return rows


def test_zero_weight_matches_baseline(weight_sweep):
    baseline = run_flow(platform_spec("Bm1", policy="baseline"))
    zero = [r for r in weight_sweep if r["benchmark"] == "Bm1" and r["weight"] == 0.0][0]
    assert zero["makespan"] == pytest.approx(baseline.evaluation.makespan, abs=0.1)


def test_weight_trades_slack_for_temperature(weight_sweep):
    """Across the sweep, the coolest schedules are not the fastest ones."""
    for name in ("Bm1", "Bm2"):
        rows = [r for r in weight_sweep if r["benchmark"] == name]
        coolest = min(rows, key=lambda r: r["avg_temp"])
        fastest = min(rows, key=lambda r: r["makespan"])
        assert coolest["avg_temp"] <= fastest["avg_temp"]
        assert coolest["makespan"] >= fastest["makespan"]


def test_default_weight_meets_all_deadlines(weight_sweep):
    defaults = [r for r in weight_sweep if r["weight"] == 20.0]
    assert all(r["meets_deadline"] for r in defaults)


def test_some_positive_weight_beats_zero(weight_sweep):
    for name in ("Bm1", "Bm2"):
        rows = [r for r in weight_sweep if r["benchmark"] == name]
        zero = [r for r in rows if r["weight"] == 0.0][0]
        best = min(
            (r for r in rows if r["weight"] > 0.0 and r["meets_deadline"]),
            key=lambda r: r["avg_temp"],
        )
        assert best["avg_temp"] < zero["avg_temp"]


def test_benchmark_weight_sweep(benchmark, weight_sweep):
    benchmark(run_flow, platform_spec("Bm1", policy="thermal", weight=20.0))
