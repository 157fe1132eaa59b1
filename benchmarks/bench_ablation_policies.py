"""Ablation A6 (extension): average-vs-peak thermal DC variants.

The paper's DC term is the *average* block temperature.  In a linear RC
model the average is a fixed linear functional of power, so it cannot
penalise concentration on an already-hot PE; the *peak* can.  This bench
compares the paper's policy against the peak and hybrid variants on the
platform suite.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table
from repro.core.heuristics import policy_by_name
from repro.core.scheduler import ListScheduler
from repro.floorplan.platform import platform_floorplan
from repro.flow import platform_spec, run_flow
from repro.flow.spec import GraphSourceSpec, LibrarySpec
from repro.library.presets import default_platform
from repro.scenarios import build_workload
from repro.taskgraph.benchmarks import BENCHMARK_NAMES
from repro.thermal.hotspot import HotSpotModel

from conftest import print_report

#: The paper's thermal policy and its two extension variants.
VARIANTS = ("thermal", "thermal-peak", "thermal-hybrid")


@pytest.fixture(scope="module")
def variant_rows():
    rows = []
    for name in BENCHMARK_NAMES:
        for variant in VARIANTS:
            evaluation = run_flow(platform_spec(name, policy=variant)).evaluation
            rows.append(
                {
                    "benchmark": name,
                    "variant": variant,
                    "max_temp": round(evaluation.max_temperature, 2),
                    "avg_temp": round(evaluation.avg_temperature, 2),
                    "spread": round(
                        max(evaluation.pe_temperatures.values())
                        - min(evaluation.pe_temperatures.values()),
                        2,
                    ),
                    "makespan": round(evaluation.makespan, 1),
                    "meets_deadline": evaluation.meets_deadline,
                }
            )
    print_report(
        "Ablation A6 — thermal DC variants (avg vs peak vs hybrid)",
        format_table(rows),
    )
    return rows


def test_all_variants_meet_deadlines(variant_rows):
    assert all(r["meets_deadline"] for r in variant_rows)


def test_peak_variant_tightens_spread_on_average(variant_rows):
    """The peak-aware variants should not widen the PE temperature spread."""
    avg_spread = {}
    for variant in VARIANTS:
        rows = [r for r in variant_rows if r["variant"] == variant]
        avg_spread[variant] = sum(r["spread"] for r in rows) / len(rows)
    assert avg_spread["thermal-peak"] <= avg_spread["thermal"] + 0.5


def test_variants_comparable_on_avg_metric(variant_rows):
    """No variant should catastrophically regress the average metric."""
    for name in BENCHMARK_NAMES:
        rows = {r["variant"]: r for r in variant_rows if r["benchmark"] == name}
        reference = rows["thermal"]["avg_temp"]
        for variant in ("thermal-peak", "thermal-hybrid"):
            assert rows[variant]["avg_temp"] <= reference + 6.0


def test_benchmark_peak_variant(benchmark, variant_rows):
    graph, library = build_workload(
        GraphSourceSpec(kind="benchmark", name="Bm1"), LibrarySpec()
    )
    platform = default_platform()
    model = HotSpotModel(platform_floorplan(platform))
    scheduler = ListScheduler(graph, platform, library, thermal=model)
    policy = policy_by_name("thermal-peak")
    benchmark(scheduler.run, policy)
