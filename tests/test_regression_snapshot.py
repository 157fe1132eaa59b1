"""Regression snapshots: pinned measured numbers for the headline flows.

The whole pipeline is seeded and deterministic, so these exact values must
reproduce on every run and platform (up to float tolerance).  If an
intentional change moves them — recalibration, algorithm fix — update the
snapshot *and* re-generate EXPERIMENTS.md in the same commit; an
unintentional drift here means nondeterminism or a behavioural regression.
"""

import pytest

from repro import (
    BaselinePolicy,
    TaskEnergyPolicy,
    ThermalPolicy,
    benchmark,
    platform_spec,
    run_flow,
)

#: policy -> (total_pow, max_temp, avg_temp, makespan) for Bm1 on the
#: default 4-PE platform.
BM1_PLATFORM_SNAPSHOT = {
    "baseline": (17.0192, 97.3246, 90.0645, 665.741),
    "heuristic3": (17.0192, 97.3223, 90.0639, 665.741),
    "thermal": (14.8728, 90.7812, 84.3768, 765.858),
}


@pytest.mark.parametrize("policy_cls", [BaselinePolicy, TaskEnergyPolicy, ThermalPolicy])
def test_bm1_platform_snapshot(policy_cls):
    policy = policy_cls()
    evaluation = run_flow(platform_spec("Bm1", policy=policy.name)).evaluation
    expected = BM1_PLATFORM_SNAPSHOT[policy.name]
    measured = (
        evaluation.total_power,
        evaluation.max_temperature,
        evaluation.avg_temperature,
        evaluation.makespan,
    )
    for got, want in zip(measured, expected):
        assert got == pytest.approx(want, abs=1e-3)


def test_snapshot_shape_is_the_papers():
    """The pinned numbers themselves encode the paper's Table-3 shape."""
    baseline = BM1_PLATFORM_SNAPSHOT["baseline"]
    thermal = BM1_PLATFORM_SNAPSHOT["thermal"]
    assert thermal[1] < baseline[1]  # cooler peak
    assert thermal[2] < baseline[2]  # cooler average
    assert thermal[3] <= 790.0       # within deadline


def test_benchmark_graphs_snapshot():
    """Benchmark topology is part of the reproduction contract."""
    graph = benchmark("Bm1")
    assert graph.task("t0").task_type == "type4"
    first_edges = [e.key for e in graph.edges()][:3]
    assert first_edges == [("t0", "t1"), ("t0", "t2"), ("t2", "t3")]
