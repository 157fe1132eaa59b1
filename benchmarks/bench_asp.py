"""Benchmark: the array step program of the ASP against the per-candidate loop.

``ListScheduler.run`` scores each step's (ready task × PE) candidates as
one array program; ``tests/asp_oracle.py`` keeps the per-candidate loop
it replaced.  This script times both on the same schedulers as the
median of interleaved pairs (new, then oracle, repeated), and prints the
per-spec ratio:

* Bm1–4 × the six registered policies on the default 4-PE platform;
* a generated 400-task layered graph under heuristic3, thermal and
  thermal-peak.

Gates: every schedule and every run's statistics equal the oracle's, and
at 400 tasks the array program is at least 5× faster under heuristic3
and at least 4× faster under thermal.  Run with
``PYTHONPATH=src python -m pytest -q -s benchmarks/bench_asp.py``.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import pytest

from repro import default_platform, library_for_graph
from repro import benchmark as paper_benchmark
from repro.core.heuristics import POLICY_NAMES, policy_by_name
from repro.core.scheduler import ListScheduler
from repro.floorplan.platform import platform_floorplan
from repro.taskgraph.generator import generate_family_graph
from repro.thermal.hotspot import HotSpotModel

from conftest import print_report

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from asp_oracle import OracleScheduler  # noqa: E402

#: Interleaved (new, oracle) pairs per spec.
PAIRS = {"paper": 15, "large": 5}
#: Minimum oracle/new ratio at 400 tasks, per policy.
LARGE_GATES = {"heuristic3": 5.0, "thermal": 4.0}


def _median_pair(graph, policy_name: str, pairs: int):
    architecture = default_platform()
    library = library_for_graph(graph)
    model = HotSpotModel(platform_floorplan(architecture))
    new = ListScheduler(graph, architecture, library, thermal=model.fork())
    oracle = OracleScheduler(graph, architecture, library, thermal=model.fork())
    times = {"new": [], "oracle": []}
    outcomes = {}
    for _ in range(pairs):
        for label, scheduler in (("new", new), ("oracle", oracle)):
            started = time.perf_counter()
            schedule = scheduler.run(policy_by_name(policy_name))
            times[label].append(time.perf_counter() - started)
            outcomes[label] = (schedule.assignments(), dict(scheduler.last_run_stats))
    assert outcomes["new"] == outcomes["oracle"], (graph.name, policy_name)
    return statistics.median(times["new"]), statistics.median(times["oracle"])


def _rows(specs, pairs: int):
    rows = []
    for graph, policy_name in specs:
        new_s, oracle_s = _median_pair(graph, policy_name, pairs)
        rows.append((graph.name, policy_name, new_s, oracle_s, oracle_s / new_s))
    return rows


def _report(title: str, rows) -> None:
    lines = [f"{'graph':24} {'policy':15} {'array ms':>9} {'oracle ms':>10} {'ratio':>6}"]
    for graph, policy_name, new_s, oracle_s, ratio in rows:
        lines.append(
            f"{graph:24} {policy_name:15} {new_s * 1e3:9.2f} "
            f"{oracle_s * 1e3:10.2f} {ratio:6.2f}"
        )
    print_report(title, "\n".join(lines))


def test_paper_benchmarks_identical_and_timed():
    specs = [
        (paper_benchmark(bm), name)
        for bm in ("Bm1", "Bm2", "Bm3", "Bm4")
        for name in POLICY_NAMES
    ]
    rows = _rows(specs, PAIRS["paper"])
    _report("ASP array step vs per-candidate loop (Bm1-4, default platform)", rows)
    new_total = sum(row[2] for row in rows)
    oracle_total = sum(row[3] for row in rows)
    print(f"sum of medians: array {new_total * 1e3:.1f} ms, "
          f"oracle {oracle_total * 1e3:.1f} ms ({oracle_total / new_total:.2f}x)")


@pytest.mark.parametrize("policy_name", ["heuristic3", "thermal", "thermal-peak"])
def test_large_layered_graph(policy_name):
    graph = generate_family_graph("layered", tasks=400, seed=0)
    rows = _rows([(graph, policy_name)], PAIRS["large"])
    _report(f"ASP array step vs per-candidate loop (400-task layered, {policy_name})", rows)
    ratio = rows[0][4]
    gate = LARGE_GATES.get(policy_name)
    if gate is not None:
        assert ratio >= gate, f"{policy_name}: {ratio:.2f}x < {gate}x at 400 tasks"
