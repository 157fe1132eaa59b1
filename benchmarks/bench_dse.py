"""Benchmark: DSE incremental thermal re-evaluation and search throughput.

Three contracts guard the DSE subsystem's performance story (ISSUE 8):

* **incremental speedup ≥ 5x** (``BENCH_DSE_MIN_SPEEDUP``) — re-pricing a
  single block move through the shared
  :class:`~repro.dse.thermal.IncrementalThermalEvaluator` (geometric edge
  diff + Woodbury correction against the anchor factorisation) vs a full
  rebuild (network construction + Cholesky + influence solves) of the
  same candidate;
* **screening scale** — the incremental path must sustain ≥1k candidate
  evaluations inside the smoke budget (``BENCH_DSE_EVAL_BUDGET_S``),
  which is what lets the mutation operators thermally screen every
  proposed move;
* **end-to-end throughput ≥ 10x** (``BENCH_DSE_MIN_E2E_SPEEDUP``) — the
  search's evaluation layer (``evaluate_population`` over the
  content-addressed :class:`~repro.results.store.ResultStore`, i.e. the
  path every resumed or re-visited candidate takes) vs paying a cold
  flow per candidate (its platform built on every call).

The measured numbers are written to ``BENCH_dse.json`` (path override via
``BENCH_DSE_JSON``) so CI can archive the perf trajectory and gate on the
floors: ``pytest benchmarks/bench_dse.py -s``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.dse import DseConfig, run_dse
from repro.dse.candidate import CandidateSpec
from repro.dse.driver import DSE_SUITE
from repro.dse.evaluate import evaluate_population
from repro.dse.thermal import IncrementalThermalEvaluator
from repro.floorplan.geometry import Floorplan
from repro.results.store import ResultStore
from repro.thermal.blockmodel import build_block_network
from repro.thermal.query import ThermalQueryEngine

from conftest import platform_cold_flow, print_report

#: Moves screened through the incremental path (the ≥1k scale contract).
SCREEN_MOVES = 1000
#: Full rebuilds timed for the reference cost (each one is ~ms-scale).
REBUILD_MOVES = 25
#: Timing passes for the paired speedup measurement; the best is kept.
PASSES = 3

#: Hard gate on the per-move incremental speedup.  Locally the Woodbury
#: path is ~12x; CI keeps the issue floor of 5 for noisy shared runners.
MIN_SPEEDUP = float(os.environ.get("BENCH_DSE_MIN_SPEEDUP", "5"))
#: Hard gate on replayed-search throughput vs cold per-candidate flows.
MIN_E2E_SPEEDUP = float(os.environ.get("BENCH_DSE_MIN_E2E_SPEEDUP", "10"))
#: Wall-clock budget for the SCREEN_MOVES screening pass.
EVAL_BUDGET_S = float(os.environ.get("BENCH_DSE_EVAL_BUDGET_S", "30"))

SIDE = 8          # 8x8 abutting grid ...
PITCH = 2.5       # ... at 2.5 mm pitch
LOOSE = "pe27"    # interior block shrunk so it can slide without overlap


def anchor_floorplan() -> Floorplan:
    plan = Floorplan()
    for row in range(SIDE):
        for col in range(SIDE):
            name = f"pe{row * SIDE + col}"
            size = 2.3 if name == LOOSE else PITCH
            plan.place(name, col * PITCH, row * PITCH, size, size)
    return plan


def moved(base: Floorplan, index: int) -> Floorplan:
    """Candidate *index*: the loose block nudged by a distinct sub-pitch
    offset (slack is 0.2 mm on the +x/+y side, so moves never overlap)."""
    dx = 0.0002 * (index % 991)   # 0 .. 0.198, period co-prime with moves
    dy = 0.00015 * (index % 997)
    plan = Floorplan()
    for block in base.blocks():
        r = block.rect
        if block.name == LOOSE:
            plan.place(block.name, r.x + dx, r.y + dy, r.w, r.h)
        else:
            plan.place(block.name, r.x, r.y, r.w, r.h)
    return plan


def _best_of(fn, passes: int = PASSES) -> float:
    best = float("inf")
    for _ in range(passes):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def measurements(tmp_path_factory):
    anchor = anchor_floorplan()
    candidates = [moved(anchor, i) for i in range(SCREEN_MOVES)]

    # -- incremental vs full rebuild, per block move -------------------
    evaluator = IncrementalThermalEvaluator(anchor)
    evaluator.peak_temperature(candidates[0])  # warm the anchor factor

    def incremental_pass():
        for plan in candidates[:REBUILD_MOVES]:
            evaluator.engine_for(plan)

    def rebuild_pass():
        for plan in candidates[:REBUILD_MOVES]:
            network = build_block_network(plan, evaluator.package)
            ThermalQueryEngine.from_network(network, plan.block_names())

    incremental_s = _best_of(incremental_pass)
    rebuild_s = _best_of(rebuild_pass)

    # -- screening scale: >= 1k evaluations in budget ------------------
    screen_started = time.perf_counter()
    for plan in candidates:
        evaluator.peak_temperature(plan)
    screen_s = time.perf_counter() - screen_started
    stats = dict(evaluator.stats)

    # -- end-to-end: store-served evaluations vs cold flows ------------
    config = DseConfig(
        benchmark="Bm3",
        strategy="greedy",
        seed=3,
        generations=2,
        population=4,
        counts=(16,),
        dvfs_options=(True,),
    )
    out_dir = tmp_path_factory.mktemp("dse-bench")
    cold_started = time.perf_counter()
    cold_result = run_dse(config, out_dir)  # pays every flow once
    cold_run_s = time.perf_counter() - cold_started

    store = ResultStore(out_dir / "store")
    trajectory = [
        json.loads(line)
        for line in (out_dir / "trajectory.jsonl").read_text().splitlines()
    ]
    generation_zero = [
        CandidateSpec.from_dict(entry["candidate"])
        for entry in trajectory
        if entry["generation"] == 0
    ]
    evaluate_population(  # warm the store index once
        generation_zero, 0, store, suite=DSE_SUITE, replay_only=True
    )
    warm_eval_s = _best_of(
        lambda: evaluate_population(
            generation_zero, 0, store, suite=DSE_SUITE, replay_only=True
        ),
        passes=5,
    )
    warm_per_candidate_s = warm_eval_s / len(generation_zero)

    spec = cold_result.front[0].candidate.to_flow_spec()
    cold_flow = platform_cold_flow()  # a cold flow builds its platform
    cold_flow.run(spec)  # absorb one-time import/library warmup
    cold_flow_s = _best_of(lambda: cold_flow.run(spec), passes=PASSES)

    data = {
        "incremental": {
            "blocks": SIDE * SIDE,
            "moves": REBUILD_MOVES,
            "incremental_ms": round(1e3 * incremental_s / REBUILD_MOVES, 4),
            "rebuild_ms": round(1e3 * rebuild_s / REBUILD_MOVES, 4),
            "speedup": round(rebuild_s / incremental_s, 2),
        },
        "screening": {
            "evaluations": evaluator.evaluations(),
            "stats": stats,
            "total_s": round(screen_s, 4),
            "per_eval_us": round(1e6 * screen_s / SCREEN_MOVES, 2),
            "budget_s": EVAL_BUDGET_S,
        },
        "end_to_end": {
            "benchmark": config.benchmark,
            "strategy": config.strategy,
            "evaluations": cold_result.evaluations,
            "cold_run_s": round(cold_run_s, 4),
            "cold_flow_ms": round(1e3 * cold_flow_s, 3),
            "warm_eval_ms": round(1e3 * warm_per_candidate_s, 4),
            "speedup": round(cold_flow_s / warm_per_candidate_s, 2),
        },
        "gates": {
            "min_speedup": MIN_SPEEDUP,
            "min_e2e_speedup": MIN_E2E_SPEEDUP,
            "eval_budget_s": EVAL_BUDGET_S,
        },
    }

    out_path = os.environ.get("BENCH_DSE_JSON", "BENCH_dse.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")
    print_report(
        f"DSE incremental re-evaluation (written to {out_path})",
        json.dumps(data, indent=2),
    )
    return data


def test_incremental_speedup_floor(measurements):
    """Woodbury re-pricing beats full rebuilds by the gated ratio."""
    assert measurements["incremental"]["speedup"] >= MIN_SPEEDUP


def test_moves_are_served_incrementally(measurements):
    """The fixture's moves actually take the low-rank path — the
    speedup above measures the claimed mechanism, not a fallback."""
    stats = measurements["screening"]["stats"]
    assert stats["incremental"] >= SCREEN_MOVES * 0.99
    assert stats["full_rebuilds"] == 0


def test_screening_scale_within_budget(measurements):
    """At least 1k candidate evaluations inside the smoke budget."""
    screening = measurements["screening"]
    assert screening["evaluations"] >= 1000
    assert screening["total_s"] <= EVAL_BUDGET_S


def test_end_to_end_throughput_floor(measurements):
    """Store-served candidate evaluations beat cold per-candidate flows
    by the gated ratio — the resume and re-visit path stays cheap."""
    assert measurements["end_to_end"]["speedup"] >= MIN_E2E_SPEEDUP


def test_benchmark_incremental_screen(benchmark):
    """Time one incremental screening evaluation (pytest-benchmark)."""
    anchor = anchor_floorplan()
    evaluator = IncrementalThermalEvaluator(anchor)
    plans = [moved(anchor, i) for i in range(32)]
    counter = iter(range(10**9))

    def screen_one():
        evaluator.peak_temperature(plans[next(counter) % len(plans)])

    benchmark(screen_one)
