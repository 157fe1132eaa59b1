"""Metric tables and how passes turn into metric values.

``END_TO_END`` and ``PER_LAYER`` are the metric names, units and better
directions ``BENCHMARK.json`` lists; ``selftest.py`` checks the two agree.

Per-layer values are per pass.  Counts come from the first traced pass
(they repeat exactly from pass to pass, and the run says whether they
did); times and ratios are the median over traced passes.  A layer a
workload bypasses, or runs in another process the wrappers cannot see,
reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from harness import median, percentile

#: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better, is_count)
PER_LAYER = (
    ("thermal.build_calls", "count", "lower", True),
    ("thermal.build_s", "s", "lower", False),
    ("thermal.build_distinct_frac", "frac", "higher", False),
    ("thermal.solver_solves", "count", "lower", True),
    ("thermal.exact_requery_frac", "frac", "lower", False),
    ("scheduler.run_calls", "count", "lower", True),
    ("scheduler.screen_s", "s", "lower", False),
    ("scheduler.thermal_s", "s", "lower", False),
    ("scheduler.candidates", "count", "lower", True),
    ("scheduler.candidates_per_s", "1/s", "higher", False),
    ("floorplan.evolve_calls", "count", "lower", True),
    ("floorplan.evolve_self_s", "s", "lower", False),
    ("cosynth.run_self_s", "s", "lower", False),
    ("flow.build_s", "s", "lower", False),
    ("flow.evaluate_s", "s", "lower", False),
    ("batch.flow_s_sum", "s", "lower", False),
    ("batch.pool_efficiency", "frac", "higher", False),
    ("batch.parent_wait_s", "s", "lower", False),
    ("store.append_calls", "count", "lower", True),
    ("store.append_s", "s", "lower", False),
    ("store.load_s", "s", "lower", False),
    ("store.load_records_per_s", "1/s", "higher", False),
    ("serve.queue_ms_p50", "ms", "lower", False),
    ("serve.run_ms_p50", "ms", "lower", False),
    ("serve.overhead_ms_p50", "ms", "lower", False),
    ("serve.cache_hit_frac", "frac", "higher", False),
    ("serve.rejected", "count", "lower", True),
    ("obs.trace_overhead_frac", "frac", "lower", False),
)

#: Per-pass counts of the seed commit's cosynth-table2 pass (sanity check
#: for the tracer; a program change that removes work moves them).
SEED_COUNTS = {
    "cosynth-table2": {"thermal.build_calls": 16272, "scheduler.run_calls": 1064},
}


def pass_layers(
    workload: Any,
    pass_: Any,
    summary: Dict[str, Dict[str, float]],
    counts: Dict[str, int],
    distinct_geometries: int,
) -> Dict[str, float]:
    """Every per-layer metric (bar the trace overhead) for one traced pass."""

    def total(name: str) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    def self_time(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    records = [op.record for op in pass_.ops if op.record is not None]
    diagnostics = [r.get("diagnostics") or {} for r in records]
    sched = [d["scheduler"] for d in diagnostics if d.get("scheduler")]
    diag_candidates = sum(s.get("candidates_evaluated", 0) for s in sched)
    requeries = sum(s.get("thermal_exact_requeries", 0) for s in sched)
    if workload.in_process:
        run_calls = counts.get("scheduler.run_calls", 0)
        candidates = counts.get("scheduler.candidates", 0)
    else:  # flows ran in pool workers or the daemon: their records say
        run_calls = len(sched)
        candidates = diag_candidates
    builds = counts.get("thermal.build_calls", 0)
    sched_s = total("scheduler.screen") + total("scheduler.thermal")
    load_s = total("store.load")
    layers = pass_.layers
    return {
        "thermal.build_calls": builds,
        "thermal.build_s": total("thermal.build"),
        "thermal.build_distinct_frac": distinct_geometries / builds if builds else 0.0,
        "thermal.solver_solves": sum(
            (d.get("thermal_query") or {}).get("solver_solves", 0) for d in diagnostics
        ),
        "thermal.exact_requery_frac": requeries / diag_candidates if diag_candidates else 0.0,
        "scheduler.run_calls": run_calls,
        "scheduler.screen_s": total("scheduler.screen"),
        "scheduler.thermal_s": total("scheduler.thermal"),
        "scheduler.candidates": candidates,
        "scheduler.candidates_per_s": candidates / sched_s if sched_s else 0.0,
        "floorplan.evolve_calls": counts.get("floorplan.evolve_calls", 0),
        "floorplan.evolve_self_s": self_time("floorplan.evolve"),
        "cosynth.run_self_s": self_time("cosynth.run"),
        "flow.build_s": sum((r.get("timings") or {}).get("build", 0.0) for r in records),
        "flow.evaluate_s": total("flow.evaluate"),
        "batch.flow_s_sum": layers.get("batch.flow_s_sum", 0.0),
        "batch.pool_efficiency": layers.get("batch.pool_efficiency", 0.0),
        "batch.parent_wait_s": total("batch.wait"),
        "store.append_calls": counts.get("store.append_calls", 0),
        "store.append_s": total("store.append"),
        "store.load_s": load_s,
        "store.load_records_per_s": (
            layers.get("store.records_loaded", 0.0) / load_s if load_s else 0.0
        ),
        "serve.queue_ms_p50": layers.get("serve.queue_ms_p50", 0.0),
        "serve.run_ms_p50": layers.get("serve.run_ms_p50", 0.0),
        "serve.overhead_ms_p50": layers.get("serve.overhead_ms_p50", 0.0),
        "serve.cache_hit_frac": layers.get("serve.cache_hit_frac", 0.0),
        "serve.rejected": layers.get("serve.rejected", 0),
    }


def best_latencies(passes: Sequence[Any]) -> Dict[str, float]:
    """Each spec's fastest latency over the passes.

    The shared host only ever slows an operation down, so the fastest of
    many short runs is the steadiest estimate of what the code costs.
    """
    best: Dict[str, float] = {}
    for p in passes:
        for key, latency in p.latencies_s:
            best[key] = min(latency, best.get(key, latency))
    return best


def ops_per_s(passes: Sequence[Any], serial: bool) -> float:
    """Successful operations per second of the run's fastest pass.

    A serial pass takes the sum of its operations' latencies, so its
    fastest pass is assembled from each operation's fastest run.  A pool
    overlaps operations, so only a whole pass times it.
    """
    if serial:
        best = best_latencies(passes)
        return len(best) / sum(best.values())
    return max(p.succeeded / p.wall_s for p in passes)


def end_to_end(
    setup_samples: Sequence[float],
    passes: Sequence[Any],
    serial: bool,
    peak_rss_mb: float,
) -> Dict[str, float]:
    """The end-to-end metrics of one run, as ``BENCHMARK.json`` lists them."""
    latency_samples = list(best_latencies(passes).values())
    return {
        "setup_s": median(setup_samples),
        "ops_per_s": ops_per_s(passes, serial),
        "latency_p50_ms": percentile(latency_samples, 50) * 1e3,
        "latency_p99_ms": percentile(latency_samples, 99) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(traced: Sequence[Any], serial: bool, untraced_rate: float) -> Dict[str, Any]:
    """Aggregate traced passes into ``{"metrics": ..., "counts_repeat": ...}``."""
    first = traced[0].layers_traced
    out: Dict[str, float] = {}
    for name, _unit, _better, is_count in PER_LAYER:
        if name == "obs.trace_overhead_frac":
            continue
        if is_count:
            out[name] = first[name]
        else:
            out[name] = median(p.layers_traced[name] for p in traced)
    out["obs.trace_overhead_frac"] = (
        1.0 - ops_per_s(traced, serial) / untraced_rate if untraced_rate else 0.0
    )
    repeat = all(
        p.layers_traced[name] == first[name]
        for p in traced
        for name, _u, _b, is_count in PER_LAYER
        if is_count
    )
    return {"metrics": out, "counts_repeat": repeat}


def seed_count_check(workload_name: str, metrics: Dict[str, float]) -> Optional[Dict[str, Any]]:
    expected = SEED_COUNTS.get(workload_name)
    if expected is None:
        return None
    measured = {name: metrics[name] for name in expected}
    return {"expected": expected, "measured": measured, "match": measured == expected}


def as_metric_block(values: Dict[str, float], table: Sequence[tuple]) -> Dict[str, Dict[str, Any]]:
    return {row[0]: {"value": values[row[0]], "unit": row[1]} for row in table}
