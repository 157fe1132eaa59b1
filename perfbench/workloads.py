"""The three workloads and what one pass of each does.

Every workload turns the benchmark seed into a fixed list of flow specs
in ``__init__``, warms what a user would warm in :meth:`setup`, and runs
one closed-loop pass over its specs in :meth:`run_pass`.  A pass returns
one :class:`Op` per operation — its latency, the record it produced or
the error it raised — plus the layer numbers only the workload itself
can see (pool wall time, wire timings, daemon stats).

``universe()`` lists every spec any seed can select; the expected
records in ``expected.json`` cover exactly that set.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.table2 import table2_reductions, table2_rows_from_records
from repro.experiments.table3 import table3_reductions, table3_rows_from_records
from repro.flow import Flow, FlowSpec, cosynthesis_spec, platform_spec
from repro.flow.registry import build_policy
from repro.flow.spec import PolicySpec, spec_hash
from repro.results import ResultStore, RunRecord
from repro.scenarios import build_workload

import repro.flow as flow_api
from harness import median
from serving import Daemon

BENCHMARKS = ("Bm1", "Bm2", "Bm3", "Bm4")
#: Every registered policy with a tunable weight (baseline's is fixed at 0).
POLICIES = ("heuristic1", "heuristic2", "heuristic3", "thermal", "thermal-peak", "thermal-hybrid")

#: batch-grid: policy weights are default_weight * factor; each run draws
#: 5 of these 80 factors, so that a pass is short and a run holds dozens:
#: its fastest pass is then one the shared host did not slow down.
FACTOR_POOL = tuple(round(0.25 + 0.025 * i, 3) for i in range(80))
GRID_FACTORS_PER_RUN = 5
BATCH_WORKERS = 2

#: serve-closed: fixed request mix; the seed only shuffles its order.
SERVE_FACTORS = (0.5, 1.0, 1.5, 2.0)
SERVE_WORKERS = 2

#: Suite tag on records the batch and serve workloads store.
SUITE = "perfbench"


@dataclass
class Op:
    """One operation: what it was, how long it took, what it produced."""

    key: str
    latency_s: float
    record: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    wire: Dict[str, float] = field(default_factory=dict)


@dataclass
class Pass:
    """One closed-loop pass over a workload's specs."""

    wall_s: float
    ops: List[Op]
    layers: Dict[str, float] = field(default_factory=dict)
    quality: Dict[str, float] = field(default_factory=dict)


def default_weight(policy: str) -> float:
    return float(build_policy(PolicySpec(name=policy)).weight)


def weighted_spec(benchmark: str, policy: str, factor: float) -> FlowSpec:
    return platform_spec(
        benchmark, policy=policy, weight=round(default_weight(policy) * factor, 6)
    )


def table3_specs() -> List[FlowSpec]:
    """Paper Table 3: heuristic3 vs thermal on the 4-PE platform."""
    specs = []
    for name in BENCHMARKS:
        specs.append(platform_spec(name, policy="heuristic3"))
        specs.append(platform_spec(name, policy="thermal"))
    return specs


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Workload:
    """Base: a fixed spec list run serially through :class:`Flow` in-process."""

    name = ""
    #: Whether the flows run in this process (so wrappers can see them).
    in_process = True
    #: Whether :meth:`setup` can run again in the same process.
    restartable_setup = False
    #: Whether a pass runs one operation at a time.
    serial = True

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = Path(scratch)
        self.specs = self.build_specs(seed)
        self.keys = [spec_hash(spec) for spec in self.specs]
        self.flow = Flow()

    # -- inputs --------------------------------------------------------
    def build_specs(self, seed: int) -> List[FlowSpec]:
        raise NotImplementedError

    def universe(self) -> List[FlowSpec]:
        return self.build_specs(0)

    # -- lifecycle -----------------------------------------------------
    def setup(self) -> None:
        """Warm the process-wide workload memo (graph + library builds)."""
        for spec in self.specs:
            build_workload(spec.graph, spec.library)

    def close(self) -> None:
        """Release whatever :meth:`setup` started."""

    # -- one pass ------------------------------------------------------
    def run_pass(self) -> Pass:
        results = []
        started = perf_counter()
        for spec, key in zip(self.specs, self.keys):
            t0 = perf_counter()
            try:
                result = self.flow.run(spec)
            except Exception as exc:  # a failed operation is counted, not fatal
                results.append((key, perf_counter() - t0, None, _error(exc)))
                continue
            results.append((key, perf_counter() - t0, result, None))
        wall = perf_counter() - started
        ops = [
            Op(key, latency, result.as_record().to_dict() if result is not None else None, error)
            for key, latency, result, error in results
        ]
        return Pass(wall, ops, quality=self.quality([op.record for op in ops if op.record]))

    def quality(self, records: List[Dict[str, Any]]) -> Dict[str, float]:
        return {}


class CosynthTable2(Workload):
    """Paper Table 2: co-synthesis, heuristic3+power vs thermal+thermal."""

    name = "cosynth-table2"

    def build_specs(self, seed: int) -> List[FlowSpec]:
        # the paper's specs are fixed so Table 2 stays comparable to the
        # paper; the seed has nothing to vary here
        specs = []
        for name in BENCHMARKS:
            specs.append(cosynthesis_spec(name, policy="heuristic3", final_cost="power"))
            specs.append(cosynthesis_spec(name, policy="thermal", final_cost="thermal"))
        return specs

    def quality(self, records: List[Dict[str, Any]]) -> Dict[str, float]:
        if len(records) != len(self.specs):
            return {}
        rows = table2_rows_from_records([RunRecord.from_dict(r) for r in records])
        red = table2_reductions(rows)
        return {
            "table2_max_reduction_c": red["max_temp_reduction"],
            "table2_avg_reduction_c": red["avg_temp_reduction"],
        }


class BatchGrid(Workload):
    """``run_many(workers=2)`` over 128 ms-scale specs into a fresh store,
    then a full store read-back and the Table 3 rows rebuilt from it."""

    name = "batch-grid"
    in_process = False
    serial = False

    def _grid(self, factors: Sequence[float]) -> List[FlowSpec]:
        return [
            weighted_spec(name, policy, factor)
            for name in BENCHMARKS
            for policy in POLICIES
            for factor in factors
        ]

    def build_specs(self, seed: int) -> List[FlowSpec]:
        factors = sorted(random.Random(seed).sample(FACTOR_POOL, GRID_FACTORS_PER_RUN))
        return self._grid(factors) + table3_specs()

    def universe(self) -> List[FlowSpec]:
        return self._grid(FACTOR_POOL) + table3_specs()

    def run_pass(self) -> Pass:
        store_dir = Path(tempfile.mkdtemp(prefix="batch-", dir=self.scratch))
        try:
            return self._run_pass(store_dir)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    def _run_pass(self, store_dir: Path) -> Pass:
        started = perf_counter()
        try:
            # through the module attribute, so a traced run's wrappers see it
            flow_api.run_many(self.specs, workers=BATCH_WORKERS, store=store_dir, suite=SUITE)
            pooled = perf_counter()
            records = list(ResultStore(store_dir).load().records)
            rows = table3_rows_from_records(records)
        except Exception as exc:  # the whole batch failed: every spec counts
            wall = perf_counter() - started
            return Pass(wall, [Op(key, 0.0, None, _error(exc)) for key in self.keys])
        wall = perf_counter() - started
        ops: List[Op] = []
        seen = set()
        for record in records:
            data = record.to_dict()
            ops.append(Op(record.spec_hash, float(record.provenance["elapsed_s"]), data))
            if record.spec_hash in seen:
                ops[-1].error = "duplicate record in store"
            seen.add(record.spec_hash)
        wanted = set(self.keys)
        for op in ops:
            if op.key not in wanted and op.error is None:
                op.error = "record for a spec that was not submitted"
        for key in self.keys:
            if key not in seen:
                ops.append(Op(key, 0.0, None, "spec missing from the store"))
        flow_s = sum(op.latency_s for op in ops if op.record is not None)
        red = table3_reductions(rows)
        return Pass(
            wall,
            ops,
            layers={
                "batch.flow_s_sum": flow_s,
                "batch.pool_efficiency": flow_s / ((pooled - started) * BATCH_WORKERS),
                "store.records_loaded": float(len(records)),
            },
            quality={
                "table3_max_reduction_c": red["max_temp_reduction"],
                "table3_avg_reduction_c": red["avg_temp_reduction"],
            },
        )


class ServeClosed(Workload):
    """One closed-loop client against a ``repro serve`` child process.

    One client, because the daemon and the benchmark share the host's few
    cores: a second client only queued behind the first and made the
    timings measure the OS scheduler rather than the serve path.
    """

    name = "serve-closed"
    in_process = False
    #: Set-up starts a daemon, so it can be repeated in one run.
    restartable_setup = True

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        order = list(range(len(self.specs)))
        random.Random(seed).shuffle(order)
        self.order = order
        self.daemon: Optional[Daemon] = None
        self._starts = 0

    def build_specs(self, seed: int) -> List[FlowSpec]:
        return [
            weighted_spec(name, policy, factor)
            for name in BENCHMARKS
            for policy in POLICIES
            for factor in SERVE_FACTORS
        ]

    def client(self):
        from repro.serve import ServeClient

        # retries off: a 429 or 5xx is a failed operation, not a slow one
        return ServeClient(self.daemon.url, timeout_s=60.0, max_retries=0)

    def setup(self) -> None:
        """Start a fresh daemon, wait for health, warm it over every spec."""
        self.close()
        self._starts += 1
        self.daemon = Daemon(self.scratch / f"daemon-{self._starts}", workers=SERVE_WORKERS)
        try:
            self.daemon.start()
            client = self.client()
            for spec in self.specs:
                client.submit(spec, store=False, suite=SUITE)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def run_pass(self) -> Pass:
        client = self.client()
        stats = client.stats()
        ops: List[Op] = []
        started = perf_counter()
        for index in self.order:
            spec, key = self.specs[index], self.keys[index]
            t0 = perf_counter()
            try:
                payload = client.submit(spec, store=True, suite=SUITE)
            except Exception as exc:  # refused or failed requests are counted
                ops.append(Op(key, perf_counter() - t0, None, _error(exc)))
                continue
            ops.append(Op(key, perf_counter() - t0, payload["record"], wire=payload["timings"]))
        wall = perf_counter() - started
        after = client.stats()
        return Pass(wall, ops, layers=_serve_layers(ops, stats, after))


def _cache_counts(stats: Dict[str, Any]) -> Dict[str, int]:
    cache = stats.get("cache") or {}
    totals = {"hits": 0, "misses": 0}
    for layer in ("workloads", "platforms"):
        for key in totals:
            totals[key] += int((cache.get(layer) or {}).get(key, 0))
    return totals


def _serve_layers(ops: List[Op], before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    served = [op for op in ops if op.record is not None]
    queue_ms = [op.wire.get("queue_s", 0.0) * 1e3 for op in served]
    run_ms = [op.wire.get("run_s", 0.0) * 1e3 for op in served]
    overhead_ms = [
        op.latency_s * 1e3 - q - r for op, q, r in zip(served, queue_ms, run_ms)
    ]
    b, a = _cache_counts(before), _cache_counts(after)
    hits, misses = a["hits"] - b["hits"], a["misses"] - b["misses"]
    return {
        "serve.queue_ms_p50": median(queue_ms),
        "serve.run_ms_p50": median(run_ms),
        "serve.overhead_ms_p50": median(overhead_ms),
        "serve.cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "serve.rejected": int(after.get("rejected", 0)) - int(before.get("rejected", 0)),
    }


WORKLOADS = {cls.name: cls for cls in (CosynthTable2, BatchGrid, ServeClosed)}
