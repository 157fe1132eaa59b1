"""Self-test of the benchmark's own machinery (about 15 s).

Run from the repository root::

    python3 perfbench/selftest.py

Checks that:

* ``BENCHMARK.json`` lists exactly the workloads and metrics the code
  reports, with the same units and directions;
* the output check works: a real ``batch-grid`` pass passes against
  ``expected.json``, and the same pass with one expected entry corrupted
  counts exactly one failure, so ``fail_frac`` rises above 0;
* the tracer counts what the seed commit does on one ``cosynth-table2``
  pass (16,272 thermal-model builds, 1,064 scheduler runs), reports self
  times no larger than totals, and leaves no wrapper behind.

The seed counts describe the commit the benchmark was defined against;
a later change that removes that work moves them on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import harness

harness.require_source()

import metrics  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import BatchGrid, CosynthTable2  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def check_benchmark_json() -> None:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(
        [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
        "BENCHMARK.json workloads match the code",
    )
    check(
        [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
        == [tuple(row) for row in metrics.END_TO_END],
        "BENCHMARK.json end_to_end metrics match the code",
    )
    check(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        == [tuple(row[:3]) for row in metrics.PER_LAYER],
        "BENCHMARK.json per_layer metrics match the code",
    )


def check_corruption_detected(scratch: str) -> None:
    expected = dict(harness.load_expected()["workloads"]["batch-grid"])
    workload = BatchGrid(harness.DEFAULT_SEED, scratch)
    workload.setup()
    pass_ = workload.run_pass()
    clean = run.check_pass(pass_, expected)
    check(clean.failed == 0 and clean.attempted == len(workload.specs),
          f"an unmodified batch-grid pass checks clean ({clean.attempted} ops)")
    victim = workload.keys[len(workload.keys) // 2]
    expected[victim] = "0" * len(expected[victim])
    dirty = run.check_pass(pass_, expected)
    fail_frac = dirty.failed / dirty.attempted
    check(dirty.failed == 1 and fail_frac > 0,
          f"one corrupted expected entry gives failed=1, fail_frac={fail_frac:.6f}")


def check_tracer(scratch: str) -> None:
    from repro.flow import Flow
    from repro.thermal.hotspot import HotSpotModel

    originals = (Flow.__dict__["run"], HotSpotModel.__dict__["__init__"])
    workload = CosynthTable2(harness.DEFAULT_SEED, scratch)
    workload.setup()
    tracer = Tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        pass_ = workload.run_pass()
        summary = tracer.summary(mark)
        layers = metrics.pass_layers(
            workload, pass_, summary, dict(tracer.counts), len(tracer.geometries)
        )
    finally:
        tracer.remove()
    check((Flow.__dict__["run"], HotSpotModel.__dict__["__init__"]) == originals,
          "wrappers are removed after the traced window")
    for name, seed_value in metrics.SEED_COUNTS["cosynth-table2"].items():
        check(layers[name] == seed_value, f"{name} = {layers[name]} (seed commit: {seed_value})")
    check(all(row["self_s"] <= row["total_s"] + 1e-9 for row in summary.values()),
          "every span name's self time is at most its total")
    check(summary["flow.run"]["calls"] == len(workload.specs),
          "one flow.run span per operation")


def main() -> int:
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=harness.OUT_DIR)
    try:
        check_benchmark_json()
        check_corruption_detected(scratch)
        check_tracer(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
