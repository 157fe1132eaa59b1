"""The repository benchmark: three workloads over the ASP stack.

Run from the repository root::

    python3 perfbench/run.py --workload cosynth-table2 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures an untraced half, then wraps each layer's public
entry points (see ``tracing.py``) for a traced half and reports the
per-layer metrics plus the tracing overhead.  Every operation's output
is checked against the records in ``expected.json``.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The full result (host block, counts, report values) is
also written under ``.perfbench/``.
"""

from time import perf_counter

_T0 = perf_counter()  # set-up is timed from here, in probes and main alike

import argparse
import json
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import harness
from harness import OUT_DIR

WORKLOAD_NAMES = ("cosynth-table2", "batch-grid", "serve-closed")
#: Set-up is repeated this many times per run; the median is reported.
SETUP_SAMPLES = 5


@dataclass
class PassSummary:
    """What a run keeps of one pass once its outputs are checked."""

    wall_s: float
    attempted: int
    failed: int
    latencies_s: List[Tuple[str, float]]
    quality: Dict[str, float]
    failures: List[str]
    layers_traced: Optional[Dict[str, float]] = None
    host_ref_s: float = 0.0

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed


def check_pass(pass_: Any, expected: Dict[str, str]) -> PassSummary:
    """Compare every op's record with its expected digest."""
    failures: List[str] = []
    latencies: List[Tuple[str, float]] = []
    for op in pass_.ops:
        problem = op.error
        if problem is None:
            want = expected.get(op.key)
            if want is None:
                problem = "no expected record for this spec"
            elif harness.record_digest(op.record) != want:
                problem = "record differs from the expected one"
        if problem is None:
            latencies.append((op.key, op.latency_s))
        else:
            failures.append(f"{op.key}: {problem}")
    return PassSummary(
        wall_s=pass_.wall_s,
        attempted=len(pass_.ops),
        failed=len(failures),
        latencies_s=latencies,
        quality=pass_.quality,
        failures=failures[:5],
    )


def run_window(
    workload: Any, seconds: float, expected: Dict[str, str], tracer: Any = None
) -> List[PassSummary]:
    """Whole passes until the next one would overrun *seconds* of pass time."""
    from metrics import pass_layers

    passes: List[PassSummary] = []
    measured = 0.0
    while True:
        mark = tracer.mark() if tracer is not None else 0
        pass_ = workload.run_pass()
        summary = check_pass(pass_, expected)
        if tracer is not None:
            summary.layers_traced = pass_layers(
                workload, pass_, tracer.summary(mark), dict(tracer.counts), len(tracer.geometries)
            )
        del pass_
        summary.host_ref_s = harness.host_ref_s()
        passes.append(summary)
        measured += summary.wall_s
        if measured + measured / len(passes) > seconds:
            return passes


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter running the same set-up."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=170, env=harness.child_env(), check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def measure_setup(workload: Any) -> List[float]:
    if workload.restartable_setup:
        samples = []
        for _ in range(SETUP_SAMPLES):
            workload.close()
            t0 = perf_counter()
            workload.setup()
            samples.append(perf_counter() - t0)
        return samples
    workload.setup()
    samples = [perf_counter() - _T0]
    samples += [probe_setup(workload.name, workload.seed) for _ in range(SETUP_SAMPLES - 1)]
    return samples


def _report_values(
    name: str, attempted: int, failed: int, samples: int, host_ref_s: float,
    e2e: Dict[str, float], quality: Dict[str, float],
) -> Dict[str, Any]:
    """Values printed beside the metrics: failure share, percentile sample
    count, host speed, the serve percentiles under their own names, paper
    reductions."""
    report: Dict[str, Any] = {
        "fail_frac": failed / attempted if attempted else 1.0,
        "latency_samples": samples,
        "host_ref_ms": host_ref_s * 1e3,
    }
    if name == "serve-closed":
        report["serve_p50_ms"] = e2e["latency_p50_ms"]
        report["serve_p99_ms"] = e2e["latency_p99_ms"]
    report.update(quality)
    return report


def run_one(args: argparse.Namespace) -> int:
    import metrics
    from tracing import Tracer
    from workloads import WORKLOADS

    expected_all = harness.load_expected()["workloads"]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "tmp").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR / "tmp")
    workload = WORKLOADS[args.workload](args.seed, scratch)
    expected = expected_all[args.workload]
    tracer = None
    try:
        setup_samples = measure_setup(workload)
        # one untimed pass fills lazy caches first; its outputs are checked too
        warmup = check_pass(workload.run_pass(), expected)
        with harness.MemorySampler() as memory:
            if args.trace:
                untraced = run_window(workload, args.seconds / 2.0, expected)
                tracer = Tracer()
                tracer.install()
                try:
                    traced = run_window(workload, args.seconds / 2.0, expected, tracer)
                finally:
                    tracer.remove()
                passes = untraced + traced
            else:
                untraced = passes = run_window(workload, args.seconds, expected)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    e2e = metrics.end_to_end(setup_samples, untraced, workload.serial, memory.peak_mb)
    attempted = warmup.attempted + sum(p.attempted for p in passes)
    failed = warmup.failed + sum(p.failed for p in passes)
    result: Dict[str, Any] = {
        "workload": args.workload,
        "trace": args.trace,
        "host": harness.host_block(args.seed),
        "setup_samples_s": setup_samples,
        "warmup_wall_s": warmup.wall_s,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_host_ref_s": [p.host_ref_s for p in passes],
        "end_to_end": e2e,
        "report": _report_values(
            args.workload, attempted, failed, len(workload.specs),
            min(p.host_ref_s for p in passes), e2e, passes[0].quality,
        ),
        "failures": [f for p in [warmup] + passes for f in p.failures][:10],
    }
    if args.trace:
        layer = metrics.per_layer(
            traced, workload.serial, metrics.ops_per_s(untraced, workload.serial)
        )
        result["per_layer"] = layer["metrics"]
        result["counts_repeat"] = layer["counts_repeat"]
        result["seed_counts"] = metrics.seed_count_check(args.workload, layer["metrics"])
        spans_path = OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl"
        tracer.write(spans_path, _T0)
        result["spans_file"] = str(spans_path.relative_to(harness.ROOT))
        block = metrics.as_metric_block(layer["metrics"], metrics.PER_LAYER)
    else:
        block = metrics.as_metric_block(e2e, metrics.END_TO_END)
    out_path = OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} attempted={attempted} failed={failed}")
    for name, entry in block.items():
        print(f"  {name:<30} {entry['value']:>16.6g} {entry['unit']}")
    for name, value in result["report"].items():
        print(f"  report {name:<23} {value}")
    if args.trace:
        print(f"  counts_repeat {result['counts_repeat']}  seed_counts {result['seed_counts']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"  host {json.dumps(result['host'], sort_keys=True)}")
    print(f"  full result: {out_path.relative_to(harness.ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": block,
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own interpreter; one table at the end."""
    rows = {}
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, env=harness.child_env(),
        )
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        rows[name] = json.loads(out.stdout.strip().splitlines()[-1])
    metric_names = list(next(iter(rows.values()))["metrics"])
    print(f"\n{'metric':<30}" + "".join(f"{n:>18}" for n in rows))
    for metric in metric_names:
        unit = next(iter(rows.values()))["metrics"][metric]["unit"]
        print(f"{metric + ' [' + unit + ']':<30}"
              + "".join(f"{r['metrics'][metric]['value']:>18.6g}" for r in rows.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{w}.{m}": v for w, r in rows.items() for m, v in r["metrics"].items()},
    }))
    return 0


def _terminate(signum: int, _frame: Any) -> None:
    # run the finally blocks (daemon stop, temp cleanup) when terminated
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="pass time to measure (split in halves with --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    harness.require_source()
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, OUT_DIR).setup()
        print(json.dumps({"setup_s": perf_counter() - _T0}))
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
