"""The ``python -m repro`` command line.

Subcommands over the unified flow + scenario + results API::

    python -m repro run --benchmark Bm1 --policy thermal      # one flow
    python -m repro run --spec spec.json --json               # from a file
    python -m repro run --set graph.kind=generated \\
        --set graph.name=gen30 --set graph.tasks=30 --set graph.seed=7
    python -m repro sweep --benchmarks Bm1 Bm2 --policies \\
        heuristic3 thermal --workers 4 --cache-dir .flowcache # batch
    python -m repro scenarios list                            # named suites
    python -m repro scenarios show paper-tables
    python -m repro scenarios run paper-tables --store runs/  # into the store
    python -m repro results list --store runs/                # the run ledger
    python -m repro results export --store runs/ --format csv
    python -m repro results report summary --store runs/      # analyzers
    python -m repro workloads list                            # graph sources
    python -m repro bench --benchmarks Bm1 Bm2                # profiling
    python -m repro trace record -o trace.json --benchmarks Bm1  # spans
    python -m repro trace summarize trace.json                # phase table
    python -m repro lint src benchmarks examples              # invariants
    python -m repro experiments table3                        # paper artefacts
    python -m repro list policies                             # registries
    python -m repro serve --port 8177 --store runs/           # the daemon
    python -m repro submit spec.json --url http://host:8177   # one request
    python -m repro cache prune --dir .flowcache --max-entries 64
    python -m repro dse run --suite bm1 --strategy nsga2 \\
        --seed 7 --generations 4 --population 16 --out runs/dse  # search

``--set key=value[,value...]`` applies dotted-path overrides: single
values on ``run``, grid axes on ``scenarios show``/``run`` (each value
list becomes one swept axis).  ``--json`` on ``run``/``sweep``/
``scenarios run`` emits machine-readable results to stdout.  ``--store
DIR`` on ``run``/``sweep``/``scenarios run`` appends every result to the
on-disk result store as it finishes; the ``results`` subcommands read it
back (default store: ``$REPRO_RESULTS_STORE`` or ``.repro-results``).

Exit codes: 0 on success, 2 on unknown names (experiment ids, registry
keys, scenario names, analyzers, record ids), 1 on execution failure.
Bare experiment ids keep working for backward compatibility
(``python -m repro table3`` == ``python -m repro experiments table3``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import FlowError, ReproError
from .flow import (
    DVFSSpec,
    FlowSpec,
    LeakageSpec,
    cosynthesis_spec,
    flow_names,
    floorplanner_names,
    platform_spec,
    policy_names,
    run_many,
    thermal_solver_names,
)
from .flow.spec import CommSpec, FloorplanSpec

__all__ = ["build_parser", "main"]


def _parse_set_value(text: str) -> Any:
    """One ``--set`` value: JSON where it parses, bare string otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_set_args(
    items: Optional[Sequence[str]],
) -> Dict[str, Tuple[Any, ...]]:
    """``--set key=v1,v2`` arguments → ``{dotted.path: (values...)}``.

    Values are JSON where they parse, bare strings otherwise.  A value
    that *is* JSON array/object syntax (``[...]``/``{...}``) is one
    value — commas split grid points only outside JSON containers.
    """
    grid: Dict[str, Tuple[Any, ...]] = {}
    for item in items or ():
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise FlowError(
                f"--set expects key=value[,value...], got {item!r}"
            )
        if key in grid:
            raise FlowError(
                f"--set {key} given twice; put every value in one "
                f"comma-separated list"
            )
        if raw[:1] in ("[", "{"):
            try:
                grid[key] = (json.loads(raw),)
                continue
            except json.JSONDecodeError as exc:
                raise FlowError(f"--set {key}: invalid JSON value: {exc}")
        grid[key] = tuple(_parse_set_value(v) for v in raw.split(","))
    return grid


#: run-flag name -> its effective default.  The run subparser registers
#: these flags with ``default=argparse.SUPPRESS``, so a flag appears on
#: the namespace only when the user actually passed it — which is what
#: lets ``--spec`` reject clashing flags without a second hand-kept list
#: of argparse defaults that could drift.
_RUN_FLAG_DEFAULTS = {
    "flow": "platform",
    "benchmark": "Bm1",
    "policy": "thermal",
    "weight": None,
    "floorplanner": None,
    "comm": "zero",
    "dvfs": False,
    "leakage": False,
}


def _spec_from_args(args: argparse.Namespace) -> FlowSpec:
    """Assemble one FlowSpec from ``run`` flags (or load ``--spec``)."""
    flags = {
        name: getattr(args, name, default)
        for name, default in _RUN_FLAG_DEFAULTS.items()
    }
    if args.spec is not None:
        # a spec file is a complete description — silently dropping the
        # other flags would run a different computation than asked for
        clashing = [
            f"--{name}" for name in _RUN_FLAG_DEFAULTS if hasattr(args, name)
        ]
        if clashing:
            raise FlowError(
                f"--spec is a complete flow description; {', '.join(clashing)} "
                f"would be ignored — use --set dotted-path overrides instead"
            )
        if args.spec == "-":
            text = sys.stdin.read()
        else:
            with open(args.spec, "r", encoding="utf-8") as handle:
                text = handle.read()
        spec = FlowSpec.from_json(text)
    else:
        overrides = {}
        if flags["dvfs"]:
            overrides["dvfs"] = DVFSSpec(enabled=True)
        if flags["leakage"]:
            overrides["leakage"] = LeakageSpec(enabled=True)
        if flags["comm"] == "shared-bus":
            overrides["comm"] = CommSpec(kind="shared-bus")
        if flags["floorplanner"] is not None:
            overrides["floorplan"] = FloorplanSpec(kind=flags["floorplanner"])
        builder = (
            cosynthesis_spec if flags["flow"] == "cosynthesis" else platform_spec
        )
        spec = builder(
            flags["benchmark"], policy=flags["policy"], weight=flags["weight"],
            **overrides,
        )
    sets = _parse_set_args(getattr(args, "set", None))
    if sets:
        from .scenarios.spec import apply_overrides

        single: Dict[str, Any] = {}
        for key, values in sets.items():
            if len(values) != 1:
                raise FlowError(
                    f"run --set takes one value per key (got {len(values)} "
                    f"for {key!r}); value lists sweep grids under "
                    f"'scenarios run'"
                )
            single[key] = values[0]
        spec = apply_overrides(spec, single)
    return spec


def _cmd_run(args: argparse.Namespace) -> int:
    from .analysis.report import format_table

    spec = _spec_from_args(args)
    if args.save_spec:
        with open(args.save_spec, "w", encoding="utf-8") as handle:
            handle.write(spec.to_json(indent=2) + "\n")
    results = run_many([spec], cache_dir=args.cache_dir, store=args.store)
    result = results[0]
    if args.json:
        # as_dict is strictly JSON-serializable by contract — no default=
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(format_table([result.as_row()], title=f"flow: {spec.flow}"))
        if result.dvfs is not None:
            print(
                f"dvfs: {result.dvfs.lowered_tasks} tasks lowered, "
                f"{100 * result.dvfs.energy_saving_fraction:.1f}% energy saved"
            )
        if result.leakage is not None:
            print(
                f"leakage: {result.leakage.total_leakage:.2f} W at fixed point "
                f"({result.leakage.iterations} iterations)"
            )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.report import format_table

    specs: List[FlowSpec] = []
    for bench in args.benchmarks:
        for policy in args.policies:
            if args.flow == "cosynthesis":
                specs.append(cosynthesis_spec(bench, policy=policy))
            else:
                specs.append(platform_spec(bench, policy=policy))
    results = run_many(
        specs, workers=args.workers, cache_dir=args.cache_dir, store=args.store
    )
    rows = [r.as_row() for r in results]
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        hits = sum(1 for r in results if r.provenance.get("cache_hit"))
        print(format_table(rows, title=f"sweep: {len(rows)} flows ({hits} cached)"))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.runner import main as runner_main

    argv = list(args.ids)
    if args.list:
        argv.append("--list")
    return runner_main(argv)


def _summarize_spec(spec: FlowSpec) -> Dict[str, Any]:
    """One compact table row describing a spec (for ``scenarios show``)."""
    from .flow import spec_hash

    graph = spec.graph.name or spec.graph.path
    if spec.graph.kind == "generated":
        # surface the swept generator knobs — rows must be tellable apart
        knobs = []
        if graph:  # explicit name: family/tasks/seed are not in it
            knobs = [spec.graph.family or "layered", f"{spec.graph.tasks}t"]
            if spec.graph.seed is not None:
                knobs.append(f"s{spec.graph.seed}")
        else:  # auto name already encodes family/tasks/seed
            from .taskgraph.generator import default_family_graph_name

            graph = default_family_graph_name(
                spec.graph.family or "layered", spec.graph.tasks, spec.graph.seed
            )
        for field_name, prefix in (
            ("width", "w"), ("density", "d"), ("ccr", "ccr"),
            ("deadline_slack", "slack"),
        ):
            value = getattr(spec.graph, field_name)
            if value is not None:
                knobs.append(f"{prefix}{value}")
        if knobs:
            graph = f"{graph}[{','.join(knobs)}]"
    return {
        "spec_hash": spec_hash(spec),
        "flow": spec.flow,
        "graph": graph,
        "kind": spec.graph.kind,
        "policy": spec.policy.name,
        "catalogue": spec.library.catalogue,
        "pes": spec.architecture.count,
        "dvfs": spec.dvfs.enabled,
    }


def _scenario_from_args(args: argparse.Namespace):
    """The named scenario with ``--set`` grid overrides, or ``None``.

    Unknown scenario names print to stderr and map to exit code 2 (like
    unknown experiment ids); grid errors propagate as ``ReproError``.
    """
    from .scenarios import scenario_by_name

    try:
        spec = scenario_by_name(args.name)
    except FlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    sets = _parse_set_args(args.set)
    if sets:
        spec = spec.with_grid(sets)
    return spec


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    from .scenarios import scenario_by_name, scenario_names

    rows = []
    for name in scenario_names():
        suite = scenario_by_name(name)
        rows.append(
            {
                "scenario": name,
                "cases": len(suite.cases),
                "specs": len(suite.expand()),
                "description": suite.description,
            }
        )
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        from .analysis.report import format_table

        print(format_table(rows, title="registered scenarios"))
    return 0


def _cmd_scenarios_show(args: argparse.Namespace) -> int:
    suite = _scenario_from_args(args)
    if suite is None:
        return 2
    specs = suite.expand()
    if args.json:
        print(json.dumps([spec.to_dict() for spec in specs], indent=2))
        return 0
    from .analysis.report import format_table

    rows = [_summarize_spec(spec) for spec in specs]
    print(
        format_table(
            rows,
            title=f"scenario {suite.name}: {len(specs)} specs "
            f"({suite.size()} grid points)",
        )
    )
    return 0


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    suite = _scenario_from_args(args)
    if suite is None:
        return 2
    specs = suite.expand()
    results = run_many(
        specs,
        workers=args.workers,
        cache_dir=args.cache_dir,
        store=args.store,
        suite=suite.name,
    )
    if args.json:
        print(json.dumps([r.as_dict() for r in results], indent=2))
        return 0
    from .analysis.report import format_table

    rows = [r.as_row() for r in results]
    hits = sum(1 for r in results if r.provenance.get("cache_hit"))
    print(
        format_table(
            rows,
            title=f"scenario {suite.name}: {len(rows)} flows ({hits} cached)",
        )
    )
    return 0


# ----------------------------------------------------------------------
# the results subcommands (the store-reading side)
# ----------------------------------------------------------------------
def _default_store() -> str:
    """Where ``results`` subcommands look without an explicit ``--store``."""
    import os

    return os.environ.get("REPRO_RESULTS_STORE", ".repro-results")


def _open_store(args: argparse.Namespace):
    from .results import ResultStore

    return ResultStore(args.store)


def _runset_from_args(args: argparse.Namespace):
    """The store's records, pre-filtered by the shared filter flags."""
    return _open_store(args).load(
        flow=args.flow or None,
        suite=args.suite or None,
        scenario=args.scenario or None,
        spec_hash=args.spec_hash or None,
    )


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text.rstrip("\n"))


def _cmd_results_list(args: argparse.Namespace) -> int:
    store = _open_store(args)
    entries = store.index(
        flow=args.flow or None,
        suite=args.suite or None,
        scenario=args.scenario or None,
        spec_hash=args.spec_hash or None,
    )
    if args.json:
        print(json.dumps(entries, indent=2))
        return 0
    from .analysis.report import format_table

    columns = [
        "id", "spec_hash", "flow", "suite", "benchmark", "policy",
        "meets_deadline",
    ]
    print(
        format_table(
            [{c: e.get(c, "") for c in columns} for e in entries],
            columns if entries else None,
            title=f"result store {store.root}: {len(entries)} records",
        )
    )
    return 0


def _cmd_results_show(args: argparse.Namespace) -> int:
    from .errors import ResultError

    try:
        record = _open_store(args).get(args.record)
    except ResultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(record.to_json(indent=2))
    return 0


def _cmd_results_export(args: argparse.Namespace) -> int:
    runs = _runset_from_args(args)
    if args.format == "csv":
        _emit(runs.to_csv(), args.out)
    elif args.format == "json":
        _emit(runs.to_json(indent=2), args.out)
    else:
        from .analysis.report import format_table

        title = f"{len(runs)} records from {runs.source}"
        if runs.skipped:
            title += f" ({runs.skipped} skipped)"
        _emit(format_table(runs.rows(), title=title), args.out)
    return 0


def _cmd_results_report(args: argparse.Namespace) -> int:
    from .results import ANALYZERS, analyze, analyzer_names

    if args.analyzer not in ANALYZERS:
        print(
            f"error: unknown analyzer {args.analyzer!r}; "
            f"available: {', '.join(analyzer_names())}",
            file=sys.stderr,
        )
        return 2
    options: Dict[str, Any] = {}
    for item in args.opt or ():
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise FlowError(f"--opt expects key=value, got {item!r}")
        options[key.replace("-", "_")] = _parse_set_value(raw)
    runs = _runset_from_args(args)
    report = analyze(args.analyzer, runs, **options)
    _emit(report.render(args.format), args.out)
    return 0


def _cmd_results_fsck(args: argparse.Namespace) -> int:
    """Verify (exit 1 on damage) or --repair a store; see docs/RESILIENCE.md."""
    from .results import fsck_store

    report = fsck_store(_open_store(args), repair=args.repair)
    payload = report.as_dict()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        verb = "repaired" if report.repaired else "checked"
        print(f"{verb} store {report.root}: "
              f"{report.entries_kept} entries kept, "
              f"{report.loadable} loadable")
        for key in (
            "torn_lines", "duplicate_entries", "missing_blobs",
            "corrupt_blobs", "orphan_blobs", "schema_mismatch", "stale_tmp",
        ):
            if payload[key]:
                print(f"  {key.replace('_', ' ')}: {payload[key]}")
        for problem in report.problems:
            print(f"  - {problem}")
        if report.ok() and not report.problems:
            print("  clean")
    # verify mode signals damage via the exit code so CI can gate on it;
    # a completed repair exits 0 — the damage is gone
    return 0 if (report.repaired or report.ok()) else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    """Profile flows: per-phase span time, solve counts, fast-path rates.

    Each repetition runs under an isolated :func:`repro.obs.capture`
    recorder; the per-phase columns come from the best repetition's
    span tree (``flow``/``flow.library``/``flow.run``), the counts from
    FlowResult diagnostics — the same numbers a stored trace or record
    carries, so offline profiling agrees with this table.  ``--trace``
    additionally writes the best repetition's spans as a Chrome trace.
    """
    from .analysis.report import format_table
    from .flow import platform_spec
    from .obs import capture
    from .obs.export import phase_totals, write_chrome_trace

    rows: List[Dict[str, Any]] = []
    best_spans: List[Dict[str, Any]] = []
    for bench in args.benchmarks:
        for policy in args.policies:
            spec = platform_spec(bench, policy=policy)
            best = None
            result = None
            for _ in range(max(1, args.repeat)):
                with capture() as recorder:
                    result = run_many([spec])[0]
                spans = recorder.export_spans()
                totals = phase_totals(spans)
                elapsed = totals.get("flow", 0.0)
                if best is None or elapsed < best[0]:
                    best = (elapsed, totals, spans)
            elapsed, totals, spans = best
            best_spans.extend(spans)
            thermal = result.diagnostics.get("thermal_query", {}) or {}
            scheduler = result.diagnostics.get("scheduler", {}) or {}
            candidates = scheduler.get("candidates_evaluated", 0)
            fast = scheduler.get("thermal_fast_queries", 0)
            requeried = scheduler.get("thermal_exact_requeries", 0)
            rows.append(
                {
                    "benchmark": bench,
                    "policy": policy,
                    "elapsed_ms": round(1e3 * elapsed, 3),
                    "build_ms": round(1e3 * totals.get("flow.library", 0.0), 3),
                    "run_ms": round(1e3 * totals.get("flow.run", 0.0), 3),
                    "candidates": candidates,
                    "hotspot_queries": result.diagnostics.get(
                        "hotspot_queries", 0
                    ),
                    "solver_solves": thermal.get("solver_solves", 0),
                    "fast_queries": fast,
                    "exact_requeries": requeried,
                    # candidates settled by the O(1) ranking alone, without
                    # an exact near-tie re-solve
                    "fast_hit_rate": (
                        round((candidates - requeried) / candidates, 4)
                        if fast and candidates
                        else 0.0
                    ),
                }
            )
    if args.trace:
        write_chrome_trace(args.trace, best_spans)
    if args.json:
        text = json.dumps(rows, indent=2)
    else:
        # format_table renders floats to 2 places; keep the µs digit
        table = [
            {k: f"{v:.3f}" if k.endswith("_ms") else v for k, v in row.items()}
            for row in rows
        ]
        text = format_table(
            table, title=f"bench: {len(rows)} flows (best of {args.repeat})"
        )
    _emit(text, args.out)
    return 0


def _trace_specs(args: argparse.Namespace) -> List[FlowSpec]:
    return [
        platform_spec(bench, policy=policy)
        for bench in args.benchmarks
        for policy in args.policies
    ]


def _cmd_trace_record(args: argparse.Namespace) -> int:
    """Run a benchmark x policy sweep under a recorder; write the trace."""
    from .obs import capture
    from .obs.export import write_chrome_trace, write_jsonl

    specs = _trace_specs(args)
    with capture() as recorder:
        run_many(specs, workers=args.workers)
    spans = recorder.export_spans()
    if args.format == "jsonl":
        write_jsonl(args.out, spans)
    else:
        write_chrome_trace(args.out, spans)
    print(
        f"trace: {len(spans)} spans from {len(specs)} flows -> {args.out} "
        f"({args.format})"
    )
    if recorder.dropped:
        print(f"trace: {recorder.dropped} spans dropped (buffer full)")
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    """Aggregate a recorded trace into a per-phase table."""
    from .analysis.report import format_table
    from .obs.export import phase_summary, read_spans

    spans = read_spans(args.trace)
    rows = phase_summary(spans)
    if args.json:
        text = json.dumps(rows, indent=2)
    else:
        text = format_table(
            rows, title=f"trace: {len(spans)} spans, {len(rows)} phases"
        )
    _emit(text, args.out)
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    """Convert a recorded trace between the chrome and jsonl formats."""
    from .obs.export import read_spans, write_chrome_trace, write_jsonl

    spans = read_spans(args.trace)
    if args.format == "jsonl":
        write_jsonl(args.out, spans)
    else:
        write_chrome_trace(args.out, spans)
    print(f"trace: {len(spans)} spans -> {args.out} ({args.format})")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the invariant checker (see docs/STATIC_ANALYSIS.md).

    Exit codes mirror the rest of the CLI: 0 clean, 1 on violations,
    2 on unknown rule ids or missing paths.  ``--out`` always writes
    the report (even a failing one) so CI can upload it as an artifact.
    """
    import os

    from .devtools.lint import build_rules, render, rule_names, run_lint
    from .errors import LintError

    if args.list_rules:
        rows = [
            {"rule": rule.rule_id, "title": rule.title,
             "rationale": rule.rationale}
            for rule in build_rules()
        ]
        if args.json or args.format == "json":
            print(json.dumps(rows, indent=2))
        else:
            from .analysis.report import format_table

            print(format_table(rows, title="registered lint rules"))
        return 0
    rules = None
    if args.rules:
        rules = [r for item in args.rules for r in item.split(",") if r]
    paths = args.paths or [
        p for p in ("src", "benchmarks", "examples") if os.path.isdir(p)
    ]
    if not paths:
        print(
            "error: no lint paths given and none of src/, benchmarks/, "
            "examples/ exist here",
            file=sys.stderr,
        )
        return 2
    try:
        report = run_lint(paths, rules=rules, root=args.root)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(render(report, "json" if args.json else args.format), args.out)
    return 0 if report.ok else 1


def _cmd_workloads_list(args: argparse.Namespace) -> int:
    from .scenarios import catalogue_names, workload_names
    from .taskgraph.benchmarks import BENCHMARK_NAMES
    from .taskgraph.conditional import CONDITIONAL_BENCHMARK_NAMES
    from .taskgraph.generator import family_names

    sections = {
        "benchmarks": tuple(BENCHMARK_NAMES),
        "conditional": CONDITIONAL_BENCHMARK_NAMES,
        "generator-families": family_names(),
        "registered": workload_names(),
        "catalogues": catalogue_names(),
    }
    if args.json:
        print(json.dumps({k: list(v) for k, v in sections.items()}, indent=2))
        return 0
    for kind, names in sections.items():
        print(f"{kind}: {', '.join(names) if names else '(none)'}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from .devtools.lint import rule_names
    from .dse.strategies import strategy_names
    from .experiments.runner import EXPERIMENTS
    from .results import analyzer_names
    from .scenarios import catalogue_names, scenario_names
    from .taskgraph.benchmarks import BENCHMARK_NAMES
    from .taskgraph.conditional import CONDITIONAL_BENCHMARK_NAMES
    from .taskgraph.generator import family_names

    sections = {
        "flows": flow_names(),
        "policies": policy_names(),
        "floorplanners": floorplanner_names(),
        "thermal-solvers": thermal_solver_names(),
        "dse-strategies": strategy_names(),
        "benchmarks": tuple(BENCHMARK_NAMES) + CONDITIONAL_BENCHMARK_NAMES,
        "generator-families": family_names(),
        "catalogues": catalogue_names(),
        "scenarios": scenario_names(),
        "analyzers": analyzer_names(),
        "experiments": tuple(sorted(EXPERIMENTS)),
        "lint-rules": rule_names(),
    }
    wanted = args.what
    if wanted != "all" and wanted not in sections:
        print(
            f"unknown component kind {wanted!r}; "
            f"available: {('all',) + tuple(sections)}",
            file=sys.stderr,
        )
        return 2
    for kind, names in sections.items():
        if wanted in ("all", kind):
            print(f"{kind}: {', '.join(names)}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the scheduling daemon until interrupted (see docs/SERVING.md)."""
    import logging

    from .serve import ServeDaemon

    logging.basicConfig(
        level=logging.INFO, format="%(name)s %(levelname)s %(message)s"
    )
    daemon = ServeDaemon(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        cache_entries=args.cache_entries,
        cache_bytes=args.cache_bytes,
        store=args.store,
        request_timeout_s=args.timeout,
        circuit_threshold=args.circuit_threshold,
        circuit_cooldown_s=args.circuit_cooldown,
    )
    print(f"serving on {daemon.url} (ctrl-c to stop)")
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
        daemon.shutdown()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit specs to a running daemon and print the served rows."""
    from .serve import ServeClient

    specs: List[Tuple[str, FlowSpec]] = []
    for path in args.specs:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        specs.append((path, FlowSpec.from_json(text)))
    if not specs:
        spec = platform_spec(
            args.benchmark, policy=args.policy, weight=args.weight
        )
        specs.append((args.benchmark, spec))
    client = ServeClient(args.url, timeout_s=args.timeout)
    payloads = []
    for _, spec in specs:
        payloads.append(
            client.submit(
                spec,
                store=not args.no_store,
                suite=args.suite,
                scenario=args.scenario,
            )
        )
    if args.json:
        print(json.dumps(payloads, indent=2))
        return 0
    from .analysis.report import format_table

    rows = []
    for (label, _), payload in zip(specs, payloads):
        row = dict(payload["record"].get("row") or {})
        row.update(
            source=label,
            request_id=payload["request_id"],
            served_by=payload["served_by"],
            run_s=payload.get("timings", {}).get("run_s", 0.0),
        )
        rows.append(row)
    print(format_table(rows, title=f"served by {client.url}: {len(rows)} specs"))
    return 0


def _resolve_benchmark_name(name: str) -> str:
    """Canonical benchmark spelling for a case-insensitive CLI argument."""
    from .taskgraph.benchmarks import BENCHMARK_NAMES
    from .taskgraph.conditional import CONDITIONAL_BENCHMARK_NAMES

    for known in tuple(BENCHMARK_NAMES) + tuple(CONDITIONAL_BENCHMARK_NAMES):
        if known.lower() == str(name).lower():
            return known
    return str(name)


def _cmd_dse_run(args: argparse.Namespace) -> int:
    """Run (or resume) a seeded design-space exploration.

    The run directory is the checkpoint: re-invoking with the same
    config resumes byte-identically; a different config on the same
    directory is refused.
    """
    from .analysis.report import format_table
    from .dse import DseConfig, run_dse
    from .dse.strategies import STRATEGIES

    if args.strategy not in STRATEGIES:
        print(
            f"unknown dse strategy {args.strategy!r}; "
            f"available: {STRATEGIES.names()}",
            file=sys.stderr,
        )
        return 2
    benchmark = _resolve_benchmark_name(args.suite)
    if args.dvfs == "on":
        dvfs_options: Tuple[bool, ...] = (True,)
    elif args.dvfs == "off":
        dvfs_options = (False,)
    else:
        dvfs_options = (False, True)
    config = DseConfig(
        benchmark=benchmark,
        strategy=args.strategy,
        seed=args.seed,
        generations=args.generations,
        population=args.population,
        catalogue=args.catalogue,
        pes=tuple(args.pes) if args.pes else (None,),
        counts=tuple(args.counts),
        policies=tuple(args.policies),
        dvfs_options=dvfs_options,
    )
    out_dir = args.out or (
        f".repro-dse/{benchmark}-{args.strategy}-seed{args.seed}"
    )
    result = run_dse(
        config,
        out_dir,
        workers=args.workers,
        stop_after_generations=args.stop_after,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    rows = [
        {
            "gen": entry.generation,
            "slot": entry.slot,
            "spec": entry.spec_hash[:10],
            "policy": entry.candidate.policy,
            "pe": entry.candidate.pe or "(platform)",
            "count": entry.candidate.count,
            "dvfs": entry.candidate.dvfs,
            "makespan": round(entry.objectives[0], 3),
            "peak_c": round(entry.objectives[1], 3),
            "energy": round(entry.objectives[2], 3),
        }
        for entry in result.front
    ]
    print(
        format_table(
            rows,
            title=(
                f"dse {args.strategy} on {benchmark}: Pareto front "
                f"({result.evaluations} evaluations, "
                f"{result.generations}/{config.generations} generations)"
            ),
        )
    )
    stats = result.thermal_stats
    print(
        f"thermal screen: {stats['incremental']} incremental, "
        f"{stats['unchanged']} unchanged, "
        f"{stats['full_rebuilds']} full rebuilds, "
        f"{stats['conditioning_fallbacks']} conditioning fallbacks"
    )
    print(f"run directory: {result.out_dir}")
    return 0


def _cmd_cache_prune(args: argparse.Namespace) -> int:
    """Evict oldest entries of an on-disk flow result cache to budget."""
    if args.max_entries is None and args.max_bytes is None:
        print(
            "error: give --max-entries and/or --max-bytes (otherwise "
            "nothing would be pruned)",
            file=sys.stderr,
        )
        return 2
    from .flow import prune_cache

    result = prune_cache(
        args.dir,
        max_entries=args.max_entries,
        max_bytes=args.max_bytes,
        dry_run=args.dry_run,
    )
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
        return 0
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{args.dir}: {verb} {result.removed} of {result.scanned} entries "
        f"({result.removed_bytes} bytes); kept {result.kept} "
        f"({result.kept_bytes} bytes)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argparse parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Thermal-aware task allocation and scheduling (DATE 2005 "
            "reproduction) — declarative flow runner and paper artefacts."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    run_p = sub.add_parser(
        "run",
        help="execute one flow from flags or a FlowSpec JSON file",
        description="Execute one flow and print its evaluation row.",
    )
    # these flags use SUPPRESS so --spec can tell "explicitly passed"
    # from "default"; effective defaults live in _RUN_FLAG_DEFAULTS
    suppress = argparse.SUPPRESS
    run_p.add_argument("--spec", help="FlowSpec JSON file ('-' for stdin)")
    run_p.add_argument(
        "--flow", choices=("platform", "cosynthesis"), default=suppress,
        help="flow kind (default: platform)",
    )
    run_p.add_argument(
        "--benchmark", default=suppress, help="benchmark name (default: Bm1)"
    )
    run_p.add_argument(
        "--policy", default=suppress, help="DC policy name (default: thermal)"
    )
    run_p.add_argument("--weight", type=float, default=suppress, help="policy weight")
    run_p.add_argument("--floorplanner", default=suppress, help="floorplanner name")
    run_p.add_argument(
        "--comm", choices=("zero", "shared-bus"), default=suppress,
        help="communication model (default: zero)",
    )
    run_p.add_argument(
        "--dvfs", action="store_true", default=suppress,
        help="DVFS slack reclamation",
    )
    run_p.add_argument(
        "--leakage", action="store_true", default=suppress,
        help="leakage fixed point",
    )
    run_p.add_argument("--cache-dir", default=None, help="result cache directory")
    run_p.add_argument(
        "--store", default=None, metavar="DIR",
        help="append the run record to this result store",
    )
    run_p.add_argument("--save-spec", default=None, help="write the spec JSON here")
    run_p.add_argument(
        "--set", action="append", metavar="KEY=VALUE", default=None,
        help="dotted-path spec override, e.g. graph.kind=generated "
        "(repeatable)",
    )
    run_p.add_argument("--json", action="store_true", help="emit JSON")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser(
        "sweep",
        help="run a benchmark x policy cross product (parallel, cached)",
        description="Cross-product sweep through run_many.",
    )
    sweep_p.add_argument(
        "--benchmarks", nargs="+", default=["Bm1", "Bm2", "Bm3", "Bm4"],
        help="benchmark names (default: the paper suite)",
    )
    sweep_p.add_argument(
        "--policies", nargs="+", default=["heuristic3", "thermal"],
        help="DC policy names (default: heuristic3 thermal)",
    )
    sweep_p.add_argument(
        "--flow", choices=("platform", "cosynthesis"), default="platform",
        help="flow kind (default: platform)",
    )
    sweep_p.add_argument("--workers", type=int, default=None, help="process count")
    sweep_p.add_argument("--cache-dir", default=None, help="result cache directory")
    sweep_p.add_argument(
        "--store", default=None, metavar="DIR",
        help="append every run record to this result store",
    )
    sweep_p.add_argument("--json", action="store_true", help="emit JSON rows")
    sweep_p.set_defaults(func=_cmd_sweep)

    scen_p = sub.add_parser(
        "scenarios",
        help="named scenario suites: list, show the grid, run it",
        description=(
            "Declarative scenario suites (base spec x parameter grid). "
            "--set KEY=V1[,V2...] replaces or adds a grid axis."
        ),
    )
    scen_p.set_defaults(func=lambda _args: (scen_p.print_help(), 0)[1])
    scen_sub = scen_p.add_subparsers(dest="scenarios_command", metavar="action")

    scen_list = scen_sub.add_parser("list", help="list registered scenarios")
    scen_list.add_argument("--json", action="store_true", help="emit JSON")
    scen_list.set_defaults(func=_cmd_scenarios_list)

    scen_show = scen_sub.add_parser(
        "show", help="print the expanded spec grid of one scenario"
    )
    scen_show.add_argument("name", help="scenario name")
    scen_show.add_argument(
        "--set", action="append", metavar="KEY=V1[,V2...]", default=None,
        help="grid axis override (repeatable)",
    )
    scen_show.add_argument("--json", action="store_true", help="emit spec JSON")
    scen_show.set_defaults(func=_cmd_scenarios_show)

    scen_run = scen_sub.add_parser(
        "run", help="expand one scenario and run it through run_many"
    )
    scen_run.add_argument("name", help="scenario name")
    scen_run.add_argument(
        "--set", action="append", metavar="KEY=V1[,V2...]", default=None,
        help="grid axis override (repeatable)",
    )
    scen_run.add_argument("--workers", type=int, default=None, help="process count")
    scen_run.add_argument("--cache-dir", default=None, help="result cache directory")
    scen_run.add_argument(
        "--store", default=None, metavar="DIR",
        help="append every run record to this result store (tagged with "
        "the suite name)",
    )
    scen_run.add_argument("--json", action="store_true", help="emit JSON rows")
    scen_run.set_defaults(func=_cmd_scenarios_run)

    res_p = sub.add_parser(
        "results",
        help="the on-disk run store: list, show, export, analyzer reports",
        description=(
            "Read the append-only result store written by run/sweep/"
            "scenarios-run --store.  The store defaults to "
            "$REPRO_RESULTS_STORE, then .repro-results."
        ),
    )
    res_p.set_defaults(func=lambda _args: (res_p.print_help(), 0)[1])
    res_sub = res_p.add_subparsers(dest="results_command", metavar="action")

    def _results_common(p: argparse.ArgumentParser, with_out: bool = True) -> None:
        p.add_argument(
            "--store", default=_default_store(), metavar="DIR",
            help="result store directory (default: $REPRO_RESULTS_STORE "
            "or .repro-results)",
        )
        p.add_argument("--flow", default=None, help="filter by flow kind")
        p.add_argument("--suite", default=None, help="filter by scenario suite")
        p.add_argument("--scenario", default=None, help="filter by scenario tag")
        p.add_argument("--spec-hash", default=None, help="filter by spec hash")
        if with_out:
            p.add_argument(
                "-o", "--out", default=None, metavar="FILE",
                help="write to FILE instead of stdout",
            )

    res_list = res_sub.add_parser("list", help="list the store's ledger")
    _results_common(res_list, with_out=False)
    res_list.add_argument("--json", action="store_true", help="emit JSON")
    res_list.set_defaults(func=_cmd_results_list)

    res_show = res_sub.add_parser(
        "show", help="print one full record (by id or spec-hash prefix)"
    )
    res_show.add_argument("record", help="record id or spec-hash prefix")
    res_show.add_argument(
        "--store", default=_default_store(), metavar="DIR",
        help="result store directory",
    )
    res_show.set_defaults(func=_cmd_results_show)

    res_export = res_sub.add_parser(
        "export", help="export record rows as table, CSV, or full JSON"
    )
    _results_common(res_export)
    res_export.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output format (default: table)",
    )
    res_export.set_defaults(func=_cmd_results_export)

    res_report = res_sub.add_parser(
        "report", help="run a registered analyzer over the store"
    )
    res_report.add_argument(
        "analyzer",
        help="analyzer name (summary, compare, pareto, reliability, "
        "deadline-misses, or a registered user analyzer)",
    )
    _results_common(res_report)
    res_report.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output format (default: table)",
    )
    res_report.add_argument(
        "--opt", action="append", metavar="KEY=VALUE", default=None,
        help="analyzer option, e.g. --opt metric=avg_temperature "
        "--opt baseline=heuristic3 (repeatable)",
    )
    res_report.set_defaults(func=_cmd_results_report)

    res_fsck = res_sub.add_parser(
        "fsck",
        help="verify/repair a store (torn ledger, corrupt/orphaned blobs)",
        description=(
            "Check a result store for torn ledger lines, missing or "
            "corrupt blobs, orphaned blobs, and stale tmp files.  "
            "Verify mode (the default) mutates nothing and exits 1 when "
            "damage is found; --repair re-indexes orphans, quarantines "
            "corrupt blobs under <store>/quarantine/, and atomically "
            "rewrites a clean ledger.  Runbook: docs/RESILIENCE.md."
        ),
    )
    res_fsck.add_argument(
        "--store", default=_default_store(),
        help="result store directory (default: $REPRO_RESULTS_STORE "
        "or .repro-results)",
    )
    res_fsck.add_argument(
        "--repair", action="store_true",
        help="fix what verify finds (quarantine + reindex + rewrite)",
    )
    res_fsck.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    res_fsck.set_defaults(func=_cmd_results_fsck)

    bench_p = sub.add_parser(
        "bench",
        help="profile flows: phase timings, solve counts, fast-path rates",
        description=(
            "Run benchmark x policy flows and report, from FlowResult "
            "provenance: per-phase wall time, HotSpot query counts, "
            "steady-state solve counts, and thermal-query fast-path hit "
            "rates.  See docs/PERFORMANCE.md."
        ),
    )
    bench_p.add_argument(
        "--benchmarks", nargs="+", default=["Bm1"],
        help="benchmark names (default: Bm1)",
    )
    bench_p.add_argument(
        "--policies", nargs="+", default=["heuristic3", "thermal"],
        help="DC policy names (default: heuristic3 thermal)",
    )
    bench_p.add_argument(
        "--repeat", type=int, default=1,
        help="repetitions per flow; elapsed_ms reports the best (default: 1)",
    )
    bench_p.add_argument(
        "-o", "--out", default=None, metavar="FILE",
        help="write to FILE instead of stdout",
    )
    bench_p.add_argument("--json", action="store_true", help="emit JSON rows")
    bench_p.add_argument(
        "--trace", default=None, metavar="FILE",
        help="also write the best repetitions' spans as a Chrome trace",
    )
    bench_p.set_defaults(func=_cmd_bench)

    trace_p = sub.add_parser(
        "trace",
        help="record, summarize, and export repro.obs span traces",
        description=(
            "The repro.obs tracing front end: 'record' runs a benchmark "
            "x policy sweep under a span recorder and writes a "
            "Perfetto-loadable Chrome trace (or a JSONL span log), "
            "'summarize' aggregates a recorded trace into a per-phase "
            "table, 'export' converts between the two formats.  See "
            "docs/OBSERVABILITY.md."
        ),
    )
    trace_p.set_defaults(func=lambda _args: (trace_p.print_help(), 0)[1])
    trace_sub = trace_p.add_subparsers(dest="trace_command", metavar="action")

    trace_record = trace_sub.add_parser(
        "record", help="run flows under a recorder and write the trace"
    )
    trace_record.add_argument(
        "--benchmarks", nargs="+", default=["Bm1"],
        help="benchmark names (default: Bm1)",
    )
    trace_record.add_argument(
        "--policies", nargs="+", default=["heuristic3", "thermal"],
        help="DC policy names (default: heuristic3 thermal)",
    )
    trace_record.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="evaluate on a process pool; worker spans merge into the trace",
    )
    trace_record.add_argument(
        "-o", "--out", default="trace.json", metavar="FILE",
        help="output file (default: trace.json)",
    )
    trace_record.add_argument(
        "--format", choices=("chrome", "jsonl"), default="chrome",
        help="output format (default: chrome)",
    )
    trace_record.set_defaults(func=_cmd_trace_record)

    trace_summarize = trace_sub.add_parser(
        "summarize", help="per-phase aggregate table from a recorded trace"
    )
    trace_summarize.add_argument("trace", help="trace file (chrome or jsonl)")
    trace_summarize.add_argument(
        "--json", action="store_true", help="emit JSON rows"
    )
    trace_summarize.add_argument(
        "-o", "--out", default=None, metavar="FILE",
        help="write to FILE instead of stdout",
    )
    trace_summarize.set_defaults(func=_cmd_trace_summarize)

    trace_export = trace_sub.add_parser(
        "export", help="convert a trace between chrome and jsonl formats"
    )
    trace_export.add_argument("trace", help="trace file (chrome or jsonl)")
    trace_export.add_argument(
        "-o", "--out", required=True, metavar="FILE", help="output file"
    )
    trace_export.add_argument(
        "--format", choices=("chrome", "jsonl"), default="chrome",
        help="output format (default: chrome)",
    )
    trace_export.set_defaults(func=_cmd_trace_export)

    lint_p = sub.add_parser(
        "lint",
        help="check the repo's determinism/spec/hot-path invariants",
        description=(
            "AST-based static analysis enforcing the platform's coding "
            "invariants: seeded RNG only (DET001), no wall clock "
            "(DET002), ordered set iteration (DET003), frozen JSON-safe "
            "specs (SPEC001), no dense solves on hot paths (PERF001), "
            "thin serve handler path (SRV001), picklable pool callables "
            "(POOL001), registry/CLI/docs "
            "consistency (REG001), no stray print (LOG001), no "
            "swallowed broad excepts (EXC001), shared-evaluator DSE "
            "strategies (DSE001), obs-routed timing/stats (OBS001).  "
            "Suppress with "
            "'# repro: noqa[RULE-ID] -- justification'.  See "
            "docs/STATIC_ANALYSIS.md."
        ),
    )
    lint_p.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to lint (default: src benchmarks examples)",
    )
    lint_p.add_argument(
        "--rules", action="append", metavar="ID[,ID...]", default=None,
        help="run only these rule ids (repeatable)",
    )
    lint_p.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    lint_p.add_argument(
        "--root", default=None, metavar="DIR",
        help="project root for relative paths and docs checks "
        "(default: current directory)",
    )
    lint_p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    lint_p.add_argument(
        "--json", action="store_true", help="shorthand for --format json"
    )
    lint_p.add_argument(
        "-o", "--out", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout (written even "
        "when violations are found, for CI artifacts)",
    )
    lint_p.set_defaults(func=_cmd_lint)

    wl_p = sub.add_parser(
        "workloads",
        help="workload sources: benchmarks, families, registered graphs",
        description="Show every graph source and PE catalogue specs can name.",
    )
    wl_p.set_defaults(func=lambda _args: (wl_p.print_help(), 0)[1])
    wl_sub = wl_p.add_subparsers(dest="workloads_command", metavar="action")
    wl_list = wl_sub.add_parser("list", help="list workload sources")
    wl_list.add_argument("--json", action="store_true", help="emit JSON")
    wl_list.set_defaults(func=_cmd_workloads_list)

    exp_p = sub.add_parser(
        "experiments",
        help="regenerate the paper's artefacts (tables 1-3, figure 1)",
        description="Run named experiments; no ids runs all of them.",
    )
    exp_p.add_argument("ids", nargs="*", metavar="experiment", help="experiment ids")
    exp_p.add_argument("--list", action="store_true", help="print available ids")
    exp_p.set_defaults(func=_cmd_experiments)

    serve_p = sub.add_parser(
        "serve",
        help="run the scheduling daemon (warm engine cache, worker pool)",
        description=(
            "Long-lived scheduling-as-a-service daemon.  Clients POST "
            "FlowSpec JSON to /run; platforms and workloads stay warm in "
            "a content-hash-keyed LRU between requests.  See "
            "docs/SERVING.md."
        ),
    )
    serve_p.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_p.add_argument(
        "--port", type=int, default=8177,
        help="bind port; 0 picks an ephemeral one (default: 8177)",
    )
    serve_p.add_argument(
        "--workers", type=int, default=None,
        help="worker thread count (default: cpu cores)",
    )
    serve_p.add_argument(
        "--queue-size", type=int, default=None,
        help="request queue bound; full queue answers 429 "
        "(default: 2x workers)",
    )
    serve_p.add_argument(
        "--cache-entries", type=int, default=32,
        help="per-layer engine cache entry budget; 0 disables caching "
        "(default: 32)",
    )
    serve_p.add_argument(
        "--cache-bytes", type=int, default=None,
        help="per-layer engine cache byte budget (default: unbounded)",
    )
    serve_p.add_argument(
        "--store", default=None, metavar="DIR",
        help="append every served record to this result store",
    )
    serve_p.add_argument(
        "--timeout", type=float, default=300.0,
        help="per-request wait budget in seconds before 504 (default: 300)",
    )
    serve_p.add_argument(
        "--circuit-threshold", type=int, default=5,
        help="consecutive failures that open a spec family's circuit "
        "breaker; 0 disables breaking (default: 5)",
    )
    serve_p.add_argument(
        "--circuit-cooldown", type=float, default=30.0,
        help="seconds an open circuit rejects before one probe "
        "(default: 30)",
    )
    serve_p.set_defaults(func=_cmd_serve)

    submit_p = sub.add_parser(
        "submit",
        help="submit FlowSpec files (or a benchmark) to a running daemon",
        description=(
            "Send specs to a repro-serve daemon and print the served "
            "evaluation rows.  With no spec files, builds one platform "
            "spec from --benchmark/--policy."
        ),
    )
    submit_p.add_argument(
        "specs", nargs="*", metavar="SPEC",
        help="FlowSpec JSON files ('-' for stdin)",
    )
    submit_p.add_argument(
        "--url", default="http://127.0.0.1:8177",
        help="daemon base URL (default: http://127.0.0.1:8177)",
    )
    submit_p.add_argument(
        "--benchmark", default="Bm1",
        help="benchmark shorthand when no spec files (default: Bm1)",
    )
    submit_p.add_argument(
        "--policy", default="thermal",
        help="policy for the shorthand spec (default: thermal)",
    )
    submit_p.add_argument(
        "--weight", type=float, default=None,
        help="policy weight for the shorthand spec",
    )
    submit_p.add_argument(
        "--suite", default="serve", help="suite tag on stored records"
    )
    submit_p.add_argument(
        "--scenario", default="", help="scenario tag on stored records"
    )
    submit_p.add_argument(
        "--no-store", action="store_true",
        help="ask the daemon not to append this record to its store",
    )
    submit_p.add_argument(
        "--timeout", type=float, default=600.0,
        help="client-side HTTP timeout in seconds (default: 600)",
    )
    submit_p.add_argument("--json", action="store_true", help="emit JSON payloads")
    submit_p.set_defaults(func=_cmd_submit)

    cache_p = sub.add_parser(
        "cache",
        help="manage the on-disk flow result cache",
        description="Operations on --cache-dir style result caches.",
    )
    cache_p.set_defaults(func=lambda _args: (cache_p.print_help(), 0)[1])
    cache_sub = cache_p.add_subparsers(dest="cache_command", metavar="action")

    cache_prune = cache_sub.add_parser(
        "prune",
        help="evict oldest cache entries down to an entry/byte budget",
        description=(
            "Oldest-mtime-first eviction of *.flowresult.pkl entries — "
            "the same LRU policy the serve engine cache applies in "
            "memory."
        ),
    )
    cache_prune.add_argument(
        "--dir", default=".flowcache", metavar="DIR",
        help="cache directory (default: .flowcache)",
    )
    cache_prune.add_argument(
        "--max-entries", type=int, default=None,
        help="keep at most this many newest entries",
    )
    cache_prune.add_argument(
        "--max-bytes", type=int, default=None,
        help="keep at most this many bytes of newest entries",
    )
    cache_prune.add_argument(
        "--dry-run", action="store_true",
        help="report what would be removed without deleting",
    )
    cache_prune.add_argument("--json", action="store_true", help="emit JSON")
    cache_prune.set_defaults(func=_cmd_cache_prune)

    dse_p = sub.add_parser(
        "dse",
        help="multi-objective design-space exploration",
        description=(
            "Seeded, checkpointable search over (floorplan, PE, policy, "
            "DVFS) candidates with incremental thermal re-evaluation; "
            "see docs/DSE.md."
        ),
    )
    dse_p.set_defaults(func=lambda _args: (dse_p.print_help(), 0)[1])
    dse_sub = dse_p.add_subparsers(dest="dse_command")
    dse_run = dse_sub.add_parser(
        "run",
        help="run (or resume) a search into a checkpoint directory",
        description=(
            "Run a seeded DSE; the output directory doubles as the "
            "crash-safe checkpoint, so re-running the same config "
            "resumes byte-identically."
        ),
    )
    dse_run.add_argument(
        "--suite", default="Bm1", metavar="NAME",
        help="benchmark to search on, case-insensitive (default: Bm1)",
    )
    dse_run.add_argument(
        "--strategy", default="nsga2", metavar="NAME",
        help="search strategy (see `repro list dse-strategies`)",
    )
    dse_run.add_argument("--seed", type=int, default=0, help="master seed")
    dse_run.add_argument(
        "--generations", type=int, default=4,
        help="total generations the run converges to (default: 4)",
    )
    dse_run.add_argument(
        "--population", type=int, default=8,
        help="candidates per generation (default: 8)",
    )
    dse_run.add_argument(
        "--catalogue", default="default", help="PE catalogue to draw from"
    )
    dse_run.add_argument(
        "--pes", nargs="*", default=None, metavar="TYPE",
        help="PE types to search over (default: the catalogue platform PE)",
    )
    dse_run.add_argument(
        "--counts", nargs="*", type=int, default=[4], metavar="N",
        help="core counts to search over (default: 4)",
    )
    dse_run.add_argument(
        "--policies", nargs="*", default=["thermal", "heuristic3"],
        metavar="NAME", help="scheduling policies to search over",
    )
    dse_run.add_argument(
        "--dvfs", choices=("both", "on", "off"), default="both",
        help="DVFS settings to search over (default: both)",
    )
    dse_run.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool width for population evaluation",
    )
    dse_run.add_argument(
        "--stop-after", type=int, default=None, metavar="N",
        help="execute at most N new generations this invocation "
        "(checkpoint and exit; resume by re-running)",
    )
    dse_run.add_argument(
        "--out", default=None, metavar="DIR",
        help="run/checkpoint directory "
        "(default: .repro-dse/<suite>-<strategy>-seed<seed>)",
    )
    dse_run.add_argument(
        "--json", action="store_true",
        help="emit the result (config, front, stats) as JSON",
    )
    dse_run.set_defaults(func=_cmd_dse_run)

    list_p = sub.add_parser(
        "list",
        help="list registered components (policies, floorplanners, ...)",
        description="Show the name registries the flow API resolves.",
    )
    list_p.add_argument(
        "what", nargs="?", default="all",
        help="all | flows | policies | floorplanners | thermal-solvers | "
        "benchmarks | experiments",
    )
    list_p.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args_list = list(argv) if argv is not None else sys.argv[1:]

    # Backward compatibility: `python -m repro table3` ran experiments in
    # the pre-flow CLI; keep bare experiment ids working.
    from .experiments.runner import EXPERIMENTS

    if args_list and args_list[0] in EXPERIMENTS:
        args_list = ["experiments"] + args_list

    parser = build_parser()
    args = parser.parse_args(args_list)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 0
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream pager/head closed the pipe; exit quietly like any CLI
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
