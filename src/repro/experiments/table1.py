"""Experiment: Table 1 — power-heuristic comparison.

For every benchmark and every DC policy in {baseline, heuristic 1, 2, 3}:

* **co-synthesis architecture** — run the co-synthesis framework with that
  policy (traditional selection for the baseline, power-driven selection
  for the heuristics) and report total power / max temp / avg temp of the
  winning design;
* **platform architecture** — run the same policy through the fixed
  four-identical-PE platform flow.

Like every paper table, Table 1 now emits through the unified results
path: the driver expands a spec plan, executes it via
:func:`~repro.flow.run_many`, and rebuilds the rows from the flattened
:class:`~repro.results.RunRecord` objects — so
:func:`table1_rows_from_records` reproduces the table byte-identically
from a :class:`~repro.results.ResultStore` load (e.g. a stored
``paper-tables`` suite run) without re-executing anything.

Regenerated by ``benchmarks/bench_table1.py``; printed rows carry the
paper's numbers alongside for shape comparison.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.report import format_table
from ..cosynth.framework import CoSynthesisConfig
from ..flow.batch import run_many
from ..flow.spec import FlowSpec, cosynthesis_spec, platform_spec
from ..taskgraph.benchmarks import BENCHMARK_NAMES
from .paper_data import TABLE1_COSYNTHESIS, TABLE1_PLATFORM
from .recordset import record_for_spec, records_by_spec_hash

__all__ = [
    "TABLE1_POLICIES",
    "run_table1",
    "table1_rows_from_records",
    "format_table1",
]

#: The four Table-1 policies, in the paper's row order.
TABLE1_POLICIES = ("baseline", "heuristic1", "heuristic2", "heuristic3")

#: One planned row: (benchmark, architecture label, policy, spec).
_PlanEntry = Tuple[str, str, str, FlowSpec]


def _table1_plan(
    benchmarks: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    include_cosynthesis: bool = True,
    include_platform: bool = True,
    config: Optional[CoSynthesisConfig] = None,
) -> List[_PlanEntry]:
    """The ordered (row meta, spec) plan behind Table 1."""
    benchmarks = list(benchmarks) if benchmarks is not None else list(BENCHMARK_NAMES)
    policies = list(policies) if policies is not None else list(TABLE1_POLICIES)
    plan: List[_PlanEntry] = []
    for name in benchmarks:
        for policy_name in policies:
            if include_cosynthesis:
                # traditional (performance) selection for the baseline,
                # power-driven selection for the heuristics
                if policy_name == "baseline":
                    spec = cosynthesis_spec(
                        name,
                        policy=policy_name,
                        config=config,
                        final_cost="performance",
                        screening="performance",
                    )
                else:
                    spec = cosynthesis_spec(
                        name,
                        policy=policy_name,
                        config=config,
                        final_cost="power",
                        screening="default",
                    )
                plan.append((name, "co-synthesis", policy_name, spec))
            if include_platform:
                plan.append(
                    (name, "platform", policy_name,
                     platform_spec(name, policy=policy_name))
                )
    return plan


def _paper_entry(benchmark: str, architecture: str, policy: str):
    table = TABLE1_COSYNTHESIS if architecture == "co-synthesis" else TABLE1_PLATFORM
    return table[benchmark][policy] if benchmark in table else None


def _row_from_record(
    benchmark: str, architecture: str, policy: str, record
) -> Dict[str, object]:
    metrics = record.metrics
    row: Dict[str, object] = {
        "benchmark": benchmark,
        "architecture": architecture,
        "policy": policy,
        "total_pow": round(metrics["total_power"], 2),
        "max_temp": round(metrics["max_temperature"], 2),
        "avg_temp": round(metrics["avg_temperature"], 2),
        "makespan": round(metrics["makespan"], 1),
        "meets_deadline": metrics["meets_deadline"],
    }
    paper = _paper_entry(benchmark, architecture, policy)
    if paper is not None:
        row["paper_total_pow"], row["paper_max_temp"], row["paper_avg_temp"] = paper
    return row


def table1_rows_from_records(
    records: Sequence,
    benchmarks: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    include_cosynthesis: bool = True,
    include_platform: bool = True,
    config: Optional[CoSynthesisConfig] = None,
) -> List[Dict[str, object]]:
    """Rebuild the Table 1 rows from stored run records — no re-execution.

    *records* is any iterable of :class:`~repro.results.RunRecord`
    covering the table's specs (a :class:`~repro.results.RunSet` loaded
    from a store works directly); rows come back byte-identical to
    :func:`run_table1` on the same parameters.  A missing spec raises
    :class:`~repro.errors.ExperimentError` naming the gap.
    """
    by_hash = records_by_spec_hash(records)
    rows: List[Dict[str, object]] = []
    for benchmark, architecture, policy, spec in _table1_plan(
        benchmarks, policies, include_cosynthesis, include_platform, config
    ):
        record = record_for_spec(
            by_hash, spec, "Table 1", f"{benchmark}, {architecture}, {policy}"
        )
        rows.append(_row_from_record(benchmark, architecture, policy, record))
    return rows


def run_table1(
    benchmarks: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    include_cosynthesis: bool = True,
    include_platform: bool = True,
    config: Optional[CoSynthesisConfig] = None,
) -> List[Dict[str, object]]:
    """Regenerate Table 1; returns one flat row per table cell group.

    Row keys: benchmark/architecture/policy, measured ``total_pow`` /
    ``max_temp`` / ``avg_temp``, and the corresponding ``paper_*`` values.
    """
    plan = _table1_plan(
        benchmarks, policies, include_cosynthesis, include_platform, config
    )
    results = run_many([spec for _, _, _, spec in plan])
    records = [result.as_record() for result in results]
    return table1_rows_from_records(
        records, benchmarks, policies, include_cosynthesis,
        include_platform, config,
    )


def format_table1(rows: Sequence[Dict[str, object]]) -> str:
    """Printable Table 1 with measured and paper columns."""
    columns = [
        "benchmark",
        "architecture",
        "policy",
        "total_pow",
        "paper_total_pow",
        "max_temp",
        "paper_max_temp",
        "avg_temp",
        "paper_avg_temp",
        "meets_deadline",
    ]
    return format_table(
        rows,
        columns,
        title="Table 1 — power heuristics under co-synthesis and platform "
        "architectures (measured vs paper)",
    )
