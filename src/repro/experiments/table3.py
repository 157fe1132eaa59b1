"""Experiment: Table 3 — power-aware vs thermal-aware on the platform.

Same comparison as Table 2 but on the fixed platform of four identical PEs
(Figure 1b): heuristic 3 (best power heuristic) vs the thermal-aware ASP.
Expected shape: thermal-aware lower on both temperature metrics for every
benchmark (paper: −9.75 °C max, −5.02 °C avg on average).

The driver runs through :func:`~repro.flow.run_many` and rebuilds its
rows from flattened :class:`~repro.results.RunRecord` objects, so
:func:`table3_rows_from_records` regenerates the table byte-identically
from a result store (e.g. a stored ``paper-tables`` suite run) without
re-executing any flow.

Regenerated by ``benchmarks/bench_table3.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.compare import average_delta
from ..analysis.report import format_table
from ..flow.batch import run_many
from ..flow.spec import FlowSpec, platform_spec
from ..taskgraph.benchmarks import BENCHMARK_NAMES
from .paper_data import TABLE3
from .recordset import record_for_spec, records_by_spec_hash

__all__ = [
    "run_table3",
    "table3_rows_from_records",
    "format_table3",
    "table3_reductions",
]


def _table3_plan(
    benchmarks: Optional[Sequence[str]] = None,
    thermal_weight: Optional[float] = None,
) -> List[Tuple[str, str, FlowSpec]]:
    """The ordered (benchmark, approach, spec) plan behind Table 3."""
    benchmarks = list(benchmarks) if benchmarks is not None else list(BENCHMARK_NAMES)
    plan: List[Tuple[str, str, FlowSpec]] = []
    for name in benchmarks:
        plan.append(
            (name, "power_aware", platform_spec(name, policy="heuristic3"))
        )
        plan.append(
            (name, "thermal_aware",
             platform_spec(name, policy="thermal", weight=thermal_weight))
        )
    return plan


def table3_rows_from_records(
    records: Sequence,
    benchmarks: Optional[Sequence[str]] = None,
    thermal_weight: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Rebuild the Table 3 rows from stored run records — no re-execution.

    *records* is any iterable of :class:`~repro.results.RunRecord`
    covering the table's specs (a stored ``paper-tables`` run suffices);
    rows come back byte-identical to :func:`run_table3`.
    """
    by_hash = records_by_spec_hash(records)
    rows: List[Dict[str, object]] = []
    for name, label, spec in _table3_plan(benchmarks, thermal_weight):
        record = record_for_spec(by_hash, spec, "Table 3", f"{name}, {label}")
        metrics = record.metrics
        row = {
            "benchmark": name,
            "approach": label,
            "total_pow": round(metrics["total_power"], 2),
            "max_temp": round(metrics["max_temperature"], 2),
            "avg_temp": round(metrics["avg_temperature"], 2),
            "load_balance": round(metrics["load_balance"], 3),
            "meets_deadline": metrics["meets_deadline"],
        }
        if name in TABLE3:
            paper = TABLE3[name][label]
            row["paper_total_pow"], row["paper_max_temp"], row["paper_avg_temp"] = paper
        rows.append(row)
    return rows


def run_table3(
    benchmarks: Optional[Sequence[str]] = None,
    thermal_weight: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Regenerate Table 3; two rows (power/thermal) per benchmark.

    ``thermal_weight`` overrides the thermal policy's DC weight (used by
    ablation A1).
    """
    plan = _table3_plan(benchmarks, thermal_weight)
    results = run_many([spec for _, _, spec in plan])
    records = [result.as_record() for result in results]
    return table3_rows_from_records(records, benchmarks, thermal_weight)


def table3_reductions(rows: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Average max/avg temperature reduction (power-aware − thermal-aware)."""
    power = [r for r in rows if r["approach"] == "power_aware"]
    thermal = [r for r in rows if r["approach"] == "thermal_aware"]
    return {
        "max_temp_reduction": average_delta(
            [r["max_temp"] for r in power], [r["max_temp"] for r in thermal]
        ),
        "avg_temp_reduction": average_delta(
            [r["avg_temp"] for r in power], [r["avg_temp"] for r in thermal]
        ),
    }


def format_table3(rows: Sequence[Dict[str, object]]) -> str:
    """Printable Table 3 with measured and paper columns plus reductions."""
    columns = [
        "benchmark",
        "approach",
        "total_pow",
        "paper_total_pow",
        "max_temp",
        "paper_max_temp",
        "avg_temp",
        "paper_avg_temp",
        "load_balance",
        "meets_deadline",
    ]
    text = format_table(
        rows,
        columns,
        title="Table 3 — power-aware vs thermal-aware, platform architecture "
        "(measured vs paper)",
    )
    reductions = table3_reductions(rows)
    text += (
        f"\n\nmeasured reductions: max {reductions['max_temp_reduction']:.2f} C, "
        f"avg {reductions['avg_temp_reduction']:.2f} C "
        f"(paper: 9.75 C max, 5.02 C avg)"
    )
    return text
