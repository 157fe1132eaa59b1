"""Experiment: Table 2 — power-aware vs thermal-aware co-synthesis.

The paper takes the best power heuristic from Table 1 (heuristic 3) as the
power-aware representative and compares it against the thermal-aware ASP,
both inside the customized-architecture co-synthesis flow (Figure 1a).
Expected shape: thermal-aware lowers both the maximal and the average
temperature on every benchmark (paper: −10.9 °C max, −6.95 °C avg on
average across the suite).

The driver runs through :func:`~repro.flow.run_many` and rebuilds its
rows from flattened :class:`~repro.results.RunRecord` objects, so
:func:`table2_rows_from_records` regenerates the table byte-identically
from a result store without re-executing the co-synthesis search.

Regenerated by ``benchmarks/bench_table2.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.compare import average_delta
from ..analysis.report import format_table
from ..cosynth.framework import CoSynthesisConfig
from ..flow.batch import run_many
from ..flow.spec import FlowSpec, cosynthesis_spec
from ..taskgraph.benchmarks import BENCHMARK_NAMES
from .paper_data import TABLE2
from .recordset import record_for_spec, records_by_spec_hash

__all__ = [
    "run_table2",
    "table2_rows_from_records",
    "format_table2",
    "table2_reductions",
]


def _table2_plan(
    benchmarks: Optional[Sequence[str]] = None,
    config: Optional[CoSynthesisConfig] = None,
) -> List[Tuple[str, str, FlowSpec]]:
    """The ordered (benchmark, approach, spec) plan behind Table 2."""
    benchmarks = list(benchmarks) if benchmarks is not None else list(BENCHMARK_NAMES)
    plan: List[Tuple[str, str, FlowSpec]] = []
    for name in benchmarks:
        plan.append(
            (name, "power_aware",
             cosynthesis_spec(name, policy="heuristic3", config=config,
                              final_cost="power"))
        )
        plan.append(
            (name, "thermal_aware",
             cosynthesis_spec(name, policy="thermal", config=config,
                              final_cost="thermal"))
        )
    return plan


def table2_rows_from_records(
    records: Sequence,
    benchmarks: Optional[Sequence[str]] = None,
    config: Optional[CoSynthesisConfig] = None,
) -> List[Dict[str, object]]:
    """Rebuild the Table 2 rows from stored run records — no re-execution."""
    by_hash = records_by_spec_hash(records)
    rows: List[Dict[str, object]] = []
    for name, label, spec in _table2_plan(benchmarks, config):
        record = record_for_spec(by_hash, spec, "Table 2", f"{name}, {label}")
        metrics = record.metrics
        row = {
            "benchmark": name,
            "approach": label,
            "architecture": metrics["architecture"],
            "total_pow": round(metrics["total_power"], 2),
            "max_temp": round(metrics["max_temperature"], 2),
            "avg_temp": round(metrics["avg_temperature"], 2),
            "meets_deadline": metrics["meets_deadline"],
        }
        if name in TABLE2:
            paper = TABLE2[name][label]
            row["paper_total_pow"], row["paper_max_temp"], row["paper_avg_temp"] = paper
        rows.append(row)
    return rows


def run_table2(
    benchmarks: Optional[Sequence[str]] = None,
    config: Optional[CoSynthesisConfig] = None,
) -> List[Dict[str, object]]:
    """Regenerate Table 2; two rows (power/thermal) per benchmark."""
    plan = _table2_plan(benchmarks, config)
    results = run_many([spec for _, _, spec in plan])
    records = [result.as_record() for result in results]
    return table2_rows_from_records(records, benchmarks, config)


def table2_reductions(rows: Sequence[Dict[str, object]]) -> Dict[str, float]:
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


def format_table2(rows: Sequence[Dict[str, object]]) -> str:
    """Printable Table 2 with measured and paper columns plus reductions."""
    columns = [
        "benchmark",
        "approach",
        "architecture",
        "total_pow",
        "paper_total_pow",
        "max_temp",
        "paper_max_temp",
        "avg_temp",
        "paper_avg_temp",
        "meets_deadline",
    ]
    text = format_table(
        rows,
        columns,
        title="Table 2 — power-aware vs thermal-aware, co-synthesis "
        "architecture (measured vs paper)",
    )
    reductions = table2_reductions(rows)
    text += (
        f"\n\nmeasured reductions: max {reductions['max_temp_reduction']:.2f} C, "
        f"avg {reductions['avg_temp_reduction']:.2f} C "
        f"(paper: 10.9 C max, 6.95 C avg)"
    )
    return text
