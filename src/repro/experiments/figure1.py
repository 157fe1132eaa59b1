"""Experiment: Figure 1 — the two design-flow diagrams, exercised end to end.

Figure 1 of the paper is not a data plot; it draws (a) the thermal-aware
co-synthesis flow and (b) the platform-based flow.  The reproduction
"regenerates" it by actually *running* both flows on one benchmark and
recording a trace of every stage the figure names — task graph in,
allocation & scheduling, floorplanning + HotSpot interaction, the
"meets requirement?" decision, solution out — so the wiring of the
framework is demonstrably the wiring of the figure.

Regenerated by ``benchmarks/bench_figure1.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cosynth.framework import CoSynthesisConfig
from ..flow.runner import run_flow
from ..flow.spec import cosynthesis_spec, platform_spec

__all__ = ["FlowTrace", "run_figure1", "format_figure1"]


@dataclass
class FlowTrace:
    """Stage-by-stage record of one flow execution."""

    flow: str  # "co-synthesis" or "platform"
    benchmark: str
    stages: List[str] = field(default_factory=list)
    architecture: str = ""
    num_pes: int = 0
    die_area_mm2: float = 0.0
    hotspot_queries: int = 0
    makespan: float = 0.0
    deadline: float = 0.0
    meets_requirement: bool = False
    max_temp: float = 0.0
    avg_temp: float = 0.0

    def as_row(self) -> Dict[str, object]:
        """Flat dict for tabular reports."""
        return {
            "flow": self.flow,
            "benchmark": self.benchmark,
            "architecture": self.architecture,
            "pes": self.num_pes,
            "die_area": round(self.die_area_mm2, 1),
            "hotspot_queries": self.hotspot_queries,
            "makespan": round(self.makespan, 1),
            "deadline": self.deadline,
            "meets_requirement": self.meets_requirement,
            "max_temp": round(self.max_temp, 2),
            "avg_temp": round(self.avg_temp, 2),
        }


def run_figure1(
    benchmark_name: str = "Bm1",
    config: Optional[CoSynthesisConfig] = None,
) -> List[FlowTrace]:
    """Execute flow (a) and flow (b) on one benchmark and trace them."""
    traces: List[FlowTrace] = []

    # ---- Figure 1a: thermal-aware co-synthesis -------------------------
    trace_a = FlowTrace(flow="co-synthesis", benchmark=benchmark_name)
    trace_a.stages.append("task graph + technology library in")
    result = run_flow(
        cosynthesis_spec(
            benchmark_name, policy="thermal", config=config, final_cost="thermal"
        )
    )
    trace_a.stages.append(
        f"allocation & scheduling procedure: screened "
        f"{result.diagnostics['candidates_screened']} allocations, evaluated "
        f"{result.diagnostics['candidates_evaluated']}"
    )
    trace_a.stages.append("thermal-aware floorplanning + HotSpot temperature extraction")
    trace_a.stages.append(
        "meets requirement? "
        + ("yes -> solution" if result.meets_deadline else "no (best effort)")
    )
    trace_a.architecture = result.architecture.name
    trace_a.num_pes = len(result.architecture)
    trace_a.hotspot_queries = result.diagnostics["hotspot_queries"]
    trace_a.die_area_mm2 = result.floorplan.die_area
    trace_a.makespan = result.schedule.makespan
    trace_a.deadline = result.schedule.graph.deadline
    trace_a.meets_requirement = result.meets_deadline
    trace_a.max_temp = result.evaluation.max_temperature
    trace_a.avg_temp = result.evaluation.avg_temperature
    traces.append(trace_a)

    # ---- Figure 1b: platform-based system design -----------------------
    trace_b = FlowTrace(flow="platform", benchmark=benchmark_name)
    trace_b.stages.append("task graph + pre-defined platform in")
    platform = run_flow(platform_spec(benchmark_name, policy="thermal"))
    trace_b.stages.append("modified ASP with thermal inquiries to HotSpot")
    trace_b.stages.append("solution out")
    trace_b.architecture = platform.architecture.name
    trace_b.num_pes = len(platform.architecture)
    trace_b.hotspot_queries = platform.diagnostics["hotspot_queries"]
    trace_b.die_area_mm2 = platform.floorplan.die_area
    trace_b.makespan = platform.schedule.makespan
    trace_b.deadline = platform.schedule.graph.deadline
    trace_b.meets_requirement = platform.meets_deadline
    trace_b.max_temp = platform.evaluation.max_temperature
    trace_b.avg_temp = platform.evaluation.avg_temperature
    traces.append(trace_b)
    return traces


def format_figure1(traces: List[FlowTrace]) -> str:
    """Printable trace of both flows."""
    from ..analysis.report import format_table

    lines = [
        "Figure 1 — thermal-aware co-synthesis flow (a) and platform-based "
        "flow (b), executed end to end",
        "",
    ]
    for trace in traces:
        lines.append(f"[{trace.flow}] stages:")
        for index, stage in enumerate(trace.stages, start=1):
            lines.append(f"  {index}. {stage}")
        lines.append("")
    lines.append(format_table([t.as_row() for t in traces]))
    return "\n".join(lines)
