#!/usr/bin/env python3
"""Conditional task graphs: the Xie-Wolf substrate under the thermal ASP.

The paper's ASP descends from Xie & Wolf's *conditional* task-graph
co-synthesis (its ref [1]).  This example builds a video pipeline whose
encoder path depends on a run-time scene-change decision, schedules every
scenario with the thermal-aware policy, and compares the scenario-aware
metrics against the classic all-branches-execute (union) bound.

Run:  python examples/conditional_graph.py
"""

from repro import (
    Condition,
    ConditionalTaskGraph,
    ListScheduler,
    ThermalPolicy,
    default_platform,
    format_table,
    generate_technology_library,
    platform_floorplan,
    schedule_conditional,
)


def build_video_pipeline() -> ConditionalTaskGraph:
    """One frame of a (simplified) video encoder with a scene-change branch."""
    ctg = ConditionalTaskGraph("video-frame", deadline=900.0)
    ctg.add("capture", "io")
    ctg.add("preproc", "filter")
    ctg.add("scene_detect", "detect")
    ctg.add("intra_code", "encode", weight=2.0)   # scene change: full frame
    ctg.add("motion_est", "search", weight=1.2)   # no change: motion search
    ctg.add("inter_code", "encode", weight=0.8)
    ctg.add("entropy", "pack")
    ctg.add("writeback", "io")

    ctg.add_edge("capture", "preproc", data=16.0)
    ctg.add_edge("preproc", "scene_detect", data=8.0)
    ctg.add_edge("scene_detect", "intra_code", data=16.0,
                 condition=Condition("scene", "change"))
    ctg.add_edge("scene_detect", "motion_est", data=16.0,
                 condition=Condition("scene", "same"))
    ctg.add_edge("motion_est", "inter_code", data=8.0)
    ctg.add_edge("intra_code", "entropy", data=8.0)
    ctg.add_edge("inter_code", "entropy", data=8.0)
    ctg.add_edge("entropy", "writeback", data=4.0)
    ctg.declare_guard("scene", {"change": 0.1, "same": 0.9})
    ctg.validate()
    return ctg


def main() -> None:
    ctg = build_video_pipeline()
    platform = default_platform()
    library = generate_technology_library(
        sorted({t.task_type for t in ctg.tasks()}), seed=7
    )
    plan = platform_floorplan(platform)

    result = schedule_conditional(
        ctg, platform, library, ThermalPolicy(), floorplan=plan
    )
    rows = []
    for scenario_result in result.results:
        e = scenario_result.evaluation
        rows.append(
            {
                "scenario": scenario_result.scenario.label,
                "probability": scenario_result.scenario.probability,
                "tasks": len(scenario_result.schedule),
                "makespan": round(scenario_result.schedule.makespan, 1),
                "total_pow_W": round(e.total_power, 2),
                "max_temp_C": round(e.max_temperature, 2),
            }
        )
    print(format_table(rows, title=f"{ctg.name}: per-scenario thermal schedules"))
    print("\naggregate:", result.as_row())

    union = ListScheduler(ctg.worst_case_graph(), platform, library).run()
    print(
        f"\nclassic union bound (all branches execute): makespan "
        f"{union.makespan:.1f} vs scenario-aware worst case "
        f"{result.worst_makespan:.1f} "
        f"({100 * (union.makespan / result.worst_makespan - 1):.1f}% pessimism)"
    )


if __name__ == "__main__":
    main()
