#!/usr/bin/env python3
"""Closing the paper's motivation loops: leakage and reliability.

The DATE'05 introduction motivates thermal-aware scheduling with two
claims it never quantifies: leakage power grows exponentially with
temperature, and high temperatures accelerate failure mechanisms
(electromigration).  This example quantifies both for the Table-3
comparison on benchmark Bm2:

1. schedule with the best power heuristic (H3) and with the thermal ASP;
2. re-solve each design's temperatures with the leakage-thermal fixed
   point (leakage re-evaluated at block temperatures until convergence);
3. derive electromigration MTTF factors from the converged temperatures.

Run:  python examples/leakage_reliability.py
"""

from repro import (
    HotSpotModel,
    LeakageModel,
    format_table,
    platform_spec,
    reliability_report,
    run_flow,
    solve_with_leakage,
)

LEAKAGE = LeakageModel(leakage_fraction=0.15, beta=0.015, t_ref_c=65.0)


def main() -> None:
    rows = []
    for policy in ("heuristic3", "thermal"):
        result = run_flow(platform_spec("Bm2", policy=policy))
        model = HotSpotModel(result.floorplan)
        powers = result.schedule.average_powers()

        solution = solve_with_leakage(model, powers, LEAKAGE)
        report = reliability_report(solution.temperatures, ref_temp_c=65.0)
        rows.append(
            {
                "policy": policy,
                "peak_C_no_leak": round(result.evaluation.max_temperature, 2),
                "peak_C_with_leak": round(solution.peak_temperature, 2),
                "leakage_W": round(solution.total_leakage, 2),
                "fp_iterations": solution.iterations,
                "system_mttf_factor": round(report.system_mttf_factor, 3),
                "worst_pe": report.worst_pe,
            }
        )
    print(
        format_table(
            rows,
            title="Bm2 on the 4-PE platform: leakage feedback and "
            "electromigration MTTF (ref 65 C)",
        )
    )
    h3, thermal = rows
    gain_cold = h3["peak_C_no_leak"] - thermal["peak_C_no_leak"]
    gain_hot = h3["peak_C_with_leak"] - thermal["peak_C_with_leak"]
    mttf_ratio = thermal["system_mttf_factor"] / h3["system_mttf_factor"]
    print(
        f"\nthermal-aware peak advantage: {gain_cold:.1f} C before leakage, "
        f"{gain_hot:.1f} C after — the feedback loop amplifies the win."
    )
    print(
        f"expected electromigration lifetime improves {mttf_ratio:.1f}x "
        f"(system MTTF factor {h3['system_mttf_factor']:.3f} -> "
        f"{thermal['system_mttf_factor']:.3f})."
    )


if __name__ == "__main__":
    main()
