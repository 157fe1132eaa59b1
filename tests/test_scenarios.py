"""The scenario layer: grids, overrides, registries, suites, CLI.

The load-bearing test is the paper-tables equivalence: the scenario
expansion must contain the exact specs the legacy ``repro.experiments``
drivers run, and executing them through ``run_many`` must reproduce the
same evaluations byte for byte.
"""

import json

import pytest

from repro.cli import main
from repro.errors import FlowError, FlowSpecError
from repro.flow import (
    ConditionalSpec,
    FlowSpec,
    GraphSourceSpec,
    cosynthesis_spec,
    platform_spec,
    registered_source,
    run_flow,
    run_many,
    spec_hash,
)
from repro.flow.registry import FLOORPLANNERS, register_floorplanner
from repro.scenarios import (
    ScenarioCase,
    ScenarioSpec,
    apply_overrides,
    register_scenario,
    register_workload,
    scenario,
    scenario_by_name,
    scenario_names,
)


# ----------------------------------------------------------------------
# dotted-path overrides
# ----------------------------------------------------------------------
class TestApplyOverrides:
    def test_nested_override(self):
        spec = apply_overrides(platform_spec("Bm1"), {"policy.name": "baseline"})
        assert spec.policy.name == "baseline"
        assert spec.graph.name == "Bm1"

    def test_top_level_flow(self):
        spec = apply_overrides(
            cosynthesis_spec("Bm1"), {"flow": "cosynthesis"}
        )
        assert spec.flow == "cosynthesis"

    def test_floorplan_materializes_from_none(self):
        base = platform_spec("Bm1")
        assert base.floorplan is None
        spec = apply_overrides(base, {"floorplan.kind": "row"})
        assert spec.floorplan.kind == "row"

    def test_floorplan_materialization_is_flow_kind_aware(self):
        """A GA-budget override on a cosynthesis spec must materialize
        the genetic floorplanner, not the platform layout."""
        base = cosynthesis_spec("Bm1")
        assert base.floorplan is None
        spec = apply_overrides(base, {"floorplan.generations": 5})
        assert spec.floorplan.kind == "genetic"
        assert spec.floorplan.generations == 5
        platform = apply_overrides(
            platform_spec("Bm1"), {"floorplan.seed": 9}
        )
        assert platform.floorplan.kind == "platform"

    def test_unknown_section_raises(self):
        with pytest.raises(FlowSpecError, match="polcy"):
            apply_overrides(platform_spec("Bm1"), {"polcy.name": "thermal"})

    def test_unknown_leaf_raises(self):
        with pytest.raises(FlowSpecError, match="nme"):
            apply_overrides(platform_spec("Bm1"), {"policy.nme": "thermal"})

    def test_section_path_rejected(self):
        with pytest.raises(FlowSpecError, match="section"):
            apply_overrides(platform_spec("Bm1"), {"policy": "thermal"})

    def test_invalid_value_rejected_by_spec_validation(self):
        with pytest.raises(FlowSpecError):
            apply_overrides(platform_spec("Bm1"), {"graph.kind": "spreadsheet"})

    def test_cosynthesis_spec_accepts_cosynth_override(self):
        from repro.flow import CoSynthSpec

        spec = cosynthesis_spec("Bm1", cosynth=CoSynthSpec(max_pes=6))
        assert spec.cosynth.max_pes == 6
        with pytest.raises(FlowSpecError, match="not both"):
            cosynthesis_spec(
                "Bm1", cosynth=CoSynthSpec(max_pes=6), final_cost="power"
            )

    def test_original_spec_unchanged(self):
        base = platform_spec("Bm1")
        apply_overrides(base, {"policy.name": "baseline"})
        assert base.policy.name == "thermal"

    def test_kind_switch_resets_stale_graph_fields(self):
        """Changing graph.kind must not drag the old kind's name along —
        a benchmark name on a generated/file source mislabels rows."""
        base = platform_spec("Bm1")
        generated = apply_overrides(
            base, {"graph.kind": "generated", "graph.tasks": 8}
        )
        assert generated.graph.name == ""  # auto-labels at build time
        file_spec = apply_overrides(
            base, {"graph.kind": "file", "graph.path": "w.tg"}
        )
        assert file_spec.graph.name == ""
        # same kind: explicit fields survive untouched
        renamed = apply_overrides(base, {"graph.name": "Bm2"})
        assert renamed.graph.name == "Bm2"


# ----------------------------------------------------------------------
# grid expansion
# ----------------------------------------------------------------------
class TestExpansion:
    def test_cross_product_order_rightmost_fastest(self):
        suite = scenario(
            "t",
            platform_spec("Bm1", policy="baseline"),
            grid={
                "graph.name": ("Bm1", "Bm2"),
                "policy.name": ("baseline", "thermal"),
            },
        )
        combos = [(s.graph.name, s.policy.name) for s in suite.expand()]
        assert combos == [
            ("Bm1", "baseline"), ("Bm1", "thermal"),
            ("Bm2", "baseline"), ("Bm2", "thermal"),
        ]

    def test_empty_grid_expands_to_base(self):
        base = platform_spec("Bm3")
        suite = scenario("t", base)
        assert suite.expand() == [base]

    def test_dedup_keeps_first_occurrence(self):
        base = platform_spec("Bm1", policy="baseline")
        suite = ScenarioSpec(
            name="t",
            cases=(
                ScenarioCase(base, grid={"policy.name": ("baseline", "thermal")}),
                ScenarioCase(base, grid={"policy.name": ("thermal", "heuristic1")}),
            ),
        )
        names = [s.policy.name for s in suite.expand()]
        assert names == ["baseline", "thermal", "heuristic1"]
        assert suite.size() == 4  # pre-dedup grid points

    def test_single_value_axis_accepted(self):
        suite = scenario(
            "t", platform_spec("Bm1"), grid={"graph.name": "Bm2"}
        )
        assert [s.graph.name for s in suite.expand()] == ["Bm2"]

    def test_duplicate_axis_rejected(self):
        with pytest.raises(FlowSpecError, match="duplicate"):
            scenario(
                "t",
                platform_spec("Bm1"),
                grid=[("graph.name", ("Bm1",)), ("graph.name", ("Bm2",))],
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(FlowSpecError, match="no values"):
            scenario("t", platform_spec("Bm1"), grid={"graph.name": ()})

    def test_with_grid_replaces_in_place_and_appends(self):
        suite = scenario(
            "t",
            platform_spec("Bm1", policy="baseline"),
            grid={
                "graph.name": ("Bm1", "Bm2", "Bm3", "Bm4"),
                "policy.name": ("baseline", "thermal"),
            },
        )
        reduced = suite.with_grid(
            {"graph.name": ("Bm1",), "dvfs.enabled": (True,)}
        )
        specs = reduced.expand()
        assert len(specs) == 2
        assert all(s.graph.name == "Bm1" for s in specs)
        assert all(s.dvfs.enabled for s in specs)
        # the original scenario is untouched
        assert len(suite.expand()) == 8

    def test_expansion_feeds_run_many(self):
        suite = scenario(
            "t",
            platform_spec("Bm1", policy="baseline"),
            grid={"policy.name": ("baseline", "heuristic3")},
        )
        results = run_many(suite.expand())
        assert [r.spec.policy.name for r in results] == ["baseline", "heuristic3"]


# ----------------------------------------------------------------------
# registries (scenario + the normalization satellite)
# ----------------------------------------------------------------------
class TestRegistries:
    def test_builtin_suites_registered(self):
        for name in (
            "paper-tables", "policy-ablation", "scaling-stress",
            "conditional-suite",
        ):
            assert name in scenario_names()

    def test_normalized_lookup(self):
        assert scenario_by_name("paper_tables") is scenario_by_name("paper-tables")

    def test_unknown_scenario_lists_available(self):
        with pytest.raises(FlowError, match="available"):
            scenario_by_name("nonexistent")

    def test_register_rejects_shadowing(self):
        with pytest.raises(FlowError, match="already registered"):
            register_scenario(
                scenario("paper_tables", platform_spec("Bm1"))
            )

    def test_register_rejects_non_scenario(self):
        with pytest.raises(FlowSpecError):
            register_scenario("paper-tables")

    def test_policy_ablation_sees_late_registrations(self):
        """The suite is built per lookup, so a policy registered after
        import still joins the ablation grid."""
        from repro.core.heuristics import (
            POLICIES,
            ThermalPolicy,
            register_dc_policy,
        )

        class LateTestPolicy(ThermalPolicy):
            name = "late-test-policy"

        register_dc_policy(LateTestPolicy)
        try:
            specs = scenario_by_name("policy-ablation").expand()
            assert "late-test-policy" in {s.policy.name for s in specs}
        finally:
            # the global registry must be left untouched
            POLICIES.unregister("late-test-policy")

    def test_factory_registration_needs_a_name(self):
        with pytest.raises(FlowSpecError, match="name"):
            register_scenario(lambda: scenario("x", platform_spec("Bm1")))

    def test_floorplanner_registry_normalizes(self):
        """Satellite: component registries share the policy registry's
        hyphen/underscore behaviour."""
        register_floorplanner(
            "norm-check", lambda arch, spec: FLOORPLANNERS.get("platform")(arch, spec)
        )
        try:
            assert FLOORPLANNERS.get("norm_check") is FLOORPLANNERS.get("norm-check")
            assert "norm_check" in FLOORPLANNERS
            with pytest.raises(FlowError, match="already registered"):
                register_floorplanner("norm_check", lambda arch, spec: None)
        finally:
            FLOORPLANNERS.unregister("norm-check")

    def test_thermal_and_flow_registries_normalize(self):
        from repro.flow.registry import FLOWS, THERMAL_SOLVERS, register_thermal_solver

        register_thermal_solver("norm_solver", THERMAL_SOLVERS.get("hotspot"))
        try:
            assert THERMAL_SOLVERS.get("norm-solver") is THERMAL_SOLVERS.get("norm_solver")
        finally:
            THERMAL_SOLVERS.unregister("norm_solver")
        assert FLOWS.get("platform") is FLOWS.get("platform")


# ----------------------------------------------------------------------
# built-in suites
# ----------------------------------------------------------------------
class TestBuiltinSuites:
    def test_paper_tables_contains_every_legacy_spec(self):
        """Structural equivalence with the repro.experiments drivers."""
        expansion = {spec_hash(s) for s in scenario_by_name("paper-tables").expand()}
        legacy = []
        for bm in ("Bm1", "Bm2", "Bm3", "Bm4"):
            # table1 rows
            legacy.append(cosynthesis_spec(
                bm, policy="baseline",
                final_cost="performance", screening="performance",
            ))
            for pol in ("heuristic1", "heuristic2", "heuristic3"):
                legacy.append(cosynthesis_spec(
                    bm, policy=pol, final_cost="power", screening="default",
                ))
                legacy.append(platform_spec(bm, policy=pol))
            legacy.append(platform_spec(bm, policy="baseline"))
            # table2 rows
            legacy.append(cosynthesis_spec(bm, policy="heuristic3", final_cost="power"))
            legacy.append(cosynthesis_spec(bm, policy="thermal", final_cost="thermal"))
            # table3 rows
            legacy.append(platform_spec(bm, policy="heuristic3"))
            legacy.append(platform_spec(bm, policy="thermal"))
        missing = [s for s in legacy if spec_hash(s) not in expansion]
        assert not missing

    def test_paper_tables_platform_rows_byte_identical_to_table3(self):
        """Numeric equivalence on the (fast) platform half of the suite."""
        from repro.experiments.table3 import run_table3

        specs = [
            s for s in scenario_by_name("paper-tables").expand()
            if s.flow == "platform" and s.policy.name in ("heuristic3", "thermal")
        ]
        results = run_many(specs)
        approach = {"heuristic3": "power_aware", "thermal": "thermal_aware"}
        legacy = {
            (row["benchmark"], row["approach"]): row for row in run_table3()
        }
        assert len(specs) == 8
        for spec, result in zip(specs, results):
            row = legacy[(spec.graph.name, approach[spec.policy.name])]
            evaluation = result.evaluation
            assert round(evaluation.total_power, 2) == row["total_pow"]
            assert round(evaluation.max_temperature, 2) == row["max_temp"]
            assert round(evaluation.avg_temperature, 2) == row["avg_temp"]

    def test_policy_ablation_covers_registered_policies(self):
        from repro import POLICY_NAMES

        specs = scenario_by_name("policy-ablation").expand()
        swept = {s.policy.name for s in specs}
        assert swept == set(POLICY_NAMES)

    def test_scaling_stress_specs_are_valid_and_distinct(self):
        specs = scenario_by_name("scaling-stress").expand()
        assert len(specs) == 18
        assert len({spec_hash(s) for s in specs}) == 18
        assert all(s.graph.kind == "generated" for s in specs)

    def test_conditional_suite_round_trips(self):
        specs = scenario_by_name("conditional-suite").expand()
        assert len(specs) == 9
        for spec in specs:
            assert spec.conditional.enabled
            assert FlowSpec.from_json(spec.to_json()) == spec


# ----------------------------------------------------------------------
# registered workloads
# ----------------------------------------------------------------------
def _tiny_graph():
    from repro.taskgraph import TaskGraph

    graph = TaskGraph("tiny-pipeline", deadline=400.0)
    graph.add("in", "type0")
    graph.add("work", "type1")
    graph.add("out", "type0")
    graph.add_edge("in", "work", 2.0)
    graph.add_edge("work", "out", 2.0)
    graph.validate()
    return graph


class TestRegisteredWorkloads:
    def test_registered_workload_end_to_end(self):
        register_workload("tiny-pipeline", _tiny_graph)
        spec = platform_spec(
            policy="heuristic3", graph=registered_source("tiny-pipeline")
        )
        result = run_flow(spec)
        assert result.schedule.graph.name == "tiny-pipeline"
        results = run_many([spec, spec])
        assert results[0] is results[1]

    def test_registered_workload_through_cli(self, capsys):
        register_workload("tiny-pipeline", _tiny_graph)
        assert main([
            "run", "--policy", "heuristic3", "--json",
            "--set", "graph.kind=registered",
            "--set", "graph.name=tiny-pipeline",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["row"]["benchmark"] == "tiny-pipeline"

    def test_unknown_registered_workload_fails_at_run(self):
        spec = platform_spec(graph=registered_source("never-registered"))
        with pytest.raises(FlowError, match="available"):
            run_flow(spec)

    def test_registered_specs_skip_the_persistent_cache(self, tmp_path):
        """spec_hash cannot see factory changes, so file/registered
        specs must recompute instead of replaying stale pickles."""
        register_workload("tiny-pipeline", _tiny_graph)
        spec = platform_spec(
            policy="heuristic3", graph=registered_source("tiny-pipeline")
        )
        run_many([spec], cache_dir=tmp_path)
        assert list(tmp_path.glob("*.pkl")) == []
        again = run_many([spec], cache_dir=tmp_path)
        assert not again[0].provenance.get("cache_hit")

    def test_benchmark_specs_still_cache(self, tmp_path):
        spec = platform_spec("Bm1", policy="heuristic3")
        run_many([spec], cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.pkl"))) == 1
        assert run_many([spec], cache_dir=tmp_path)[0].provenance["cache_hit"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestScenarioCLI:
    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "paper-tables" in out and "scaling-stress" in out

    def test_scenarios_list_json(self, capsys):
        assert main(["scenarios", "list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {"paper-tables", "policy-ablation"} <= {r["scenario"] for r in rows}

    def test_scenarios_show_with_set(self, capsys):
        assert main([
            "scenarios", "show", "policy-ablation",
            "--set", "graph.name=Bm1",
            "--set", "policy.name=baseline,thermal",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 specs" in out

    def test_scenarios_show_json_round_trips(self, capsys):
        assert main([
            "scenarios", "show", "conditional-suite", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 9
        for entry in payload:
            FlowSpec.from_dict(entry)

    def test_scenarios_run_reduced(self, capsys, tmp_path):
        argv = [
            "scenarios", "run", "policy-ablation",
            "--set", "graph.name=Bm1",
            "--set", "policy.name=baseline,heuristic3",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert "2 flows (0 cached)" in capsys.readouterr().out
        assert main(argv) == 0
        assert "2 flows (2 cached)" in capsys.readouterr().out

    def test_scenarios_run_json(self, capsys):
        assert main([
            "scenarios", "run", "policy-ablation",
            "--set", "graph.name=Bm1", "--set", "policy.name=baseline",
            "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["row"]["benchmark"] == "Bm1"

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["scenarios", "show", "gizmo"]) == 2
        assert "available" in capsys.readouterr().err

    def test_workloads_list(self, capsys):
        assert main(["workloads", "list"]) == 0
        out = capsys.readouterr().out
        for needle in (
            "benchmarks:", "generator-families:", "catalogues:", "registered:",
        ):
            assert needle in out

    def test_workloads_list_json(self, capsys):
        assert main(["workloads", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "layered" in payload["generator-families"]
        assert "big-little" in payload["catalogues"]

    def test_list_includes_new_sections(self, capsys):
        assert main(["list", "catalogues"]) == 0
        assert "big-little" in capsys.readouterr().out
        assert main(["list", "scenarios"]) == 0
        assert "paper-tables" in capsys.readouterr().out

    def test_bad_set_syntax_fails(self, capsys):
        assert main([
            "scenarios", "run", "policy-ablation", "--set", "oops",
        ]) == 1
        assert "--set" in capsys.readouterr().err

    def test_bad_set_value_type_exits_cleanly(self, capsys):
        """A JSON list where a scalar belongs is a FlowSpecError with
        exit 1, not an uncaught TypeError traceback."""
        assert main([
            "run", "--set", "graph.kind=generated",
            "--set", "graph.tasks=[24,48]",
        ]) == 1
        assert "tasks" in capsys.readouterr().err

    def test_spec_file_conflicts_with_run_flags(self, capsys, tmp_path):
        """--spec is complete; other run flags must error, not be
        silently dropped."""
        path = tmp_path / "spec.json"
        path.write_text(platform_spec("Bm1", policy="baseline").to_json())
        assert main(["run", "--spec", str(path), "--dvfs",
                     "--policy", "heuristic1"]) == 1
        err = capsys.readouterr().err
        assert "--dvfs" in err and "--policy" in err
        # --set remains the supported override path for spec files
        assert main(["run", "--spec", str(path), "--set",
                     "policy.name=heuristic3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["policy"]["name"] == "heuristic3"
