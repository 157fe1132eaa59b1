"""Tests for the co-synthesis framework and platform flow (Figure 1)."""

import pytest

from repro.core.heuristics import TaskEnergyPolicy
from repro.cosynth.framework import CoSynthesisConfig, CoSynthesisFramework
from repro.errors import CoSynthesisError
from repro.floorplan.genetic import GeneticConfig
from repro.flow import cosynthesis_spec, platform_spec, run_flow

#: A deliberately small search so framework tests stay fast.
FAST = CoSynthesisConfig(
    max_pes=3,
    screening_keep=3,
    refine_iterations=1,
    genetic_config=GeneticConfig(population_size=8, generations=5),
)


def power_aware():
    """Power-aware co-synthesis of Bm1: heuristic 3, power final cost."""
    return run_flow(
        cosynthesis_spec("Bm1", policy="heuristic3", config=FAST, final_cost="power")
    )


def thermal_aware():
    """Thermal-aware co-synthesis of Bm1 (Figure 1a)."""
    return run_flow(
        cosynthesis_spec("Bm1", policy="thermal", config=FAST, final_cost="thermal")
    )


class TestPowerAwareCosynthesis:
    def test_returns_complete_design(self, bm1_library):
        result = power_aware()
        result.schedule.validate(bm1_library)
        result.floorplan.validate()
        assert set(result.floorplan.block_names()) >= {
            pe.name for pe in result.architecture
        }
        assert result.meets_deadline

    def test_search_diagnostics(self):
        diagnostics = power_aware().diagnostics
        screened = diagnostics["candidates_screened"]
        assert screened > diagnostics["candidates_evaluated"]
        assert diagnostics["candidates_evaluated"] <= FAST.screening_keep
        assert len(diagnostics["screening_rows"]) == screened

    def test_deterministic(self):
        a = power_aware()
        b = power_aware()
        assert a.architecture.name == b.architecture.name
        assert a.evaluation.total_power == pytest.approx(b.evaluation.total_power)

    def test_default_policy_is_h3(self):
        result = power_aware()
        assert result.schedule.policy_name == "heuristic3"


class TestThermalAwareCosynthesis:
    def test_returns_thermal_schedule(self):
        result = thermal_aware()
        # the Figure-1a backoff may reduce the weight but keeps the policy
        assert result.schedule.policy_name == "thermal"
        assert result.meets_deadline

    def test_beats_power_aware_on_combined_temperature(self):
        """Table 2's shape on one benchmark (fast search).

        A single benchmark can trade a fraction of a degree between the
        two temperature metrics, so this asserts on the thermal flow's
        actual objective (max + avg).  Even the full budget does not win
        both metrics separately on every benchmark: Bm1's average goes
        the other way by 0.09 C.  Only the aggregate over Bm1-Bm4 lowers
        both (pinned by ``test_experiments.py::TestTable2Fidelity``).
        """
        power = power_aware()
        thermal = thermal_aware()
        power_combined = (
            power.evaluation.max_temperature + power.evaluation.avg_temperature
        )
        thermal_combined = (
            thermal.evaluation.max_temperature
            + thermal.evaluation.avg_temperature
        )
        assert thermal_combined <= power_combined + 1e-9


class TestFrameworkMechanics:
    def test_strict_raises_when_deadline_impossible(self, bm1, bm1_library):
        impossible = bm1.with_deadline(1.0)
        framework = CoSynthesisFramework(config=FAST)
        with pytest.raises(CoSynthesisError):
            framework.run(
                impossible, bm1_library, TaskEnergyPolicy(), strict=True
            )

    def test_non_strict_returns_best_effort(self, bm1, bm1_library):
        impossible = bm1.with_deadline(1.0)
        framework = CoSynthesisFramework(config=FAST)
        result = framework.run(impossible, bm1_library, TaskEnergyPolicy())
        assert not result.meets_deadline

    def test_bad_config_rejected(self):
        with pytest.raises(CoSynthesisError):
            CoSynthesisConfig(screening_keep=0)
        with pytest.raises(CoSynthesisError):
            CoSynthesisConfig(refine_iterations=0)


class TestPlatformFlow:
    def test_default_platform_is_four_identical(self):
        result = run_flow(platform_spec("Bm1", policy="baseline"))
        assert len(result.architecture) == 4
        assert len(set(pe.type_name for pe in result.architecture)) == 1

    def test_all_policies_meet_deadlines(self, bm1_library):
        for policy in ("baseline", "heuristic3", "thermal"):
            result = run_flow(platform_spec("Bm1", policy=policy))
            assert result.meets_deadline
            result.schedule.validate(bm1_library)

    def test_thermal_beats_h3_on_platform(self):
        """Table 3's shape on one benchmark."""
        power = run_flow(platform_spec("Bm1", policy="heuristic3"))
        thermal = run_flow(platform_spec("Bm1", policy="thermal"))
        assert (
            thermal.evaluation.avg_temperature
            < power.evaluation.avg_temperature
        )
        assert (
            thermal.evaluation.max_temperature
            < power.evaluation.max_temperature
        )

    def test_custom_architecture(self):
        result = run_flow(platform_spec("Bm1", policy="baseline", count=2))
        assert len(result.architecture) == 2

    def test_evaluation_consistency(self):
        result = run_flow(platform_spec("Bm1", policy="baseline"))
        evaluation = result.evaluation
        assert evaluation.total_power == pytest.approx(
            sum(evaluation.pe_powers.values())
        )
        assert evaluation.max_temperature == pytest.approx(
            max(evaluation.pe_temperatures.values())
        )
