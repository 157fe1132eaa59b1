"""Tests for the DC policies (the Pow / Avg_Temp term)."""

import pytest

from repro.core.heuristics import (
    POLICIES,
    POLICY_NAMES,
    BaselinePolicy,
    CumulativePowerPolicy,
    DCContext,
    TaskEnergyPolicy,
    TaskPowerPolicy,
    ThermalPolicy,
    policy_by_name,
)
from repro.errors import SchedulingError
from repro.power.model import PowerAccumulator
from repro.thermal.hotspot import HotSpotModel


def make_ctx(**overrides):
    accumulator = PowerAccumulator(["pe0", "pe1"])
    accumulator.record("pe0", power=4.0, duration=10.0)  # 40 J committed
    defaults = dict(
        task_name="t",
        pe_name="pe0",
        wcet=10.0,
        power=6.0,
        energy=60.0,
        ready_time=0.0,
        start=0.0,
        finish=10.0,
        accumulator=accumulator,
        horizon=100.0,
        thermal=None,
        pe_to_block=None,
    )
    defaults.update(overrides)
    return DCContext(**defaults)


class TestRegistry:
    def test_all_names_registered(self):
        # paper policies first, then the registered extension variants
        assert POLICY_NAMES == (
            "baseline",
            "heuristic1",
            "heuristic2",
            "heuristic3",
            "thermal",
            "thermal-peak",
            "thermal-hybrid",
        )

    def test_policy_by_name_default_weight(self):
        policy = policy_by_name("heuristic1")
        assert isinstance(policy, TaskPowerPolicy)
        assert policy.weight == TaskPowerPolicy().weight

    def test_policy_by_name_custom_weight(self):
        assert policy_by_name("heuristic3", weight=0.5).weight == 0.5

    def test_extension_policies_reachable_by_name(self):
        from repro.extensions.policies import HybridThermalPolicy, ThermalPeakPolicy

        assert isinstance(policy_by_name("thermal-peak"), ThermalPeakPolicy)
        # underscores are interchangeable with hyphens
        assert isinstance(policy_by_name("thermal_peak"), ThermalPeakPolicy)
        hybrid = policy_by_name("thermal_hybrid", peak_fraction=0.25)
        assert isinstance(hybrid, HybridThermalPolicy)
        assert hybrid.peak_fraction == 0.25

    def test_hyphen_resolves_underscore_registered_names(self):
        POLICIES.register("tmp_policy", TaskPowerPolicy)
        try:
            assert isinstance(policy_by_name("tmp-policy"), TaskPowerPolicy)
        finally:
            POLICIES.unregister("tmp_policy")

    def test_unknown_name_rejected(self):
        with pytest.raises(SchedulingError):
            policy_by_name("voodoo")

    def test_bad_params_raise_scheduling_error(self):
        with pytest.raises(SchedulingError):
            policy_by_name("baseline", nonsense_param=1.0)

    def test_register_rejects_name_collisions(self):
        from repro.core.heuristics import register_dc_policy

        class Impostor(TaskPowerPolicy):
            name = "heuristic1"

        with pytest.raises(SchedulingError):
            register_dc_policy(Impostor)

    def test_register_rejects_other_spelling_of_taken_name(self):
        """``thermal_peak`` and ``thermal-peak`` are one name: a different
        class cannot take it under the other spelling."""
        from repro.core.heuristics import register_dc_policy
        from repro.extensions.policies import ThermalPeakPolicy

        class Impostor(ThermalPolicy):
            name = "thermal_peak"

        before = tuple(POLICY_NAMES)
        with pytest.raises(SchedulingError, match="already registered"):
            register_dc_policy(Impostor)
        assert tuple(POLICY_NAMES) == before
        assert isinstance(policy_by_name("thermal_peak"), ThermalPeakPolicy)

    def test_register_is_idempotent_for_the_same_class(self):
        from repro.core.heuristics import register_dc_policy

        before = tuple(POLICY_NAMES)
        assert register_dc_policy(TaskPowerPolicy) is TaskPowerPolicy
        assert tuple(POLICY_NAMES) == before

    def test_names_view_is_live(self):
        from repro.core.heuristics import register_dc_policy

        class LiveViewPolicy(TaskPowerPolicy):
            name = "live-view-policy"

        register_dc_policy(LiveViewPolicy)
        try:
            assert POLICY_NAMES[-1] == "live-view-policy"
            assert "live-view-policy" in POLICY_NAMES
            assert len(POLICY_NAMES) == len(POLICIES)
        finally:
            POLICIES.unregister("live-view-policy")
        assert "live-view-policy" not in POLICY_NAMES

    def test_negative_weight_rejected(self):
        with pytest.raises(SchedulingError):
            TaskPowerPolicy(-1.0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(SchedulingError, match=repr(weight)):
            policy_by_name("heuristic3", weight=weight)

    def test_nan_policy_spec_rejected_by_run_flow(self):
        import repro

        spec = repro.platform_spec(
            "Bm1", policy="heuristic3", weight=float("nan")
        )
        with pytest.raises(SchedulingError):
            repro.run_flow(spec)


class TestPenalties:
    def test_baseline_is_zero(self):
        assert BaselinePolicy().penalty(make_ctx()) == 0.0

    def test_heuristic1_scales_task_power(self):
        policy = TaskPowerPolicy(weight=2.0)
        assert policy.penalty(make_ctx(power=6.0)) == pytest.approx(12.0)

    def test_heuristic3_scales_task_energy(self):
        policy = TaskEnergyPolicy(weight=0.1)
        assert policy.penalty(make_ctx(energy=60.0)) == pytest.approx(6.0)

    def test_heuristic2_includes_candidate(self):
        policy = CumulativePowerPolicy(weight=1.0)
        # (40 J committed + 60 J candidate) / 100 horizon = 1.0 W
        assert policy.penalty(make_ctx()) == pytest.approx(1.0)

    def test_heuristic2_prefers_less_loaded_pe(self):
        policy = CumulativePowerPolicy(weight=1.0)
        loaded = policy.penalty(make_ctx(pe_name="pe0"))
        empty = policy.penalty(make_ctx(pe_name="pe1"))
        assert empty < loaded

    def test_thermal_requires_model(self):
        with pytest.raises(SchedulingError):
            ThermalPolicy().penalty(make_ctx(thermal=None))

    def test_thermal_uses_average_temperature(self, platform_plan):
        model = HotSpotModel(platform_plan)
        accumulator = PowerAccumulator(platform_plan.block_names())
        ctx = make_ctx(
            pe_name="pe0",
            accumulator=accumulator,
            thermal=model,
            horizon=10.0,
            energy=50.0,  # 5 W average over the horizon
        )
        policy = ThermalPolicy(weight=1.0)
        expected = model.average_temperature({"pe0": 5.0})
        assert policy.penalty(ctx) == pytest.approx(expected)

    def test_thermal_pe_to_block_mapping(self, platform_plan):
        model = HotSpotModel(platform_plan)
        accumulator = PowerAccumulator(["cpu"])
        ctx = make_ctx(
            pe_name="cpu",
            accumulator=accumulator,
            thermal=model,
            horizon=10.0,
            energy=50.0,
            pe_to_block={"cpu": "pe2"},
        )
        policy = ThermalPolicy(weight=1.0)
        expected = model.average_temperature({"pe2": 5.0})
        assert policy.penalty(ctx) == pytest.approx(expected)

    def test_weights_scale_linearly(self):
        ctx = make_ctx()
        assert TaskPowerPolicy(4.0).penalty(ctx) == pytest.approx(
            2.0 * TaskPowerPolicy(2.0).penalty(ctx)
        )

    def test_requires_thermal_flags(self):
        assert ThermalPolicy.requires_thermal
        assert not BaselinePolicy.requires_thermal
        assert not TaskEnergyPolicy.requires_thermal
