"""Tests for the extended thermal DC policies."""

import pytest

from repro.core.heuristics import POLICY_NAMES, ThermalPolicy, policy_by_name
from repro.core.scheduler import ListScheduler
from repro.errors import SchedulingError
from repro.extensions.policies import HybridThermalPolicy, ThermalPeakPolicy
from repro.floorplan.platform import platform_floorplan
from repro.library.presets import default_platform
from repro.power.model import PowerAccumulator
from repro.thermal.hotspot import HotSpotModel


def make_ctx(plan, pe_name, energy=50.0, horizon=10.0):
    from repro.core.heuristics import DCContext

    model = HotSpotModel(plan)
    accumulator = PowerAccumulator(plan.block_names())
    return DCContext(
        task_name="t",
        pe_name=pe_name,
        wcet=10.0,
        power=energy / 10.0,
        energy=energy,
        ready_time=0.0,
        start=0.0,
        finish=10.0,
        accumulator=accumulator,
        horizon=horizon,
        thermal=model,
        pe_to_block=None,
    ), model


class TestThermalPeakPolicy:
    def test_penalty_is_weighted_peak(self, platform_plan):
        ctx, model = make_ctx(platform_plan, "pe0")
        policy = ThermalPeakPolicy(weight=1.0)
        expected = model.peak_temperature({"pe0": 5.0})
        assert policy.penalty(ctx) == pytest.approx(expected)

    def test_requires_thermal_model(self, platform_plan):
        ctx, _ = make_ctx(platform_plan, "pe0")
        ctx.thermal = None
        with pytest.raises(SchedulingError):
            ThermalPeakPolicy().penalty(ctx)

    def test_peak_sees_concentration_where_average_cannot(self, platform_plan):
        """The motivating property: loading an already-hot PE raises the
        peak penalty much more than the average penalty."""
        model = HotSpotModel(platform_plan)
        accumulator = PowerAccumulator(platform_plan.block_names())
        accumulator.record("pe1", power=8.0, duration=10.0)  # pe1 is hot

        def ctx_for(pe):
            from repro.core.heuristics import DCContext

            return DCContext(
                task_name="t",
                pe_name=pe,
                wcet=10.0,
                power=5.0,
                energy=50.0,
                ready_time=0.0,
                start=0.0,
                finish=10.0,
                accumulator=accumulator,
                horizon=10.0,
                thermal=model,
                pe_to_block=None,
            )

        peak = ThermalPeakPolicy(weight=1.0)
        hot_choice = peak.penalty(ctx_for("pe1"))
        cool_choice = peak.penalty(ctx_for("pe3"))
        assert hot_choice > cool_choice + 1.0  # clearly separated


class TestHybridPolicy:
    def test_zero_fraction_matches_average_policy(self, platform_plan):
        ctx, _ = make_ctx(platform_plan, "pe0")
        hybrid = HybridThermalPolicy(weight=1.0, peak_fraction=0.0)
        average = ThermalPolicy(weight=1.0)
        assert hybrid.penalty(ctx) == pytest.approx(average.penalty(ctx))

    def test_unit_fraction_matches_peak_policy(self, platform_plan):
        ctx, _ = make_ctx(platform_plan, "pe0")
        hybrid = HybridThermalPolicy(weight=1.0, peak_fraction=1.0)
        peak = ThermalPeakPolicy(weight=1.0)
        assert hybrid.penalty(ctx) == pytest.approx(peak.penalty(ctx))

    def test_fraction_bounds_enforced(self):
        with pytest.raises(SchedulingError):
            HybridThermalPolicy(peak_fraction=1.5)
        with pytest.raises(SchedulingError):
            HybridThermalPolicy(peak_fraction=-0.1)


#: The thermal policy variants and the classes the core registry maps them to.
THERMAL_VARIANTS = {
    "thermal": ThermalPolicy,
    "thermal-peak": ThermalPeakPolicy,
    "thermal-hybrid": HybridThermalPolicy,
}


class TestRegistryAndScheduling:
    def test_registry_names(self):
        assert set(THERMAL_VARIANTS) <= set(POLICY_NAMES)
        for name, cls in THERMAL_VARIANTS.items():
            assert type(policy_by_name(name)) is cls

    def test_lookup_with_weight(self):
        policy = policy_by_name("thermal-peak", weight=3.0)
        assert policy.weight == 3.0

    def test_unknown_rejected(self):
        with pytest.raises(SchedulingError):
            policy_by_name("thermal-voodoo")

    def test_all_variants_produce_valid_schedules(self, bm1, bm1_library):
        platform = default_platform()
        scheduler = ListScheduler(
            bm1, platform, bm1_library,
            thermal=HotSpotModel(platform_floorplan(platform)),
        )
        for name in THERMAL_VARIANTS:
            schedule = scheduler.run(policy_by_name(name))
            schedule.validate(bm1_library)
            assert schedule.meets_deadline, name

    def test_peak_variant_no_worse_on_peak_metric(self, bm1, bm1_library):
        from repro.analysis.metrics import evaluate_schedule

        platform = default_platform()
        plan = platform_floorplan(platform)
        scheduler = ListScheduler(
            bm1, platform, bm1_library, thermal=HotSpotModel(plan)
        )
        avg_pol = scheduler.run(ThermalPolicy())
        peak_pol = scheduler.run(ThermalPeakPolicy())
        eval_avg = evaluate_schedule(avg_pol, floorplan=plan)
        eval_peak = evaluate_schedule(peak_pol, floorplan=plan)
        assert (
            eval_peak.max_temperature <= eval_avg.max_temperature + 1.5
        )
