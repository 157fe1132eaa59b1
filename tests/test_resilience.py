"""repro.resilience: fault injection, retry policies, batch chaos.

The load-bearing pins: (1) a disarmed harness changes nothing — a
fault-free run with retry machinery enabled is identical (modulo the
variable provenance/timings/diagnostics channels) to a plain run;
(2) seeded plans are deterministic; (3) injected crashes/stragglers are
recovered with every recovered result identical to the fault-free one;
(4) a poison spec quarantines into the report instead of killing the
sweep.
"""

import pytest

from repro.errors import InjectedFaultError, ResilienceError
from repro.flow import platform_spec, run_many, spec_hash
from repro.flow.batch import iter_results
from repro.resilience import (
    FAULT_SITES,
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    RetryBudget,
    RetryPolicy,
    RunReport,
    active_injector,
    arm,
    check_fault,
    disarm,
    inject,
)
from repro.resilience import retry as retry_mod

#: Channels that legitimately differ between runs of the same spec.
VARIABLE_KEYS = ("provenance", "timings", "diagnostics")

#: Backoffs collapse to zero so chaos tests run at full speed.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.0, max_delay_s=0.0)


def comparable(result):
    trimmed = result.as_dict()
    for key in VARIABLE_KEYS:
        trimmed.pop(key, None)
    return trimmed


def sweep_specs(n=4):
    weights = [round(0.1 + 0.8 * i / max(1, n - 1), 3) for i in range(n)]
    return [
        platform_spec("Bm1", policy="thermal", weight=w) for w in weights
    ]


@pytest.fixture(autouse=True)
def _always_disarmed():
    """No test leaks an armed plan into its neighbours."""
    disarm()
    yield
    disarm()


# ----------------------------------------------------------------------
# plans and the injector
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ResilienceError, match="unknown fault site"):
            FaultSpec(site="batch.no-such-site")

    def test_spec_matches_its_ordinal_window(self):
        fault = FaultSpec(site="batch.worker-crash", ordinal=2, count=3)
        assert [fault.matches(i) for i in range(6)] == [
            False, False, True, True, True, False,
        ]

    def test_plan_round_trips_through_dict(self):
        plan = FaultPlan.seeded(
            11, {"batch.worker-crash": 2, "store.torn-index": 1}
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_seeded_plans_are_deterministic(self):
        sites = {"batch.worker-crash": 2, "batch.worker-slow": 1}
        assert FaultPlan.seeded(7, sites) == FaultPlan.seeded(7, sites)
        assert FaultPlan.seeded(7, sites) != FaultPlan.seeded(8, sites)

    def test_seeded_ordinals_are_distinct_and_windowed(self):
        plan = FaultPlan.seeded(3, {"batch.worker-crash": 5}, window=8)
        ordinals = [f.ordinal for f in plan.faults]
        assert len(set(ordinals)) == 5
        assert all(0 <= o < 8 for o in ordinals)

    def test_more_faults_than_window_rejected(self):
        with pytest.raises(ResilienceError, match="window"):
            FaultPlan.seeded(0, {"batch.worker-crash": 9}, window=8)


class TestInjector:
    def test_disarmed_gate_is_a_no_op(self):
        assert active_injector() is None
        assert check_fault("batch.worker-crash") is None

    def test_armed_gate_fires_at_its_ordinal_only(self):
        plan = FaultPlan(faults=(
            FaultSpec(site="store.torn-index", ordinal=1),
        ))
        with inject(plan) as injector:
            hits = [check_fault("store.torn-index") for _ in range(3)]
        assert [h is not None for h in hits] == [False, True, False]
        assert injector.fired() == ({"site": "store.torn-index", "ordinal": 1},)
        assert injector.report()["sites_seen"] == {"store.torn-index": 3}

    def test_plans_do_not_nest(self):
        arm(FaultPlan())
        with pytest.raises(ResilienceError, match="already armed"):
            arm(FaultPlan())

    def test_every_site_is_documented_in_the_tuple(self):
        # the taxonomy table in docs/RESILIENCE.md mirrors this tuple
        assert FAULT_SITES == (
            "batch.worker-crash",
            "batch.worker-slow",
            "batch.cache-corrupt",
            "store.torn-index",
            "store.corrupt-blob",
            "serve.connection-reset",
            "serve.handler-exception",
        )


# ----------------------------------------------------------------------
# retry policy / budget / breaker
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.1, multiplier=2.0,
            max_delay_s=0.3, jitter=0.0,
        )
        assert policy.delays() == (0.1, 0.2, 0.3, 0.3)

    def test_jitter_shaves_downward_and_is_deterministic(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter=0.5, seed=3)
        once = policy.delay_s(1, key="spec-a")
        assert once == policy.delay_s(1, key="spec-a")
        assert 0.5 <= once <= 1.0
        assert once != policy.delay_s(1, key="spec-b")

    def test_call_retries_then_reraises_the_final_failure(self):
        attempts = []

        def flaky():
            attempts.append(1)
            raise ValueError(f"boom {len(attempts)}")

        with pytest.raises(ValueError, match="boom 3"):
            FAST_RETRY.call(flaky, retry_on=(ValueError,))
        assert len(attempts) == 3

    def test_call_stops_retrying_on_success(self):
        attempts = []

        def eventually():
            attempts.append(1)
            if len(attempts) < 2:
                raise KeyError("once")
            return "done"

        assert FAST_RETRY.call(eventually, retry_on=(KeyError,)) == "done"
        assert len(attempts) == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ResilienceError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ResilienceError):
            RetryPolicy(multiplier=0.5)


class TestRetryBudget:
    def test_budget_exhausts(self):
        budget = RetryBudget(2)
        assert [budget.take(), budget.take(), budget.take()] == [
            True, True, False,
        ]
        assert budget.used == 2
        assert budget.remaining == 0


class TestCircuitBreaker:
    def test_opens_at_threshold_and_recovers_via_probe(self, monkeypatch):
        clock = [0.0]
        monkeypatch.setattr(retry_mod, "now", lambda: clock[0])
        breaker = CircuitBreaker(threshold=2, cooldown_s=10.0)
        assert breaker.allow("k")
        breaker.record_failure("k")
        assert breaker.state("k") == "closed"
        breaker.record_failure("k")
        assert breaker.state("k") == "open"
        assert not breaker.allow("k")
        # cooldown elapses: exactly one half-open probe gets through
        clock[0] = 10.0
        assert breaker.allow("k")
        assert not breaker.allow("k")
        breaker.record_success("k")
        assert breaker.state("k") == "closed"
        assert breaker.allow("k")

    def test_failed_probe_reopens_for_a_fresh_cooldown(self, monkeypatch):
        clock = [0.0]
        monkeypatch.setattr(retry_mod, "now", lambda: clock[0])
        breaker = CircuitBreaker(threshold=1, cooldown_s=5.0)
        breaker.record_failure("k")
        clock[0] = 5.0
        assert breaker.allow("k")     # the probe
        breaker.record_failure("k")   # probe failed
        clock[0] = 9.0                # < fresh cooldown from t=5
        assert not breaker.allow("k")
        assert breaker.open_keys() == ("k",)

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=60.0)
        breaker.record_failure("bad")
        assert not breaker.allow("bad")
        assert breaker.allow("good")
        assert breaker.snapshot()["circuits"]["bad"]["state"] == "open"


# ----------------------------------------------------------------------
# batch chaos
# ----------------------------------------------------------------------
#: Both executors behind ``iter_results`` climb one retry ladder; the
#: shared cases below run against each of them.
BOTH_EXECUTORS = pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])


class TestBatchFaultFree:
    @BOTH_EXECUTORS
    def test_retry_machinery_changes_nothing_when_disarmed(self, workers):
        specs = sweep_specs(2)
        baseline = run_many(specs)
        report = RunReport()
        armed = run_many(specs, workers=workers, retry=FAST_RETRY, report=report)
        assert [comparable(r) for r in armed] == [
            comparable(r) for r in baseline
        ]
        assert report.ok()
        assert report.resubmissions == 0
        assert report.as_dict()["pool_restarts"] == 0


class TestBatchChaosSerial:
    @BOTH_EXECUTORS
    def test_injected_crash_is_resubmitted_and_recovered(self, workers):
        specs = sweep_specs(2)
        baseline = run_many(specs)
        report = RunReport()
        plan = FaultPlan(faults=(
            FaultSpec(site="batch.worker-crash", ordinal=0),
        ))
        with inject(plan) as injector:
            recovered = run_many(
                specs, workers=workers, retry=FAST_RETRY, report=report
            )
        assert [comparable(r) for r in recovered] == [
            comparable(r) for r in baseline
        ]
        assert report.ok()
        assert report.resubmissions == 1
        assert injector.fired()[0]["site"] == "batch.worker-crash"
        # the injector's story rides the report artifact
        assert report.as_dict()["faults"]["injected"] == 1

    def test_injected_crash_without_retry_raises(self):
        plan = FaultPlan(faults=(
            FaultSpec(site="batch.worker-crash", ordinal=0),
        ))
        with inject(plan):
            with pytest.raises(InjectedFaultError, match="worker-crash"):
                run_many(sweep_specs(1))

    @BOTH_EXECUTORS
    def test_poison_spec_quarantines_instead_of_aborting(self, workers):
        specs = sweep_specs(2)
        report = RunReport()
        # crash spec 0's every attempt; spec 1 completes.  Serially spec 0
        # runs at ordinals 0 and 1 and ordinal 3 is never reached; the
        # pool submits both specs up front (0, 1), and after the restart
        # resubmits spec 1 (2) before spec 0 (3)
        plan = FaultPlan(faults=(
            FaultSpec(site="batch.worker-crash", ordinal=0, count=2),
            FaultSpec(site="batch.worker-crash", ordinal=3),
        ))
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0, max_delay_s=0.0)
        with inject(plan):
            out = run_many(specs, workers=workers, retry=policy, report=report)
        assert out[0] is None
        assert out[1] is not None
        assert not report.ok()
        assert report.poisoned() == (spec_hash(specs[0]),)
        assert report.lost_indices() == (0,)
        assert report.quarantined[0]["attempts"] == 2

    def test_slow_fault_sleeps_but_serial_path_still_completes(self):
        specs = sweep_specs(1)
        plan = FaultPlan(faults=(
            FaultSpec(site="batch.worker-slow", ordinal=0, delay_s=0.01),
        ))
        with inject(plan) as injector:
            out = run_many(specs, retry=FAST_RETRY)
        assert out[0] is not None
        assert injector.fired()[0]["site"] == "batch.worker-slow"

    @BOTH_EXECUTORS
    def test_iter_results_streams_none_free_pairs(self, workers):
        specs = sweep_specs(2)
        plan = FaultPlan(faults=(
            FaultSpec(site="batch.worker-crash", ordinal=0),
        ))
        with inject(plan):
            pairs = list(iter_results(specs, workers=workers, retry=FAST_RETRY))
        assert [index for index, _ in pairs] == [0, 1]
        assert all(result is not None for _, result in pairs)

    def test_seeded_plan_fires_and_reports_exactly(self):
        """The serial fault sequence is pinned: gates fire in execution
        order, so the fired log and the report are fully determined."""
        specs = [
            platform_spec(bench, policy="thermal", weight=round(0.1 + 0.15 * i, 2))
            for bench in ("Bm1", "Bm2")
            for i in range(6)
        ]
        plan = FaultPlan.seeded(
            1, {"batch.worker-crash": 3, "batch.worker-slow": 1},
            slow_delay_s=0.01,
        )
        policy = RetryPolicy(max_attempts=2, base_delay_s=0, max_delay_s=0)
        report = RunReport()
        with inject(plan) as injector:
            out = run_many(specs, retry=policy, report=report)
        assert injector.fired() == (
            {"site": "batch.worker-crash", "ordinal": 7},
            {"site": "batch.worker-slow", "ordinal": 7},
            {"site": "batch.worker-crash", "ordinal": 12},
            {"site": "batch.worker-crash", "ordinal": 13},
        )
        summary = report.as_dict()
        summary.pop("faults")
        assert summary == {
            "ok": False,
            "resubmitted": [
                {"spec_hash": "62ec780906f165836224", "attempt": 1,
                 "error": "InjectedFaultError"},
                {"spec_hash": "b6ae373c8d8d75040aaa", "attempt": 1,
                 "error": "InjectedFaultError"},
            ],
            "quarantined": [
                {"spec_hash": "b6ae373c8d8d75040aaa", "indices": [11],
                 "error": "InjectedFaultError: injected fault at "
                          "'batch.worker-crash' (ordinal 13)",
                 "attempts": 2},
            ],
            "timed_out": [],
            "pool_restarts": 0,
            "store_retries": 0,
        }
        assert [i for i, r in enumerate(out) if r is None] == [11]


class TestBatchChaosPool:
    def test_corrupt_cache_pickle_is_treated_as_a_miss(self, tmp_path):
        specs = sweep_specs(1)
        plan = FaultPlan(faults=(
            FaultSpec(site="batch.cache-corrupt", ordinal=0),
        ))
        with inject(plan):
            first = run_many(specs, cache_dir=tmp_path)
        # the poisoned pickle must not serve a hit — nor crash the load
        second = run_many(specs, cache_dir=tmp_path)
        assert comparable(second[0]) == comparable(first[0])
        assert second[0].provenance.get("cache_hit") is not True

    def test_pool_crashes_and_straggler_recover_byte_identically(self):
        specs = sweep_specs(4)
        baseline = run_many(specs)
        report = RunReport()
        plan = FaultPlan(faults=(
            FaultSpec(site="batch.worker-crash", ordinal=0),
            FaultSpec(site="batch.worker-crash", ordinal=2),
            FaultSpec(site="batch.worker-slow", ordinal=1, delay_s=5.0),
        ))
        with inject(plan) as injector:
            recovered = run_many(
                specs, workers=2, retry=FAST_RETRY, timeout_s=1.0,
                report=report,
            )
        assert [comparable(r) for r in recovered] == [
            comparable(r) for r in baseline
        ]
        assert report.ok()
        fired = {(f["site"], f["ordinal"]) for f in injector.fired()}
        assert fired == {
            ("batch.worker-crash", 0),
            ("batch.worker-crash", 2),
            ("batch.worker-slow", 1),
        }
        # both crashes surface as one BrokenProcessPool event: the window
        # restart resubmits everything in-flight but books one resubmit
        assert report.resubmissions >= 1
        assert report.pool_restarts >= 1

    def test_straggler_times_out_and_is_resubmitted(self):
        specs = sweep_specs(2)
        baseline = run_many(specs)
        report = RunReport()
        plan = FaultPlan(faults=(
            FaultSpec(site="batch.worker-slow", ordinal=0, delay_s=30.0),
        ))
        with inject(plan):
            recovered = run_many(
                specs, workers=2, retry=FAST_RETRY, timeout_s=1.0,
                report=report,
            )
        assert [comparable(r) for r in recovered] == [
            comparable(r) for r in baseline
        ]
        assert report.ok()
        assert report.timeouts >= 1
        assert report.resubmissions >= 1

    def test_pool_meltdown_quarantines_every_spec(self):
        specs = sweep_specs(2)
        report = RunReport()
        plan = FaultPlan(faults=(
            FaultSpec(site="batch.worker-crash", ordinal=0, count=999),
        ))
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0, max_delay_s=0.0)
        with inject(plan):
            out = run_many(specs, workers=2, retry=policy, report=report)
        assert out == [None, None]
        assert len(report.poisoned()) == 2
        assert report.lost_indices() == (0, 1)

    def test_timeout_without_retry_raises_flow_error(self):
        from repro.errors import FlowError

        specs = sweep_specs(1)
        plan = FaultPlan(faults=(
            FaultSpec(site="batch.worker-slow", ordinal=0, delay_s=5.0),
        ))
        with inject(plan):
            with pytest.raises(FlowError, match="wait budget"):
                run_many(specs, workers=2, timeout_s=0.2)
