"""The warm-state memo under every Flow (``repro.flow.memo``).

The load-bearing pins:

* **warm == cold** — a plain ``Flow()`` resolving through the warm
  process memo produces the same record (modulo provenance/timings) as
  a flow whose cache stores nothing, across every platform-flow feature;
* **lease == direct build** — a platform leased from the warm memo
  schedules exactly like one built by hand from the registries;
* **one cacheability rule** — ``registered`` and ``file`` graph sources,
  and platforms from registered floorplanners, are never memoised, so
  re-registering a name takes effect in ``run_flow``,
  ``build_workload`` and ``EngineCache`` alike;
* **private leases** — mutating a result's floorplan cannot change a
  later run;
* **bounded** — the process memo holds at most its default budget.
"""

import pytest

from repro.flow import (
    FLOORPLANNERS,
    FLOWS,
    THERMAL_SOLVERS,
    Flow,
    PrebuiltPlatform,
    platform_spec,
    register_floorplanner,
    register_flow,
    run_flow,
)
from repro.flow.memo import (
    DEFAULT_MAX_ENTRIES,
    PROCESS_MEMO,
    EngineCache,
    platform_cache_key,
)
from repro.floorplan.platform import grid_floorplan, row_floorplan
from repro.library.presets import default_platform
from repro.thermal.package import default_package
from repro.flow.spec import (
    CommSpec,
    ConditionalSpec,
    DVFSSpec,
    FloorplanSpec,
    FlowSpec,
    GraphSourceSpec,
    LeakageSpec,
    ThermalSpec,
    generated_source,
    registered_source,
)
from repro.obs import capture
from repro.scenarios import WORKLOADS, build_workload, register_workload
from repro.taskgraph.benchmarks import benchmark

#: Channels that legitimately differ between two runs of one spec.
VARIABLE_KEYS = ("provenance", "timings")


def comparable(result):
    record = result.as_record(suite="memo").to_dict()
    return {k: v for k, v in record.items() if k not in VARIABLE_KEYS}


def layout(floorplan):
    return [(block.name, block.rect) for block in floorplan]


def cold_flow():
    return Flow(cache=EngineCache(max_entries=0))


EXPLICIT = FloorplanSpec(
    kind="explicit",
    placement=(
        ("pe0", 0.0, 0.0, 6.0, 6.0),
        ("pe1", 6.0, 0.0, 6.0, 6.0),
        ("pe2", 0.0, 6.0, 6.0, 6.0),
        ("pe3", 6.0, 6.0, 6.0, 6.0),
    ),
)

CASES = {
    **{
        f"{bm}-{policy}": platform_spec(bm, policy=policy)
        for bm in ("Bm1", "Bm2", "Bm3", "Bm4")
        for policy in ("heuristic3", "thermal")
    },
    "conditional": FlowSpec(
        flow="platform",
        graph=GraphSourceSpec(kind="conditional", name="video-frame"),
        conditional=ConditionalSpec(enabled=True),
    ),
    "dvfs": platform_spec("Bm2", dvfs=DVFSSpec(enabled=True)),
    "leakage": platform_spec("Bm2", leakage=LeakageSpec(enabled=True)),
    "shared-bus": platform_spec("Bm3", comm=CommSpec(kind="shared-bus")),
    "gridmodel": platform_spec("Bm1", thermal=ThermalSpec(solver="gridmodel")),
    "explicit-floorplan": platform_spec("Bm1", floorplan=EXPLICIT),
}


class TestWarmColdIdentity:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_process_memo_matches_cold_build(self, name):
        spec = CASES[name]
        Flow().run(spec)  # warm the process memo
        warm = Flow().run(spec)
        cold = cold_flow().run(spec)
        assert comparable(warm) == comparable(cold)

    def test_default_flow_uses_the_process_memo(self):
        assert Flow().cache is PROCESS_MEMO
        assert Flow(cache=None).cache is PROCESS_MEMO

    def test_mutating_a_result_floorplan_cannot_change_a_later_run(self):
        cache = EngineCache()
        spec = platform_spec("Bm2", policy="thermal")
        first = Flow(cache=cache).run(spec)  # a miss: the bundle keeps a copy
        expected = comparable(first)
        first.floorplan.place("intruder", 40.0, 40.0, 2.0, 2.0)
        second = Flow(cache=cache).run(spec)  # a hit: a private copy
        assert comparable(second) == expected
        second.floorplan.place("intruder", 40.0, 40.0, 2.0, 2.0)
        third = Flow(cache=cache).run(spec)
        assert "intruder" not in third.floorplan
        assert comparable(third) == expected
        assert cache.stats()["platforms"]["hits"] == 2


#: A flow kind that runs the built-in platform runner on a hand-built
#: platform instead of a lease.
DIRECT = "memo-test-direct"


def _direct_runner(spec, graph, library):
    architecture = default_platform()
    floorplan = FLOORPLANNERS.get("platform")(architecture, FloorplanSpec())
    thermal = THERMAL_SOLVERS.get("hotspot")(
        floorplan, default_package(), spec.thermal
    )
    prebuilt = PrebuiltPlatform(architecture, floorplan, thermal)
    return FLOWS.get("platform")(spec, graph, library, prebuilt=prebuilt)


class TestLeaseMatchesDirectBuild:
    @pytest.mark.parametrize("name", ["Bm1-thermal", "Bm4-heuristic3", "dvfs", "leakage"])
    def test_warm_lease_matches_hand_built_platform(self, name):
        if DIRECT not in FLOWS:
            register_flow(DIRECT, _direct_runner)
        spec = CASES[name]
        Flow().run(spec)  # warm the process memo
        warm = comparable(Flow().run(spec))
        direct = comparable(Flow().run(spec.with_(flow=DIRECT)))
        for record in (warm, direct):  # these name the flow kind
            for key in ("spec", "spec_hash", "flow"):
                del record[key]
            del record["row"]["flow"], record["row"]["spec_hash"]
        # the solve counters say where solves happened: a lease's query
        # engine was set up when its bundle was built, a hand-built
        # model sets one up on first use and counts those solves too
        leased = warm["diagnostics"].pop("thermal_query")
        built = direct["diagnostics"].pop("thermal_query")
        assert leased["queries"] == built["queries"]
        assert leased["engine_built"] == 1
        assert warm == direct


class TestDelegatingRunner:
    def test_three_argument_runner_leases_from_the_flow_cache(self):
        name = "memo-test-delegate"
        if name not in FLOWS:
            register_flow(
                name,
                lambda spec, graph, library: FLOWS.get("platform")(
                    spec, graph, library
                ),
            )
        spec = platform_spec("Bm1").with_(
            flow=name, thermal=ThermalSpec(ambient_c=41.5)
        )
        cache = EngineCache()
        for _ in range(2):
            result = Flow(cache=cache).run(spec)
        assert cache.stats()["platforms"]["hits"] == 1
        assert result.provenance["engine_cache"]["platform"] is True
        assert PROCESS_MEMO.platforms.get(platform_cache_key(spec)) is None


class TestCacheability:
    def test_reregistered_workload_takes_effect_everywhere(self):
        name = "memo-test-app"
        spec = platform_spec("Bm1", policy="thermal").with_(
            graph=registered_source(name)
        )
        bm2 = run_flow(platform_spec("Bm2", policy="thermal"))
        try:
            register_workload(name, lambda: benchmark("Bm1"))
            first = run_flow(spec)
            WORKLOADS.unregister(name)
            register_workload(name, lambda: benchmark("Bm2"))
            again = run_flow(spec)
            assert again.schedule.makespan != first.schedule.makespan
            assert again.evaluation == bm2.evaluation
            graph = build_workload(spec.graph, spec.library)[0]
            assert graph.name == benchmark("Bm2").name
            assert EngineCache().workload_for(spec)[0].name == graph.name
        finally:
            if name in WORKLOADS:
                WORKLOADS.unregister(name)

    def test_reregistered_floorplanner_takes_effect(self):
        name = "memo-test-layout"
        spec = platform_spec("Bm1", policy="thermal").with_(
            floorplan=FloorplanSpec(kind=name)
        )
        cache = EngineCache()
        try:
            register_floorplanner(name, lambda arch, _: grid_floorplan(arch))
            grid = layout(grid_floorplan(default_platform()))
            assert layout(run_flow(spec).floorplan) == grid
            assert layout(Flow(cache=cache).run(spec).floorplan) == grid
            FLOORPLANNERS.unregister(name)
            register_floorplanner(name, lambda arch, _: row_floorplan(arch))
            row = layout(row_floorplan(default_platform()))
            assert row != grid
            assert layout(run_flow(spec).floorplan) == row
            assert layout(Flow(cache=cache).run(spec).floorplan) == row
            assert cache.stats()["platform_bypasses"] == 2
            assert len(cache.platforms) == 0
        finally:
            if name in FLOORPLANNERS:
                FLOORPLANNERS.unregister(name)

    def test_provenance_marks_bypassed_stages(self):
        name = "memo-test-provenance"
        try:
            register_workload(name, lambda: benchmark("Bm1"))
            registered = platform_spec("Bm1").with_(graph=registered_source(name))
            assert run_flow(registered).provenance["engine_cache"] == {
                "workload": False, "platform": True,
            }
        finally:
            WORKLOADS.unregister(name)
        assert run_flow(CASES["gridmodel"]).provenance["engine_cache"] == {
            "workload": True, "platform": False,
        }

    def test_registered_workloads_are_never_stored(self):
        name = "memo-test-uncached"
        cache = EngineCache()
        spec = platform_spec("Bm1").with_(graph=registered_source(name))
        try:
            register_workload(name, lambda: benchmark("Bm1"))
            assert cache.workload_for(spec)[0] is not cache.workload_for(spec)[0]
            assert cache.stats()["workload_bypasses"] == 2
            assert len(cache.workloads) == 0
        finally:
            WORKLOADS.unregister(name)

    def test_build_workload_shares_the_flow_memo(self):
        spec = platform_spec("Bm3")
        first = build_workload(spec.graph, spec.library)
        again = build_workload(spec.graph, spec.library)
        assert again[0] is first[0] and again[1] is first[1]
        flow_pair = Flow().cache.workload_for(spec)
        assert flow_pair[0] is first[0] and flow_pair[1] is first[1]

    def test_process_memo_stays_within_its_budget(self):
        for seed in range(40):
            run_flow(
                platform_spec("Bm1", policy="heuristic3").with_(
                    graph=generated_source("layered", tasks=6, seed=1000 + seed)
                )
            )
        assert DEFAULT_MAX_ENTRIES == 32
        assert 0 < len(PROCESS_MEMO.workloads) <= DEFAULT_MAX_ENTRIES
        assert len(PROCESS_MEMO.platforms) <= DEFAULT_MAX_ENTRIES


class TestPlatformSpans:
    @staticmethod
    def platform_spans(spec, cache):
        with capture() as recorder:
            Flow(cache=cache).run(spec)
        return {
            s["name"]: s["attrs"]
            for s in recorder.export_spans()
            if s["name"] in ("flow.floorplan", "flow.thermal_build")
        }

    def test_miss_then_hit_mark_cached(self):
        cache = EngineCache()
        spec = platform_spec("Bm4", policy="thermal")
        cold = self.platform_spans(spec, cache)
        warm = self.platform_spans(spec, cache)
        assert set(cold) == set(warm) == {"flow.floorplan", "flow.thermal_build"}
        assert all(s["cached"] is False for s in cold.values())
        assert all(s["cached"] is True for s in warm.values())
        assert warm["flow.thermal_build"]["solver"] == "hotspot"

    def test_second_run_through_process_memo_is_cached(self):
        spec = platform_spec("Bm1", policy="thermal")
        self.platform_spans(spec, None)
        spans = self.platform_spans(spec, None)
        assert {name: s["cached"] for name, s in spans.items()} == {
            "flow.floorplan": True,
            "flow.thermal_build": True,
        }

    def test_bypassed_solver_still_emits_uncached_spans(self):
        spec, cache = CASES["gridmodel"], EngineCache()
        for _ in range(2):
            spans = self.platform_spans(spec, cache)
            assert [s["cached"] for s in spans.values()] == [False, False]
