"""Co-synthesis floorplan memos: one area GA per allocation, one HotSpot
model per distinct plan (the GA, phase 2 and evaluation together), and
neither outliving one ``run`` call."""

import pytest

from repro.core.heuristics import TaskEnergyPolicy, ThermalPolicy
from repro.core.scheduler import ListScheduler
from repro.cosynth import framework
from repro.cosynth.framework import CoSynthesisConfig, CoSynthesisFramework
from repro.floorplan.genetic import GeneticConfig
from repro.library.presets import library_for_graph
from repro.obs import capture
from repro.taskgraph.benchmarks import benchmark
from repro.thermal.hotspot import HotSpotModel

#: Small GA, but the default two refinement iterations: without the memo
#: the area GA would run twice for every kept allocation.
SMALL = CoSynthesisConfig(
    max_pes=3,
    screening_keep=4,
    genetic_config=GeneticConfig(population_size=8, generations=5),
)


def run(framework_, policy, name="Bm1"):
    graph = benchmark(name)
    return framework_.run(graph, library_for_graph(graph), policy)


def snapshot(result):
    return (
        result.architecture.name,
        [(block.name, block.rect) for block in result.floorplan],
        list(result.schedule),
        result.evaluation,
        result.screening_rows,
        result.hotspot_queries,
    )


@pytest.fixture
def recorded(monkeypatch):
    """Record phase-2 architectures and every ``evolve_floorplan`` call."""
    kept, evolved = [], []

    class RecordingScheduler(ListScheduler):
        def __init__(self, graph, architecture, *args, **kwargs):
            super().__init__(graph, architecture, *args, **kwargs)
            if self.thermal is not None:
                kept.append(architecture)

    real_evolve = framework.evolve_floorplan

    def evolve(architecture, *args, **kwargs):
        evolved.append(architecture.name)
        return real_evolve(architecture, *args, **kwargs)

    monkeypatch.setattr(framework, "ListScheduler", RecordingScheduler)
    monkeypatch.setattr(framework, "evolve_floorplan", evolve)
    return kept, evolved


def multi_pe(architectures):
    """Names of the distinct multi-PE allocations among *architectures*."""
    return {a.name for a in architectures if len(a) > 1}


class TestMemoScope:
    @pytest.mark.parametrize("policy", [TaskEnergyPolicy(), ThermalPolicy()])
    def test_consecutive_runs_are_equal(self, policy):
        fw = CoSynthesisFramework(config=SMALL)
        first = snapshot(run(fw, policy))
        second = snapshot(run(fw, policy))
        fresh = snapshot(run(CoSynthesisFramework(config=SMALL), policy))
        assert first == second == fresh

    def test_run_leaves_no_state_on_the_framework(self):
        fw = CoSynthesisFramework(config=SMALL)
        before = dict(vars(fw))
        catalogue = list(fw.catalogue)
        run(fw, ThermalPolicy())
        assert vars(fw).keys() == before.keys()
        assert all(vars(fw)[key] is value for key, value in before.items())
        assert fw.catalogue == catalogue


class TestFloorplanCounts:
    def test_area_ga_runs_once_per_kept_allocation(self, recorded):
        kept, evolved = recorded
        run(CoSynthesisFramework(config=SMALL), TaskEnergyPolicy())
        # refinement iteration 2 (and any backoff step) reuses the plan
        assert len(kept) >= 2 * SMALL.screening_keep
        assert sorted(evolved) == sorted(multi_pe(kept))

    def test_thermal_ga_factorises_once_per_distinct_plan(self, monkeypatch, recorded):
        kept, evolved = recorded
        builds = []  # (inside the GA, plan key) per HotSpotModel build
        inside_ga = [False]
        real_init = HotSpotModel.__init__
        traced_evolve = framework.evolve_floorplan

        def counting_init(self, plan, package=None):
            key = tuple((block.name, block.rect) for block in plan)
            builds.append((inside_ga[0], key))
            real_init(self, plan, package)

        def evolve(*args, **kwargs):
            inside_ga[0] = True
            try:
                return traced_evolve(*args, **kwargs)
            finally:
                inside_ga[0] = False

        # every build anywhere: the GA objective, phase 2 and evaluation
        monkeypatch.setattr(HotSpotModel, "__init__", counting_init)
        monkeypatch.setattr(framework, "evolve_floorplan", evolve)
        fw = CoSynthesisFramework(config=SMALL)
        result = run(fw, ThermalPolicy())
        assert len(evolved) > 1
        keys = [key for _, key in builds]
        assert keys and len(keys) == len(set(keys))
        # the GA's thermal objective queries the memo's models ...
        assert any(inside for inside, _ in builds)
        # ... phase 2 and evaluation build only plans the GA never saw
        # (single-PE platform plans), and use forks for the rest
        for inside, key in builds:
            assert inside or len(key) == 1
        assert len(kept) >= 2 * SMALL.screening_keep
        assert result.hotspot_queries > 0
        # the memo is one run's: a second run builds the same plans again
        builds.clear()
        assert snapshot(run(fw, ThermalPolicy())) == snapshot(result)
        assert [key for _, key in builds] == keys


class TestEvolveSpan:
    def test_one_span_per_distinct_multi_pe_kept_allocation(self, recorded):
        kept, _ = recorded
        graph = benchmark("Bm1")
        with capture() as recorder:
            CoSynthesisFramework(config=SMALL).run(
                graph, library_for_graph(graph), TaskEnergyPolicy()
            )
        spans = [s for s in recorder.export_spans() if s["name"] == "floorplan.evolve"]
        assert len(spans) == len(multi_pe(kept))
        ga = SMALL.genetic_config
        for span in spans:
            attrs = span["attrs"]
            assert attrs["objective"] == "area"
            assert attrs["blocks"] >= 2
            assert attrs["evaluations"] == ga.population_size * (ga.generations + 1)
            assert 1 <= attrs["distinct"] <= attrs["evaluations"]
