"""Tests for the experiment drivers (reduced configurations for speed).

The full-budget runs live in benchmarks/; here each driver is exercised on
a subset with a fast co-synthesis configuration, checking row structure and
the paper's qualitative shape.
"""

import pytest

from repro.cosynth.framework import CoSynthesisConfig
from repro.errors import ExperimentError
from repro.experiments.figure1 import format_figure1, run_figure1
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.experiments.table1 import TABLE1_POLICIES, format_table1, run_table1
from repro.experiments.table2 import format_table2, run_table2, table2_reductions
from repro.experiments.table3 import format_table3, run_table3, table3_reductions
from repro.floorplan.genetic import GeneticConfig
from repro.flow.spec import GraphSourceSpec, LibrarySpec
from repro.scenarios import build_workload
from repro.taskgraph.benchmarks import BENCHMARK_NAMES

FAST = CoSynthesisConfig(
    max_pes=3,
    screening_keep=2,
    refine_iterations=1,
    genetic_config=GeneticConfig(population_size=8, generations=4),
)


class TestWorkloads:
    """The benchmark workloads every experiment evaluates on."""

    def test_names_match_paper(self):
        assert list(BENCHMARK_NAMES) == ["Bm1", "Bm2", "Bm3", "Bm4"]

    def test_workload_cached(self):
        source = GraphSourceSpec(kind="benchmark", name="Bm1")
        first = build_workload(source, LibrarySpec())[0]
        assert build_workload(source, LibrarySpec())[0] is first

    def test_all_workloads_cover_suite(self):
        sources = [
            GraphSourceSpec(kind="benchmark", name=name) for name in BENCHMARK_NAMES
        ]
        graphs = [build_workload(source, LibrarySpec())[0] for source in sources]
        assert [g.name for g in graphs] == list(BENCHMARK_NAMES)

    def test_library_covers_graph(self):
        graph, library = build_workload(
            GraphSourceSpec(kind="benchmark", name="Bm3"), LibrarySpec()
        )
        types = {t.task_type for t in graph}
        assert types <= set(library.task_types())


class TestTable1:
    def test_platform_rows_structure(self):
        rows = run_table1(
            benchmarks=["Bm1"], include_cosynthesis=False, config=FAST
        )
        assert len(rows) == len(TABLE1_POLICIES)
        for row in rows:
            assert row["architecture"] == "platform"
            assert row["meets_deadline"]
            assert row["max_temp"] >= row["avg_temp"]
            assert "paper_max_temp" in row

    def test_cosynthesis_rows_structure(self):
        rows = run_table1(
            benchmarks=["Bm1"],
            policies=["baseline", "heuristic3"],
            include_platform=False,
            config=FAST,
        )
        assert len(rows) == 2
        assert all(r["architecture"] == "co-synthesis" for r in rows)

    def test_format_contains_paper_columns(self):
        rows = run_table1(
            benchmarks=["Bm1"], include_cosynthesis=False, config=FAST
        )
        text = format_table1(rows)
        assert "Table 1" in text
        assert "paper_max_temp" in text


class TestTable2:
    def test_rows_and_reductions(self):
        rows = run_table2(benchmarks=["Bm1"], config=FAST)
        assert len(rows) == 2
        approaches = {r["approach"] for r in rows}
        assert approaches == {"power_aware", "thermal_aware"}
        reductions = table2_reductions(rows)
        assert set(reductions) == {"max_temp_reduction", "avg_temp_reduction"}

    def test_format_mentions_paper_targets(self):
        rows = run_table2(benchmarks=["Bm1"], config=FAST)
        text = format_table2(rows)
        assert "10.9" in text and "6.95" in text


@pytest.fixture(scope="module")
def table2_full():
    """Table 2 at the full co-synthesis budget, all four benchmarks."""
    return run_table2()


class TestTable2Fidelity:
    """The paper's Table 2 claim, pinned at this seed: thermal-aware
    co-synthesis runs cooler than power-aware on both aggregate metrics.

    Per benchmark the claim does not hold everywhere (Bm1's average is
    0.09 C warmer under the thermal flow), so only the aggregate is
    asserted one-sided; the figures themselves are pinned exactly.
    """

    def test_thermal_lowers_max_and_avg_temperature(self, table2_full):
        reductions = table2_reductions(table2_full)
        assert reductions["max_temp_reduction"] > 0.0
        assert reductions["avg_temp_reduction"] > 0.0
        assert round(reductions["max_temp_reduction"], 2) == 4.68
        assert round(reductions["avg_temp_reduction"], 2) == 5.06

    def test_every_row_meets_deadline(self, table2_full):
        assert len(table2_full) == 8
        for row in table2_full:
            assert row["meets_deadline"], (row["benchmark"], row["approach"])


class TestTable3:
    def test_thermal_shape_on_full_suite(self):
        """Table 3 runs the (fast) platform flow, so the full suite is
        affordable here — and the paper's shape must hold on it."""
        rows = run_table3()
        assert len(rows) == 8
        reductions = table3_reductions(rows)
        assert reductions["max_temp_reduction"] > 0.0
        assert reductions["avg_temp_reduction"] > 0.0
        for row in rows:
            assert row["meets_deadline"]

    def test_thermal_cooler_per_benchmark(self):
        rows = run_table3()
        by_benchmark = {}
        for row in rows:
            by_benchmark.setdefault(row["benchmark"], {})[row["approach"]] = row
        for name, pair in by_benchmark.items():
            assert (
                pair["thermal_aware"]["avg_temp"] <= pair["power_aware"]["avg_temp"]
            ), name

    def test_thermal_weight_override(self):
        rows = run_table3(benchmarks=["Bm1"], thermal_weight=0.0)
        thermal = [r for r in rows if r["approach"] == "thermal_aware"][0]
        power = [r for r in rows if r["approach"] == "power_aware"][0]
        # with zero weight the thermal policy degenerates: no reduction
        assert thermal["avg_temp"] >= power["avg_temp"] - 3.0

    def test_format_mentions_paper_targets(self):
        rows = run_table3(benchmarks=["Bm1"])
        text = format_table3(rows)
        assert "9.75" in text and "5.02" in text


class TestFigure1:
    def test_both_flows_traced(self):
        traces = run_figure1("Bm1", config=FAST)
        assert [t.flow for t in traces] == ["co-synthesis", "platform"]
        for trace in traces:
            assert trace.stages
            assert trace.num_pes >= 1
            assert trace.die_area_mm2 > 0.0
            assert trace.meets_requirement

    def test_platform_flow_uses_four_pes(self):
        traces = run_figure1("Bm1", config=FAST)
        platform = [t for t in traces if t.flow == "platform"][0]
        assert platform.num_pes == 4

    def test_format_lists_stages(self):
        traces = run_figure1("Bm1", config=FAST)
        text = format_figure1(traces)
        assert "meets requirement" in text
        assert "HotSpot" in text


class TestRunner:
    def test_registry_covers_all_artefacts(self):
        assert set(EXPERIMENTS) == {"table1", "table2", "table3", "figure1"}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment("table9")

    def test_run_experiment_formats(self):
        text = run_experiment("table3", benchmarks=["Bm1"])
        assert "Table 3" in text
