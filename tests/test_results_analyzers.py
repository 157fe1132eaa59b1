"""The analyzer registry and the five built-in analyzers."""

import csv
import io
import json

import pytest

from repro.errors import FlowError, ResultError
from repro.flow import platform_spec, run_many
from repro.results import (
    ANALYZERS,
    AnalysisReport,
    RunSet,
    analyze,
    analyzer_by_name,
    analyzer_names,
    register_analyzer,
)


@pytest.fixture(scope="module")
def runs():
    specs = [
        platform_spec(bench, policy=policy)
        for bench in ("Bm1", "Bm2")
        for policy in ("heuristic3", "thermal")
    ]
    return RunSet(
        records=tuple(r.as_record(suite="t") for r in run_many(specs))
    )


class TestRegistry:
    def test_builtins_registered(self):
        assert {
            "summary", "compare", "pareto", "reliability", "deadline-misses",
        } <= set(analyzer_names())

    def test_hyphen_underscore_interchangeable(self):
        assert analyzer_by_name("deadline_misses") is analyzer_by_name(
            "deadline-misses"
        )

    def test_unknown_analyzer_raises(self):
        with pytest.raises(FlowError, match="unknown analyzer"):
            analyzer_by_name("nope")

    def test_user_analyzer_via_decorator(self, runs):
        name = "test-count-analyzer"

        @register_analyzer(name)
        def count(run_set, **options):
            return AnalysisReport(
                name=name,
                title="count",
                rows=({"n": len(run_set)},),
            )

        try:
            report = analyze(name, runs)
        finally:
            ANALYZERS.unregister(name)
        assert report.rows[0]["n"] == 4

    def test_analyzer_returning_wrong_type_rejected(self, runs):
        name = "test-bad-analyzer"
        register_analyzer(name, lambda run_set, **options: {"not": "a report"})
        try:
            with pytest.raises(ResultError, match="AnalysisReport"):
                analyze(name, runs)
        finally:
            ANALYZERS.unregister(name)


class TestSummary:
    def test_groups_by_flow_and_policy(self, runs):
        report = analyze("summary", runs)
        assert {row["policy"] for row in report.rows} == {"heuristic3", "thermal"}
        assert all(row["runs"] == 2 for row in report.rows)
        assert all(row["benchmarks"] == 2 for row in report.rows)
        assert all(row["deadline_misses"] == 0 for row in report.rows)

    def test_unknown_options_rejected(self, runs):
        with pytest.raises(ResultError, match="unknown options"):
            analyze("summary", runs, typo=1)


class TestCompare:
    def test_thermal_improves_on_heuristic3(self, runs):
        report = analyze("compare", runs, baseline="heuristic3")
        [row] = report.rows
        assert row["policy"] == "thermal"
        assert row["benchmarks"] == 2
        assert row["avg_delta"] > 0  # thermal lowers max temperature
        assert row["fraction_improved"] == 1.0

    def test_metric_option_accepts_dotted_and_bare_names(self, runs):
        bare = analyze("compare", runs, metric="avg_temperature",
                       baseline="heuristic3")
        dotted = analyze("compare", runs, metric="metrics.avg_temperature",
                         baseline="heuristic3")
        assert bare.rows == dotted.rows

    def test_unknown_baseline_rejected(self, runs):
        with pytest.raises(ResultError, match="baseline"):
            analyze("compare", runs, baseline="nope")

    def test_empty_runset_rejected(self):
        with pytest.raises(ResultError, match="nothing to compare"):
            analyze("compare", RunSet())


class TestPareto:
    def test_front_is_nondominated_subset(self, runs):
        report = analyze("pareto", runs)
        assert 1 <= len(report.rows) <= len(runs)
        front = {(row["benchmark"], row["policy"]) for row in report.rows}
        # thermal dominates heuristic3 on (power, max_temp) for these runs
        assert all(policy == "thermal" for _, policy in front)

    def test_objectives_option_as_csv_string(self, runs):
        report = analyze("pareto", runs, objectives="makespan")
        best = min(r.get("metrics.makespan") for r in runs)
        assert any(row["makespan"] == round(best, 3) for row in report.rows)

    def test_no_objectives_rejected(self, runs):
        with pytest.raises(ResultError, match="objective"):
            analyze("pareto", runs, objectives=())


class TestReliability:
    def test_factors_below_one_when_hotter_than_reference(self, runs):
        report = analyze("reliability", runs, ref_temp_c=65.0)
        assert len(report.rows) == 4
        assert all(row["system_mttf_factor"] < 1.0 for row in report.rows)
        assert all(row["worst_pe"] for row in report.rows)


class TestDeadlineMisses:
    def test_no_misses_reports_note(self, runs):
        report = analyze("deadline-misses", runs)
        assert report.rows == ()
        assert "every run met its deadline" in report.notes[0]

    def test_null_metrics_do_not_crash_reports(self, runs):
        """json_safe nulls non-finite metrics; summary and
        deadline-misses must aggregate around the holes."""
        from dataclasses import replace

        forged = []
        for record in runs:
            metrics = dict(record.metrics)
            metrics["max_temperature"] = None
            metrics["makespan"] = None
            metrics["meets_deadline"] = False
            forged.append(replace(record, metrics=metrics))
        holes = RunSet(records=tuple(forged))
        summary = analyze("summary", holes)
        assert all(row["mean_max_temp"] is None for row in summary.rows)
        misses = analyze("deadline-misses", holes)
        assert all(row["overrun"] is None for row in misses.rows)
        assert misses.render("table")  # renders, no TypeError

    def test_miss_rows_carry_overrun(self, runs):
        from dataclasses import replace

        forged = []
        for record in runs:
            metrics = dict(record.metrics)
            metrics["meets_deadline"] = False
            metrics["makespan"] = metrics["deadline"] + 10.0
            forged.append(replace(record, metrics=metrics))
        report = analyze("deadline_misses", RunSet(records=tuple(forged)))
        assert len(report.rows) == 4
        assert all(row["overrun"] == 10.0 for row in report.rows)


class TestRender:
    def test_table_render_includes_title_and_notes(self, runs):
        report = analyze("deadline-misses", runs)
        text = report.render("table")
        assert "deadline misses" in text
        assert "every run met its deadline" in text

    def test_json_render_parses(self, runs):
        payload = json.loads(analyze("summary", runs).render("json"))
        assert payload["analyzer"] == "summary"
        assert len(payload["rows"]) == 2

    def test_csv_render_parses(self, runs):
        text = analyze("summary", runs).render("csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "flow"
        assert len(rows) == 3

    def test_unknown_format_rejected(self, runs):
        with pytest.raises(ResultError, match="format"):
            analyze("summary", runs).render("xml")
