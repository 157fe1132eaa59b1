"""The argparse CLI: subcommands, exit codes, legacy shorthand."""

import json

import pytest

from repro.cli import main
from repro.experiments.runner import main as experiments_main
from repro.flow import platform_spec


class TestListCommand:
    def test_list_all_sections(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for section in (
            "flows:", "policies:", "floorplanners:", "thermal-solvers:",
            "benchmarks:", "experiments:",
        ):
            assert section in out

    def test_list_single_section(self, capsys):
        assert main(["list", "policies"]) == 0
        out = capsys.readouterr().out
        assert "thermal-peak" in out
        assert "floorplanners:" not in out

    def test_list_unknown_section_exits_2(self, capsys):
        assert main(["list", "gizmos"]) == 2
        assert "available" in capsys.readouterr().err


class TestRunCommand:
    def test_run_prints_row(self, capsys):
        assert main(["run", "--benchmark", "Bm1", "--policy", "heuristic3"]) == 0
        out = capsys.readouterr().out
        assert "Bm1" in out and "heuristic3" in out

    def test_run_json_output(self, capsys):
        assert main(["run", "--benchmark", "Bm1", "--policy", "baseline",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["row"]["benchmark"] == "Bm1"
        assert payload["spec"]["policy"]["name"] == "baseline"
        assert "spec_hash" in payload["provenance"]

    def test_run_from_spec_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(platform_spec("Bm2", policy="thermal").to_json())
        assert main(["run", "--spec", str(path)]) == 0
        assert "Bm2" in capsys.readouterr().out

    def test_run_save_spec(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["run", "--benchmark", "Bm1", "--policy", "baseline",
                     "--save-spec", str(path)]) == 0
        capsys.readouterr()
        saved = json.loads(path.read_text())
        assert saved["policy"]["name"] == "baseline"

    def test_run_unknown_policy_exits_1(self, capsys):
        assert main(["run", "--benchmark", "Bm1", "--policy", "voodoo"]) == 1
        assert "unknown DC policy" in capsys.readouterr().err

    def test_run_cosynthesis_floorplanner_mismatch_exits_1(self, capsys):
        # regression: used to crash with a raw TypeError (duplicate
        # floorplan kwarg) before reaching the flow's own validation
        assert main(["run", "--flow", "cosynthesis", "--floorplanner",
                     "annealing"]) == 1
        assert "genetic" in capsys.readouterr().err

    def test_run_dvfs_flag(self, capsys):
        assert main(["run", "--benchmark", "Bm1", "--policy", "thermal",
                     "--dvfs"]) == 0
        assert "dvfs:" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_with_cache(self, tmp_path, capsys):
        argv = ["sweep", "--benchmarks", "Bm1", "--policies", "baseline",
                "heuristic3", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 cached" in first
        assert main(argv) == 0
        assert "2 cached" in capsys.readouterr().out

    def test_sweep_json_rows(self, capsys):
        assert main(["sweep", "--benchmarks", "Bm1", "--policies",
                     "baseline", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["benchmark"] == "Bm1"


class TestExperimentsCommand:
    def test_list_prints_ids(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["figure1", "table1", "table2", "table3"]

    def test_unknown_id_exits_2(self, capsys):
        assert main(["experiments", "tableX"]) == 2
        err = capsys.readouterr().err
        assert "tableX" in err and "table1" in err

    def test_legacy_bare_id_shorthand(self, capsys):
        # `python -m repro table3 ...` rewrites to the experiments
        # subcommand; --list short-circuits before anything heavy runs.
        assert main(["table3", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert "table3" in out

    def test_runner_main_direct(self, capsys):
        assert experiments_main(["--list"]) == 0
        assert capsys.readouterr().out.split() == [
            "figure1", "table1", "table2", "table3",
        ]
        assert experiments_main(["nope"]) == 2
        assert "available" in capsys.readouterr().err


class TestTopLevel:
    def test_no_args_prints_help(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        for sub in ("run", "sweep", "experiments", "list"):
            assert sub in out

    def test_help_documents_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for sub in ("run", "sweep", "experiments", "list"):
            assert sub in out


class TestBenchCommand:
    def test_reports_milliseconds_below_the_hundredth(self, capsys):
        args = ["bench", "--benchmarks", "Bm1", "--policies", "thermal"]
        assert main(args + ["--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["elapsed_ms"] > 0
        assert row["run_ms"] > 0
        assert "elapsed_s" not in row

        assert main(args) == 0
        _, header, _, line = capsys.readouterr().out.splitlines()
        cells = dict(zip(header.split(), line.split()))
        assert cells["elapsed_ms"] != "0.00"
        assert float(cells["elapsed_ms"]) > 0
        assert len(cells["elapsed_ms"].split(".")[1]) == 3  # µs digit
