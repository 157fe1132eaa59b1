"""The ``repro.devtools.lint`` engine: rules, suppressions, CLI, self-lint.

Each rule gets a minimal fixture tree carrying exactly one known
violation, asserted down to rule id, file and line — so a rule that
drifts (or stops firing) fails here before it fails in CI.  The
repo-wide self-lint test is the live acceptance gate: the tree this
test suite ships in must lint clean.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.lint import (
    LintError,
    LintRule,
    Violation,
    build_rules,
    collect_files,
    register_rule,
    render_json,
    render_text,
    rule_names,
    run_lint,
)
from repro.devtools.lint.engine import LINT_RULES
from repro.results.analyzers import ANALYZERS

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_tree(tmp_path, sources, rules=None):
    """Write ``{relpath: source}`` under *tmp_path* and lint the tree."""
    for rel, source in sources.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return run_lint([tmp_path], rules=rules, root=tmp_path)


def one_violation(report, rule_id):
    """The single violation in *report*, asserted to carry *rule_id*."""
    assert [v.rule for v in report.violations] == [rule_id], report.violations
    return report.violations[0]


class TestDET001RandomGlobalState:
    def test_numpy_global_rand_flagged_with_location(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/core/sched.py":
                "import numpy as np\n"
                "\n"
                "def jitter():\n"
                "    return np.random.rand(3)\n",
        }, rules=["DET001"])
        violation = one_violation(report, "DET001")
        assert violation.path == "src/repro/core/sched.py"
        assert violation.line == 4

    def test_stdlib_global_calls_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/core/a.py":
                "import random\n"
                "random.shuffle([1, 2])\n",
            "src/repro/core/b.py":
                "from random import choice\n"
                "choice([1, 2])\n",
        }, rules=["DET001"])
        assert [(v.path, v.line) for v in report.violations] == [
            ("src/repro/core/a.py", 2),
            ("src/repro/core/b.py", 2),
        ]

    def test_seeded_constructors_and_rng_module_allowed(self, tmp_path):
        report = lint_tree(tmp_path, {
            # explicit generators are the sanctioned path
            "src/repro/core/ok.py":
                "import numpy as np\n"
                "import random\n"
                "gen = np.random.default_rng(7)\n"
                "r = random.Random(7)\n",
            # repro/rng.py itself is the one module allowed near the APIs
            "src/repro/rng.py":
                "import random\n"
                "def as_random(seed):\n"
                "    return random.Random(seed)\n",
            # non-library code (benchmarks, fixtures) is out of scope
            "benchmarks/bench.py":
                "import random\n"
                "random.random()\n",
        }, rules=["DET001"])
        assert report.ok


class TestDET002WallClock:
    def test_time_time_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/results/stamp.py":
                "import time\n"
                "\n"
                "def stamp():\n"
                "    return time.time()\n",
        }, rules=["DET002"])
        violation = one_violation(report, "DET002")
        assert (violation.path, violation.line) == (
            "src/repro/results/stamp.py", 4)

    def test_datetime_now_flagged_perf_counter_allowed(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/results/x.py":
                "import time\n"
                "from datetime import datetime\n"
                "elapsed = time.perf_counter()\n"
                "born = datetime.now()\n",
        }, rules=["DET002"])
        assert [(v.rule, v.line) for v in report.violations] == [("DET002", 4)]


class TestDET003UnorderedIteration:
    def test_for_over_set_literal_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/results/rows.py":
                "rows = []\n"
                "for name in {'b', 'a'}:\n"
                "    rows.append(name)\n",
        }, rules=["DET003"])
        violation = one_violation(report, "DET003")
        assert violation.line == 2

    def test_list_of_set_call_and_join_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/results/y.py":
                "names = list(set(['a', 'b']))\n"
                "text = ','.join({'a', 'b'})\n",
        }, rules=["DET003"])
        assert [v.line for v in report.violations] == [1, 2]

    def test_sorted_wrapper_and_reducers_allowed(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/results/ok.py":
                "for name in sorted({'b', 'a'}):\n"
                "    pass\n"
                "total = sum({1, 2})\n"
                "biggest = max({1, 2})\n",
        }, rules=["DET003"])
        assert report.ok


class TestSPEC001FrozenSpec:
    def test_unfrozen_spec_dataclass_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/flow/myspec.py":
                "from dataclasses import dataclass\n"
                "\n"
                "@dataclass\n"
                "class WidgetSpec:\n"
                "    name: str = 'w'\n",
        }, rules=["SPEC001"])
        violation = one_violation(report, "SPEC001")
        assert violation.line == 4  # anchored at the class statement
        assert "frozen=True" in violation.message

    def test_serialized_spec_with_non_json_field_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/flow/badspec.py":
                "from dataclasses import dataclass\n"
                "import numpy as np\n"
                "\n"
                "@dataclass(frozen=True)\n"
                "class MatrixSpec:\n"
                "    weights: np.ndarray = None\n"
                "    def to_dict(self):\n"
                "        return {}\n",
        }, rules=["SPEC001"])
        violation = one_violation(report, "SPEC001")
        assert "weights" in violation.message

    def test_registry_only_spec_skips_json_check(self, tmp_path):
        # no to_dict/from_dict and no _FlatSpec base: frozen is enough
        report = lint_tree(tmp_path, {
            "src/repro/scenarios/okspec.py":
                "from dataclasses import dataclass\n"
                "from typing import Callable, Optional, Tuple\n"
                "\n"
                "@dataclass(frozen=True)\n"
                "class HookSpec:\n"
                "    hook: Optional[Callable] = None\n"
                "    names: Tuple[str, ...] = ()\n",
        }, rules=["SPEC001"])
        assert report.ok


class TestPERF001DenseSolve:
    def test_cho_solve_in_scheduler_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/core/fastpath.py":
                "from scipy.linalg import cho_solve\n"
                "\n"
                "def query(factor, power):\n"
                "    return cho_solve(factor, power)\n",
        }, rules=["PERF001"])
        violation = one_violation(report, "PERF001")
        assert violation.line == 4

    def test_np_linalg_solve_in_flow_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/flow/hot.py":
                "import numpy as np\n"
                "x = np.linalg.solve([[1.0]], [1.0])\n",
        }, rules=["PERF001"])
        assert one_violation(report, "PERF001").line == 2

    def test_direct_lapack_cholesky_outside_solver_flagged(self, tmp_path):
        # the raw routines SteadyStateSolver calls are banned elsewhere too
        report = lint_tree(tmp_path, {
            "src/repro/core/fastpath.py":
                "from scipy.linalg.lapack import dpotrs, get_lapack_funcs\n"
                "potrs, = get_lapack_funcs(('potrs',))\n"
                "x = dpotrs([[1.0]], [1.0])\n",
            "src/repro/flow/hot.py":
                "from scipy.linalg import lapack\n"
                "c = lapack.dpotrf([[2.0]])\n",
            "src/repro/cosynth/loop.py":
                "def solve(potrf, potrs, a, b):\n"
                "    return potrs(potrf(a)[0], b)\n",
        }, rules=["PERF001"])
        assert sorted((v.path, v.line) for v in report.violations) == [
            ("src/repro/core/fastpath.py", 2),
            ("src/repro/core/fastpath.py", 3),
            ("src/repro/cosynth/loop.py", 2),
            ("src/repro/cosynth/loop.py", 2),
            ("src/repro/flow/hot.py", 2),
        ]
        assert {v.rule for v in report.violations} == {"PERF001"}

    def test_reference_solver_modules_allowed(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/thermal/steady.py":
                "from scipy.linalg import cho_factor, cho_solve\n"
                "from scipy.linalg.lapack import get_lapack_funcs\n"
                "factor = cho_factor([[2.0]])\n"
                "x = cho_solve(factor, [1.0])\n"
                "potrf, potrs = get_lapack_funcs(('potrf', 'potrs'))\n",
            # outside the policed prefixes entirely
            "src/repro/viz/plot.py":
                "import numpy as np\n"
                "x = np.linalg.solve([[1.0]], [1.0])\n",
        }, rules=["PERF001"])
        assert report.ok


class TestSRV001ServeHandler:
    def test_flow_run_in_server_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/serve/server.py":
                "from repro.flow import Flow\n"
                "\n"
                "def handle(spec):\n"
                "    return Flow().run(spec)\n",
        }, rules=["SRV001"])
        violation = one_violation(report, "SRV001")
        assert violation.path == "src/repro/serve/server.py"
        assert violation.line == 4

    def test_build_workload_in_protocol_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/serve/protocol.py":
                "from repro.scenarios.workloads import build_workload\n"
                "pair = build_workload(None, None, ())\n",
        }, rules=["SRV001"])
        assert one_violation(report, "SRV001").line == 2

    def test_dense_solve_in_client_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/serve/client.py":
                "import numpy as np\n"
                "x = np.linalg.solve([[1.0]], [1.0])\n",
        }, rules=["SRV001"])
        assert one_violation(report, "SRV001").line == 2

    def test_workers_and_cache_are_the_allowed_consumers(self, tmp_path):
        report = lint_tree(tmp_path, {
            # execution belongs here — not policed
            "src/repro/serve/workers.py":
                "from repro.flow import Flow\n"
                "flow = Flow()\n",
            "src/repro/serve/cache.py":
                "from repro.scenarios.workloads import build_workload\n"
                "pair = build_workload(None, None, ())\n",
            # handler-path module doing handler-path things is fine
            "src/repro/serve/server.py":
                "import json\n"
                "payload = json.dumps({'ok': True})\n",
        }, rules=["SRV001"])
        assert report.ok


class TestDSE001DseStrategy:
    def test_solver_in_strategies_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/dse/strategies.py":
                "from repro.thermal.steady import SteadyStateSolver\n"
                "\n"
                "def propose(network):\n"
                "    return SteadyStateSolver(network)\n",
        }, rules=["DSE001"])
        violation = one_violation(report, "DSE001")
        assert violation.path == "src/repro/dse/strategies.py"
        assert violation.line == 4

    def test_run_many_in_candidate_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/dse/candidate.py":
                "from repro.flow.batch import run_many\n"
                "records = run_many([])\n",
        }, rules=["DSE001"])
        assert one_violation(report, "DSE001").line == 2

    def test_dense_solve_in_archive_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/dse/archive.py":
                "import numpy as np\n"
                "x = np.linalg.cholesky([[1.0]])\n",
        }, rules=["DSE001"])
        assert one_violation(report, "DSE001").line == 2

    def test_driver_and_thermal_are_the_allowed_consumers(self, tmp_path):
        report = lint_tree(tmp_path, {
            # the shared evaluator builds the solvers — not policed
            "src/repro/dse/thermal.py":
                "from repro.thermal.steady import SteadyStateSolver\n"
                "solver = SteadyStateSolver(None)\n",
            "src/repro/dse/driver.py":
                "from repro.flow.batch import run_many\n"
                "records = run_many([])\n",
            "src/repro/dse/evaluate.py":
                "from repro.flow.batch import run_many\n"
                "records = run_many([])\n",
            # strategy module doing strategy things is fine
            "src/repro/dse/strategies.py":
                "def propose(rng):\n"
                "    return rng.random()\n",
        }, rules=["DSE001"])
        assert report.ok


class TestPOOL001PoolPicklability:
    def test_lambda_submit_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/flow/pooluse.py":
                "from concurrent.futures import ProcessPoolExecutor\n"
                "pool = ProcessPoolExecutor()\n"
                "future = pool.submit(lambda: 1)\n",
        }, rules=["POOL001"])
        assert one_violation(report, "POOL001").line == 3

    def test_nested_function_submit_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/flow/pooluse2.py":
                "def run(pool):\n"
                "    def work():\n"
                "        return 1\n"
                "    return pool.submit(work)\n",
        }, rules=["POOL001"])
        assert one_violation(report, "POOL001").line == 4

    def test_module_level_callable_allowed(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/flow/poolok.py":
                "def work():\n"
                "    return 1\n"
                "\n"
                "def run(pool):\n"
                "    return pool.submit(work)\n",
        }, rules=["POOL001"])
        assert report.ok


class TestLOG001Print:
    def test_library_print_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/core/noisy.py":
                "def solve():\n"
                "    print('debug')\n",
        }, rules=["LOG001"])
        assert one_violation(report, "LOG001").line == 2

    def test_cli_module_allowed(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/cli.py": "print('table')\n",
        }, rules=["LOG001"])
        assert report.ok


class TestEXC001BroadExcept:
    def test_swallowed_broad_except_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/flow/swallow.py":
                "try:\n"
                "    x = 1\n"
                "except Exception:\n"
                "    x = None\n",
        }, rules=["EXC001"])
        assert one_violation(report, "EXC001").line == 3

    def test_bare_except_flagged_reraise_and_specific_allowed(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/flow/mixed.py":
                "try:\n"
                "    x = 1\n"
                "except:\n"
                "    x = None\n"
                "try:\n"
                "    y = 1\n"
                "except Exception:\n"
                "    raise\n"
                "try:\n"
                "    z = 1\n"
                "except (OSError, ValueError):\n"
                "    z = None\n",
        }, rules=["EXC001"])
        assert [v.line for v in report.violations] == [3]


class TestOBS001ObsInstrumentation:
    def test_raw_perf_counter_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/flow/timer.py":
                "import time\n"
                "\n"
                "def run():\n"
                "    t0 = time.perf_counter()\n"
                "    return t0\n",
        }, rules=["OBS001"])
        assert one_violation(report, "OBS001").line == 4

    def test_from_time_import_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/serve/timer.py":
                "from time import perf_counter as tick\n"
                "stamp = tick()\n",
        }, rules=["OBS001"])
        assert one_violation(report, "OBS001").line == 2

    def test_stats_dict_literal_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/dse/eval.py":
                "class E:\n"
                "    def __init__(self):\n"
                "        self.stats = {'hits': 0, 'misses': 0}\n",
        }, rules=["OBS001"])
        assert one_violation(report, "OBS001").line == 3

    def test_obs_package_and_non_library_exempt(self, tmp_path):
        report = lint_tree(tmp_path, {
            # the obs package is where perf_counter is supposed to live
            "src/repro/obs/recorder.py":
                "from time import perf_counter\n"
                "stamp = perf_counter()\n",
            # benchmarks/examples are outside the repro package dirs
            "benchmarks/bench_x.py":
                "import time\n"
                "t0 = time.perf_counter()\n"
                "stats = {'n': 0}\n",
        }, rules=["OBS001"])
        assert report.ok

    def test_noqa_suppresses(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/flow/t.py":
                "import time\n"
                "t0 = time.perf_counter()  "
                "# repro: noqa[OBS001] -- calibration needs the raw timer\n",
        }, rules=["OBS001"])
        assert report.ok

    def test_counters_bundle_and_plain_dicts_allowed(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/flow/ok.py":
                "from repro.obs import Counters\n"
                "\n"
                "class E:\n"
                "    def __init__(self):\n"
                "        self.stats = Counters(('hits',), namespace='e')\n"
                "        self.config = {'depth': 4}\n",
        }, rules=["OBS001"])
        assert report.ok


class TestRES001RetryDiscipline:
    def test_raw_time_sleep_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/flow/waiter.py":
                "import time\n"
                "def poll():\n"
                "    time.sleep(0.5)\n",
        }, rules=["RES001"])
        assert one_violation(report, "RES001").line == 3

    def test_aliased_sleep_import_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/serve/napper.py":
                "from time import sleep as zzz\n"
                "def wait():\n"
                "    zzz(1)\n",
        }, rules=["RES001"])
        assert one_violation(report, "RES001").line == 3

    def test_unbounded_retry_loop_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/results/poller.py":
                "def fetch(get):\n"
                "    while True:\n"
                "        try:\n"
                "            return get()\n"
                "        except OSError:\n"
                "            continue\n",
        }, rules=["RES001"])
        # anchored at the handler that loops, not the while itself
        assert one_violation(report, "RES001").line == 5

    def test_bounded_loop_and_exiting_handler_allowed(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/flow/bounded.py":
                "def fetch(get):\n"
                "    for attempt in range(3):\n"
                "        try:\n"
                "            return get()\n"
                "        except OSError:\n"
                "            continue\n"
                "    raise RuntimeError('budget exhausted')\n"
                "def drain(q):\n"
                "    while True:\n"
                "        try:\n"
                "            item = q.get()\n"
                "        except KeyError:\n"
                "            break\n"
                "        if item is None:\n"
                "            return\n",
        }, rules=["RES001"])
        assert report.ok

    def test_inner_loop_continue_not_confused_with_retry(self, tmp_path):
        # the continue belongs to the nested for, not the while True
        report = lint_tree(tmp_path, {
            "src/repro/flow/nested.py":
                "def pump(batches, q):\n"
                "    while True:\n"
                "        batch = q.get()\n"
                "        if batch is None:\n"
                "            return\n"
                "        try:\n"
                "            handle(batch)\n"
                "        except ValueError:\n"
                "            for item in batch:\n"
                "                if not item:\n"
                "                    continue\n"
                "                drop(item)\n",
        }, rules=["RES001"])
        assert report.ok

    def test_resilience_package_is_exempt(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/resilience/retry.py":
                "import time\n"
                "def sleep_for(seconds):\n"
                "    time.sleep(seconds)\n",
        }, rules=["RES001"])
        assert report.ok

    def test_tests_and_benchmarks_are_out_of_scope(self, tmp_path):
        report = lint_tree(tmp_path, {
            "tests/test_waiting.py":
                "import time\n"
                "def test_x():\n"
                "    time.sleep(0.01)\n",
        }, rules=["RES001"])
        assert report.ok

    def test_noqa_with_justification_suppresses(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/flow/paced.py":
                "import time\n"
                "def pace():\n"
                "    time.sleep(0.1)  # repro: noqa[RES001] -- fixture:"
                " deliberate pacing outside any retry path\n",
        }, rules=["RES001"])
        assert report.ok


class TestEngineMechanics:
    def test_parse_error_reported_as_parse001(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/core/broken.py": "def f(:\n    pass\n",
        })
        assert [v.rule for v in report.violations] == ["PARSE001"]

    def test_unknown_rule_selection_raises(self, tmp_path):
        with pytest.raises(LintError, match="unknown lint rule"):
            lint_tree(tmp_path, {"src/repro/x.py": "x = 1\n"},
                      rules=["NOPE99"])

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(LintError, match="does not exist"):
            run_lint([tmp_path / "absent"], root=tmp_path)

    def test_collect_files_deterministic_and_skips_pycache(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "a.cpython-310.pyc.py").write_text("x = 1\n")
        files = collect_files([tmp_path])
        assert [f.name for f in files] == ["a.py", "b.py"]

    def test_builtin_rules_registered(self):
        for rule_id in ("DET001", "DET002", "DET003", "SPEC001", "PERF001",
                        "SRV001", "DSE001", "POOL001", "REG001", "LOG001",
                        "EXC001", "RES001"):
            assert rule_id in LINT_RULES
        assert rule_names() == tuple(LINT_RULES.names())


class TestSuppressions:
    def test_justified_line_noqa_suppresses(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/core/ok.py":
                "def solve():\n"
                "    print('x')  # repro: noqa[LOG001] -- fixture exercising"
                " the suppression path\n",
        }, rules=["LOG001"])
        assert report.ok

    def test_unjustified_noqa_is_noqa001(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/core/bad.py":
                "def solve():\n"
                "    print('x')  # repro: noqa[LOG001]\n",
        }, rules=["LOG001"])
        violation = one_violation(report, "NOQA001")
        assert violation.line == 2

    def test_unknown_rule_id_is_noqa002(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/core/typo.py":
                "x = 1  # repro: noqa[LOG999] -- typo in the rule id\n",
        })
        assert [v.rule for v in report.violations] == ["NOQA002"]

    def test_blanket_noqa_rejected(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/core/blanket.py":
                "x = 1  # repro: noqa[] -- suppress everything\n",
        })
        violation = one_violation(report, "NOQA002")
        assert "blanket" in violation.message

    def test_file_level_noqa_suppresses_whole_file(self, tmp_path):
        report = lint_tree(tmp_path, {
            "src/repro/core/reporter.py":
                "# repro: noqa-file[LOG001] -- fixture: this module is a"
                " reporting surface\n"
                "print('one')\n"
                "print('two')\n",
        }, rules=["LOG001"])
        assert report.ok

    def test_engine_rules_not_suppressible(self, tmp_path):
        # a noqa cannot waive the suppression audit itself
        report = lint_tree(tmp_path, {
            "src/repro/core/meta.py":
                "x = 1  # repro: noqa[NOQA001]\n",
        })
        assert "NOQA001" in {v.rule for v in report.violations}

    def test_noqa_in_string_literal_is_inert(self, tmp_path):
        # only real comment tokens count: docs may mention the syntax
        report = lint_tree(tmp_path, {
            "src/repro/core/docs.py":
                'HELP = "suppress with # repro: noqa[LOG001] -- why"\n'
                "def solve():\n"
                "    print('x')\n",
        }, rules=["LOG001"])
        violation = one_violation(report, "LOG001")
        assert violation.line == 3


class TestReporters:
    def _report(self, tmp_path):
        return lint_tree(tmp_path, {
            "src/repro/core/noisy.py": "print('x')\n",
        }, rules=["LOG001"])

    def test_text_report_names_location_and_summary(self, tmp_path):
        text = render_text(self._report(tmp_path))
        assert "src/repro/core/noisy.py:1:1: LOG001" in text
        assert "1 violation(s)" in text

    def test_json_report_round_trips(self, tmp_path):
        payload = json.loads(render_json(self._report(tmp_path)))
        assert payload["version"] == 1
        assert payload["ok"] is False
        assert payload["rules"] == ["LOG001"]
        [violation] = payload["violations"]
        assert violation["rule"] == "LOG001"
        assert violation["path"] == "src/repro/core/noisy.py"
        assert violation["line"] == 1

    def test_clean_report_says_ok(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/core/ok.py": "x = 1\n"},
                           rules=["LOG001"])
        assert "repro lint: ok" in render_text(report)


class TestLintCLI:
    def test_list_rules_exits_zero(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "PERF001", "REG001"):
            assert rule_id in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path), "--root", str(tmp_path)]) == 0
        assert "repro lint: ok" in capsys.readouterr().out

    def test_seeded_violation_fails_the_cli(self, tmp_path, capsys):
        # the acceptance scenario: raw np.random in a scheduler module
        target = tmp_path / "src" / "repro" / "core" / "scheduler.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import numpy as np\n"
            "\n"
            "def pick(candidates):\n"
            "    return candidates[int(np.random.rand() * len(candidates))]\n"
        )
        assert main(["lint", str(tmp_path), "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "src/repro/core/scheduler.py:4" in out

    def test_json_format_and_out_file_written_on_failure(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "core" / "noisy.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("print('x')\n")
        out_file = tmp_path / "lint-report.json"
        # --out is written even though the run fails: CI uploads it
        assert main([
            "lint", str(tmp_path), "--root", str(tmp_path),
            "--format", "json", "-o", str(out_file),
        ]) == 1
        payload = json.loads(out_file.read_text())
        assert payload["ok"] is False
        assert payload["violations"][0]["rule"] == "LOG001"

    def test_rule_subset_selection(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "core" / "noisy.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("print('x')\n")
        assert main(["lint", str(tmp_path), "--root", str(tmp_path),
                     "--rules", "DET001"]) == 0

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path), "--rules", "NOPE99"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "absent")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_repro_list_includes_lint_rules(self, capsys):
        assert main(["list", "lint-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out and "EXC001" in out


class TestREG001RegistryConsistency:
    def test_skips_outside_the_repro_repo(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/x.py": "x = 1\n"},
                           rules=["REG001"])
        assert report.ok

    def test_repo_registries_are_consistent(self):
        report = run_lint([REPO_ROOT / "src" / "repro" / "devtools"],
                          rules=["REG001"], root=REPO_ROOT)
        assert report.ok, [v.render() for v in report.violations]

    def test_undocumented_component_is_flagged(self):
        name = "lint-fixture-undocumented-analyzer"
        ANALYZERS.register(name, lambda runs, **kw: None)
        try:
            report = run_lint([REPO_ROOT / "src" / "repro" / "devtools"],
                              rules=["REG001"], root=REPO_ROOT)
            messages = [v.message for v in report.violations]
            assert any(name in m and "docs" in m for m in messages), messages
        finally:
            ANALYZERS.unregister(name)
        # the registry is back to its documented state
        assert name not in ANALYZERS

    def test_custom_rule_registration_reaches_the_engine(self):
        @register_rule
        class FixtureRule(LintRule):
            rule_id = "ZZZ901"
            title = "fixture"
            rationale = "registration round-trip"

            def check(self, ctx):
                yield Violation("ZZZ901", ctx.rel, 1, 1, "always fires")

        try:
            assert "ZZZ901" in rule_names()
            [rule] = build_rules(["ZZZ901"])
            assert isinstance(rule, FixtureRule)
        finally:
            LINT_RULES.unregister("ZZZ901")
        assert "ZZZ901" not in LINT_RULES


class TestRepoSelfLint:
    def test_whole_tree_lints_clean(self):
        # THE acceptance gate: src + benchmarks + examples, all rules,
        # zero unsuppressed violations.
        report = run_lint(
            [REPO_ROOT / "src", REPO_ROOT / "benchmarks",
             REPO_ROOT / "examples"],
            root=REPO_ROOT,
        )
        assert report.ok, "\n" + "\n".join(
            v.render() for v in report.violations)
        assert report.files_checked > 100
