"""Tests for the technology library (WCET/WCPC store)."""

import pytest

from repro.errors import LibraryError, UnknownTaskTypeError
from repro.flow.spec import GraphSourceSpec, LibrarySpec
from repro.library.pe import Architecture, PEInstance, PEType
from repro.library.technology import TechnologyLibrary
from repro.scenarios.workloads import build_workload
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.task import Task


@pytest.fixture
def lib():
    library = TechnologyLibrary("test")
    library.add_entry("fft", "risc", wcet=40.0, wcpc=5.0)
    library.add_entry("fft", "dsp", wcet=20.0, wcpc=8.0)
    library.add_entry("fir", "risc", wcet=30.0, wcpc=4.0)
    return library


@pytest.fixture
def risc_pe():
    return PEInstance("pe0", PEType("risc", 6.0, 6.0))


class TestConstruction:
    def test_duplicate_entry_rejected(self, lib):
        with pytest.raises(LibraryError):
            lib.add_entry("fft", "risc", 10.0, 1.0)

    @pytest.mark.parametrize("wcet,wcpc", [(0.0, 5.0), (-1.0, 5.0), (10.0, 0.0), (10.0, -2.0)])
    def test_nonpositive_values_rejected(self, wcet, wcpc):
        library = TechnologyLibrary()
        with pytest.raises(LibraryError):
            library.add_entry("a", "b", wcet, wcpc)

    def test_empty_keys_rejected(self):
        library = TechnologyLibrary()
        with pytest.raises(LibraryError):
            library.add_entry("", "b", 1.0, 1.0)
        with pytest.raises(LibraryError):
            library.add_entry("a", "", 1.0, 1.0)

    def test_len_and_repr(self, lib):
        assert len(lib) == 3
        assert "entries=3" in repr(lib)


class TestQueries:
    def test_wcet_by_strings(self, lib):
        assert lib.wcet("fft", "risc") == 40.0
        assert lib.wcet("fft", "dsp") == 20.0

    def test_wcet_scales_with_task_weight(self, lib):
        heavy = Task("t", "fft", weight=2.0)
        assert lib.wcet(heavy, "risc") == pytest.approx(80.0)

    def test_power_ignores_weight(self, lib):
        heavy = Task("t", "fft", weight=2.0)
        assert lib.power(heavy, "risc") == pytest.approx(5.0)

    def test_energy_is_product(self, lib):
        heavy = Task("t", "fft", weight=2.0)
        assert lib.energy(heavy, "risc") == pytest.approx(80.0 * 5.0)

    def test_pe_instance_accepted(self, lib, risc_pe):
        assert lib.wcet("fft", risc_pe) == 40.0

    def test_pe_type_accepted(self, lib):
        assert lib.wcet("fft", PEType("dsp", 5.0, 5.0)) == 20.0

    def test_unknown_pair_raises(self, lib):
        with pytest.raises(UnknownTaskTypeError):
            lib.wcet("fir", "dsp")
        with pytest.raises(UnknownTaskTypeError):
            lib.power("ghost", "risc")

    def test_supports(self, lib):
        assert lib.supports("fft", "dsp")
        assert not lib.supports("fir", "dsp")

    def test_type_listings(self, lib):
        assert lib.task_types() == ["fft", "fir"]
        assert lib.pe_types() == ["dsp", "risc"]
        assert lib.supported_pe_types("fft") == ["dsp", "risc"]
        assert lib.supported_pe_types("fir") == ["risc"]

    def test_mean_and_min_wcet(self, lib):
        assert lib.mean_wcet("fft") == pytest.approx(30.0)
        assert lib.min_wcet("fft") == pytest.approx(20.0)
        heavy = Task("t", "fft", weight=3.0)
        assert lib.mean_wcet(heavy) == pytest.approx(90.0)

    def test_mean_wcet_unknown_type(self, lib):
        with pytest.raises(UnknownTaskTypeError):
            lib.mean_wcet("ghost")

    def test_entries_sorted(self, lib):
        rows = lib.entries()
        assert rows == sorted(rows)
        assert ("fft", "dsp", 20.0, 8.0) in rows


class TestCheckGraph:
    def test_feasible_graph_passes(self, lib):
        graph = TaskGraph("g", 100.0)
        graph.add("a", "fft")
        graph.add("b", "fir")
        arch = Architecture("a")
        arch.add_instance(PEType("risc", 6.0, 6.0))
        lib.check_graph(graph, arch)  # no raise

    def test_uncovered_task_fails(self, lib):
        graph = TaskGraph("g", 100.0)
        graph.add("a", "fir")  # fir only runs on risc
        arch = Architecture("a")
        arch.add_instance(PEType("dsp", 5.0, 5.0))
        with pytest.raises(UnknownTaskTypeError):
            lib.check_graph(graph, arch)


def _scan(library, task_type):
    """Brute-force per-type answers: the full scans the index replaced.

    The mean sums in insertion order (the ``_wcet`` table's order), as
    the scan always did; ``entries()`` is sorted, and summing in that
    order can differ in the last bit.
    """
    values = [v for (t, _), v in library._wcet.items() if t == task_type]
    pes = sorted(pe for t, pe, _, _ in library.entries() if t == task_type)
    return sum(values) / len(values), min(values), pes


def _index_view(library, task_type):
    return (
        library.mean_wcet(task_type),
        library.min_wcet(task_type),
        library.supported_pe_types(task_type),
    )


class TestTaskTypeIndex:
    """The per-task-type index answers exactly like a full scan."""

    @pytest.mark.parametrize("name", ["Bm1", "Bm2", "Bm3", "Bm4"])
    def test_index_matches_full_scan(self, name):
        _, library = build_workload(
            GraphSourceSpec(kind="benchmark", name=name), LibrarySpec()
        )
        for task_type in library.task_types():
            assert _index_view(library, task_type) == _scan(library, task_type)

    @pytest.mark.parametrize(
        "entry",
        [("fft", "risc", 10.0, 1.0), ("fft", "vliw", 0.0, 1.0),
         ("fft", "vliw", 10.0, -1.0), ("new", "risc", -5.0, 1.0)],
        ids=["duplicate", "zero-wcet", "negative-wcpc", "new-type"],
    )
    def test_rejected_entry_leaves_index_unchanged(self, lib, entry):
        before = {t: _index_view(lib, t) for t in lib.task_types()}
        with pytest.raises(LibraryError):
            lib.add_entry(*entry)
        assert {t: _index_view(lib, t) for t in lib.task_types()} == before
        assert lib.supported_pe_types("new") == []
        with pytest.raises(UnknownTaskTypeError):
            lib.mean_wcet("new")
