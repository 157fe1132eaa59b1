"""Tests for the shared-bus communication model and its scheduler hookup."""

import pytest

from repro.core.scheduler import ListScheduler
from repro.errors import LibraryError
from repro.library.bus import Bus, CommunicationModel, shared_bus_comm, zero_cost_comm
from repro.library.pe import Architecture, PEType
from repro.library.presets import default_platform
from repro.library.technology import TechnologyLibrary
from repro.taskgraph.graph import TaskGraph


class TestBus:
    def test_transfer_time(self):
        bus = Bus("b", bandwidth=4.0, latency=1.0)
        assert bus.transfer_time(8.0) == pytest.approx(3.0)

    def test_zero_data_is_free(self):
        bus = Bus("b", bandwidth=4.0, latency=1.0)
        assert bus.transfer_time(0.0) == 0.0

    def test_transfer_energy(self):
        bus = Bus("b", bandwidth=4.0, latency=0.0, power=2.0)
        assert bus.transfer_energy(8.0) == pytest.approx(4.0)

    def test_negative_data_rejected(self):
        with pytest.raises(LibraryError):
            Bus("b", bandwidth=1.0).transfer_time(-1.0)

    @pytest.mark.parametrize("kw", [
        {"bandwidth": 0.0},
        {"bandwidth": 1.0, "latency": -1.0},
        {"bandwidth": 1.0, "power": -0.1},
    ])
    def test_invalid_bus_rejected(self, kw):
        with pytest.raises(LibraryError):
            Bus("b", **kw)


class TestCommunicationModel:
    def test_zero_cost_is_free(self):
        model = zero_cost_comm()
        assert model.is_free
        assert model.delay("a", "b", 100.0) == 0.0

    def test_same_pe_is_free(self):
        model = shared_bus_comm(bandwidth=2.0, latency=1.0)
        assert model.delay("pe0", "pe0", 100.0) == 0.0

    def test_cross_pe_charges_transfer(self):
        model = shared_bus_comm(bandwidth=2.0, latency=1.0)
        assert model.delay("pe0", "pe1", 8.0) == pytest.approx(5.0)


class TestSchedulerIntegration:
    @pytest.fixture
    def workload(self):
        graph = TaskGraph("comm", deadline=500.0)
        graph.add("producer", "t0")
        graph.add("consumer", "t0")
        graph.add_edge("producer", "consumer", data=40.0)
        library = TechnologyLibrary()
        library.add_entry("t0", "core", wcet=20.0, wcpc=5.0)
        arch = Architecture("duo")
        pe_type = PEType("core", 6.0, 6.0)
        arch.add_instance(pe_type)
        arch.add_instance(pe_type)
        return graph, arch, library

    def test_same_pe_chain_unaffected(self, workload):
        graph, arch, library = workload
        comm = shared_bus_comm(bandwidth=1.0, latency=5.0)
        schedule = ListScheduler(graph, arch, library, comm=comm).run()
        producer = schedule.assignment("producer")
        consumer = schedule.assignment("consumer")
        if producer.pe == consumer.pe:
            assert consumer.start == pytest.approx(producer.end)

    def test_scheduler_avoids_expensive_migration(self, workload):
        """With a huge transfer cost the consumer must follow its producer."""
        graph, arch, library = workload
        comm = shared_bus_comm(bandwidth=0.1, latency=50.0)  # 450-unit hop
        schedule = ListScheduler(graph, arch, library, comm=comm).run()
        assert (
            schedule.assignment("producer").pe
            == schedule.assignment("consumer").pe
        )

    def test_free_comm_matches_default(self, bm1, bm1_library):
        platform = default_platform()
        default = ListScheduler(bm1, platform, bm1_library).run()
        free = ListScheduler(
            bm1, platform, bm1_library, comm=zero_cost_comm()
        ).run()
        assert [(a.task, a.pe, a.start) for a in default.assignments()] == [
            (a.task, a.pe, a.start) for a in free.assignments()
        ]

    def test_bus_never_shortens_makespan(self, bm1, bm1_library):
        platform = default_platform()
        free = ListScheduler(bm1, platform, bm1_library).run()
        slow_bus = ListScheduler(
            bm1,
            platform,
            bm1_library,
            comm=shared_bus_comm(bandwidth=0.5, latency=2.0),
        ).run()
        assert slow_bus.makespan >= free.makespan - 1e-9
        slow_bus.validate(bm1_library)

    def test_faster_bus_never_worse(self, bm1, bm1_library):
        platform = default_platform()
        slow = ListScheduler(
            bm1, platform, bm1_library,
            comm=shared_bus_comm(bandwidth=0.5, latency=4.0),
        ).run()
        fast = ListScheduler(
            bm1, platform, bm1_library,
            comm=shared_bus_comm(bandwidth=50.0, latency=0.1),
        ).run()
        assert fast.makespan <= slow.makespan + 1e-9

    def test_schedule_valid_under_comm(self, bm2, bm2_library):
        platform = default_platform()
        schedule = ListScheduler(
            bm2, platform, bm2_library, comm=shared_bus_comm()
        ).run()
        schedule.validate(bm2_library)  # precedence holds a fortiori
