"""Tests for the steady-state solver."""

import numpy as np
import pytest

from repro.errors import ThermalError
from repro.thermal.network import ThermalNetwork
from repro.thermal.steady import SteadyStateSolver


def star_network(ambient=45.0, g_amb=0.5, g_link=1.0):
    """Two nodes: a--b, a--ambient."""
    network = ThermalNetwork(ambient)
    network.add_node("a", capacitance=1.0, ambient_conductance=g_amb)
    network.add_node("b", capacitance=1.0)
    network.connect("a", "b", g_link)
    return network


class TestAnalyticSolutions:
    def test_single_resistor(self):
        # one node to ambient through R = 2 K/W, 10 W -> rise 20 K
        network = ThermalNetwork(45.0)
        network.add_node("x", ambient_conductance=0.5)
        solver = SteadyStateSolver(network)
        temps = solver.temperatures({"x": 10.0})
        assert temps["x"] == pytest.approx(45.0 + 20.0)

    def test_series_chain(self):
        # b --(1 W/K)-- a --(0.5 W/K)-- ambient; 4 W into b
        solver = SteadyStateSolver(star_network())
        temps = solver.temperatures({"b": 4.0})
        assert temps["a"] == pytest.approx(45.0 + 8.0)   # 4 W over 2 K/W
        assert temps["b"] == pytest.approx(45.0 + 12.0)  # + 4 W over 1 K/W

    def test_superposition(self):
        solver = SteadyStateSolver(star_network())
        t1 = solver.temperatures({"a": 3.0})
        t2 = solver.temperatures({"b": 5.0})
        both = solver.temperatures({"a": 3.0, "b": 5.0})
        for name in ("a", "b"):
            rise = (t1[name] - 45.0) + (t2[name] - 45.0)
            assert both[name] == pytest.approx(45.0 + rise)

    def test_zero_power_is_ambient(self):
        solver = SteadyStateSolver(star_network())
        temps = solver.temperatures({})
        assert temps["a"] == pytest.approx(45.0)
        assert temps["b"] == pytest.approx(45.0)


class TestSolverMechanics:
    def test_solve_count_increments(self):
        solver = SteadyStateSolver(star_network())
        assert solver.solve_count == 0
        solver.temperatures({"a": 1.0})
        solver.temperatures({"b": 1.0})
        assert solver.solve_count == 2

    def test_wrong_shape_rejected(self):
        solver = SteadyStateSolver(star_network())
        with pytest.raises(ThermalError):
            solver.solve_rise(np.zeros(5))

    def test_ungrounded_network_rejected(self):
        network = ThermalNetwork(45.0)
        network.add_node("x")
        from repro.errors import SingularNetworkError

        with pytest.raises(SingularNetworkError):
            SteadyStateSolver(network)

    def test_monotone_in_power(self):
        solver = SteadyStateSolver(star_network())
        low = solver.temperatures({"b": 1.0})["b"]
        high = solver.temperatures({"b": 2.0})["b"]
        assert high > low


class TestDirectBacksolve:
    """The solver calls LAPACK potrf/potrs directly: the same routines
    ``cho_factor``/``cho_solve`` dispatch to, so the bits must match."""

    @staticmethod
    def platform_network():
        from repro.floorplan.platform import platform_floorplan
        from repro.library.presets import default_platform
        from repro.thermal.hotspot import HotSpotModel

        return HotSpotModel(platform_floorplan(default_platform())).network

    def test_bit_identical_to_cho_solve(self):
        from scipy.linalg import cho_factor, cho_solve

        network = self.platform_network()
        solver = SteadyStateSolver(network)
        factor = cho_factor(network.conductance_matrix())
        rng = np.random.default_rng(2005)
        power = rng.uniform(0.0, 10.0, len(network))
        powers = rng.uniform(0.0, 10.0, (len(network), 7))
        before = powers.copy()
        assert solver.solve_rise(power).tobytes() == cho_solve(factor, power).tobytes()
        many = solver.solve_rise_many(powers)
        assert many.tobytes() == cho_solve(factor, powers).tobytes()
        assert np.array_equal(powers, before)  # the right-hand side is not overwritten
        assert solver.solve_rise_many(powers[:, :0]).shape == (len(network), 0)

    def test_non_finite_power_rejected(self):
        solver = SteadyStateSolver(star_network())
        with pytest.raises(ValueError, match="infs or NaNs"):
            solver.solve_rise(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="infs or NaNs"):
            solver.solve_rise_many(np.array([[np.inf], [0.0]]))

    def test_non_spd_matrix_maps_to_singular_network_error(self, monkeypatch):
        from repro.errors import SingularNetworkError

        network = star_network()
        monkeypatch.setattr(
            network, "conductance_matrix", lambda: np.array([[1.0, 2.0], [2.0, 1.0]])
        )
        with pytest.raises(SingularNetworkError, match="2-th leading minor"):
            SteadyStateSolver(network)

    def test_fork_shares_the_factor(self):
        solver = SteadyStateSolver(star_network())
        clone = solver.fork()
        assert clone._factor is solver._factor
        assert clone.solve_rise(np.array([1.0, 2.0])).tobytes() == (
            solver.solve_rise(np.array([1.0, 2.0])).tobytes()
        )
        assert (clone.solve_count, solver.solve_count) == (1, 1)
