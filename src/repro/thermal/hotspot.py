"""The HotSpot facade — the paper's "thermal modeling tool".

The paper: *"HotSpot takes a system floorplanning and the power consumption
for each function block as input, and generates accurate temperature
estimation for each block."*  :class:`HotSpotModel` is exactly that
interface: build it from a floorplan (plus package constants), then call
:meth:`block_temperatures` with a block→watts map.

One instance caches the Cholesky factorisation of its network *and* (built
lazily, on the first block-level query) a
:class:`~repro.thermal.query.ThermalQueryEngine` holding the block-restricted
influence vectors of ``G⁻¹`` — so block queries are a small matvec and the
thermal-aware scheduler's per-candidate delta queries are O(1) instead of a
dense backsolve plus dict churn per candidate.  :meth:`HotSpotModel.fork`
is the one way to share that built state: the co-synthesis loop and the
warm engine cache each build one model per plan and hand out forks.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ThermalError
from ..floorplan.geometry import Floorplan
from .blockmodel import SINK_NODE, build_block_network
from .package import PackageConfig, default_package
from .query import ThermalQueryEngine
from .steady import SteadyStateSolver
from .transient import TransientResult, TransientSimulator

__all__ = ["HotSpotModel"]


class HotSpotModel:
    """Steady-state + transient thermal queries against one floorplan.

    Parameters
    ----------
    floorplan:
        Validated floorplan; block names are the queryable units.
    package:
        Package constants; defaults to the calibrated embedded package.
    """

    def __init__(
        self, floorplan: Floorplan, package: Optional[PackageConfig] = None
    ):
        self.floorplan = floorplan
        self.package = package or default_package()
        self.network = build_block_network(floorplan, self.package)
        self._solver = SteadyStateSolver(self.network)
        self._block_names = floorplan.block_names()
        self._block_indices = [
            self.network.index(name) for name in self._block_names
        ]
        self._engine: Optional[ThermalQueryEngine] = None
        self._queries = 0

    def fork(self, floorplan: Optional[Floorplan] = None) -> "HotSpotModel":
        """A model sharing this one's network, factor and query engine.

        The shared parts are the expensive, immutable ones; the query
        engine is built here first if it is not yet, so every fork of a
        model uses the one engine.  The fork starts with fresh
        ``query_count`` and ``query_stats``, so a caller (one scheduler
        run, one served request) reports its own queries only.  It
        answers for *floorplan* (default: this model's), whose block
        names must be this model's, in order — a model over other blocks
        would silently answer for the wrong die.
        """
        if floorplan is None:
            floorplan = self.floorplan
        elif floorplan.block_names() != self._block_names:
            raise ThermalError(
                f"floorplan blocks {floorplan.block_names()} do not match "
                f"model blocks {self._block_names}"
            )
        engine = self.query_engine()
        clone = object.__new__(HotSpotModel)
        clone.floorplan = floorplan
        clone.package = self.package
        clone.network = self.network
        clone._solver = self._solver.fork()
        clone._block_names = self._block_names
        clone._block_indices = self._block_indices
        clone._engine = engine.fork()
        clone._queries = 0
        return clone

    # ------------------------------------------------------------------
    @property
    def block_names(self) -> List[str]:
        """Names of the queryable blocks (PE instances)."""
        return list(self._block_names)

    @property
    def block_order(self) -> Tuple[str, ...]:
        """Block names defining the index space of the array APIs."""
        return tuple(self._block_names)

    @property
    def query_count(self) -> int:
        """Number of steady-state queries answered so far."""
        return self._queries

    @property
    def query_stats(self) -> Dict[str, int]:
        """Profiling counters: queries, actual backsolves, fast-path hits."""
        engine = self._engine
        return {
            "queries": self._queries,
            "solver_solves": self._solver.solve_count,
            "engine_built": int(engine is not None),
            "engine_setup_solves": engine.setup_solves if engine else 0,
            "engine_fast_queries": engine.fast_queries if engine else 0,
        }

    def query_engine(self) -> ThermalQueryEngine:
        """The vectorized query engine over this model's blocks.

        Built on first use (one multi-RHS backsolve per block), then cached
        for the model's lifetime; the network must not be mutated.
        """
        if self._engine is None:
            self._engine = ThermalQueryEngine.from_network(
                self.network, self._block_names, solver=self._solver
            )
        return self._engine

    def _check_blocks(self, power_by_block: Mapping[str, float]) -> None:
        for name in power_by_block:
            if name not in self.floorplan:
                raise ThermalError(
                    f"power given for unknown block {name!r}; "
                    f"known blocks: {self._block_names}"
                )

    # ------------------------------------------------------------------
    # steady state
    # ------------------------------------------------------------------
    def temperatures(self, power_by_block: Mapping[str, float]) -> Dict[str, float]:
        """All node temperatures (°C), including package nodes."""
        self._check_blocks(power_by_block)
        self._queries += 1
        return self._solver.temperatures(power_by_block)

    def _block_values(self, power_by_block: Mapping[str, float]) -> List[float]:
        """Block temperatures in :attr:`block_order`, via the block-index
        solve path.

        This is the *exact reference* query: one backsolve of the full
        network, projected straight onto the block indices — no full node
        dict is materialised.  The result is bit-identical to the seed
        implementation (same solve, same per-block expression, same
        reduction order), which is what lets the scheduler's verified fast
        path fall back to it on near-ties without changing any decision.
        """
        self._check_blocks(power_by_block)
        rise = self._solver._rise(self.network.power_vector(power_by_block))
        ambient = self.network.ambient_c
        self._queries += 1
        return [ambient + rise[index] for index in self._block_indices]

    def block_temperatures(
        self, power_by_block: Mapping[str, float]
    ) -> Dict[str, float]:
        """Block (PE) temperatures only (°C) — the paper's HotSpot output."""
        return dict(zip(self._block_names, self._block_values(power_by_block)))

    def block_temperatures_many(self, powers: np.ndarray) -> np.ndarray:
        """Batched block query: ``(k, n_blocks)`` W → ``(k, n_blocks)`` °C.

        Rows/columns follow :attr:`block_order`.
        """
        engine = self.query_engine()
        matrix = np.asarray(powers, dtype=float)
        result = engine.block_temperatures_many(matrix)
        self._queries += matrix.shape[0]
        return result

    def block_power_vector(
        self, power_by_block: Mapping[str, float]
    ) -> np.ndarray:
        """A :attr:`block_order`-indexed power vector from a block→W map."""
        return self.query_engine().power_vector(power_by_block)

    def peak_temperature(self, power_by_block: Mapping[str, float]) -> float:
        """Hottest block temperature (°C)."""
        return max(self._block_values(power_by_block))

    def average_temperature(self, power_by_block: Mapping[str, float]) -> float:
        """Mean block temperature (°C) — the ``Avg_Temp`` DC term."""
        values = self._block_values(power_by_block)
        return sum(values) / len(values)

    def average_temperature_delta(
        self,
        base_powers: np.ndarray,
        block: Union[int, str],
        delta_w: float,
    ) -> float:
        """``Avg_Temp`` of ``base_powers + Δ·e_block`` by superposition.

        *base_powers* is a :attr:`block_order`-indexed vector; *block* an
        index into it or a block name.  O(n_blocks) for the base term plus
        O(1) for the delta — reuse the base across candidates for the full
        O(1) per-candidate path (see :class:`ScheduledThermalQuery`).
        """
        engine = self.query_engine()
        index = engine.block_index(block) if isinstance(block, str) else block
        self._queries += 1
        base = engine.average_temperature_vector(np.asarray(base_powers, float))
        return engine.average_temperature_delta(base, index, delta_w)

    # ------------------------------------------------------------------
    # transient
    # ------------------------------------------------------------------
    def transient(
        self,
        segments: Sequence[Tuple[float, Mapping[str, float]]],
        dt: float,
        stepper: str = "backward_euler",
        initial: Optional[Mapping[str, float]] = None,
    ) -> TransientResult:
        """Integrate block-power *segments* through the network.

        ``segments`` are ``(duration_s, block→W)`` pairs, e.g. produced by
        :meth:`repro.power.trace.PowerTrace.segments`.
        """
        for _, power_map in segments:
            self._check_blocks(power_map)
        simulator = TransientSimulator(self.network, stepper)
        return simulator.run(segments, dt, initial)

    def transient_peak(
        self,
        segments: Sequence[Tuple[float, Mapping[str, float]]],
        dt: float,
        stepper: str = "backward_euler",
    ) -> float:
        """Peak block temperature over a transient run (°C)."""
        result = self.transient(segments, dt, stepper)
        return result.peak_of(self._block_names)

    def __repr__(self) -> str:
        return (
            f"HotSpotModel(blocks={len(self._block_names)}, "
            f"queries={self.query_count})"
        )
