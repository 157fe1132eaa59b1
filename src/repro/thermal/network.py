"""Generic thermal RC networks.

A :class:`ThermalNetwork` is a graph of thermal nodes connected by
conductances, with optional conductance to ambient and heat capacity per
node.  It assembles the standard compact-model matrices

* ``G`` — symmetric conductance matrix (W/K), diagonally dominant thanks to
  the ambient conductances (which ground the network);
* ``C`` — diagonal capacitance vector (J/K);

so that steady state solves ``G · ΔT = P`` and transients integrate
``C · dΔT/dt = P − G · ΔT``, where ``ΔT`` is temperature rise over ambient.
Both the block-level and the grid-level HotSpot-style models are built on
top of this class.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import SingularNetworkError, ThermalError

__all__ = ["ThermalNetwork"]


class ThermalNetwork:
    """A lumped thermal RC network referenced to ambient."""

    def __init__(self, ambient_c: float):
        self.ambient_c = float(ambient_c)
        self._nodes: Dict[str, int] = {}
        self._capacitance: List[float] = []
        self._ambient_conductance: List[float] = []
        self._edges: Dict[Tuple[int, int], float] = {}
        self._matrix_cache: Optional[np.ndarray] = None

    @classmethod
    def _assembled(
        cls,
        ambient_c: float,
        nodes: Dict[str, int],
        capacitance: List[float],
        ambient_conductance: List[float],
        edges: Dict[Tuple[int, int], float],
    ) -> "ThermalNetwork":
        """A network from parts already indexed and checked by the caller.

        *nodes* maps names to ``0..n-1`` in order; *edges* is keyed by
        ``(ia, ib)`` with ``ia < ib`` and holds positive conductances.
        Given the pairs :meth:`connect` would see, in the same order, the
        result equals the node-by-node build bit for bit.
        """
        network = cls(ambient_c)
        network._nodes = nodes
        network._capacitance = capacitance
        network._ambient_conductance = ambient_conductance
        network._edges = edges
        return network

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        name: str,
        capacitance: float = 0.0,
        ambient_conductance: float = 0.0,
    ) -> int:
        """Add a node; returns its index.

        ``capacitance`` may be zero for quasi-static nodes (steady-state
        only); transient solvers require every node to have positive
        capacitance.  ``ambient_conductance`` connects the node to the
        ambient reference (e.g. convection).
        """
        if not name:
            raise ThermalError("node name must be non-empty")
        if name in self._nodes:
            raise ThermalError(f"duplicate thermal node {name!r}")
        if capacitance < 0.0:
            raise ThermalError(f"node {name!r}: capacitance must be >= 0")
        if ambient_conductance < 0.0:
            raise ThermalError(f"node {name!r}: ambient conductance must be >= 0")
        index = len(self._nodes)
        self._nodes[name] = index
        self._capacitance.append(float(capacitance))
        self._ambient_conductance.append(float(ambient_conductance))
        self._matrix_cache = None
        return index

    def connect(self, a: str, b: str, conductance: float) -> None:
        """Connect nodes *a* and *b* with *conductance* (W/K).

        Repeated connections between the same pair accumulate (parallel
        paths add conductance).
        """
        if conductance <= 0.0:
            raise ThermalError(
                f"conductance {a!r}-{b!r} must be positive, got {conductance}"
            )
        ia, ib = self.index(a), self.index(b)
        if ia == ib:
            raise ThermalError(f"self-connection on node {a!r}")
        key = (min(ia, ib), max(ia, ib))
        self._edges[key] = self._edges.get(key, 0.0) + float(conductance)
        self._matrix_cache = None

    def add_ambient_path(self, name: str, conductance: float) -> None:
        """Add (accumulate) conductance from node *name* to ambient."""
        if conductance <= 0.0:
            raise ThermalError(f"ambient conductance must be positive")
        self._ambient_conductance[self.index(name)] += float(conductance)
        self._matrix_cache = None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def index(self, name: str) -> int:
        """Index of node *name*."""
        try:
            return self._nodes[name]
        except KeyError:
            raise ThermalError(f"unknown thermal node {name!r}")

    def node_names(self) -> List[str]:
        """Node names in index order."""
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __repr__(self) -> str:
        return (
            f"ThermalNetwork(nodes={len(self._nodes)}, edges={len(self._edges)}, "
            f"ambient={self.ambient_c}C)"
        )

    # ------------------------------------------------------------------
    # matrices
    # ------------------------------------------------------------------
    def conductance_matrix(self) -> np.ndarray:
        """The symmetric ``G`` matrix (W/K), cached until mutation.

        A diagonal entry sums its node's edges in insertion order, then
        its ambient term; an off-diagonal entry is its edge's negated
        conductance.  So two networks given the same edges in the same
        order get bit-identical matrices.
        """
        if self._matrix_cache is None:
            size = len(self._nodes)
            diagonal = [0.0] * size
            offsets: List[int] = []  # flat (row-major) off-diagonal positions
            values: List[float] = []
            for (ia, ib), conductance in self._edges.items():
                diagonal[ia] += conductance
                diagonal[ib] += conductance
                offsets += (ia * size + ib, ib * size + ia)
                values += (-conductance, -conductance)
            for index, conductance in enumerate(self._ambient_conductance):
                diagonal[index] += conductance
            matrix = np.zeros((size, size), dtype=float)
            flat = matrix.ravel()  # a view: the matrix is contiguous
            flat[offsets] = values
            flat[:: size + 1] = diagonal
            self._matrix_cache = matrix
        return self._matrix_cache

    def capacitance_vector(self) -> np.ndarray:
        """The diagonal ``C`` vector (J/K)."""
        return np.asarray(self._capacitance, dtype=float)

    def power_vector(self, power_by_node: Mapping[str, float]) -> np.ndarray:
        """Assemble a power vector from a (possibly partial) node->W map.

        Unnamed nodes get zero power; unknown names raise.  Only finite,
        non-negative powers are accepted (heat sources only), so a vector
        assembled here needs no finiteness scan before a solve.
        """
        vector = np.zeros(len(self._nodes), dtype=float)
        for name, power in power_by_node.items():
            vector[self.index(name)] = _source_power(name, power)
        return vector

    def check_grounded(self) -> None:
        """Verify at least one ambient path exists (else G is singular)."""
        if not any(g > 0.0 for g in self._ambient_conductance):
            raise SingularNetworkError(
                "thermal network has no path to ambient; steady state undefined"
            )


def _source_power(name: str, power: float) -> float:
    """*power* as a float, rejecting negative and non-finite heat sources."""
    if power < 0.0:
        raise ThermalError(f"negative power on node {name!r}: {power}")
    value = float(power)
    if not math.isfinite(value):
        raise ThermalError(f"non-finite power on node {name!r}: {power}")
    return value
