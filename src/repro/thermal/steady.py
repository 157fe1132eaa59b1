"""Steady-state solution of thermal networks.

The thermal-aware ASP queries the thermal model once per (ready task ×
candidate PE) pair at every scheduling step, so the steady-state solve is
the hot path of the whole reproduction.  :class:`SteadyStateSolver`
therefore factorises the conductance matrix **once** (Cholesky — ``G`` is
symmetric positive definite once grounded) and reuses the factor for every
power vector.  It calls LAPACK ``potrf``/``potrs`` directly — the routines
``scipy.linalg.cho_factor``/``cho_solve`` dispatch to, so the results are
bit-identical — which skips the wrappers' per-call argument handling: on
the few-node networks of a co-synthesis floorplan that handling costs
several times the backsolve itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from ..errors import IllConditionedUpdateError, SingularNetworkError, ThermalError
from .network import ThermalNetwork

__all__ = ["LowRankUpdate", "SteadyStateSolver"]

#: Double-precision Cholesky factorisation and backsolve (dpotrf/dpotrs),
#: resolved once; the factor is upper triangular, as ``cho_factor``'s.
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), (np.empty((0, 0)),))


def _cholesky(matrix: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of a conductance matrix (*matrix* is kept).

    Raises ``ValueError`` on a non-finite matrix and
    :class:`~repro.errors.SingularNetworkError` when it is not SPD.
    """
    factor, info = _POTRF(
        np.asarray_chkfinite(matrix), lower=False, overwrite_a=False, clean=False
    )
    if info > 0:
        raise SingularNetworkError(
            f"conductance matrix is not SPD: {info}-th leading minor of "
            f"the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    return factor


def _cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``G⁻¹ rhs`` against an upper Cholesky *factor* of G (*rhs* is kept)."""
    solution, info = _POTRS(factor, rhs, lower=False, overwrite_b=False)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return solution


@dataclass(frozen=True)
class LowRankUpdate:
    """A Woodbury correction to a factorised conductance matrix.

    Encodes ``G_new⁻¹ = G⁻¹ − X · M · Xᵀ`` where ``X`` holds the base
    solver's influence columns for the touched nodes and ``M`` is the
    symmetric Woodbury gain.  Consumers that only need block-restricted
    responses (the query engine) apply the correction with plain matmuls —
    no further backsolves.

    Attributes
    ----------
    indices:
        Touched node indices, sorted ascending — the columns of ``X``.
    columns:
        ``(n_nodes, k)`` influence columns ``G⁻¹ U`` of the base solver.
    gain:
        ``(k, k)`` symmetric Woodbury gain ``W (I + A W)⁻¹`` with
        ``A = Uᵀ G⁻¹ U``.
    rcond:
        Reciprocal condition number of the capacitance matrix ``I + A W``
        — the well-posedness certificate callers gate fallbacks on.
    """

    indices: Tuple[int, ...]
    columns: np.ndarray
    gain: np.ndarray
    rcond: float

    @property
    def rank(self) -> int:
        """Number of touched nodes (the update's rank bound)."""
        return len(self.indices)


class SteadyStateSolver:
    """Cached-factorisation steady-state solver for one network.

    The network must not be mutated after the solver is built; build a new
    solver if the floorplan (and hence the network) changes.
    """

    def __init__(self, network: ThermalNetwork):
        network.check_grounded()
        self.network = network
        self._factor = _cholesky(network.conductance_matrix())
        self.solve_count = 0

    def fork(self) -> "SteadyStateSolver":
        """A solver sharing this factorisation with fresh counters.

        The Cholesky factor is the expensive, immutable part; forking
        skips re-factorising while giving the new consumer (one served
        request, one leased model) its own ``solve_count`` provenance.
        """
        clone = object.__new__(SteadyStateSolver)
        clone.network = self.network
        clone._factor = self._factor
        clone.solve_count = 0
        return clone

    def solve_rise(self, power: np.ndarray) -> np.ndarray:
        """Temperature **rise** over ambient for a raw power vector.

        Raises ``ValueError`` on a non-finite vector, as ``cho_solve`` does.
        """
        if power.shape != (len(self.network),):
            raise ThermalError(
                f"power vector has shape {power.shape}, expected "
                f"({len(self.network)},)"
            )
        return self._rise(np.asarray_chkfinite(power))

    def _rise(self, power: np.ndarray) -> np.ndarray:
        """:meth:`solve_rise` for a vector :meth:`ThermalNetwork.power_vector`
        assembled (right shape, finite by construction): no re-checks."""
        self.solve_count += 1
        return _cho_solve(self._factor, power)

    def solve_rise_many(self, powers: np.ndarray) -> np.ndarray:
        """Temperature rises for a 2-D power matrix, one backsolve call.

        ``powers`` is ``(n_nodes, k)`` — one power vector per column; the
        result has the same shape.  A multi-RHS backsolve amortises the
        factor traversal over all columns, which is what makes batched
        block queries and influence-vector precomputation cheap.  Raises
        ``ValueError`` on a non-finite matrix.
        """
        powers = np.asarray(powers, dtype=float)
        if powers.ndim != 2 or powers.shape[0] != len(self.network):
            raise ThermalError(
                f"power matrix has shape {powers.shape}, expected "
                f"({len(self.network)}, k)"
            )
        self.solve_count += powers.shape[1]
        return _cho_solve(self._factor, np.asarray_chkfinite(powers))

    def low_rank_update(
        self,
        delta: Mapping[Tuple[int, int], float],
        rcond_limit: float = 1e-8,
    ) -> LowRankUpdate:
        """Woodbury correction for a sparse conductance perturbation.

        *delta* maps node-index pairs to conductance changes (W/K): an
        ``(i, j)`` entry with ``i != j`` perturbs the edge between the two
        nodes, an ``(i, i)`` entry perturbs node *i*'s ambient conductance.
        The perturbed matrix is ``G_new = G + U W Uᵀ`` with ``U`` the
        selection columns of the touched nodes and ``W`` the ``k × k``
        assembly of the deltas; the returned update encodes
        ``G_new⁻¹ = G⁻¹ − X M Xᵀ`` using ``k`` backsolves against the
        existing factor instead of an ``O(n³)`` refactorisation.

        Raises :class:`~repro.errors.IllConditionedUpdateError` when the
        capacitance matrix ``I + A W`` has a reciprocal condition number
        below *rcond_limit* — the caller should rebuild from scratch.
        """
        if not delta:
            raise ThermalError("empty conductance delta for low-rank update")
        size = len(self.network)
        touched = sorted({index for pair in delta for index in pair})
        for index in touched:
            if not 0 <= index < size:
                raise ThermalError(
                    f"node index {index} out of range for {size}-node network"
                )
        local = {index: slot for slot, index in enumerate(touched)}
        k = len(touched)
        w = np.zeros((k, k), dtype=float)
        for (node_a, node_b), change in delta.items():
            change = float(change)
            ia, ib = local[node_a], local[node_b]
            if ia == ib:
                # ambient-conductance perturbation: diagonal only
                w[ia, ia] += change
            else:
                w[ia, ia] += change
                w[ib, ib] += change
                w[ia, ib] -= change
                w[ib, ia] -= change
        columns = self.influence_columns(touched)  # X = G⁻¹ U, (n, k)
        a = columns[np.asarray(touched, dtype=int), :]  # A = Uᵀ G⁻¹ U
        capacitance = np.eye(k) + a @ w
        cond = np.linalg.cond(capacitance)
        rcond = 1.0 / cond if np.isfinite(cond) and cond > 0.0 else 0.0
        if not np.isfinite(rcond) or rcond < rcond_limit:
            raise IllConditionedUpdateError(rcond, rcond_limit)
        # M = W (I + A W)⁻¹, computed as (I + W A)⁻¹ W to avoid inverting
        # the (possibly singular) delta assembly W itself.
        gain = np.linalg.solve(np.eye(k) + w @ a, w)
        gain = (gain + gain.T) / 2.0  # symmetric by construction; enforce
        return LowRankUpdate(
            indices=tuple(touched), columns=columns, gain=gain, rcond=rcond
        )

    def influence_columns(self, indices: Sequence[int]) -> np.ndarray:
        """Columns of ``G⁻¹`` for the given node *indices*.

        Column *j* of the result is the temperature rise of every node per
        watt injected at ``indices[j]`` — the superposition basis the
        vectorized query engine is built on.  ``(n_nodes, len(indices))``.
        """
        size = len(self.network)
        unit = np.zeros((size, len(indices)), dtype=float)
        for column, index in enumerate(indices):
            if not 0 <= index < size:
                raise ThermalError(
                    f"node index {index} out of range for {size}-node network"
                )
            unit[index, column] = 1.0
        return self.solve_rise_many(unit)

    def temperatures(self, power_by_node: Mapping[str, float]) -> Dict[str, float]:
        """Absolute temperatures (°C) for a node->W power map."""
        rise = self._rise(self.network.power_vector(power_by_node))
        ambient = self.network.ambient_c
        return {
            name: ambient + rise[index]
            for index, name in enumerate(self.network.node_names())
        }
