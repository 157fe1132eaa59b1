"""String-keyed component registries behind the flow facade.

Each pluggable stage of a :class:`~repro.flow.spec.FlowSpec` resolves by
name through a shared :class:`repro.registry.Registry`:

* **policies** — ``DCPolicy`` classes, held by
  :data:`repro.core.heuristics.POLICIES` (what
  :func:`~repro.core.heuristics.policy_by_name` reads);
* **floorplanners** — ``(architecture, FloorplanSpec) -> Floorplan``;
* **thermal solvers** — ``(floorplan, package, ThermalSpec) -> model``
  exposing the HotSpot facade interface (``block_temperatures`` /
  ``peak_temperature`` / ``average_temperature`` / ``query_count``);
* **flows** — ``(FlowSpec, graph, library) -> FlowOutcome`` end-to-end
  runners (``"platform"`` and ``"cosynthesis"`` built in).

Unknown names raise :class:`~repro.errors.FlowError` carrying the
available set, except through the policy entry points, whose public
contract is :class:`~repro.errors.SchedulingError`.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..core.heuristics import POLICIES, policy_by_name, register_dc_policy
from ..floorplan.genetic import evolve_floorplan
from ..floorplan.annealing import anneal_floorplan
from ..floorplan.platform import grid_floorplan, platform_floorplan, row_floorplan
from ..registry import Registry
from ..thermal.gridmodel import GridModel
from ..thermal.hotspot import HotSpotModel

__all__ = [
    "Registry",
    "FLOORPLANNERS",
    "THERMAL_SOLVERS",
    "FLOWS",
    "register_policy",
    "register_floorplanner",
    "register_thermal_solver",
    "register_flow",
    "policy_names",
    "floorplanner_names",
    "thermal_solver_names",
    "flow_names",
    "build_policy",
]


FLOORPLANNERS = Registry("floorplanner")
THERMAL_SOLVERS = Registry("thermal solver")
FLOWS = Registry("flow")


# ----------------------------------------------------------------------
# public registration entry points
# ----------------------------------------------------------------------
def register_policy(cls: type) -> type:
    """Register a DC policy class under its ``name`` (decorator-friendly)."""
    return register_dc_policy(cls)


def register_floorplanner(name: str, factory: Optional[Callable] = None) -> Callable:
    """Register ``factory(architecture, floorplan_spec) -> Floorplan``."""
    return FLOORPLANNERS.register(name, factory)


def register_thermal_solver(name: str, factory: Optional[Callable] = None) -> Callable:
    """Register ``factory(floorplan, package, thermal_spec) -> model``."""
    return THERMAL_SOLVERS.register(name, factory)


def register_flow(name: str, runner: Optional[Callable] = None) -> Callable:
    """Register ``runner(spec, graph, library) -> FlowOutcome``."""
    return FLOWS.register(name, runner)


def policy_names() -> Tuple[str, ...]:
    """All registered DC policy names (extensions included)."""
    return POLICIES.names()


def floorplanner_names() -> Tuple[str, ...]:
    """All registered floorplanner names."""
    return FLOORPLANNERS.names()


def thermal_solver_names() -> Tuple[str, ...]:
    """All registered thermal solver names."""
    return THERMAL_SOLVERS.names()


def flow_names() -> Tuple[str, ...]:
    """All registered flow kinds."""
    return FLOWS.names()


def build_policy(spec) -> object:
    """Instantiate the DC policy a :class:`PolicySpec` describes.

    Errors keep the :class:`~repro.errors.SchedulingError` shape of
    :func:`~repro.core.heuristics.policy_by_name` (unknown name, bad
    parameter, invalid weight); they are not rewrapped as ``FlowError``
    because that shape is part of the public contract.
    """
    params = {}
    if spec.peak_fraction is not None:
        params["peak_fraction"] = spec.peak_fraction
    return policy_by_name(spec.name, weight=spec.weight, **params)


# ----------------------------------------------------------------------
# built-in floorplanners
# ----------------------------------------------------------------------
@register_floorplanner("platform")
def _platform_floorplanner(architecture, spec):
    """The canonical fixed platform layout (near-square grid)."""
    return platform_floorplan(architecture)


@register_floorplanner("grid")
def _grid_floorplanner(architecture, spec):
    """Near-square grid of uniform cells."""
    return grid_floorplan(architecture)


@register_floorplanner("row")
def _row_floorplanner(architecture, spec):
    """Single-row packing (the ablation baseline)."""
    return row_floorplan(architecture)


@register_floorplanner("genetic")
def _genetic_floorplanner(architecture, spec):
    """GA slicing floorplan under the area objective."""
    return evolve_floorplan(
        architecture, config=spec.genetic_config(), seed=spec.seed
    ).floorplan


@register_floorplanner("annealing")
def _annealing_floorplanner(architecture, spec):
    """Simulated-annealing slicing floorplan under the area objective."""
    return anneal_floorplan(architecture, seed=spec.seed).floorplan


@register_floorplanner("explicit")
def _explicit_floorplanner(architecture, spec):
    """Verbatim layout from ``spec.placement`` (the DSE candidate path)."""
    from ..errors import FlowError
    from ..floorplan.geometry import Floorplan

    placed = [entry[0] for entry in spec.placement]
    expected = architecture.pe_names()
    if sorted(placed) != sorted(expected):
        raise FlowError(
            f"explicit floorplan places blocks {sorted(placed)} but the "
            f"architecture has PEs {sorted(expected)}"
        )
    floorplan = Floorplan()
    for name, x, y, w, h in spec.placement:
        floorplan.place(name, x, y, w, h)
    floorplan.validate()
    return floorplan


# ----------------------------------------------------------------------
# built-in thermal solvers
# ----------------------------------------------------------------------
@register_thermal_solver("hotspot")
def _hotspot_solver(floorplan, package, spec):
    """The HotSpot-style compact RC model (the paper's solver)."""
    return HotSpotModel(floorplan, package)


@register_thermal_solver("gridmodel")
def _grid_solver(floorplan, package, spec):
    """Grid-discretised thermal model (finer, slower; validation solver)."""
    return GridModel(floorplan, package=package)


# The "platform" and "cosynthesis" flow runners are registered by
# repro.flow.runner at import time (they need FlowOutcome and the
# workload builders defined there).
