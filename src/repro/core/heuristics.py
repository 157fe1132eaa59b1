"""Dynamic-criticality (DC) policies: the pluggable ``Pow`` term.

The paper defines

```
DC(task_i, PE_j) = SC(task_i) − WCET(task_i, PE_j)
                   − max(avail(PE_j), ready(task_i)) − Pow
```

and interprets the last term five ways:

* **baseline** — no term (the traditional, performance-only ASP);
* **heuristic 1** — power of the current task on the candidate PE;
* **heuristic 2** — cumulative average power of the candidate PE (with the
  candidate task included);
* **heuristic 3** — energy of the current task on the candidate PE;
* **thermal** — ``Avg_Temp``: average block temperature returned by HotSpot
  for the cumulative per-PE powers plus the candidate task's power.

Each policy carries a ``weight`` that scales its term into the time-unit
range of the other DC components (the paper leaves these scale factors
implicit; DESIGN.md §5 and ablation A1 discuss the choice).  A weight of
zero turns any policy into the baseline.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, TYPE_CHECKING

import numpy as np

from ..errors import FlowError, SchedulingError
from ..power.model import PowerAccumulator
from ..registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..thermal.hotspot import HotSpotModel
    from ..thermal.query import ScheduledThermalQuery

__all__ = [
    "DCContext",
    "DCStep",
    "DCPolicy",
    "BaselinePolicy",
    "TaskPowerPolicy",
    "CumulativePowerPolicy",
    "TaskEnergyPolicy",
    "ThermalPolicy",
    "policy_by_name",
    "register_dc_policy",
    "POLICY_NAMES",
]


@dataclass
class DCContext:
    """Everything a DC policy may inspect about one (task, PE) candidate.

    Fields
    ------
    task_name, pe_name:
        The candidate pairing.
    wcet, power, energy:
        Library characteristics of the pairing (energy = wcet × power).
    ready_time:
        Latest finish time of the task's predecessors.
    start, finish:
        Tentative start (``max(avail, ready)``) and finish times.
    accumulator:
        Running per-PE power/energy bookkeeping for the partial schedule.
    horizon:
        Time span over which cumulative averages are taken — the tentative
        schedule length if this candidate were committed.
    thermal:
        The HotSpot facade, present only when the scheduler was built with
        one (required by :class:`ThermalPolicy`).
    pe_to_block:
        Maps PE names to thermal-model block names (identity for the
        standard flows, but kept explicit so schedules can target floorplans
        whose block names differ).
    thermal_query:
        The scheduler's per-run delta-query adapter
        (:class:`~repro.thermal.query.ScheduledThermalQuery`), present when
        the thermal model exposes a vectorized query engine.  Thermal
        policies answer candidates through it in O(1)/O(n_blocks) instead
        of a full steady-state solve; ``None`` falls back to the direct
        model query (the reference path).
    """

    task_name: str
    pe_name: str
    wcet: float
    power: float
    energy: float
    ready_time: float
    start: float
    finish: float
    accumulator: PowerAccumulator
    horizon: float
    thermal: Optional["HotSpotModel"] = None
    pe_to_block: Optional[Mapping[str, str]] = None
    thermal_query: Optional["ScheduledThermalQuery"] = None


@dataclass
class DCStep:
    """Every candidate of one scheduler step, as equally long arrays.

    Candidates are in the order the scheduler enumerates them: ready tasks
    in release order, each task's supporting PEs in architecture order.
    Element *i* of each array is the :class:`DCContext` field of the same
    name for candidate *i*.

    Fields
    ------
    task, pe:
        Graph-order task indices and architecture-order PE indices (the
        accumulator's PE order).
    wcet, power, energy, ready_time, start, finish, horizon:
        Per-candidate values, as in :class:`DCContext`.
    accumulator, thermal_query:
        Shared by every candidate of the step, as in :class:`DCContext`.
    """

    task: np.ndarray
    pe: np.ndarray
    wcet: np.ndarray
    power: np.ndarray
    energy: np.ndarray
    ready_time: np.ndarray
    start: np.ndarray
    finish: np.ndarray
    horizon: np.ndarray
    accumulator: PowerAccumulator
    thermal_query: Optional["ScheduledThermalQuery"] = None


def _candidate_block_powers(ctx: DCContext) -> Dict[str, float]:
    """Per-block average powers with the candidate task injected: the
    exact-path input of the thermal policies."""
    averages = ctx.accumulator.average_powers(
        ctx.horizon, extra={ctx.pe_name: ctx.energy}
    )
    mapping = ctx.pe_to_block or {}
    return {mapping.get(pe, pe): watts for pe, watts in averages.items()}


class DCPolicy:
    """Base class: a named, weighted penalty term subtracted from DC."""

    #: Registry name (overridden by subclasses).
    name = "abstract"
    #: Whether the scheduler must supply a thermal model.
    requires_thermal = False

    def __init__(self, weight: float = 1.0):
        if not (math.isfinite(weight) and weight >= 0.0):
            raise SchedulingError(
                f"policy weight must be a finite number >= 0, got {weight}"
            )
        self.weight = weight

    def penalty(self, ctx: DCContext) -> float:
        """The ``Pow`` value (already scaled by ``weight``).

        Defaults to :meth:`static_penalty` of the candidate's WCET and
        WCPC; a policy whose penalty reads the partial schedule overrides
        this instead.
        """
        value = self.static_penalty(ctx.wcet, ctx.power)
        if value is None:
            raise NotImplementedError(
                f"{type(self).__name__} defines neither penalty nor static_penalty"
            )
        return value

    def static_penalty(self, wcet, power):
        """``penalty`` as a function of the candidate's WCET and WCPC alone.

        A policy whose penalty reads no schedule state defines only this:
        ``penalty`` and ``step_penalty`` default to it, and
        :func:`~repro.core.scheduler.screen_allocations` scores whole
        arrays of candidates at once through it (*wcet* and *power* are
        scalars or equally shaped arrays).  The default ``None`` — for
        every input — means the penalty depends on the partial schedule.
        """
        return None

    def step_penalty(self, step: DCStep):
        """``penalty`` for every candidate of one scheduler step at once.

        Returns an array aligned with *step*'s arrays (or a scalar that
        broadcasts to it), each element computed with the same operation
        order as ``penalty`` gives for that candidate, so DC bits do not
        change.  Defaults to :meth:`static_penalty` of the step's WCETs
        and WCPCs; ``None`` makes the scheduler call ``penalty`` once per
        candidate.  The scheduler uses the hook only when it is defined at
        or below the class that defines ``penalty``: a subclass that
        overrides ``penalty`` alone has made an inherited hook stale.
        """
        return self.static_penalty(step.wcet, step.power)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(weight={self.weight})"


#: Name → policy class registry: the built-ins below in the paper's
#: order, then ``repro.extensions.policies`` (imported by the package
#: root) and any user policy added through :func:`register_dc_policy`.
POLICIES = Registry("DC policy")


def register_dc_policy(cls: type) -> type:
    """Register a :class:`DCPolicy` subclass under its ``name`` attribute.

    Usable as a decorator.  Registration is idempotent for the same class;
    re-using a taken name (in either ``-``/``_`` spelling) for a
    *different* class raises :class:`~repro.errors.SchedulingError`
    (silent shadowing would change what every spec naming that policy
    means).
    """
    if not (isinstance(cls, type) and issubclass(cls, DCPolicy)):
        raise SchedulingError(f"can only register DCPolicy subclasses, got {cls!r}")
    name = getattr(cls, "name", None)
    if not name or name == "abstract":
        raise SchedulingError(f"policy class {cls.__name__} needs a `name` attribute")
    try:
        return POLICIES.register(name, cls)
    except FlowError as exc:
        raise SchedulingError(str(exc)) from None


class _PolicyNames(Sequence):
    """Live, ordered view of :data:`POLICIES`' names that behaves like
    the tuple it replaced (iteration, ``len``, indexing, ``in``, equality
    with sequences)."""

    def __getitem__(self, index):
        return POLICIES.names()[index]

    def __len__(self) -> int:
        return len(POLICIES)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (_PolicyNames, tuple, list)):
            return POLICIES.names() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(POLICIES.names())

    def __repr__(self) -> str:
        return repr(POLICIES.names())


#: All registered policy names (live view — extension policies included).
POLICY_NAMES = _PolicyNames()


@register_dc_policy
class BaselinePolicy(DCPolicy):
    """The traditional ASP: no power/thermal term at all."""

    name = "baseline"

    def __init__(self, weight: float = 0.0):
        super().__init__(weight)

    def static_penalty(self, wcet, power):
        return 0.0


@register_dc_policy
class TaskPowerPolicy(DCPolicy):
    """Heuristic 1: minimise the power of the current task.

    The default weight maps the catalogue's 2–25 W candidate powers into
    the same few-tens-of-time-units range as the WCET term, so power can
    actually flip decisions without drowning criticality.
    """

    name = "heuristic1"

    def __init__(self, weight: float = 4.0):
        super().__init__(weight)

    def static_penalty(self, wcet, power):
        return self.weight * power


@register_dc_policy
class CumulativePowerPolicy(DCPolicy):
    """Heuristic 2: minimise the cumulative average power of the PE.

    The candidate task's energy is included before averaging, so the term
    reflects what the PE's average power *becomes* if the candidate is
    committed — this is what lets the policy balance power across PEs.
    """

    name = "heuristic2"

    def __init__(self, weight: float = 4.0):
        super().__init__(weight)

    def penalty(self, ctx: DCContext) -> float:
        averages = ctx.accumulator.average_powers(
            ctx.horizon, extra={ctx.pe_name: ctx.energy}
        )
        return self.weight * averages[ctx.pe_name]

    def step_penalty(self, step: DCStep):
        accumulator = step.accumulator
        energy = accumulator.energy_vector()[step.pe]
        idle = accumulator.idle_vector()[step.pe]
        return self.weight * ((energy + step.energy) / step.horizon + idle)


@register_dc_policy
class TaskEnergyPolicy(DCPolicy):
    """Heuristic 3: minimise the energy of the current task.

    Energy spans roughly 50–2000 J-equivalents in the preset libraries, two
    orders larger than WCETs, hence the small default weight.
    """

    name = "heuristic3"

    def __init__(self, weight: float = 0.10):
        super().__init__(weight)

    def static_penalty(self, wcet, power):
        return self.weight * (wcet * power)


@register_dc_policy
class ThermalPolicy(DCPolicy):
    """Thermal-aware ASP: minimise the average temperature (``Avg_Temp``).

    Implements the paper's Section 2.2 verbatim: the per-PE cumulative
    average powers, plus the candidate task's power on the candidate PE,
    are handed to HotSpot; the returned block temperatures are averaged and
    the average is the penalty.

    Temperature *levels* (60–125 °C) dwarf inter-candidate temperature
    *differences* (tenths of a °C to a few °C), so the default weight is
    large; since the level component is nearly identical across candidates
    it cancels in the argmax and only the differences steer decisions.
    """

    name = "thermal"
    requires_thermal = True

    def __init__(self, weight: float = 20.0):
        super().__init__(weight)

    def penalty(self, ctx: DCContext) -> float:
        if ctx.thermal is None:
            raise SchedulingError(
                "ThermalPolicy needs a thermal model; build the scheduler "
                "with a floorplan/HotSpotModel"
            )
        if ctx.thermal_query is not None:
            avg_temp = ctx.thermal_query.average_temperature(
                ctx.pe_name, ctx.energy, ctx.horizon
            )
            return self.weight * avg_temp
        powers = _candidate_block_powers(ctx)
        return self.weight * ctx.thermal.average_temperature(powers)

    def step_penalty(self, step: DCStep):
        if step.thermal_query is None:
            return None
        return self.weight * step.thermal_query.average_temperatures(
            step.pe, step.energy, step.horizon
        )


def policy_by_name(name: str, weight: Optional[float] = None, **params) -> DCPolicy:
    """Instantiate a policy from its registry name.

    ``weight=None`` keeps each policy's calibrated default.  Underscores
    and hyphens are interchangeable (``"thermal_peak"`` == ``"thermal-peak"``),
    as in every :class:`~repro.registry.Registry`.
    Extra keyword arguments are forwarded to the policy constructor (e.g.
    ``peak_fraction=`` for the hybrid thermal policy).
    """
    try:
        cls = POLICIES.get(name)
    except FlowError as exc:
        raise SchedulingError(str(exc)) from None
    if weight is not None:
        params["weight"] = weight
    try:
        return cls(**params)
    except TypeError as exc:
        raise SchedulingError(
            f"bad parameters for DC policy {name!r}: {exc}"
        ) from exc
