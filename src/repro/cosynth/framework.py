"""The co-synthesis framework (Figure 1a).

**Figure 1a — thermal-aware co-synthesis.**  The ASP, the thermal-aware
floorplanner and HotSpot interact through the co-synthesis interface until
the requirement is met.  Our realisation (see DESIGN.md "Substitutions"):

1. enumerate type-feasible PE allocations from the catalogue;
2. *screen* each allocation with a cheap schedule (the requested policy, or
   heuristic 3 when the requested policy needs a thermal model that does
   not exist yet) and rank by deadline feasibility + energy + cost.  All
   allocations are scheduled together by
   :func:`~repro.core.scheduler.screen_allocations` — one lockstep array
   program when the policy's penalty is a per-(task, PE) constant
   (baseline, heuristics 1 and 3), one ``ListScheduler`` run per
   allocation otherwise;
3. for the best few allocations, iterate the paper's inner loop:
   schedule → per-PE average powers → (thermal-aware) floorplan → HotSpot
   model → re-schedule with the real policy — until the floorplan stops
   changing or the iteration budget is exhausted.  Each ``run`` call asks
   each floorplan question once: the area-objective GA ignores the powers,
   so it runs once per allocation and later iterations and backoff steps
   reuse its plan; and each distinct placed plan gets one
   :class:`~repro.thermal.hotspot.HotSpotModel`, which the thermal GA
   objective queries and whose :meth:`~repro.thermal.hotspot.HotSpotModel.fork`
   serves every re-scheduling run and the final evaluation of that plan.
   Both memos are locals of ``run``;
4. pick the allocation minimising the final cost (temperatures for the
   thermal flow, power for the power-aware flow).

The platform-based flow (Figure 1b) has a fixed architecture and
floorplan, so it needs no framework: ``run_flow(platform_spec(...))`` in
:mod:`repro.flow` runs the ASP against HotSpot directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.metrics import ScheduleEvaluation, evaluate_schedule
from ..core.heuristics import DCPolicy, TaskEnergyPolicy
from ..core.scheduler import ListScheduler, screen_allocations
from ..core.schedule import Schedule
from ..errors import CoSynthesisError
from ..floorplan.genetic import GeneticConfig, evolve_floorplan
from ..floorplan.geometry import Floorplan
from ..floorplan.objectives import FloorplanObjective, area_objective, thermal_objective
from ..floorplan.platform import platform_floorplan
from ..library.pe import Architecture, PEType
from ..library.presets import default_catalogue
from ..library.technology import TechnologyLibrary
from ..obs import get_recorder
from ..taskgraph.graph import TaskGraph
from ..thermal.hotspot import HotSpotModel
from ..thermal.package import PackageConfig, default_package
from .allocation import feasible_allocations
from .cost import FinalCost, ScreeningCost, power_final_cost, screening_cost, thermal_final_cost

__all__ = [
    "CoSynthesisConfig",
    "CoSynthesisResult",
    "CoSynthesisFramework",
]

@dataclass(frozen=True)
class CoSynthesisConfig:
    """Knobs of the co-synthesis search.

    ``screening_keep`` bounds how many allocations receive the expensive
    floorplan+HotSpot evaluation; ``refine_iterations`` is the depth of the
    schedule↔floorplan fixed-point loop (2 suffices in practice: the first
    pass floorplans from screening powers, the second from the real
    policy's powers).
    """

    max_pes: int = 4
    min_pes: int = 1
    screening_keep: int = 6
    refine_iterations: int = 2
    thermal_floorplanning: bool = True
    floorplan_seed: int = 2005
    genetic_config: GeneticConfig = field(
        default_factory=lambda: GeneticConfig(population_size=16, generations=20)
    )

    def __post_init__(self) -> None:
        if self.screening_keep < 1:
            raise CoSynthesisError("screening_keep must be >= 1")
        if self.refine_iterations < 1:
            raise CoSynthesisError("refine_iterations must be >= 1")


@dataclass
class CoSynthesisResult:
    """The chosen design plus search diagnostics."""

    architecture: Architecture
    floorplan: Floorplan
    schedule: Schedule
    evaluation: ScheduleEvaluation
    candidates_screened: int
    candidates_evaluated: int
    screening_rows: List[Dict[str, object]] = field(default_factory=list)
    #: steady-state HotSpot solves spent by phase-2 scheduling (the
    #: "thermal inquiries" of Figure 1), summed over evaluated candidates
    hotspot_queries: int = 0

    @property
    def meets_deadline(self) -> bool:
        """True when the winning design met the deadline."""
        return self.evaluation.meets_deadline


class CoSynthesisFramework:
    """Reusable co-synthesis driver over one catalogue + package."""

    def __init__(
        self,
        catalogue: Optional[Sequence[PEType]] = None,
        package: Optional[PackageConfig] = None,
        config: Optional[CoSynthesisConfig] = None,
    ):
        self.catalogue = list(catalogue) if catalogue is not None else default_catalogue()
        self.package = package or default_package()
        self.config = config or CoSynthesisConfig()

    # ------------------------------------------------------------------
    def _screening_policy(self, policy: DCPolicy) -> DCPolicy:
        """A thermal-free stand-in for screening (H3 is the paper's best)."""
        if policy.requires_thermal:
            return TaskEnergyPolicy()
        return policy

    def _floorplan(
        self,
        architecture: Architecture,
        powers: Optional[Mapping[str, float]],
        thermal: bool,
        area_plans: Dict[tuple, Floorplan],
        model_for: Callable[[Floorplan], HotSpotModel],
    ) -> Floorplan:
        """Floorplan one allocation (GA; thermal objective when requested).

        *area_plans* and *model_for* are one :meth:`run` call's memos.  An
        area-objective GA ignores the powers, so its plan is stored per
        architecture (PE names and dims, in order).  The thermal objective
        asks each placed plan's model for its peak temperature.
        """
        if len(architecture) == 1:
            return platform_floorplan(architecture)
        if not (thermal and powers is not None):
            key = tuple(
                (pe.name, pe.pe_type.width_mm, pe.pe_type.height_mm)
                for pe in architecture
            )
            if key not in area_plans:
                area_plans[key] = self._evolve(architecture, area_objective())
            return area_plans[key]
        power_map = dict(powers)

        def peak_temp(plan: Floorplan) -> float:
            return model_for(plan).peak_temperature(power_map)

        return self._evolve(architecture, thermal_objective(peak_temp))

    def _evolve(
        self, architecture: Architecture, objective: FloorplanObjective
    ) -> Floorplan:
        return evolve_floorplan(
            architecture,
            objective=objective,
            config=self.config.genetic_config,
            seed=self.config.floorplan_seed,
        ).floorplan

    # ------------------------------------------------------------------
    def run(
        self,
        graph: TaskGraph,
        library: TechnologyLibrary,
        policy: DCPolicy,
        final_cost: Optional[FinalCost] = None,
        screening: Optional[ScreeningCost] = None,
        strict: bool = False,
    ) -> CoSynthesisResult:
        """Synthesise an architecture + floorplan + schedule for *graph*.

        With ``strict=True`` a :class:`~repro.errors.CoSynthesisError` is
        raised when no evaluated design meets the deadline; otherwise the
        best-effort design is returned (check ``result.meets_deadline``).
        """
        final_cost = final_cost or (
            thermal_final_cost() if policy.requires_thermal else power_final_cost()
        )
        screening = screening or screening_cost()
        config = self.config

        allocations = feasible_allocations(
            graph, library, self.catalogue, config.max_pes, config.min_pes
        )

        # ---- phase 1: cheap screening ---------------------------------
        screen_policy = self._screening_policy(policy)
        schedules = screen_allocations(graph, library, allocations, screen_policy)
        ranked: List[Tuple[float, int, Architecture, Schedule]] = []
        rows: List[Dict[str, object]] = []
        for index, (architecture, schedule) in enumerate(zip(allocations, schedules)):
            cost = screening(schedule)
            ranked.append((cost, index, architecture, schedule))
            rows.append(
                {
                    "architecture": architecture.name,
                    "screening_cost": round(cost, 2),
                    "makespan": round(schedule.makespan, 1),
                    "meets_deadline": schedule.meets_deadline,
                }
            )
        ranked.sort(key=lambda item: (item[0], item[1]))
        kept = ranked[: config.screening_keep]

        # ---- phase 2: floorplan + HotSpot + real policy ----------------
        best: Optional[Tuple[float, int, CoSynthesisResult]] = None
        total_queries = 0
        # floorplan memos, dropped when this call returns (see _floorplan)
        area_plans: Dict[tuple, Floorplan] = {}
        models: Dict[tuple, HotSpotModel] = {}

        def model_for(plan: Floorplan) -> HotSpotModel:
            # block names and x/y/w/h columns, in order: the node order
            # follows them (no NaN gets into a plan, so equal plans match)
            key = tuple(map(tuple, plan._columns()))
            model = models.get(key)
            if model is None:
                model = models[key] = HotSpotModel(plan, self.package)
            return model

        with get_recorder().span("cosynth.refine", candidates=len(kept)):
            for rank_index, (_, _, architecture, schedule) in enumerate(kept):
                floorplan = None
                # The paper's "meets requirement?" feedback edge (Figure 1a):
                # if the policy's schedule overshoots the deadline, re-enter
                # the loop with the policy's awareness term dialled down until
                # the requirement is met (or the term vanishes and the
                # schedule is as fast as this allocation gets).
                run_policy = policy
                for backoff in range(4):
                    for _ in range(config.refine_iterations):
                        powers = schedule.average_powers()
                        floorplan = self._floorplan(
                            architecture,
                            powers,
                            thermal=config.thermal_floorplanning
                            and policy.requires_thermal,
                            area_plans=area_plans,
                            model_for=model_for,
                        )
                        hotspot = model_for(floorplan).fork()
                        scheduler = ListScheduler(
                            graph, architecture, library, thermal=hotspot
                        )
                        schedule = scheduler.run(run_policy)
                        total_queries += hotspot.query_count
                    if schedule.meets_deadline or run_policy.weight == 0.0:
                        break
                    reduced = run_policy.weight / 2.0 if backoff < 2 else 0.0
                    run_policy = type(run_policy)(reduced)
                evaluation = evaluate_schedule(
                    schedule, hotspot=model_for(floorplan).fork()
                )
                cost = final_cost(evaluation)
                result = CoSynthesisResult(
                    architecture=architecture,
                    floorplan=floorplan,
                    schedule=schedule,
                    evaluation=evaluation,
                    candidates_screened=len(allocations),
                    candidates_evaluated=len(kept),
                    screening_rows=rows,
                )
                if best is None or (cost, rank_index) < (best[0], best[1]):
                    best = (cost, rank_index, result)

        result = best[2]
        # every kept allocation's solves, not the running total at the winner
        result.hotspot_queries = total_queries
        if strict and not result.meets_deadline:
            raise CoSynthesisError(
                f"no evaluated allocation meets deadline {graph.deadline} for "
                f"{graph.name!r} (best makespan {result.schedule.makespan:.1f})"
            )
        return result
