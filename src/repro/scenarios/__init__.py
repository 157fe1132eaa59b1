"""The scenario API — declarative workloads, catalogues and parameter grids.

This package is the second half of the flow API
(:mod:`repro.flow` executes one :class:`FlowSpec`; ``repro.scenarios``
describes *families* of them):

* **workload sources** — :func:`register_workload` makes user graphs
  addressable from specs (``GraphSourceSpec(kind="registered")``), next
  to the built-in benchmark / conditional / generated / file kinds;
  :func:`build_workload` resolves through the same process memo
  (:data:`repro.flow.memo.PROCESS_MEMO`) as ``Flow()``, so the
  experiment drivers and flows share one built pair per spec;
* **catalogues** — re-exported from :mod:`repro.library.catalogues`:
  named PE catalogues (``default``, ``big-little``, ``accel-heavy``,
  ``many-core``) that ``LibrarySpec`` selects by name;
* **scenarios** — :class:`ScenarioSpec`: a base spec plus dotted-path
  parameter grids, expanding to deduplicated ``FlowSpec`` lists for
  :func:`repro.flow.run_many`; named suites (``paper-tables``,
  ``policy-ablation``, ``scaling-stress``, ``conditional-suite``)
  resolve through :func:`scenario_by_name`.

CLI: ``python -m repro scenarios list|show|run`` and
``python -m repro workloads list``.
"""

from ..library.catalogues import (
    CATALOGUES,
    CatalogueSpec,
    catalogue_by_name,
    catalogue_names,
    register_catalogue,
)
from .spec import ScenarioCase, ScenarioSpec, apply_overrides, scenario
from .suites import (
    SCENARIOS,
    register_scenario,
    run_scenario,
    scenario_by_name,
    scenario_names,
)
from .workloads import (
    WORKLOADS,
    build_graph,
    build_workload,
    clear_workload_cache,
    register_workload,
    workload_by_name,
    workload_names,
)

__all__ = [
    # catalogues
    "CatalogueSpec",
    "CATALOGUES",
    "register_catalogue",
    "catalogue_by_name",
    "catalogue_names",
    # scenario grids
    "ScenarioCase",
    "ScenarioSpec",
    "scenario",
    "apply_overrides",
    # suite registry
    "SCENARIOS",
    "register_scenario",
    "scenario_by_name",
    "scenario_names",
    "run_scenario",
    # workloads
    "WORKLOADS",
    "register_workload",
    "workload_by_name",
    "workload_names",
    "build_graph",
    "build_workload",
    "clear_workload_cache",
]
