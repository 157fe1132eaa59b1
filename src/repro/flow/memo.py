"""The warm-state memo under every :class:`~repro.flow.Flow`.

The insight the cache is built on: a :class:`~repro.flow.FlowSpec` is a
tree, and the expensive construction stages depend on *subtrees*, not
the whole spec.  Two specs that differ only in policy weight share the
same workload (graph + technology library) and the same thermal platform
(floorplan, RC network, Cholesky factor, query engine) — exactly the
repeated-platform shape of a policy sweep.  So :class:`EngineCache`
keys on **sub-spec content hashes**:

* :func:`library_subspec_hash` — graph source + library knobs + guard
  overrides; keys the built ``(graph, library)`` workload pair;
* :func:`floorplan_subspec_hash` — architecture + floorplan + catalogue;
* :func:`solver_subspec_hash` — the thermal solver knobs;
* :func:`platform_cache_key` — floorplan hash + solver hash; keys the
  built thermal model.

Hashes are SHA-256 prefixes of canonical (sorted-key) JSON of the
sub-spec dicts — the same construction as
:func:`~repro.flow.spec.spec_hash`, so they are stable across processes
and pinnable in tests (tests/test_serve.py pins literals).

Entries live in two :class:`~repro.caching.LRUCache` maps bounded by
count and bytes.  A stored platform is one built
:class:`~repro.thermal.hotspot.HotSpotModel` (query engine included)
over its own floorplan copy.  Every platform request returns a fresh
lease: its own architecture, a floorplan copy, and a
:meth:`~repro.thermal.hotspot.HotSpotModel.fork` of the stored model —
the shared network, factor and engine with fresh query counters — so
concurrent callers never share mutable objects.  Graph kinds in
:data:`~repro.flow.spec.UNCACHEABLE_GRAPH_KINDS`, and platforms whose
floorplanner or thermal solver is not a built-in factory (registered
factories, solvers other than HotSpot), are built fresh on every request
and never stored: a hash of the spec cannot see what a registered
factory does.
``max_entries=0`` disables storage — every request builds fresh, the
"cold" configuration benchmarks compare against.

:data:`PROCESS_MEMO` is the one process-wide instance ``Flow()`` and
:func:`~repro.scenarios.build_workload` resolve through; the serve
daemon passes its own.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from ..caching import LRUCache
from ..errors import FlowError
from ..floorplan.geometry import Floorplan
from ..library.catalogues import catalogue_by_name
from ..library.pe import Architecture
from ..obs import get_recorder
from ..thermal.hotspot import HotSpotModel
from ..thermal.package import default_package
from .registry import FLOORPLANNERS, THERMAL_SOLVERS
from .spec import UNCACHEABLE_GRAPH_KINDS, FloorplanSpec, FlowSpec, _digest

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "EngineCache",
    "PROCESS_MEMO",
    "PrebuiltPlatform",
    "subspec_hash",
    "floorplan_subspec_hash",
    "solver_subspec_hash",
    "library_subspec_hash",
    "platform_cache_key",
    "workload_cache_key",
]

#: Default per-layer entry budget; platforms for a few dozen distinct
#: architectures comfortably fit in memory.
DEFAULT_MAX_ENTRIES = 32

def subspec_hash(payload: Any) -> str:
    """Content hash of a JSON-ready payload (sorted keys, SHA-256[:20])."""
    return _digest(payload)


def _resolved_floorplan_spec(spec: FlowSpec) -> FloorplanSpec:
    """The floorplan sub-spec with the platform default resolved.

    ``floorplan=None`` and an explicit default ``FloorplanSpec
    (kind="platform")`` describe the same layout, so they must hash the
    same — otherwise a defaulted spec would never warm an explicit one.
    """
    return spec.floorplan or FloorplanSpec(kind="platform")


def floorplan_subspec_hash(spec: FlowSpec) -> str:
    """Hash of everything the die layout depends on.

    Architecture (PE types and count — they set the block list), the
    resolved floorplan spec (layout algorithm + its seed/GA budget), and
    the catalogue (it resolves the PE type names to physical PEs).
    """
    payload = spec._canonical
    floorplan = payload["floorplan"] or _resolved_floorplan_spec(spec).to_dict()
    return subspec_hash(
        {
            "architecture": payload["architecture"],
            "floorplan": floorplan,
            "catalogue": payload["library"]["catalogue"],
        }
    )


def solver_subspec_hash(spec: FlowSpec) -> str:
    """Hash of the thermal solver knobs (solver name + ambient)."""
    return subspec_hash(spec._canonical["thermal"])


def _workload_hash(graph_spec, library_spec, guard_probabilities) -> str:
    return subspec_hash(
        {
            "graph": graph_spec.to_dict(),
            "library": library_spec.to_dict(),
            "guard_probabilities": [list(entry) for entry in guard_probabilities],
        }
    )


def library_subspec_hash(spec: FlowSpec) -> str:
    """Hash of everything the built workload pair depends on.

    The technology library is generated per graph (stable per-graph
    seed), so the graph source is part of the library's identity, as are
    guard-probability overrides for conditional graphs.
    """
    payload = spec._canonical
    return subspec_hash(
        {
            "graph": payload["graph"],
            "library": payload["library"],
            "guard_probabilities": payload["conditional"]["guard_probabilities"],
        }
    )


def platform_cache_key(spec: FlowSpec) -> str:
    """The engine-cache key for the prebuilt thermal platform."""
    return f"{floorplan_subspec_hash(spec)}:{solver_subspec_hash(spec)}"


def workload_cache_key(spec: FlowSpec) -> str:
    """The engine-cache key for the built ``(graph, library)`` pair."""
    return library_subspec_hash(spec)


#: The factories a stored platform may come from: the built-in
#: floorplanners and the HotSpot solver (the one whose model forks).  Checked by identity, so a name unregistered and
#: registered again with another factory builds fresh.
_STORABLE_FLOORPLANNERS = {
    kind: FLOORPLANNERS.get(kind)
    for kind in ("platform", "grid", "row", "genetic", "annealing", "explicit")
}
_STORABLE_SOLVER = THERMAL_SOLVERS.get("hotspot")


def _build_architecture(spec: FlowSpec) -> Architecture:
    """The platform architecture *spec* describes, from its catalogue.

    The default spec resolves to the catalogue's platform PE —
    byte-identical to :func:`repro.library.presets.default_platform` for
    the default catalogue.
    """
    catalogue = catalogue_by_name(spec.library.catalogue)
    arch = spec.architecture
    if arch.pes:
        architecture = Architecture(arch.name)
        for type_name in arch.pes:
            architecture.add_instance(catalogue.pe_type(type_name))
        return architecture
    pe_name = arch.pe or catalogue.platform_pe
    if pe_name is None:
        raise FlowError(
            f"catalogue {catalogue.name!r} declares no platform PE; "
            f"set architecture.pe (available: {catalogue.type_names()})"
        )
    return Architecture.homogeneous(arch.name, catalogue.pe_type(pe_name), arch.count)


def _build_package(spec: FlowSpec):
    package = default_package()
    if spec.thermal.ambient_c is not None:
        package = replace(package, ambient_c=spec.thermal.ambient_c)
    return package


@dataclass
class PrebuiltPlatform:
    """A ready-to-schedule platform leased from an :class:`EngineCache`.

    The architecture, the laid-out floorplan, and a thermal model whose
    network/factorisation/query engine are already constructed (see
    :meth:`repro.thermal.HotSpotModel.fork`).  Every lease is
    private: the architecture and floorplan are its own objects, and the
    thermal model's query counters start at zero so a result's
    diagnostics describe its run only.  ``bypassed`` marks a platform
    built fresh outside the cache (see :meth:`EngineCache.platform_for`).
    """

    architecture: Architecture
    floorplan: Floorplan
    thermal: Any
    bypassed: bool = False


def _model_nbytes(model: HotSpotModel) -> int:
    """Rough resident size of a stored thermal model (the dense arrays)."""
    engine = model.query_engine()
    factor = 8 * len(model.network) ** 2
    return engine.response.nbytes + engine.avg_sensitivity.nbytes + factor


def _workload_nbytes(graph: Any, library: Any) -> int:
    """Rough resident size of a built workload pair.

    Graphs and libraries are small python object webs; a per-task
    estimate is plenty for capacity planning (the byte budget is
    advisory — see :class:`~repro.caching.LRUCache`).
    """
    try:
        tasks = len(graph.tasks())
    except (AttributeError, TypeError):
        tasks = 16
    return 4096 + 1024 * tasks


class EngineCache:
    """Content-hash-keyed LRU over built workloads and thermal platforms.

    The cache :class:`~repro.flow.Flow` resolves through:
    ``workload_for(spec)`` and ``platform_for(spec)`` build on miss and
    store, so a cold entry costs one construction and every subsequent
    spec sharing the sub-tree hits warm state.  Thread-safe: the
    underlying LRUs lock internally, and every platform is a private
    lease.  Two threads missing the same key concurrently both build
    (last put wins) — wasted work, never wrong results, and rare enough
    in practice not to be worth a per-key lock.

    ``max_entries=0`` disables storage (every request cold-builds) —
    the benchmark baseline and an operator escape hatch.
    """

    def __init__(
        self,
        max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
        max_bytes: Optional[int] = None,
    ):
        self.workloads = LRUCache(max_entries=max_entries, max_bytes=max_bytes)
        self.platforms = LRUCache(max_entries=max_entries, max_bytes=max_bytes)
        self._lock = threading.Lock()
        self.workload_bypasses = 0
        self.platform_bypasses = 0

    # -- the Flow cache hooks ------------------------------------------
    def workload_for(self, spec: FlowSpec) -> Tuple[Any, Any]:
        """The built ``(graph, library)`` pair for *spec*, warm or fresh."""
        cacheable = spec.graph.kind not in UNCACHEABLE_GRAPH_KINDS
        return self._workload(
            workload_cache_key(spec) if cacheable else None,
            spec.graph, spec.library, spec.conditional.guard_probabilities,
        )

    def workload(
        self, graph_spec, library_spec, guard_probabilities=()
    ) -> Tuple[Any, Any]:
        """The built ``(graph, library)`` pair for one sub-spec triple.

        Uncacheable graph kinds (files, registered factories — their
        content is invisible to the hash) build fresh every time and
        are counted as bypasses.
        """
        cacheable = graph_spec.kind not in UNCACHEABLE_GRAPH_KINDS
        return self._workload(
            _workload_hash(graph_spec, library_spec, guard_probabilities)
            if cacheable else None,
            graph_spec, library_spec, guard_probabilities,
        )

    def _workload(
        self, key: Optional[str], graph_spec, library_spec, guard_probabilities
    ) -> Tuple[Any, Any]:
        """:meth:`workload` under a precomputed *key*; ``None`` bypasses."""
        from ..scenarios.workloads import _construct_workload  # late: cyclic

        if key is None:
            with self._lock:
                self.workload_bypasses += 1
            return _construct_workload(graph_spec, library_spec, guard_probabilities)
        pair = self.workloads.get(key)
        if pair is None:
            pair = _construct_workload(graph_spec, library_spec, guard_probabilities)
            self.workloads.put(key, pair, size=_workload_nbytes(*pair))
        return pair

    def platform_for(self, spec: FlowSpec) -> PrebuiltPlatform:
        """A private :class:`PrebuiltPlatform` lease for *spec*.

        Only platforms built by a built-in floorplanner and the built-in
        HotSpot solver are stored; any other factory builds fresh and
        counts as a bypass.  Emits ``flow.floorplan`` and
        ``flow.thermal_build`` spans with a ``cached`` attribute.
        """
        rec = get_recorder()
        floorplan_spec = _resolved_floorplan_spec(spec)
        floorplanner = FLOORPLANNERS.get(floorplan_spec.kind)
        solver = THERMAL_SOLVERS.get(spec.thermal.solver)
        storable = (
            _STORABLE_FLOORPLANNERS.get(floorplan_spec.kind) is floorplanner
            and solver is _STORABLE_SOLVER
        )
        key = platform_cache_key(spec) if storable else None
        stored = self.platforms.get(key) if storable else None
        cached = stored is not None
        with rec.span("flow.floorplan", cached=cached):
            # the architecture object is rebuilt per lease: it is cheap
            # (catalogue lookups) and schedulers receive a private instance
            architecture = _build_architecture(spec)
            if stored is None:
                floorplan = floorplanner(architecture, floorplan_spec)
            else:
                floorplan = Floorplan(stored.floorplan)
        with rec.span("flow.thermal_build", solver=spec.thermal.solver, cached=cached):
            if stored is None:
                package = _build_package(spec)
                if not storable:
                    with self._lock:
                        self.platform_bypasses += 1
                    model = solver(floorplan, package, spec.thermal)
                    return PrebuiltPlatform(
                        architecture, floorplan, model, bypassed=True
                    )
                # the stored model keeps its own floorplan copy: leases
                # may mutate theirs
                stored = solver(Floorplan(floorplan), package, spec.thermal)
                stored.query_engine()  # built once, shared by every lease
                self.platforms.put(key, stored, size=_model_nbytes(stored))
            model = stored.fork(floorplan)
        return PrebuiltPlatform(architecture, floorplan, model)

    # -- introspection -------------------------------------------------
    def clear(self) -> None:
        """Drop every cached entry (counters survive — provenance)."""
        self.workloads.clear()
        self.platforms.clear()

    def stats(self) -> Dict[str, Any]:
        """Per-layer LRU counters + bypass counts (the ``/stats`` rows)."""
        with self._lock:
            bypasses = {
                "workload_bypasses": self.workload_bypasses,
                "platform_bypasses": self.platform_bypasses,
            }
        return {
            "workloads": self.workloads.stats(),
            "platforms": self.platforms.stats(),
            **bypasses,
        }

    def __repr__(self) -> str:
        return (
            f"EngineCache(workloads={len(self.workloads)}, "
            f"platforms={len(self.platforms)})"
        )


#: The process-wide memo ``Flow()`` and ``build_workload`` resolve through.
PROCESS_MEMO = EngineCache()
