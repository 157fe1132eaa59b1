"""Sub-spec hashing + the warm :class:`EngineCache` behind the daemon.

The insight the cache is built on: a :class:`~repro.flow.FlowSpec` is a
tree, and the expensive construction stages depend on *subtrees*, not
the whole spec.  Two specs that differ only in policy weight share the
same workload (graph + technology library) and the same thermal platform
(floorplan, RC network, Cholesky factor, query engine) — exactly the
repeated-platform shape of a policy sweep arriving one request at a
time.  So the cache keys on **sub-spec content hashes**:

* :func:`library_subspec_hash` — graph source + library knobs + guard
  overrides; keys the built ``(graph, library)`` workload pair;
* :func:`floorplan_subspec_hash` — architecture + floorplan + catalogue;
* :func:`solver_subspec_hash` — the thermal solver knobs;
* :func:`platform_cache_key` — floorplan hash + solver hash; keys the
  prebuilt thermal platform bundle.

Hashes are SHA-256 prefixes of canonical (sorted-key) JSON of the
sub-spec dicts — the same construction as
:func:`~repro.flow.spec.spec_hash`, so they are stable across processes
and pinnable in tests (tests/test_serve.py pins literals).

Entries live in two :class:`~repro.caching.LRUCache` maps bounded by
count and bytes.  A cache *hit* leases fresh-counter forks of the shared
immutable state (see :meth:`HotSpotModel.from_prebuilt
<repro.thermal.HotSpotModel.from_prebuilt>`), so concurrent worker
threads never share mutable query counters.  ``max_entries=0`` disables
storage — every request builds fresh, which is the daemon's "cold"
configuration and the baseline benchmarks compare against.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..caching import LRUCache
from ..flow.registry import FLOORPLANNERS, THERMAL_SOLVERS
from ..flow.spec import UNCACHEABLE_GRAPH_KINDS, FloorplanSpec, FlowSpec
from ..thermal.hotspot import HotSpotModel

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "EngineCache",
    "PlatformBundle",
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

#: Hash prefix length, matching :func:`repro.flow.spec.spec_hash`.
_HASH_LEN = 20


def subspec_hash(payload: Any) -> str:
    """Content hash of a JSON-ready payload (sorted keys, SHA-256[:20])."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:_HASH_LEN]


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
    return subspec_hash(
        {
            "architecture": spec.architecture.to_dict(),
            "floorplan": _resolved_floorplan_spec(spec).to_dict(),
            "catalogue": spec.library.catalogue,
        }
    )


def solver_subspec_hash(spec: FlowSpec) -> str:
    """Hash of the thermal solver knobs (solver name + ambient)."""
    return subspec_hash(spec.thermal.to_dict())


def library_subspec_hash(spec: FlowSpec) -> str:
    """Hash of everything the built workload pair depends on.

    The technology library is generated per graph (stable per-graph
    seed), so the graph source is part of the library's identity, as are
    guard-probability overrides for conditional graphs.
    """
    return subspec_hash(
        {
            "graph": spec.graph.to_dict(),
            "library": spec.library.to_dict(),
            "guard_probabilities": [
                list(entry) for entry in spec.conditional.guard_probabilities
            ],
        }
    )


def platform_cache_key(spec: FlowSpec) -> str:
    """The engine-cache key for the prebuilt thermal platform."""
    return f"{floorplan_subspec_hash(spec)}:{solver_subspec_hash(spec)}"


def workload_cache_key(spec: FlowSpec) -> str:
    """The engine-cache key for the built ``(graph, library)`` pair."""
    return library_subspec_hash(spec)


@dataclass
class PlatformBundle:
    """The shareable, immutable parts of one prebuilt thermal platform.

    What :meth:`HotSpotModel.prebuilt_state` extracts, plus the
    floorplan/package it was built over.  Leases fork fresh counters;
    the bundle itself is never handed to a scheduler directly.
    """

    floorplan: Any
    package: Any
    network: Any
    solver: Any
    engine: Any


def _bundle_nbytes(bundle: PlatformBundle) -> int:
    """Rough resident size of a platform bundle (the dense arrays)."""
    total = 0
    for array in (
        getattr(bundle.engine, "response", None),
        getattr(bundle.engine, "avg_sensitivity", None),
    ):
        total += getattr(array, "nbytes", 0)
    factor = getattr(bundle.solver, "_factor", None)
    if factor:
        total += getattr(factor[0], "nbytes", 0)
    return total or 4096


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

    The duck-typed cache :class:`~repro.flow.Flow` accepts: it exposes
    ``workload_for(spec)`` and ``platform_for(spec)``.  Both build on
    miss and store, so a cold entry costs one construction and every
    subsequent spec sharing the sub-tree hits warm state.  Thread-safe:
    the underlying LRUs lock internally, and hits lease fresh-counter
    forks so worker threads never share mutable solver state.  Two
    threads missing the same key concurrently both build (last put
    wins) — wasted work, never wrong results, and rare enough in
    practice not to be worth a per-key lock.

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
        """The built ``(graph, library)`` pair for *spec*, warm or fresh.

        Always returns a pair (building on miss); uncacheable graph
        kinds build fresh every time and are counted as bypasses.  The
        per-process workload memo is deliberately bypassed
        (``memo=False``) — the daemon's only workload cache is this
        bounded one.
        """
        from ..scenarios.workloads import build_workload  # late: cyclic

        if spec.graph.kind in UNCACHEABLE_GRAPH_KINDS:
            with self._lock:
                self.workload_bypasses += 1
            return build_workload(
                spec.graph,
                spec.library,
                spec.conditional.guard_probabilities,
                memo=False,
            )
        key = workload_cache_key(spec)
        pair = self.workloads.get(key)
        if pair is not None:
            return pair
        pair = build_workload(
            spec.graph,
            spec.library,
            spec.conditional.guard_probabilities,
            memo=False,
        )
        self.workloads.put(key, pair, size=_workload_nbytes(*pair))
        return pair

    def platform_for(self, spec: FlowSpec) -> Optional[Any]:
        """A :class:`~repro.flow.PrebuiltPlatform` lease, or ``None``.

        ``None`` means bypass — the flow builds its own platform.  Only
        the built-in HotSpot solver is engine-cached (it is the one with
        extractable prebuilt state); other solvers, and registered
        solver factories that return something else, bypass.
        """
        from ..flow.runner import PrebuiltPlatform, _build_architecture, _build_package

        if spec.thermal.solver != "hotspot":
            with self._lock:
                self.platform_bypasses += 1
            return None
        # the architecture object is rebuilt per lease: it is cheap
        # (catalogue lookups) and schedulers receive a private instance
        architecture = _build_architecture(spec)
        key = platform_cache_key(spec)
        bundle = self.platforms.get(key)
        if bundle is None:
            floorplan_spec = _resolved_floorplan_spec(spec)
            floorplan = FLOORPLANNERS.get(floorplan_spec.kind)(
                architecture, floorplan_spec
            )
            package = _build_package(spec)
            model = THERMAL_SOLVERS.get(spec.thermal.solver)(
                floorplan, package, spec.thermal
            )
            if not isinstance(model, HotSpotModel):
                with self._lock:
                    self.platform_bypasses += 1
                return None
            network, solver, engine = model.prebuilt_state()
            bundle = PlatformBundle(floorplan, package, network, solver, engine)
            self.platforms.put(key, bundle, size=_bundle_nbytes(bundle))
        model = HotSpotModel.from_prebuilt(
            bundle.floorplan,
            bundle.package,
            bundle.network,
            bundle.solver,
            bundle.engine,
        )
        return PrebuiltPlatform(
            architecture=architecture, floorplan=bundle.floorplan, thermal=model
        )

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
