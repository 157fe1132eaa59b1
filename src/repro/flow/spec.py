"""Declarative flow specifications — the serializable front door.

A :class:`FlowSpec` is a frozen dataclass tree describing one complete
run of the reproduction's substrate: which graph, which technology
library, which DC policy, which architecture/floorplanner/thermal solver,
which communication model, and which optional post-passes (DVFS slack
reclamation, leakage fixed-point, conditional-scenario aggregation).

Specs are *data*: two equal specs describe the same computation, every
spec round-trips losslessly through ``dict`` and JSON, and
:func:`spec_hash` gives a stable content address used by the
:func:`~repro.flow.batch.run_many` result cache.

Quick construction helpers mirror the two paper flows::

    spec = platform_spec("Bm1", policy="thermal")
    spec = cosynthesis_spec("Bm2", policy="heuristic3")

Serialization is **strict**: unknown keys raise
:class:`~repro.errors.FlowSpecError` (a silently ignored typo in a sweep
config would quietly run the wrong experiment), and ``from_dict(to_dict)``
is the identity for every valid spec.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import FlowSpecError, TaskGraphError
from ..taskgraph.benchmarks import BENCHMARK_SPECS
from ..taskgraph.generator import default_family_graph_name, family_graph_spec

__all__ = [
    "GRAPH_SOURCE_KINDS",
    "GraphSourceSpec",
    "generated_source",
    "file_source",
    "registered_source",
    "LibrarySpec",
    "PolicySpec",
    "ArchitectureSpec",
    "FloorplanSpec",
    "ThermalSpec",
    "CommSpec",
    "CoSynthSpec",
    "DVFSLevelSpec",
    "DVFSSpec",
    "LeakageSpec",
    "ConditionalSpec",
    "FlowSpec",
    "platform_spec",
    "cosynthesis_spec",
    "spec_hash",
]


# ----------------------------------------------------------------------
# serialization plumbing
# ----------------------------------------------------------------------
def _require_mapping(cls: type, data: Any) -> Dict[str, Any]:
    """Validate *data* is a mapping with only known keys for *cls*."""
    if not isinstance(data, Mapping):
        raise FlowSpecError(
            f"{cls.__name__} expects a mapping, got {type(data).__name__}"
        )
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise FlowSpecError(
            f"unknown {cls.__name__} keys {unknown}; known: {sorted(known)}"
        )
    return dict(data)


def _scalar_fields_to_dict(spec: Any) -> Dict[str, Any]:
    """``asdict`` for flat (scalar-field-only) spec dataclasses."""
    return {f.name: getattr(spec, f.name) for f in fields(spec)}


class _FlatSpec:
    """Shared to/from-dict for spec nodes whose fields are all scalars."""

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return _scalar_fields_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "_FlatSpec":
        """Rebuild from :meth:`to_dict` output; strict on unknown keys."""
        return cls(**_require_mapping(cls, data))


# ----------------------------------------------------------------------
# spec nodes
# ----------------------------------------------------------------------
#: Workload source kinds a :class:`GraphSourceSpec` may name.
GRAPH_SOURCE_KINDS = ("benchmark", "conditional", "generated", "file", "registered")

#: Graph-source kinds whose workload lives outside the spec (a file on
#: disk, a registered factory).  ``spec_hash`` cannot see their content,
#: so no content-addressed cache (the ``run_many`` result cache, the serve
#: engine cache) may key them by hash — they are always rebuilt.
UNCACHEABLE_GRAPH_KINDS = ("file", "registered")

#: GraphSourceSpec fields meaningful only for ``kind="generated"``.
_GENERATED_FIELDS = (
    "family", "tasks", "seed", "width", "density", "ccr", "deadline_slack",
)


@dataclass(frozen=True)
class GraphSourceSpec(_FlatSpec):
    """Where the workload graph comes from.

    * ``kind="benchmark"`` — one of the paper's Bm1–Bm4 graphs
      (``name`` defaults to ``"Bm1"``);
    * ``kind="conditional"`` — a built-in conditional task graph (the
      video-pipeline CTG used by the conditional-scheduling extension);
    * ``kind="generated"`` — a seeded TGFF-style family from
      :mod:`repro.taskgraph.generator` (``family``/``tasks``/``seed``
      plus optional ``width``/``density``/``ccr``/``deadline_slack``);
      ``name`` becomes the generated graph's name — an empty name means
      the self-describing ``"<family>-<tasks>t[-s<seed>]"`` default,
      derived at build time so grid overrides of ``tasks``/``seed``
      always relabel the graph;
    * ``kind="file"`` — a graph loaded through
      :func:`repro.taskgraph.io.load_graph` from ``path`` (the graph's
      name comes from the file, so ``name`` must stay empty);
    * ``kind="registered"`` — a workload registered by name through
      :func:`repro.scenarios.register_workload`.

    Fields that do not apply to the chosen kind must be left at ``None``
    — a ``tasks=`` on a benchmark source would silently describe a
    different computation than the one that runs.  Generated knobs are
    validated here, at spec construction, so an invalid grid axis fails
    at ``expand()`` time rather than mid-sweep.
    """

    kind: str = "benchmark"
    name: str = ""
    # generated-workload knobs (kind="generated" only)
    family: Optional[str] = None
    tasks: Optional[int] = None
    seed: Optional[int] = None
    width: Optional[int] = None
    density: Optional[float] = None
    ccr: Optional[float] = None
    deadline_slack: Optional[float] = None
    # file source (kind="file" only)
    path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in GRAPH_SOURCE_KINDS:
            raise FlowSpecError(
                f"graph source kind must be one of {GRAPH_SOURCE_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind != "generated":
            stray = [f for f in _GENERATED_FIELDS if getattr(self, f) is not None]
            if stray:
                raise FlowSpecError(
                    f"graph source fields {stray} apply to kind='generated' "
                    f"only, not {self.kind!r}"
                )
        else:
            for field_name, kinds in (
                ("family", str),
                ("tasks", int),
                ("seed", int),
                ("width", int),
                ("density", (int, float)),
                ("ccr", (int, float)),
                ("deadline_slack", (int, float)),
            ):
                value = getattr(self, field_name)
                if value is not None and (
                    isinstance(value, bool) or not isinstance(value, kinds)
                ):
                    raise FlowSpecError(
                        f"generated graph source field {field_name!r} must "
                        f"be a {getattr(kinds, '__name__', 'number')}, got "
                        f"{value!r}"
                    )
            if self.tasks is None or self.tasks < 1:
                raise FlowSpecError(
                    f"generated graph sources need tasks >= 1, got {self.tasks!r}"
                )
            if self.name in BENCHMARK_SPECS:
                # e.g. --set graph.kind=generated on a benchmark base:
                # a generated graph wearing a paper benchmark's name
                # would misattribute every reported row
                raise FlowSpecError(
                    f"generated graph sources may not reuse the benchmark "
                    f"name {self.name!r}; set graph.name (empty picks the "
                    f"self-describing default)"
                )
            # full family validation now: a bad width/density/family in a
            # grid axis must fail at expand() time, not mid-sweep
            try:
                family_graph_spec(
                    self.family or "layered",
                    self.name
                    or default_family_graph_name(
                        self.family or "layered", self.tasks, self.seed
                    ),
                    self.tasks,
                    width=self.width,
                    density=self.density,
                    ccr=self.ccr,
                    deadline_slack=self.deadline_slack,
                )
            except TaskGraphError as exc:
                raise FlowSpecError(f"invalid generated graph source: {exc}") from exc
        if self.kind == "benchmark" and not self.name:
            object.__setattr__(self, "name", "Bm1")
        if self.kind == "file":
            if not self.path:
                raise FlowSpecError("file graph sources need a path")
            if self.name:
                raise FlowSpecError(
                    "file graph sources take their name from the file; "
                    "leave name empty (see file_source())"
                )
        elif self.path is not None:
            raise FlowSpecError(
                f"graph source path applies to kind='file' only, not {self.kind!r}"
            )
        if self.kind in ("conditional", "registered") and not self.name:
            raise FlowSpecError(f"{self.kind} graph sources need a name")


@dataclass(frozen=True)
class LibrarySpec(_FlatSpec):
    """Technology-library generation knobs.

    ``seed=None`` keeps the stable per-graph default (each benchmark gets
    its own reproducible library, as in the seed reproduction).
    ``catalogue`` names a registered PE catalogue (see
    :func:`repro.library.register_catalogue`); the default is the paper's
    five-type embedded catalogue.  The catalogue also supplies the PE
    types the platform architecture and the co-synthesis search draw
    from.
    """

    seed: Optional[int] = None
    catalogue: str = "default"

    def __post_init__(self) -> None:
        if not self.catalogue or not isinstance(self.catalogue, str):
            raise FlowSpecError(
                f"library catalogue must be a non-empty name, got "
                f"{self.catalogue!r}"
            )


@dataclass(frozen=True)
class PolicySpec(_FlatSpec):
    """The DC policy by registry name (see ``repro.POLICY_NAMES``).

    ``weight=None`` keeps the policy's calibrated default weight;
    ``peak_fraction`` applies to the ``thermal-hybrid`` variant only.
    """

    name: str = "thermal"
    weight: Optional[float] = None
    peak_fraction: Optional[float] = None


@dataclass(frozen=True)
class ArchitectureSpec(_FlatSpec):
    """The fixed platform architecture (Figure 1b flows).

    The default is ``count`` identical cores of the library catalogue's
    platform PE type — for the default catalogue that is
    :data:`~repro.library.presets.PLATFORM_PE`, exactly like
    :func:`~repro.library.presets.default_platform`.

    ``pe`` names a different catalogue PE type for a homogeneous
    platform; ``pes`` lists catalogue type names one-per-core for a
    heterogeneous platform.  With ``pes`` set, ``count`` is derived from
    it (``None`` or ``len(pes)`` accepted; anything else raises — a
    count sweep over a heterogeneous base would otherwise silently
    collapse).
    """

    count: Optional[int] = None
    name: str = "platform"
    pe: Optional[str] = None
    pes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.pes, tuple):
            object.__setattr__(self, "pes", tuple(self.pes))
        if self.pes:
            if self.pe is not None:
                raise FlowSpecError(
                    "architecture pe and pes are mutually exclusive"
                )
            if any(not isinstance(entry, str) or not entry for entry in self.pes):
                raise FlowSpecError(
                    f"architecture pes must be PE type names, got {self.pes!r}"
                )
            if self.count is not None and self.count != len(self.pes):
                raise FlowSpecError(
                    f"architecture count {self.count} contradicts the "
                    f"{len(self.pes)} explicit pes entries; drop count or "
                    f"make them agree"
                )
            object.__setattr__(self, "count", len(self.pes))
        elif self.count is None:
            object.__setattr__(self, "count", 4)
        if self.count < 1:
            raise FlowSpecError(f"architecture count must be >= 1, got {self.count}")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        payload = _scalar_fields_to_dict(self)
        payload["pes"] = list(self.pes)
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ArchitectureSpec":
        """Rebuild from :meth:`to_dict` output; strict on unknown keys."""
        payload = _require_mapping(cls, data)
        pes = payload.pop("pes", ())
        if not isinstance(pes, (list, tuple)):
            raise FlowSpecError("architecture pes must be a list")
        return cls(pes=tuple(pes), **payload)


@dataclass(frozen=True)
class FloorplanSpec(_FlatSpec):
    """Which registered floorplanner lays out the die, and its budget.

    The GA fields mirror :class:`~repro.floorplan.genetic.GeneticConfig`
    one-for-one; they apply to the genetic floorplanner (and to the
    per-candidate floorplans of the co-synthesis flow), the other kinds
    ignore them.

    ``kind="explicit"`` lays the die out verbatim from ``placement`` —
    a tuple of ``(block_name, x, y, w, h)`` rectangles in mm, one per PE.
    This is how the DSE driver pins a candidate's mutated floorplan into
    an otherwise ordinary :class:`FlowSpec`.  ``placement`` must stay
    empty for every other kind; serialization omits the field when empty
    so existing spec hashes are unchanged.
    """

    kind: str = "platform"
    seed: int = 2005
    population_size: int = 16
    generations: int = 20
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.35
    elite_count: int = 2
    init_shuffle_moves: int = 4
    placement: Tuple[Tuple[str, float, float, float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise FlowSpecError("floorplan population_size must be >= 2")
        if self.generations < 1:
            raise FlowSpecError("floorplan generations must be >= 1")
        if not isinstance(self.placement, tuple):
            object.__setattr__(
                self,
                "placement",
                tuple(tuple(entry) for entry in self.placement),
            )
        else:
            object.__setattr__(
                self,
                "placement",
                tuple(
                    entry if isinstance(entry, tuple) else tuple(entry)
                    for entry in self.placement
                ),
            )
        for entry in self.placement:
            if (
                len(entry) != 5
                or not isinstance(entry[0], str)
                or not entry[0]
                or any(
                    isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    for value in entry[1:]
                )
            ):
                raise FlowSpecError(
                    f"floorplan placement entries must be "
                    f"(name, x, y, w, h) tuples, got {entry!r}"
                )
        if self.placement:
            names = [entry[0] for entry in self.placement]
            if len(set(names)) != len(names):
                raise FlowSpecError(
                    f"floorplan placement repeats block names: {names}"
                )
            if self.kind != "explicit":
                raise FlowSpecError(
                    f"floorplan placement applies to kind='explicit' only, "
                    f"not {self.kind!r}"
                )
        elif self.kind == "explicit":
            raise FlowSpecError(
                "explicit floorplans need a non-empty placement"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready); ``placement`` omitted when empty."""
        payload = _scalar_fields_to_dict(self)
        if self.placement:
            payload["placement"] = [list(entry) for entry in self.placement]
        else:
            del payload["placement"]
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FloorplanSpec":
        """Rebuild from :meth:`to_dict` output; strict on unknown keys."""
        payload = _require_mapping(cls, data)
        placement = payload.pop("placement", ())
        if not isinstance(placement, (list, tuple)):
            raise FlowSpecError("floorplan placement must be a list")
        return cls(
            placement=tuple(tuple(entry) for entry in placement), **payload
        )

    def genetic_config(self):
        """The equivalent :class:`GeneticConfig` (validates the fields)."""
        from ..floorplan.genetic import GeneticConfig

        return GeneticConfig(
            population_size=self.population_size,
            generations=self.generations,
            tournament_size=self.tournament_size,
            crossover_rate=self.crossover_rate,
            mutation_rate=self.mutation_rate,
            elite_count=self.elite_count,
            init_shuffle_moves=self.init_shuffle_moves,
        )


@dataclass(frozen=True)
class ThermalSpec(_FlatSpec):
    """Which registered thermal solver scores the floorplan.

    ``ambient_c=None`` keeps the calibrated package ambient.
    """

    solver: str = "hotspot"
    ambient_c: Optional[float] = None


@dataclass(frozen=True)
class CommSpec(_FlatSpec):
    """Communication-cost model: the paper's free model or a shared bus."""

    kind: str = "zero"
    bandwidth: float = 4.0
    latency: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "shared-bus"):
            raise FlowSpecError(
                f"comm kind must be 'zero' or 'shared-bus', got {self.kind!r}"
            )


@dataclass(frozen=True)
class CoSynthSpec(_FlatSpec):
    """Co-synthesis search knobs (Figure 1a flows).

    ``final_cost`` / ``screening`` name cost functions ("power",
    "thermal", "performance" / "default", "performance"); ``None`` keeps
    the framework's policy-driven defaults.
    """

    max_pes: int = 4
    min_pes: int = 1
    screening_keep: int = 6
    refine_iterations: int = 2
    thermal_floorplanning: bool = True
    final_cost: Optional[str] = None
    screening: Optional[str] = None

    def __post_init__(self) -> None:
        if self.final_cost not in (None, "power", "thermal", "performance"):
            raise FlowSpecError(
                f"final_cost must be power/thermal/performance, got "
                f"{self.final_cost!r}"
            )
        if self.screening not in (None, "default", "performance"):
            raise FlowSpecError(
                f"screening must be default/performance, got {self.screening!r}"
            )


@dataclass(frozen=True)
class DVFSLevelSpec(_FlatSpec):
    """One DVFS operating point (fractions of the nominal V/F)."""

    name: str
    frequency: float
    voltage: float


@dataclass(frozen=True)
class DVFSSpec:
    """DVFS slack-reclamation post-pass.

    An empty ``levels`` tuple means the calibrated
    :data:`~repro.extensions.dvfs.DEFAULT_LEVELS` ladder.
    """

    enabled: bool = False
    levels: Tuple[DVFSLevelSpec, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return {
            "enabled": self.enabled,
            "levels": [level.to_dict() for level in self.levels],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DVFSSpec":
        """Rebuild from :meth:`to_dict` output; strict on unknown keys."""
        payload = _require_mapping(cls, data)
        levels = payload.pop("levels", ())
        if not isinstance(levels, (list, tuple)):
            raise FlowSpecError("dvfs levels must be a list")
        return cls(
            levels=tuple(DVFSLevelSpec.from_dict(level) for level in levels),
            **payload,
        )


@dataclass(frozen=True)
class LeakageSpec(_FlatSpec):
    """Leakage-thermal fixed-point post-pass (exponential leakage fit)."""

    enabled: bool = False
    leakage_fraction: float = 0.15
    beta: float = 0.02
    t_ref_c: float = 65.0


@dataclass(frozen=True)
class ConditionalSpec:
    """Conditional-scenario aggregation for conditional graph sources.

    ``guard_probabilities`` optionally re-declares guard outcome
    probabilities as ``(guard, outcome, probability)`` triples.  An
    override replaces a guard's *entire* distribution — every declared
    outcome must appear and the probabilities must sum to 1 (partial
    overrides raise :class:`~repro.errors.FlowSpecError`).
    """

    enabled: bool = False
    guard_probabilities: Tuple[Tuple[str, str, float], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return {
            "enabled": self.enabled,
            "guard_probabilities": [list(entry) for entry in self.guard_probabilities],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ConditionalSpec":
        """Rebuild from :meth:`to_dict` output; strict on unknown keys."""
        payload = _require_mapping(cls, data)
        triples = payload.pop("guard_probabilities", ())
        if not isinstance(triples, (list, tuple)):
            raise FlowSpecError("guard_probabilities must be a list of triples")
        converted = []
        for entry in triples:
            if len(entry) != 3:
                raise FlowSpecError(
                    f"guard probability entries are (guard, outcome, p) "
                    f"triples, got {entry!r}"
                )
            guard, outcome, probability = entry
            converted.append((str(guard), str(outcome), float(probability)))
        return cls(guard_probabilities=tuple(converted), **payload)


#: FlowSpec field name -> nested spec class (serialization table).
_NESTED = {
    "graph": GraphSourceSpec,
    "library": LibrarySpec,
    "policy": PolicySpec,
    "architecture": ArchitectureSpec,
    "floorplan": FloorplanSpec,
    "thermal": ThermalSpec,
    "comm": CommSpec,
    "cosynth": CoSynthSpec,
    "dvfs": DVFSSpec,
    "leakage": LeakageSpec,
    "conditional": ConditionalSpec,
}


@dataclass(frozen=True)
class FlowSpec:
    """One declarative, serializable flow configuration.

    ``flow`` names a registered flow kind (``"platform"`` or
    ``"cosynthesis"`` built in; see :func:`~repro.flow.register_flow`).
    ``floorplan=None`` resolves to the flow kind's canonical layout: the
    fixed grid for platform flows, the thermal/area GA for co-synthesis.
    """

    flow: str = "platform"
    graph: GraphSourceSpec = field(default_factory=GraphSourceSpec)
    library: LibrarySpec = field(default_factory=LibrarySpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    architecture: ArchitectureSpec = field(default_factory=ArchitectureSpec)
    floorplan: Optional[FloorplanSpec] = None
    thermal: ThermalSpec = field(default_factory=ThermalSpec)
    comm: CommSpec = field(default_factory=CommSpec)
    cosynth: CoSynthSpec = field(default_factory=CoSynthSpec)
    dvfs: DVFSSpec = field(default_factory=DVFSSpec)
    leakage: LeakageSpec = field(default_factory=LeakageSpec)
    conditional: ConditionalSpec = field(default_factory=ConditionalSpec)

    def __post_init__(self) -> None:
        if not self.flow or not isinstance(self.flow, str):
            raise FlowSpecError(f"flow kind must be a non-empty string, got {self.flow!r}")
        if self.dvfs.enabled and self.graph.kind == "conditional":
            raise FlowSpecError(
                "the DVFS post-pass needs a single schedule; conditional "
                "flows aggregate many (disable dvfs or conditional)"
            )
        if self.conditional.enabled and self.graph.kind not in (
            "conditional",
            "registered",
        ):
            raise FlowSpecError(
                "conditional aggregation needs a conditional graph source "
                "(graph.kind 'conditional', or 'registered' naming a "
                f"conditional workload); got {self.graph.kind!r}"
            )
        if self.graph.kind == "conditional" and not self.conditional.enabled:
            raise FlowSpecError(
                "conditional graph sources need conditional.enabled = True"
            )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Nested plain-dict form; ``from_dict`` restores it exactly."""
        payload: Dict[str, Any] = {"flow": self.flow}
        for name, _ in _NESTED.items():
            value = getattr(self, name)
            payload[name] = None if value is None else value.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlowSpec":
        """Rebuild a spec from :meth:`to_dict` output (strict)."""
        payload = _require_mapping(cls, data)
        kwargs: Dict[str, Any] = {}
        if "flow" in payload:
            kwargs["flow"] = payload.pop("flow")
        for name, value in payload.items():
            spec_cls = _NESTED[name]
            if value is None:
                if name != "floorplan":
                    raise FlowSpecError(f"FlowSpec field {name!r} may not be null")
                kwargs[name] = None
            else:
                kwargs[name] = spec_cls.from_dict(value)
        return cls(**kwargs)

    @cached_property
    def _canonical(self) -> Dict[str, Any]:
        """:meth:`to_dict`, built once per spec object: its hash and its
        workload and platform cache keys all read it.  Read only."""
        return self.to_dict()

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON (sorted keys, so equal specs hash identically)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FlowSpec":
        """Parse :meth:`to_json` output back into an equal spec."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FlowSpecError(f"invalid FlowSpec JSON: {exc}") from exc
        return cls.from_dict(data)

    # -- convenience ---------------------------------------------------
    def with_(self, **changes: Any) -> "FlowSpec":
        """A copy with top-level fields replaced (specs are immutable)."""
        return replace(self, **changes)


#: ``json.dumps(payload, sort_keys=True)`` without a new encoder per call.
_CANONICAL = json.JSONEncoder(sort_keys=True)


def _digest(payload: Any) -> str:
    """SHA-256[:20] of *payload*'s canonical (sorted-key) JSON — every
    spec and sub-spec digest."""
    text = _CANONICAL.encode(payload)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def spec_hash(spec: FlowSpec) -> str:
    """Stable content address of a spec (prefix of SHA-256 of its JSON)."""
    return _digest(spec._canonical)


# ----------------------------------------------------------------------
# quick constructors for graph sources and the two paper flows
# ----------------------------------------------------------------------
def generated_source(
    family: str = "layered",
    tasks: int = 20,
    seed: Optional[int] = None,
    *,
    name: Optional[str] = None,
    width: Optional[int] = None,
    density: Optional[float] = None,
    ccr: Optional[float] = None,
    deadline_slack: Optional[float] = None,
) -> GraphSourceSpec:
    """A seeded generated-workload source (see ``repro.family_names()``).

    The graph name defaults to ``"<family>-<tasks>t[-s<seed>]"`` so that
    distinct parameterizations get distinct, self-describing names.
    """
    return GraphSourceSpec(
        kind="generated",
        name=name or "",
        family=family,
        tasks=tasks,
        seed=seed,
        width=width,
        density=density,
        ccr=ccr,
        deadline_slack=deadline_slack,
    )


def file_source(path: str) -> GraphSourceSpec:
    """A graph-file source (``.tg`` or ``.json``, see ``taskgraph.io``)."""
    return GraphSourceSpec(kind="file", name="", path=str(path))


def registered_source(name: str) -> GraphSourceSpec:
    """A source naming a workload registered via ``register_workload``."""
    return GraphSourceSpec(kind="registered", name=name)


def platform_spec(
    benchmark: str = "Bm1",
    policy: str = "thermal",
    weight: Optional[float] = None,
    count: int = 4,
    **overrides: Any,
) -> FlowSpec:
    """A platform-based design flow spec (paper Figure 1b).

    Extra keyword arguments replace top-level :class:`FlowSpec` fields
    (e.g. ``dvfs=DVFSSpec(enabled=True)``); a ``graph=`` override (e.g.
    :func:`generated_source`) replaces the benchmark source entirely.
    """
    graph = overrides.pop(
        "graph", GraphSourceSpec(kind="benchmark", name=benchmark)
    )
    architecture = overrides.pop("architecture", None)
    if architecture is not None and count != 4:
        raise FlowSpecError(
            "pass either a full architecture= spec or the count "
            "shorthand, not both"
        )
    return FlowSpec(
        flow="platform",
        graph=graph,
        policy=PolicySpec(name=policy, weight=weight),
        architecture=architecture or ArchitectureSpec(count=count),
        **overrides,
    )


def cosynthesis_spec(
    benchmark: str = "Bm1",
    policy: str = "thermal",
    weight: Optional[float] = None,
    config: Optional[object] = None,
    final_cost: Optional[str] = None,
    screening: Optional[str] = None,
    **overrides: Any,
) -> FlowSpec:
    """A thermal/power-aware co-synthesis flow spec (paper Figure 1a).

    *config* accepts a legacy
    :class:`~repro.cosynth.framework.CoSynthesisConfig` and translates it
    into the equivalent declarative fields, so experiment drivers migrate
    without changing their own signatures.  A full ``cosynth=`` override
    is honoured too, but is mutually exclusive with the
    *final_cost*/*screening*/*config* shorthands it would shadow.
    """
    graph = overrides.pop(
        "graph", GraphSourceSpec(kind="benchmark", name=benchmark)
    )
    if "cosynth" in overrides:
        if final_cost is not None or screening is not None or config is not None:
            raise FlowSpecError(
                "pass either a full cosynth= spec or the "
                "final_cost/screening/config shorthands, not both"
            )
        return FlowSpec(
            flow="cosynthesis",
            graph=graph,
            policy=PolicySpec(name=policy, weight=weight),
            **overrides,
        )
    cosynth = CoSynthSpec(final_cost=final_cost, screening=screening)
    floorplan = None
    if config is not None:
        cosynth = CoSynthSpec(
            max_pes=config.max_pes,
            min_pes=config.min_pes,
            screening_keep=config.screening_keep,
            refine_iterations=config.refine_iterations,
            thermal_floorplanning=config.thermal_floorplanning,
            final_cost=final_cost,
            screening=screening,
        )
        genetic = config.genetic_config
        floorplan = FloorplanSpec(
            kind="genetic",
            seed=config.floorplan_seed,
            population_size=genetic.population_size,
            generations=genetic.generations,
            tournament_size=genetic.tournament_size,
            crossover_rate=genetic.crossover_rate,
            mutation_rate=genetic.mutation_rate,
            elite_count=genetic.elite_count,
            init_shuffle_moves=genetic.init_shuffle_moves,
        )
    # an explicit floorplan override beats the config translation
    floorplan = overrides.pop("floorplan", floorplan)
    return FlowSpec(
        flow="cosynthesis",
        graph=graph,
        policy=PolicySpec(name=policy, weight=weight),
        cosynth=cosynth,
        floorplan=floorplan,
        **overrides,
    )
