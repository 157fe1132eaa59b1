"""Processing elements and architectures.

The co-synthesis framework chooses *PE types* from a catalogue and
instantiates them; a *platform-based* design instead fixes the architecture
up front (the paper uses four identical PEs).  Both cases are described by
an :class:`Architecture` — an ordered list of :class:`PEInstance` — which is
what the ASP scheduler and the floorplanner consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import LibraryError, UnknownPETypeError

__all__ = ["PEType", "PEInstance", "Architecture"]


@dataclass(frozen=True)
class PEType:
    """A processing-element type from the technology catalogue.

    Parameters
    ----------
    name:
        Catalogue key (e.g. ``"risc-a"``).
    width_mm, height_mm:
        Physical dimensions of one instance, used by the floorplanner and by
        the thermal model (power density = power / area).
    speed:
        Relative performance factor; a library's WCETs for this PE scale as
        ``1 / speed``.  Used only when *generating* technology libraries —
        scheduling always reads concrete WCETs from the library.
    power_scale:
        Relative dynamic-power factor, also used at library generation time.
    idle_power:
        Static power drawn whenever the PE is instantiated, busy or not (W).
    cost:
        Monetary/area cost used by the co-synthesis allocation search.
    """

    name: str
    width_mm: float
    height_mm: float
    speed: float = 1.0
    power_scale: float = 1.0
    idle_power: float = 0.1
    cost: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise LibraryError("PE type name must be non-empty")
        # NaN fails every comparison, so each bound is written to hold
        for field in ("width_mm", "height_mm", "speed", "power_scale"):
            value = getattr(self, field)
            if not 0.0 < value < math.inf:
                raise LibraryError(
                    f"PE type {self.name!r}: {field} must be positive and "
                    f"finite, got {value}"
                )
        for field in ("idle_power", "cost"):
            value = getattr(self, field)
            if not 0.0 <= value < math.inf:
                raise LibraryError(
                    f"PE type {self.name!r}: {field} must be finite and >= 0, "
                    f"got {value}"
                )

    @property
    def area_mm2(self) -> float:
        """Silicon area of one instance, in mm²."""
        return self.width_mm * self.height_mm


@dataclass(frozen=True)
class PEInstance:
    """One instantiated PE in an architecture.

    ``name`` is unique within the architecture (``"pe0"``, ``"pe1"``, ...);
    ``pe_type`` links back to the catalogue entry.
    """

    name: str
    pe_type: PEType

    def __post_init__(self) -> None:
        if not self.name:
            raise LibraryError("PE instance name must be non-empty")

    @property
    def type_name(self) -> str:
        """Name of the catalogue type this instance was built from."""
        return self.pe_type.name

    @property
    def area_mm2(self) -> float:
        """Silicon area of this instance, in mm²."""
        return self.pe_type.area_mm2


class Architecture:
    """An ordered collection of PE instances.

    The order is significant: it is the tie-break order used by the
    scheduler and the default placement order used by floorplanners, which
    keeps the whole pipeline deterministic.
    """

    def __init__(self, name: str, pes: Iterable[PEInstance] = ()):
        if not name:
            raise LibraryError("architecture name must be non-empty")
        self.name = name
        self._pes: Dict[str, PEInstance] = {}
        for pe in pes:
            self.add(pe)

    # ------------------------------------------------------------------
    def add(self, pe: PEInstance) -> PEInstance:
        """Add one PE instance; names must be unique."""
        if pe.name in self._pes:
            raise LibraryError(
                f"architecture {self.name!r}: duplicate PE name {pe.name!r}"
            )
        self._pes[pe.name] = pe
        return pe

    def add_instance(self, pe_type: PEType, name: Optional[str] = None) -> PEInstance:
        """Instantiate *pe_type* under an auto-generated (or given) name."""
        if name is None:
            name = f"pe{len(self._pes)}"
        return self.add(PEInstance(name, pe_type))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._pes)

    def __iter__(self) -> Iterator[PEInstance]:
        return iter(self._pes.values())

    def __contains__(self, name: str) -> bool:
        return name in self._pes

    def __repr__(self) -> str:
        types = ",".join(pe.type_name for pe in self)
        return f"Architecture({self.name!r}, [{types}])"

    def pe(self, name: str) -> PEInstance:
        """Return the instance called *name*."""
        try:
            return self._pes[name]
        except KeyError:
            raise UnknownPETypeError(
                f"architecture {self.name!r} has no PE named {name!r}"
            )

    def pes(self) -> List[PEInstance]:
        """All PE instances, in insertion order."""
        return list(self._pes.values())

    def pe_names(self) -> List[str]:
        """All instance names, in insertion order."""
        return list(self._pes)

    def type_counts(self) -> Dict[str, int]:
        """How many instances of each PE type the architecture holds."""
        counts: Dict[str, int] = {}
        for pe in self:
            counts[pe.type_name] = counts.get(pe.type_name, 0) + 1
        return counts

    @property
    def total_area_mm2(self) -> float:
        """Sum of instance areas (mm²); lower bound on the chip area."""
        return sum(pe.area_mm2 for pe in self)

    @property
    def total_cost(self) -> float:
        """Sum of catalogue costs across instances."""
        return sum(pe.pe_type.cost for pe in self)

    @property
    def total_idle_power(self) -> float:
        """Static power drawn by the architecture when fully idle (W)."""
        return sum(pe.pe_type.idle_power for pe in self)

    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls, name: str, pe_type: PEType, count: int
    ) -> "Architecture":
        """Build a platform of *count* identical PEs (the paper's Figure 1b)."""
        if count < 1:
            raise LibraryError(f"architecture needs >= 1 PE, got {count}")
        arch = cls(name)
        for _ in range(count):
            arch.add_instance(pe_type)
        return arch
