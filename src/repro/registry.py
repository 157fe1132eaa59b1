"""The shared name → component registry used across the package.

Every pluggable stage — DC policies, floorplanners, thermal solvers, flow
kinds, PE catalogues, workloads, scenario suites, experiments — resolves
through one :class:`Registry` so lookup behaviour is uniform everywhere:

* **normalized names** — hyphens and underscores are interchangeable on
  lookup (``"thermal_peak"`` resolves ``"thermal-peak"``);
* **no silent shadowing** — re-registering a taken name (in either
  spelling) with a different component raises
  :class:`~repro.errors.FlowError`, because shadowing would change the
  meaning of every spec that names it;
* **discoverable errors** — unknown names raise :class:`FlowError`
  carrying the available set.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

from .errors import FlowError

__all__ = ["Registry", "normalize_name"]


def normalize_name(name: str) -> str:
    """Canonical registry spelling of *name* (underscores → hyphens)."""
    return str(name).replace("_", "-")


class Registry:
    """An ordered name → component mapping with decorator registration.

    Components are usually factories but any object can be registered
    (the scenario registry stores :class:`ScenarioSpec` values).  Names
    are stored as given; lookup treats ``-`` and ``_`` as the same
    character.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._items: Dict[str, Callable] = {}
        self._canonical: Dict[str, str] = {}  # normalized -> stored name

    def register(
        self, name: str, factory: Optional[Callable] = None
    ) -> Callable:
        """Register *factory* under *name*; usable as ``@register(name)``.

        Re-registering a taken name (hyphen/underscore spellings count as
        the same name) with a different component raises
        :class:`FlowError` — shadowing a component silently would change
        the meaning of every spec that names it.
        """

        def _add(fn: Callable) -> Callable:
            stored = self._canonical.get(normalize_name(name))
            current = self._items.get(stored) if stored is not None else None
            if current is not None and current is not fn:
                raise FlowError(
                    f"{self.kind} {name!r} already registered"
                    + (f" (as {stored!r})" if stored != name else "")
                )
            self._items[stored if stored is not None else name] = fn
            self._canonical[normalize_name(name)] = (
                stored if stored is not None else name
            )
            return fn

        if factory is None:
            return _add
        return _add(factory)

    def get(self, name: str) -> Callable:
        """The component for *name*; unknown names raise :class:`FlowError`.

        Hyphens and underscores are interchangeable.
        """
        stored = self._canonical.get(normalize_name(name))
        if stored is None:
            raise FlowError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            )
        return self._items[stored]

    def unregister(self, name: str) -> Callable:
        """Remove and return the component registered under *name*.

        Exists for test teardown (a fixture registers a component, the
        test must leave the global registry untouched); library code has
        no business unregistering components at runtime.  Unknown names
        raise :class:`FlowError`, mirroring :meth:`get`.
        """
        stored = self._canonical.get(normalize_name(name))
        if stored is None:
            raise FlowError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            )
        del self._canonical[normalize_name(name)]
        return self._items.pop(stored)

    def names(self) -> Tuple[str, ...]:
        """Registered names (as registered), in registration order."""
        return tuple(self._items)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        return normalize_name(name) in self._canonical

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {list(self._items)})"
