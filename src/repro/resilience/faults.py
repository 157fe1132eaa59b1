"""Seeded, deterministic fault injection for chaos tests and CI.

The platform's failure handling (crash resubmission in the batch pool,
torn-ledger repair in the store, retry/circuit-breaking in the serve
stack) is only trustworthy if every failure mode can be reproduced on
demand.  This module provides that: a :class:`FaultPlan` names *which*
failure fires at *which* invocation of a named hook site, and an armed
:class:`FaultInjector` makes the instrumented code paths actually fail
there — deterministically, so a chaos run is as replayable as a clean
one.

Design rules (the whole value of the harness rests on them):

* **Never active unless armed.**  Instrumented call sites go through
  :func:`check_fault`/:func:`fire`, which reduce to a single module
  global read when no plan is armed — the production fast path is one
  ``is None`` check, and fault-free runs stay byte-identical.
* **Deterministic.**  A site fires by *ordinal* — the Nth time the gate
  is passed — never by clock or RNG state.  :meth:`FaultPlan.seeded`
  derives ordinals from a seed via SHA-256 (DET001/DET002-safe: no
  ``random``, no wall clock), so CI chaos jobs replay exactly.
* **Explicit sites.**  Every injectable failure is a named entry in
  :data:`FAULT_SITES`; hooks live at the few places listed there and
  nowhere else, so reading this tuple tells you the platform's entire
  simulated failure surface.

Arming is process-global (the hooks sit deep inside the batch loop and
the store appender, far from any argument plumbing) and scoped with the
:func:`inject` context manager::

    plan = FaultPlan.seeded(seed=11, sites={"batch.worker-crash": 2})
    with inject(plan) as injector:
        results = run_many(specs, workers=2, retry=RetryPolicy())
    report = injector.report()          # what fired, where, when

This module is the one place in the library allowed to call
``time.sleep`` and ``os._exit`` (lint rule RES001 fences everything
else off): the slow-worker fault sleeps, and the worker-crash fault
hard-kills a pool child to exercise ``BrokenProcessPool`` recovery.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from ..errors import InjectedFaultError, ResilienceError
from ..obs import get_recorder

__all__ = [
    "FAULT_SITES",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "active_injector",
    "arm",
    "disarm",
    "inject",
    "check_fault",
    "fire",
    "worker_fault_action",
    "apply_worker_fault",
]

#: Every site the platform can fail at on demand.  Each name appears at
#: exactly one hook location (module: what the armed fault does there).
FAULT_SITES: Tuple[str, ...] = (
    # flow/batch.py: pool child hard-exits mid-spec (BrokenProcessPool);
    # the serial executor raises InjectedFaultError instead.  Both are a
    # lost worker on the one batch retry ladder.
    "batch.worker-crash",
    # flow/batch.py: pool child sleeps ``delay_s`` before running the
    # spec, exercising the per-spec wait timeout.
    "batch.worker-slow",
    # flow/batch.py: the just-written flow-cache pickle is truncated to
    # garbage, exercising corrupt-cache tolerance (treated as a miss).
    "batch.cache-corrupt",
    # results/store.py: the index line is written torn (no newline,
    # half the bytes) and the append raises — blob published, ledger
    # torn, exactly what a crash between the two steps leaves behind.
    "store.torn-index",
    # results/store.py: the published blob is overwritten with garbage
    # after its index line lands — a readable ledger pointing at a
    # corrupt record, fsck's quarantine case.
    "store.corrupt-blob",
    # serve/server.py: the HTTP handler closes the connection without a
    # response, which clients see as ECONNRESET mid-request.
    "serve.connection-reset",
    # serve/server.py: handle_submit raises after parsing, exercising
    # the 500/"internal" path and the client's 5xx retry.
    "serve.handler-exception",
)

#: Slow-worker stall used when a plan doesn't specify ``delay_s``.
DEFAULT_SLOW_DELAY_S = 2.0

#: Exit code of a crash-injected pool child (distinctive in waitpid logs).
CRASH_EXIT_CODE = 86


@dataclass(frozen=True)
class FaultSpec:
    """One planned failure: *site* fires for the invocations in
    ``[ordinal, ordinal + count)`` of its gate.

    ``delay_s`` only matters for ``batch.worker-slow``; other sites
    ignore it.
    """

    site: str
    ordinal: int = 0
    count: int = 1
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ResilienceError(
                f"unknown fault site {self.site!r}; "
                f"known sites: {', '.join(FAULT_SITES)}"
            )
        if self.ordinal < 0:
            raise ResilienceError(f"ordinal must be >= 0, got {self.ordinal}")
        if self.count < 1:
            raise ResilienceError(f"count must be >= 1, got {self.count}")
        if self.delay_s < 0:
            raise ResilienceError(f"delay_s must be >= 0, got {self.delay_s}")

    def matches(self, ordinal: int) -> bool:
        """Whether this fault fires at gate invocation *ordinal*."""
        return self.ordinal <= ordinal < self.ordinal + self.count

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "ordinal": self.ordinal,
            "count": self.count,
            "delay_s": self.delay_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultSpec":
        unknown = sorted(set(payload) - {"site", "ordinal", "count", "delay_s"})
        if unknown:
            raise ResilienceError(f"unknown FaultSpec keys {unknown}")
        return cls(
            site=str(payload["site"]),
            ordinal=int(payload.get("ordinal", 0)),
            count=int(payload.get("count", 1)),
            delay_s=float(payload.get("delay_s", 0.0)),
        )


def _derive_ordinals(seed: int, site: str, n: int, window: int) -> Tuple[int, ...]:
    """*n* distinct ordinals in ``[0, window)``, SHA-256-derived.

    Rejection sampling over a counter keeps the derivation pure — same
    ``(seed, site, n, window)`` always yields the same ordinals, with no
    RNG state involved (DET001-safe).
    """
    if n > window:
        raise ResilienceError(
            f"cannot place {n} distinct faults in a window of {window}"
        )
    picked: List[int] = []
    counter = 0
    while len(picked) < n:
        digest = hashlib.sha256(
            f"repro.fault:{seed}:{site}:{counter}".encode("utf-8")
        ).digest()
        value = int.from_bytes(digest[:8], "big") % window
        if value not in picked:
            picked.append(value)
        counter += 1
    return tuple(sorted(picked))


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of planned failures plus the seed they came from."""

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, FaultSpec):
                raise ResilienceError(
                    f"faults must be FaultSpec instances, got {fault!r}"
                )

    @classmethod
    def seeded(
        cls,
        seed: int,
        sites: Mapping[str, int],
        window: int = 16,
        slow_delay_s: float = DEFAULT_SLOW_DELAY_S,
    ) -> "FaultPlan":
        """Derive a plan from a seed: ``sites`` maps site name → how many
        times it fires, with ordinals spread over ``[0, window)``.

        The same ``(seed, sites, window)`` always builds the same plan,
        so a CI chaos job is fully described by its arguments.
        """
        faults: List[FaultSpec] = []
        for site in sorted(sites):
            n = sites[site]
            if n < 1:
                raise ResilienceError(
                    f"site {site!r} count must be >= 1, got {n}"
                )
            delay = slow_delay_s if site == "batch.worker-slow" else 0.0
            for ordinal in _derive_ordinals(seed, site, n, window):
                faults.append(FaultSpec(site=site, ordinal=ordinal, delay_s=delay))
        return cls(seed=seed, faults=tuple(faults))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [fault.to_dict() for fault in self.faults],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            seed=int(payload.get("seed", 0)),
            faults=tuple(
                FaultSpec.from_dict(item) for item in payload.get("faults", ())
            ),
        )


class FaultInjector:
    """Runtime state of an armed plan: per-site gate counters + a log of
    what actually fired.  Thread-safe — serve handler threads and the
    batch consumer share one injector.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._seen: Dict[str, int] = {}
        self._fired: List[Dict[str, Any]] = []
        self._by_site: Dict[str, List[FaultSpec]] = {}
        for fault in plan.faults:
            self._by_site.setdefault(fault.site, []).append(fault)

    def check(self, site: str, **context: Any) -> Optional[FaultSpec]:
        """Pass the gate at *site*: advance its ordinal and return the
        matching :class:`FaultSpec` if the plan fires here, else None.
        """
        if site not in FAULT_SITES:
            raise ResilienceError(f"unknown fault site {site!r}")
        with self._lock:
            ordinal = self._seen.get(site, 0)
            self._seen[site] = ordinal + 1
            hit = None
            for fault in self._by_site.get(site, ()):
                if fault.matches(ordinal):
                    hit = fault
                    break
            if hit is not None:
                entry: Dict[str, Any] = {"site": site, "ordinal": ordinal}
                entry.update(context)
                self._fired.append(entry)
        if hit is not None:
            rec = get_recorder()
            if rec.enabled:
                rec.counter("resilience.faults.injected", site=site)
        return hit

    def fired(self) -> Tuple[Dict[str, Any], ...]:
        """The injections that actually happened, in firing order."""
        with self._lock:
            return tuple(dict(entry) for entry in self._fired)

    def report(self) -> Dict[str, Any]:
        """The JSON-safe fault report (the CI chaos artifact)."""
        with self._lock:
            seen = {site: self._seen[site] for site in sorted(self._seen)}
            fired = [dict(entry) for entry in self._fired]
        return {
            "plan": self.plan.to_dict(),
            "sites_seen": seen,
            "injected": len(fired),
            "fired": fired,
        }


#: The (single) armed injector, or None.  Hooks read this once — the
#: entire fault-free overhead of an instrumented site is this load.
_ACTIVE: Optional[FaultInjector] = None
_ARM_LOCK = threading.Lock()


def active_injector() -> Optional[FaultInjector]:
    """The currently armed injector, if any."""
    return _ACTIVE


def arm(plan: FaultPlan) -> FaultInjector:
    """Arm *plan* process-wide; returns the injector for reporting."""
    global _ACTIVE
    with _ARM_LOCK:
        if _ACTIVE is not None:
            raise ResilienceError(
                "a fault plan is already armed; disarm() it first "
                "(plans do not nest)"
            )
        _ACTIVE = FaultInjector(plan)
        return _ACTIVE


def disarm() -> None:
    """Disarm whatever plan is armed (idempotent)."""
    global _ACTIVE
    with _ARM_LOCK:
        _ACTIVE = None


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Arm *plan* for the duration of the block, disarming on exit."""
    injector = arm(plan)
    try:
        yield injector
    finally:
        disarm()


def check_fault(site: str, **context: Any) -> Optional[FaultSpec]:
    """Hook: the fault (if the armed plan fires here), else None."""
    injector = _ACTIVE
    if injector is None:
        return None
    return injector.check(site, **context)


def fire(site: str, **context: Any) -> None:
    """Hook: raise :class:`InjectedFaultError` if the plan fires here."""
    injector = _ACTIVE
    if injector is None:
        return
    hit = injector.check(site, **context)
    if hit is not None:
        raise InjectedFaultError(site, hit.ordinal)


def worker_fault_action() -> Optional[str]:
    """Parent-side gate for the two pool-worker sites.

    Returns the action string shipped to the child with its payload
    (``"crash"`` or ``"slow:<seconds>"``), or None.  Deciding in the
    parent keeps the plan out of the pickled pool arguments and makes
    the ordinal sequence the submission order, which is deterministic.
    """
    injector = _ACTIVE
    if injector is None:
        return None
    hit = injector.check("batch.worker-crash")
    if hit is not None:
        return "crash"
    hit = injector.check("batch.worker-slow")
    if hit is not None:
        return f"slow:{hit.delay_s or DEFAULT_SLOW_DELAY_S}"
    return None


def apply_worker_fault(action: Optional[str]) -> None:
    """Child-side execution of a planned worker fault.

    Runs inside the pool process before the spec: ``"crash"`` hard-exits
    (the parent sees ``BrokenProcessPool``), ``"slow:<s>"`` stalls (the
    parent's per-spec wait budget trips).  The serial batch executor
    does not come through here — it raises :class:`InjectedFaultError`
    via :func:`fire` instead, because killing the caller's own process
    is not a recoverable failure to inject; its stall cannot time out
    (``timeout_s`` is ignored serially).  Both crash forms are a lost
    worker on the same attempt/quarantine/backoff ladder.
    """
    if not action:
        return
    if action == "crash":
        os._exit(CRASH_EXIT_CODE)
    if action.startswith("slow:"):
        time.sleep(float(action.split(":", 1)[1]))
        return
    raise ResilienceError(f"unknown worker fault action {action!r}")
