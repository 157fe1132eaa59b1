"""``repro.serve`` — scheduling-as-a-service over the FlowSpec wire form.

The batch layer (:func:`repro.flow.run_many`) amortises platform
construction *within one process invocation*; every new invocation pays
the full cold cost again — graph generation, technology library,
floorplan layout, RC network assembly, Cholesky factorisation, query
engine setup — before the first scheduling decision.  The serve layer
keeps that state **resident**: a long-lived daemon holds its own
:class:`~repro.flow.memo.EngineCache` of prebuilt workloads and
thermal platforms keyed by sub-spec content hashes, so any client whose
spec shares a platform with an earlier request schedules against warm
engines and pays only the scheduling cost.

Pieces:

* :mod:`~repro.serve.protocol` — the HTTP/JSON wire format (a thin
  envelope around ``FlowSpec.to_dict`` and ``RunRecord.to_dict``);
* :mod:`repro.flow.memo` — sub-spec hashing + the LRU engine cache
  (re-exported here; ``Flow()`` uses the same class as its process memo);
* :mod:`~repro.serve.workers` — the bounded queue and worker pool that
  execute requests against the shared cache;
* :mod:`~repro.serve.server` — the daemon (``repro serve``);
* :mod:`~repro.serve.client` — :class:`ServeClient` (``repro submit``).

Served results are byte-identical to in-process :meth:`Flow.run
<repro.flow.Flow.run>` output for the same spec, modulo the
provenance/timings/diagnostics channels that legitimately differ (see
docs/SERVING.md).  Every served evaluation can be appended to a
:class:`~repro.results.ResultStore` with ``served_by``/``request_id``
provenance, so a store row always says which daemon worker produced it.

Resilience (docs/RESILIENCE.md): the client absorbs 429/500/503 and
connection resets under one bounded
:class:`~repro.resilience.RetryPolicy` budget; the daemon breaks the
circuit on repeatedly-failing spec families, reports an explicit
``degraded`` health state, drains on shutdown, and never loses a
request whose waiter timed out (``orphan_completed``).
"""

from __future__ import annotations

from ..flow.memo import (
    EngineCache,
    floorplan_subspec_hash,
    library_subspec_hash,
    platform_cache_key,
    solver_subspec_hash,
    subspec_hash,
    workload_cache_key,
)
from .client import ServeClient
from .protocol import PROTOCOL_VERSION
from .server import ServeDaemon
from .workers import QueueFullError, ServeJob, WorkerPool

__all__ = [
    "PROTOCOL_VERSION",
    "EngineCache",
    "ServeClient",
    "ServeDaemon",
    "ServeJob",
    "WorkerPool",
    "QueueFullError",
    "subspec_hash",
    "floorplan_subspec_hash",
    "solver_subspec_hash",
    "library_subspec_hash",
    "platform_cache_key",
    "workload_cache_key",
]
