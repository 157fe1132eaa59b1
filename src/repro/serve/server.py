"""The scheduling daemon: HTTP front end over the warm worker pool.

``repro serve`` builds one :class:`ServeDaemon`: a threading HTTP
server whose connection threads do nothing but parse, enqueue, and
wait — every evaluation runs on the :class:`~repro.serve.workers
.WorkerPool` against the shared :class:`~repro.flow.memo.EngineCache`
(lint rule SRV001 keeps it that way).  Status mapping:

* ``200`` — served; body carries the full ``RunRecord`` dict;
* ``400`` — unparsable body / invalid spec (``bad-request``);
* ``404`` — unknown endpoint;
* ``422`` — valid request whose execution raised a
  :mod:`repro.errors` error (body names the class);
* ``429`` — queue full; ``Retry-After`` header carries the drain-time
  estimate (``busy``);
* ``500`` — unexpected failure (``internal``);
* ``503`` — load-shedding: the daemon is ``draining`` for shutdown, or
  this spec-hash family's circuit breaker is ``circuit-open`` after
  repeated failures (``Retry-After`` carries the cooldown);
* ``504`` — the per-request wait budget elapsed (``timeout``).  The
  evaluation keeps running on its worker and is still stored (flagged
  ``orphaned_wait``, counted ``orphan_completed``) when storing was
  requested — the *wait* timed out, not the work.

Degradation is explicit: ``GET /healthz`` answers ``state: "ok"`` or
``state: "degraded"`` with reasons (open circuits, saturated queue,
draining), and :meth:`ServeDaemon.shutdown` drains — new work is turned
away while accepted requests finish.  See docs/RESILIENCE.md.

``GET /metrics`` exposes the live :mod:`repro.obs` registry as the
Prometheus text exposition — request counters, queue-depth and
worker-utilization gauges, and latency histograms — rendered by
:meth:`ServeDaemon.metrics_text` (the daemon enables tracing by
default; pass ``obs=False`` to keep the null recorder).  A recorder the
daemon enables itself keeps no spans, since no endpoint exports them;
run the daemon under a recorder of your own (``repro.obs.capture()``)
to collect its per-request spans.

The daemon is deliberately plain stdlib (``http.server``): requests are
seconds-scale scheduling runs, so connection throughput is never the
bottleneck — engine warmth is, and that lives in the pool.
"""

from __future__ import annotations

import itertools
import logging
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import ServeError
from ..flow.memo import DEFAULT_MAX_ENTRIES, EngineCache
from ..flow.spec import spec_hash
from ..obs import Counters, enable, get_recorder, set_recorder
from ..resilience.faults import check_fault
from ..resilience.retry import CircuitBreaker
from . import protocol
from .workers import QueueFullError, ServeJob, WorkerPool

__all__ = ["ServeDaemon"]

LOGGER = logging.getLogger("repro.serve")

#: Default daemon port (unassigned range; override with ``--port``).
DEFAULT_PORT = 8177

#: Cap on request body size; a FlowSpec is a few KiB, so anything past
#: this is a confused (or hostile) client, not a bigger spec.
_MAX_BODY_BYTES = 1 << 20


class _ServeHTTPServer(ThreadingHTTPServer):
    """One connection thread per request, all daemonic."""

    daemon_threads = True
    allow_reuse_address = True
    #: Filled by ServeDaemon after construction.
    daemon_ref: "ServeDaemon"


class _Handler(BaseHTTPRequestHandler):
    """Parse/enqueue/wait — never build or solve (SRV001)."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002 - stdlib signature
        LOGGER.info("%s %s", self.address_string(), format % args)

    # -- plumbing ------------------------------------------------------
    def _respond(
        self,
        status: int,
        payload: Mapping[str, Any],
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        body = protocol.encode(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _respond_text(self, status: int, text: str) -> None:
        """Plain-text response (the Prometheus exposition, not JSON)."""
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- endpoints -----------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
        daemon = self.server.daemon_ref  # type: ignore[attr-defined]
        if self.path == "/healthz":
            state, reasons = daemon.health_state()
            self._respond(200, protocol.health_payload(state, reasons))
        elif self.path == "/stats":
            self._respond(200, protocol.stats_payload(daemon.stats()))
        elif self.path == "/metrics":
            self._respond_text(200, daemon.metrics_text())
        else:
            self._respond(
                404, protocol.error_payload("not-found", f"no endpoint {self.path!r}")
            )

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler name
        daemon = self.server.daemon_ref  # type: ignore[attr-defined]
        if self.path != "/run":
            self._respond(
                404, protocol.error_payload("not-found", f"no endpoint {self.path!r}")
            )
            return
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > _MAX_BODY_BYTES:
            self._respond(
                400,
                protocol.error_payload(
                    "bad-request",
                    f"Content-Length must be in (0, {_MAX_BODY_BYTES}], got {length}",
                ),
            )
            return
        raw = self.rfile.read(length)
        if check_fault("serve.connection-reset") is not None:
            # chaos hook: slam the socket after reading the request —
            # the client sees a reset/empty response mid-flight, exactly
            # the failure its connection-retry path must absorb
            self.close_connection = True
            self.connection.close()
            return
        status, payload, headers = daemon.handle_submit(raw)
        self._respond(status, payload, headers)


class ServeDaemon:
    """The long-lived scheduling service (``repro serve``).

    Owns the engine cache, the worker pool, and the HTTP server; usable
    embedded (tests bind ``port=0`` and drive it via
    :class:`~repro.serve.client.ServeClient`) or via
    :meth:`serve_forever` from the CLI.  :meth:`handle_submit` is the
    whole request policy — parse, enqueue with backpressure, wait with
    a timeout — exposed as a method so it is testable without sockets.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        workers: Optional[int] = None,
        queue_size: Optional[int] = None,
        cache_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
        cache_bytes: Optional[int] = None,
        store: Optional[Any] = None,
        request_timeout_s: float = 300.0,
        obs: bool = True,
        circuit_threshold: int = 5,
        circuit_cooldown_s: float = 30.0,
    ):
        if request_timeout_s <= 0:
            raise ServeError(
                f"request_timeout_s must be positive, got {request_timeout_s}"
            )
        if circuit_threshold < 0:
            raise ServeError(
                f"circuit_threshold must be >= 0 (0 disables), "
                f"got {circuit_threshold}"
            )
        self._prev_recorder = None
        if obs and not get_recorder().enabled:
            # the /metrics registry needs a live recorder; nothing exports
            # the spans of one the daemon owns, so it keeps none (a
            # recorder the caller installed keeps its own bound).  Remember
            # what we displaced so shutdown() can put it back (embedded
            # daemons must not leak global state)
            self._prev_recorder = get_recorder()
            enable(max_spans=0)
        self.cache = EngineCache(max_entries=cache_entries, max_bytes=cache_bytes)
        self.pool = WorkerPool(
            cache=self.cache, workers=workers, queue_size=queue_size, store=store
        )
        self.request_timeout_s = request_timeout_s
        # one breaker per spec-hash family: a spec that keeps failing
        # stops consuming workers, everything else keeps being served
        self._breaker: Optional[CircuitBreaker] = (
            CircuitBreaker(
                threshold=circuit_threshold, cooldown_s=circuit_cooldown_s
            )
            if circuit_threshold > 0
            else None
        )
        self._draining = False
        self._counter = itertools.count()
        self._lock = threading.Lock()
        self._counters = Counters(
            ("requests", "timeouts", "circuit_rejections", "drain_rejections"),
            namespace="serve.http",
        )
        self._http = _ServeHTTPServer((host, port), _Handler)
        self._http.daemon_ref = self
        self._serve_thread: Optional[threading.Thread] = None

    # -- addressing ----------------------------------------------------
    @property
    def host(self) -> str:
        """Bound host."""
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (the ephemeral one when constructed with port=0)."""
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should use."""
        return f"http://{self.host}:{self.port}"

    def next_request_id(self) -> str:
        """A daemon-unique request id (pid + monotone counter)."""
        with self._lock:
            sequence = next(self._counter)
        return f"req-{os.getpid():x}-{sequence:06d}"

    # -- the request policy --------------------------------------------
    def handle_submit(
        self, raw: bytes
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Process one ``POST /run`` body → (status, payload, headers)."""
        with self._lock:
            self._counters.inc("requests")
        if self._draining:
            with self._lock:
                self._counters.inc("drain_rejections")
            return (
                503,
                protocol.error_payload(
                    "draining",
                    "daemon is draining for shutdown; "
                    "in-flight work finishes, new work is refused",
                ),
                {},
            )
        try:
            request = protocol.parse_submit(raw)
        except ServeError as exc:
            return 400, protocol.error_payload("bad-request", str(exc)), {}
        hit = check_fault("serve.handler-exception")
        if hit is not None:
            # chaos hook: the handler blows up after parsing — clients
            # must see a retryable 500, not a vanished connection
            return (
                500,
                protocol.error_payload(
                    "internal",
                    f"injected fault at 'serve.handler-exception' "
                    f"(ordinal {hit.ordinal})",
                ),
                {},
            )
        family = spec_hash(request.spec)
        if self._breaker is not None and not self._breaker.allow(family):
            with self._lock:
                self._counters.inc("circuit_rejections")
            return (
                503,
                protocol.error_payload(
                    "circuit-open",
                    f"spec family {family[:12]} keeps failing; "
                    f"circuit is cooling down",
                ),
                {"Retry-After": str(int(self._breaker.cooldown_s) or 1)},
            )
        job = ServeJob(
            request_id=self.next_request_id(),
            spec=request.spec,
            store=request.store,
            suite=request.suite,
            scenario=request.scenario,
        )
        try:
            self.pool.submit(job)
        except QueueFullError as exc:
            return (
                429,
                protocol.error_payload("busy", str(exc), job.request_id),
                {"Retry-After": str(exc.retry_after_s)},
            )
        if not job.done.wait(timeout=self.request_timeout_s):
            # the abandon-vs-complete race resolves under the job's own
            # lock: either the worker published in the nick of time (fall
            # through below) or it now owes the store an orphaned record
            with job.lock:
                if not job.done.is_set():
                    job.abandoned = True
            if job.abandoned:
                with self._lock:
                    self._counters.inc("timeouts")
                if self._breaker is not None:
                    self._breaker.record_failure(family)
                return (
                    504,
                    protocol.error_payload(
                        "timeout",
                        f"request not served within {self.request_timeout_s}s; "
                        f"it keeps running and is stored if storing was "
                        f"requested",
                        job.request_id,
                    ),
                    {},
                )
        if job.error is not None:
            if self._breaker is not None:
                self._breaker.record_failure(family)
            kind, message = job.error
            status = 500 if kind == "internal" else 422
            return status, protocol.error_payload(kind, message, job.request_id), {}
        if self._breaker is not None:
            self._breaker.record_success(family)
        return (
            200,
            protocol.success_payload(
                job.record or {}, job.request_id, job.served_by, job.timings()
            ),
            {},
        )

    def health_state(self) -> Tuple[str, Tuple[str, ...]]:
        """``("ok" | "degraded", reasons)`` for the ``/healthz`` body.

        Degraded is explicit, not inferred from flapping requests: a
        draining shutdown, any open circuit breaker, or a saturated
        request queue each name themselves in ``reasons``.
        """
        reasons = []
        if self._draining:
            reasons.append("draining: shutting down, refusing new work")
        if self._breaker is not None:
            for key in self._breaker.open_keys():
                reasons.append(f"circuit-open: spec family {key[:12]}")
        depth = self.pool.queue_depth()
        if depth >= self.pool.queue_size:
            reasons.append(
                f"queue-saturated: {depth}/{self.pool.queue_size} pending"
            )
        return ("degraded" if reasons else "ok"), tuple(reasons)

    def stats(self) -> Dict[str, Any]:
        """Daemon counters + pool/cache stats (the ``/stats`` body)."""
        with self._lock:
            counters = self._counters.as_dict()
        payload = {
            **counters,
            "request_timeout_s": self.request_timeout_s,
            **self.pool.stats(),
        }
        if self._breaker is not None:
            payload["circuits"] = self._breaker.snapshot()
        return payload

    # counter properties: the pre-obs ints, kept as the public API
    @property
    def requests(self) -> int:
        return self._counters["requests"]

    @property
    def timeouts(self) -> int:
        return self._counters["timeouts"]

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body: live registry as Prometheus text.

        Point-in-time gauges (queue depth, busy workers, utilization)
        are refreshed on every render; counters and histograms stream
        in from the pool as requests complete.  With the null recorder
        (``obs=False``) the body is empty but the endpoint still
        answers 200 — scrapers should not flap on configuration.
        """
        recorder = get_recorder()
        if not recorder.enabled:
            return ""
        registry = recorder.metrics
        registry.gauge("serve.queue_depth").set(self.pool.queue_depth())
        registry.gauge("serve.queue_capacity").set(self.pool.queue_size)
        registry.gauge("serve.workers").set(self.pool.workers)
        busy = self.pool.busy_workers()
        registry.gauge("serve.workers_busy").set(busy)
        registry.gauge("serve.worker_utilization").set(
            round(busy / self.pool.workers, 6)
        )
        return registry.to_prometheus_text()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Start workers + HTTP loop on a background thread (for tests)."""
        self.pool.start()
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self._http.serve_forever, name="serve-http", daemon=True
            )
            self._serve_thread.start()

    def serve_forever(self) -> None:
        """Start workers and block on the HTTP loop (the CLI path)."""
        self.pool.start()
        LOGGER.info("serving on %s", self.url)
        self._http.serve_forever()

    def begin_drain(self) -> None:
        """Flip to draining: new submits get 503, in-flight work finishes.

        Safe to call repeatedly and from signal handlers; ``/healthz``
        reports ``degraded`` with a ``draining`` reason until the
        process exits, so balancers stop routing before the socket dies.
        """
        self._draining = True

    @property
    def draining(self) -> bool:
        """Whether a draining shutdown is underway."""
        return self._draining

    def shutdown(self) -> None:
        """Drain, stop accepting, finish in-flight work, free the socket.

        Ordering matters: the drain flag turns new ``/run`` bodies away
        first, the HTTP accept loop stops second, and the pool's
        sentinel-based stop lets queued and running jobs finish (their
        handler threads answer before their connections close) — a
        shutdown never strands an accepted request.
        """
        self.begin_drain()
        self._http.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
        self.pool.stop()
        self._http.server_close()
        if self._prev_recorder is not None:
            set_recorder(self._prev_recorder)
            self._prev_recorder = None

    def __enter__(self) -> "ServeDaemon":
        self.start()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown()
