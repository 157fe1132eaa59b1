"""The daemon's execution side: bounded queue + warm worker pool.

Requests do not run on their connection threads.  The HTTP layer
enqueues a :class:`ServeJob` onto one bounded :class:`queue.Queue` and
waits; a fixed pool of worker threads (``os.cpu_count()`` by default)
drains it, each running specs through a :class:`~repro.flow.Flow`
wired to the shared :class:`~repro.flow.memo.EngineCache`.  The
threads do not run flows in parallel: the scheduler's candidate loop is
pure Python and holds the GIL, and in-process flow throughput is flat
in the thread count (91.4 / 90.5 / 91.3 specs/s at 1 / 2 / 4 threads
on a 2-CPU host).  What threads buy over processes is that every worker
shares the warm engines in this process's memory, and that one
worker's I/O (store appends, waiting clients) overlaps another's flow.

Backpressure is explicit: a full queue rejects immediately with
:class:`QueueFullError` carrying a ``Retry-After`` estimate derived
from queue depth and observed latency — clients retry later instead of
piling onto an overloaded daemon.  Completed jobs append their record
to the result store (when configured) with ``served_by``/``request_id``
provenance before the waiting handler is woken, so a stored row always
identifies the worker and request that produced it.  A job whose waiter
gave up at the 504 budget is not lost: completion and abandonment race
under the job's own lock, the late record is stored with an
``orphaned_wait`` provenance flag, and the pool counts it under
``orphan_completed`` (docs/RESILIENCE.md).

All timing here is monotonic :func:`repro.obs.now` deltas — durations
only, never wall-clock timestamps (DET002 applies to the daemon too).
Each request also runs inside a ``serve.request`` obs span (with a
back-dated ``serve.queue`` span for its time on the queue), so a traced
daemon ships per-request latency breakdowns through the same recorder
the flow phases use.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ReproError, ServeError
from ..flow.runner import Flow
from ..flow.spec import FlowSpec
from ..obs import Counters, get_recorder, now

__all__ = ["QueueFullError", "ServeJob", "WorkerPool"]

#: Sentinel that tells a worker thread to exit.
_STOP = object()


class QueueFullError(ServeError):
    """The request queue is at capacity; retry after ``retry_after_s``."""

    def __init__(self, depth: int, retry_after_s: int):
        self.depth = depth
        self.retry_after_s = retry_after_s
        super().__init__(
            f"request queue is full ({depth} pending); "
            f"retry in ~{retry_after_s}s"
        )


@dataclass
class ServeJob:
    """One enqueued evaluation request and its lifecycle state.

    The submitting thread waits on :attr:`done`; the worker fills either
    :attr:`record` (the served ``RunRecord`` dict) or :attr:`error`
    (``(kind, message)``) before setting it.  Timing fields are
    ``perf_counter`` stamps recorded by the queue/worker.
    """

    request_id: str
    spec: FlowSpec
    store: bool = True
    suite: str = "serve"
    scenario: str = ""
    done: threading.Event = field(default_factory=threading.Event)
    record: Optional[Dict[str, Any]] = None
    error: Optional[Tuple[str, str]] = None
    served_by: str = ""
    enqueued_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    #: Serializes the abandon-vs-complete race: the HTTP handler's
    #: timeout path and the worker's completion path each hold this
    #: while they check-and-update, so a job either answers its waiter
    #: or is counted as an orphan — never a lost third state.
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Set (under :attr:`lock`) by a handler whose wait budget elapsed;
    #: the worker still finishes and stores, but flags the record.
    abandoned: bool = False

    @property
    def queue_s(self) -> float:
        """Seconds spent waiting in the queue."""
        return max(0.0, self.started_at - self.enqueued_at)

    @property
    def run_s(self) -> float:
        """Seconds spent executing."""
        return max(0.0, self.finished_at - self.started_at)

    def timings(self) -> Dict[str, float]:
        """The wire-format timing summary for this job."""
        return {
            "queue_s": round(self.queue_s, 6),
            "run_s": round(self.run_s, 6),
        }


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


class WorkerPool:
    """Bounded-queue worker pool executing specs against a shared cache.

    Parameters
    ----------
    cache:
        The shared :class:`~repro.flow.memo.EngineCache` (or ``None``
        for the process memo ``Flow()`` uses).
    workers:
        Thread count; defaults to the machine's core count.
    queue_size:
        Request queue bound; defaults to ``2 * workers``.  A full queue
        rejects with :class:`QueueFullError` (the HTTP layer's 429).
    store:
        Optional :class:`~repro.results.ResultStore` (or directory
        path); completed jobs with ``store=True`` append their record.
    latency_window:
        How many recent request latencies feed the ``/stats``
        percentiles.
    """

    def __init__(
        self,
        cache: Optional[Any] = None,
        workers: Optional[int] = None,
        queue_size: Optional[int] = None,
        store: Optional[Any] = None,
        latency_window: int = 512,
    ):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        if queue_size is None:
            queue_size = 2 * workers
        if queue_size < 1:
            raise ServeError(f"queue_size must be >= 1, got {queue_size}")
        self.cache = cache
        self.workers = workers
        self.queue_size = queue_size
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=queue_size)
        self._threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._latencies: "deque[float]" = deque(maxlen=latency_window)
        self._counters = Counters(
            ("completed", "failed", "rejected", "orphan_completed"),
            namespace="serve.jobs",
        )
        self._busy = 0
        self._store = None
        if store is not None:
            from ..results.store import ResultStore

            self._store = store if isinstance(store, ResultStore) else ResultStore(store)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._threads:
            return
        for index in range(self.workers):
            name = f"serve-worker-{index}"
            thread = threading.Thread(
                target=self._worker_loop, args=(name,), name=name, daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 5.0) -> None:
        """Drain-stop: workers finish current jobs, then exit."""
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    # -- submission ----------------------------------------------------
    def submit(self, job: ServeJob) -> None:
        """Enqueue *job*, or raise :class:`QueueFullError` (backpressure)."""
        job.enqueued_at = now()
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._lock:
                self._counters.inc("rejected")
            raise QueueFullError(self._queue.qsize(), self.retry_after_s()) from None

    def retry_after_s(self) -> int:
        """Seconds a rejected client should wait before retrying.

        Drain-time estimate: pending requests times the recent mean
        latency, divided across the workers — clamped to at least 1s so
        the header is always meaningful.
        """
        with self._lock:
            mean = (
                sum(self._latencies) / len(self._latencies)
                if self._latencies
                else 1.0
            )
        depth = self._queue.qsize()
        return max(1, int(math.ceil((depth + 1) * mean / self.workers)))

    # -- execution -----------------------------------------------------
    def _worker_loop(self, name: str) -> None:
        flow = Flow(cache=self.cache)
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            self._run_job(flow, job, name)

    def _run_job(self, flow: Flow, job: ServeJob, name: str) -> None:
        rec = get_recorder()
        job.served_by = name
        job.started_at = now()
        with self._lock:
            self._busy += 1
        with rec.span(
            "serve.request", trace=job.request_id, worker=name, suite=job.suite
        ):
            if rec.enabled:
                # back-date the queue wait as a child span so traces show
                # (request -> queue, flow) per request id
                rec.emit(
                    "serve.queue", job.enqueued_at, job.started_at, worker=name
                )
            orphaned = False
            try:
                result = flow.run(job.spec)
                # publish under job.lock so the handler's 504 path sees
                # either "done" or "not done", never a half-filled job
                with job.lock:
                    orphaned = job.abandoned
                    if orphaned:
                        # the waiter already answered 504; the work still
                        # lands, flagged, so stored provenance tells the
                        # truth about who (didn't) receive it
                        result.provenance["orphaned_wait"] = True
                    # served-by provenance rides the record into the store
                    # and over the wire — a stored row always names its
                    # worker
                    result.provenance["served_by"] = name
                    result.provenance["request_id"] = job.request_id
                    record = result.as_record(
                        suite=job.suite, scenario=job.scenario
                    )
                    if job.store and self._store is not None:
                        self._store.append(record)
                    job.record = record.to_dict()
                    job.finished_at = now()
                    job.done.set()
                ok = True
            except ReproError as exc:
                ok = False
                with job.lock:
                    orphaned = job.abandoned
                    job.error = (type(exc).__name__, str(exc))
                    job.finished_at = now()
                    job.done.set()
            except Exception as exc:  # repro: noqa[EXC001] -- a daemon worker must survive any request; the failure is reported to the waiting client, not swallowed
                ok = False
                with job.lock:
                    orphaned = job.abandoned
                    job.error = ("internal", f"{type(exc).__name__}: {exc}")
                    job.finished_at = now()
                    job.done.set()
        if rec.enabled:
            rec.observe("serve.request.latency_s", job.finished_at - job.enqueued_at)
            rec.observe("serve.request.queue_s", job.queue_s)
            rec.observe("serve.request.run_s", job.run_s)
        with self._lock:
            self._counters.inc("completed" if ok else "failed")
            if orphaned:
                # satellite fix: a 504'd request whose work completed
                # later used to vanish from the books entirely
                self._counters.inc("orphan_completed")
            self._latencies.append(job.finished_at - job.enqueued_at)
            self._busy -= 1

    # -- introspection -------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Queue depth, counters, latency percentiles, cache stats."""
        with self._lock:
            latencies = sorted(self._latencies)
            counters = self._counters.as_dict()
        payload: Dict[str, Any] = {
            "workers": self.workers,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.queue_size,
            **counters,
            "latency": {
                "window": len(latencies),
                "mean_s": round(sum(latencies) / len(latencies), 6)
                if latencies
                else 0.0,
                "p50_s": round(_percentile(latencies, 0.50), 6),
                "p90_s": round(_percentile(latencies, 0.90), 6),
                "p99_s": round(_percentile(latencies, 0.99), 6),
            },
        }
        if self.cache is not None and hasattr(self.cache, "stats"):
            payload["cache"] = self.cache.stats()
        return payload

    # counter properties: the pre-obs ints, kept as the public API
    @property
    def completed(self) -> int:
        return self._counters["completed"]

    @property
    def failed(self) -> int:
        return self._counters["failed"]

    @property
    def rejected(self) -> int:
        return self._counters["rejected"]

    @property
    def orphan_completed(self) -> int:
        """Jobs that finished after their waiter's 504 (work kept)."""
        return self._counters["orphan_completed"]

    def queue_depth(self) -> int:
        """Current number of pending requests."""
        return self._queue.qsize()

    def busy_workers(self) -> int:
        """Worker threads currently executing a job."""
        with self._lock:
            return self._busy
