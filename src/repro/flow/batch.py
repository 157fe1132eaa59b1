"""Batch execution: ``run_many`` / ``iter_results`` + an on-disk cache.

Parameter sweeps (the Pareto explorer, the ablation benches, the CLI
``sweep`` subcommand, scenario suites) evaluate many
:class:`~repro.flow.spec.FlowSpec` configurations whose inner loops are
expensive and fully deterministic.  The batch layer therefore

* **deduplicates** — equal specs inside one batch run once and share the
  result object;
* **caches** — with ``cache_dir`` set, results are pickled under their
  :func:`~repro.flow.spec.spec_hash`; a later run of an identical spec
  loads the pickle and performs *zero* scheduler invocations.  Cache
  payloads are stamped with the library version and the record schema
  version; a pickle written by any other version is treated as a miss,
  so upgrading the code can never replay an incompatible ``FlowResult``;
* **parallelises** — with ``workers > 1``, cache misses execute in a
  process pool (the substrate is pure CPU-bound Python, so threads would
  serialise on the GIL).  Submission is windowed, so at most a few
  results per worker are ever in flight;
* **streams** — :func:`iter_results` yields ``(index, result)`` pairs in
  input order as workers finish, retaining a result only while later
  duplicate specs still need it.  ``run_many`` is the collect-everything
  wrapper; :func:`repro.results.stream_records` flattens the same stream
  into the result store with bounded memory.

Results come back in input order, provenance marked with
``cache_hit``/``worker`` so callers can audit what actually ran.

Serial runs use an in-process executor behind the pool's
``submit``/``result`` interface, so one windowed consumption loop and
one attempt → quarantine → backoff ladder serve both modes.  With a
:class:`~repro.resilience.RetryPolicy` passed as ``retry``, the sweep
also *survives*: a lost worker is resubmitted — a crashed pool child
(``BrokenProcessPool``) restarts the pool and resubmits the in-flight
window; serially a crash is an injected ``InjectedFaultError`` — a spec
that exceeds the per-spec wait budget (``timeout_s``, pool only;
ignored serially) is resubmitted, and a spec that exhausts its attempts
is **quarantined** into the :class:`~repro.resilience.RunReport` — its
indices yield nothing and the rest of the sweep completes — instead of
aborting everything.
Without ``retry`` the failure behaviour is unchanged (first error
propagates), and fault-free runs are byte-identical either way: retry
bookkeeping never touches result payloads or provenance.  The
``batch.*`` fault sites of :mod:`repro.resilience.faults` are hooked
here and are inert unless a plan is armed.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import Counter, deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from itertools import islice
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import FlowError, InjectedFaultError, ReproError, ResilienceError
from ..obs import get_recorder
from ..resilience.faults import (
    active_injector,
    apply_worker_fault,
    check_fault,
    fire,
    worker_fault_action,
)
from ..resilience.report import RunReport
from ..resilience.retry import RetryBudget, RetryPolicy, sleep_for
from .runner import Flow, FlowResult
from .spec import UNCACHEABLE_GRAPH_KINDS, FlowSpec, spec_hash

__all__ = ["run_many", "iter_results", "clear_cache", "prune_cache"]

_CACHE_SUFFIX = ".flowresult.pkl"

def _cacheable(spec: FlowSpec) -> bool:
    """Whether *spec* is fully determined by its own JSON."""
    return spec.graph.kind not in UNCACHEABLE_GRAPH_KINDS


def _cache_path(cache_dir: Path, digest: str) -> Path:
    return cache_dir / f"{digest}{_CACHE_SUFFIX}"


def _cache_stamp() -> Dict[str, object]:
    """The version stamp embedded in every cache payload.

    Both coordinates must match on load: the record schema version
    guards the result-flattening contract, the library version guards
    everything the pickle closes over (dataclass layouts, defaults).
    """
    import repro as _repro  # late: the package root imports this module
    from ..results.record import RECORD_SCHEMA_VERSION

    return {
        "repro_version": getattr(_repro, "__version__", "unknown"),
        "record_schema": RECORD_SCHEMA_VERSION,
    }


def _load_cached(cache_dir: Path, digest: str) -> Optional[FlowResult]:
    """The cached result for *digest*, or ``None``.

    Corrupt files, pre-versioning payloads (a bare pickled
    ``FlowResult``), and payloads stamped by a different library or
    record-schema version are all misses.
    """
    path = _cache_path(cache_dir, digest)
    if not path.is_file():
        return None
    try:
        with path.open("rb") as handle:
            payload = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, ValueError):
        # the failures a torn/stale/foreign-version pickle can produce
        # (pickle's documented unpickling errors plus file I/O) — anything
        # else is a genuine bug and must propagate, not become a cache miss
        return None
    if not isinstance(payload, dict) or payload.get("stamp") != _cache_stamp():
        return None
    result = payload.get("result")
    if not isinstance(result, FlowResult):
        return None
    result.provenance["cache_hit"] = True
    return result


def _store_cached(cache_dir: Path, digest: str, result: FlowResult) -> None:
    """Atomically pickle *result* (tmp file + rename survives crashes)."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    payload = {"stamp": _cache_stamp(), "result": result}
    fd, tmp_name = tempfile.mkstemp(dir=str(cache_dir), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_name, _cache_path(cache_dir, digest))
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if check_fault("batch.cache-corrupt", digest=digest[:12]) is not None:
        # chaos hook: the pickle we just published is garbage now —
        # the next load must treat it as a miss, never crash
        with _cache_path(cache_dir, digest).open("wb") as handle:
            handle.write(b"\x80repro-injected-corruption")


def _run_spec_json(
    payload: str, obs: bool = False, fault: Optional[str] = None
) -> FlowResult:
    """Process-pool entry point (module-level so it pickles).

    With *obs* set (the parent's recorder was enabled at submission),
    the worker records the run into a fresh captured recorder and ships
    the span/metric buffer back on ``result.obs`` — the existing result
    channel, no side pipe.  The parent merges it exactly once.

    *fault* is the parent-decided chaos action (crash/stall) for this
    submission; ``None`` — always, unless a fault plan is armed — is a
    single falsy check.
    """
    if fault:
        apply_worker_fault(fault)
    if not obs:
        return Flow().run(FlowSpec.from_json(payload))
    from ..obs import capture

    with capture() as recorder:
        result = Flow().run(FlowSpec.from_json(payload))
    result.obs = recorder.export_buffer()
    return result


class _InProcessExecutor:
    """Serial execution behind the pool's ``submit``/``result`` interface.

    ``submit`` only defers — the handle is the spec itself — and the
    spec runs in-process when ``result`` is called, so the worker fault
    gates fire in execution order.  Killing the caller's own process is
    not a recoverable failure to inject: the serial analogue of a worker
    crash is a raised :class:`InjectedFaultError`, a slow worker is just
    the stall, and nothing can time the call out (``timeout_s`` is
    ignored).
    """

    worker = "serial"

    def __init__(self) -> None:
        self._flow = Flow()

    def submit(self, spec: FlowSpec) -> FlowSpec:
        return spec

    def result(
        self, spec: FlowSpec, digest: str, timeout_s: Optional[float]
    ) -> FlowResult:
        fire("batch.worker-crash")
        hit = check_fault("batch.worker-slow")
        if hit is not None:
            sleep_for(hit.delay_s)
        return self._flow.run(spec)

    def shutdown(self) -> None:
        pass


class _PoolExecutor:
    """Cache misses in a process pool, one future per submission."""

    worker = "pool"

    def __init__(self, workers: int, rec) -> None:
        self._workers = workers
        self._rec = rec
        self._pool = ProcessPoolExecutor(max_workers=workers)

    def submit(self, spec: FlowSpec) -> Future:
        # the chaos decision is made here, in the parent, so the
        # ordinal sequence is the (deterministic) submission order
        fault = worker_fault_action()
        try:
            return self._pool.submit(
                _run_spec_json, spec.to_json(), self._rec.enabled, fault
            )
        except BrokenProcessPool as exc:
            # a crash landed between a wait and this submission: hand
            # back a lost future, so the spec meets the dead pool (and
            # its restart) in the ladder like every other in-flight spec
            lost: Future = Future()
            lost.set_exception(exc)
            return lost

    def result(
        self, future: Future, digest: str, timeout_s: Optional[float]
    ) -> FlowResult:
        with self._rec.span("batch.wait", digest=digest[:12]) as waited:
            result = future.result(timeout=timeout_s)
        self._rec.observe("batch.queue_wait_s", waited.elapsed)
        return result

    def restart(self) -> None:
        self.shutdown()
        self._pool = ProcessPoolExecutor(max_workers=self._workers)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


def _validate(specs: Sequence[FlowSpec], workers: Optional[int]) -> None:
    for index, spec in enumerate(specs):
        if not isinstance(spec, FlowSpec):
            raise FlowError(
                f"run_many expects FlowSpec items; item {index} is "
                f"{type(spec).__name__}"
            )
    if workers is not None and workers < 1:
        raise FlowError(f"workers must be >= 1, got {workers}")


def iter_results(
    specs: Sequence[FlowSpec],
    workers: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    retry: Optional[RetryPolicy] = None,
    timeout_s: Optional[float] = None,
    report: Optional[RunReport] = None,
) -> Iterator[Tuple[int, FlowResult]]:
    """Yield ``(input_index, result)`` pairs in input order, incrementally.

    Execution semantics match :func:`run_many` (dedup, cache, process
    pool), but results are handed over as they finish and are retained
    only while a later duplicate spec still needs the shared object —
    a grid of distinct specs streams through O(workers) live results
    instead of O(len(specs)).  Equal input specs yield the same result
    object at each of their indices.

    Resilience (all opt-in, see docs/RESILIENCE.md):

    * ``retry`` — a :class:`~repro.resilience.RetryPolicy`.  A lost
      worker (a crashed pool child, ``BrokenProcessPool``, or serially
      an injected :class:`InjectedFaultError`) resubmits — the pool is
      restarted first; per-spec wait timeouts resubmit; a spec out of
      attempts (or the sweep out of its retry budget) is *quarantined*:
      recorded in the report, its indices never yielded, the sweep
      continues.  Serial and pool runs climb the same ladder.  Without
      ``retry``, the first failure propagates exactly as before.
    * ``timeout_s`` — per-spec wait budget in pool mode (each wait on a
      spec's future; the stale computation is abandoned, not killed).
      Ignored serially, where nothing can interrupt the call.
    * ``report`` — a :class:`~repro.resilience.RunReport` to fill in;
      one is created internally when omitted.  When a fault plan is
      armed, the injector's fault report is attached on completion.
    """
    specs = list(specs)
    _validate(specs, workers)
    if timeout_s is not None and timeout_s <= 0:
        raise FlowError(f"timeout_s must be positive, got {timeout_s}")
    report = report if report is not None else RunReport()
    max_attempts = retry.max_attempts if retry is not None else 1
    digests = [spec_hash(spec) for spec in specs]
    remaining = Counter(digests)
    # sweep-wide bound: enough for every distinct spec to burn its full
    # attempt ladder, never more — a melting pool exhausts this and the
    # stragglers quarantine immediately
    budget = RetryBudget((max_attempts - 1) * max(1, len(remaining)))
    cache = Path(cache_dir) if cache_dir is not None else None
    first_spec: Dict[str, FlowSpec] = {}
    for digest, spec in zip(digests, specs):
        first_spec.setdefault(digest, spec)

    # results still owed to a later index; None marks a quarantined digest
    live: Dict[str, Optional[FlowResult]] = {}
    rec = get_recorder()
    if workers is not None and workers > 1:
        executor = _PoolExecutor(workers, rec)
        window_size = 2 * workers
    else:
        executor = _InProcessExecutor()
        window_size = 1
    # distinct digests in input order, each entering the window once as
    # (digest, handle, cache hit).  Entry validates the cache by loading
    # it, not by file existence — a stale pickle is a miss and goes to
    # the executor — and a valid hit holds its slot already resolved, so
    # each hit is unpickled exactly once
    entering = iter(first_spec)
    window: deque = deque()

    def _submit(digest: str):
        return executor.submit(first_spec[digest])

    def _fill() -> None:
        for digest in islice(entering, window_size - len(window)):
            hit = None
            if cache is not None and _cacheable(first_spec[digest]):
                hit = _load_cached(cache, digest)
            rec.counter("batch.cache.misses" if hit is None else "batch.cache.hits")
            window.append((digest, _submit(digest) if hit is None else None, hit))

    def _restart_pool() -> None:
        # a dead child poisons every in-flight future: stand up a fresh
        # pool and resubmit the surviving window in input order
        report.record_pool_restart()
        rec.counter("batch.retry.pool_restarts")
        executor.restart()
        for slot, (digest, _, hit) in enumerate(list(window)):
            if hit is None:
                window[slot] = (digest, _submit(digest), None)
        _fill()

    def _computed(digest: str, result: FlowResult) -> FlowResult:
        result.provenance["worker"] = executor.worker
        # a traced pool worker shipped its span buffer on the result:
        # fold it into the parent recorder exactly once (consumption is
        # input-ordered, so merged span order is deterministic), then
        # strip it so neither the cache nor callers see it again
        buffer = result.obs
        if buffer is not None:
            result.obs = None
            if rec.enabled:
                rec.merge_buffer(buffer, proc=f"pool:{digest[:12]}")
        if cache is not None and _cacheable(first_spec[digest]):
            _store_cached(cache, digest, result)
        return result

    def _quarantine(digest: str, attempts: int, error: BaseException) -> None:
        """Poison *digest*: record it, skip its indices, keep sweeping."""
        indices = tuple(i for i, d in enumerate(digests) if d == digest)
        report.record_quarantine(
            spec_hash=digest,
            indices=indices,
            error=f"{type(error).__name__}: {error}",
            attempts=attempts,
        )
        rec.counter("batch.retry.quarantined")

    def _resolve(digest: str) -> Optional[FlowResult]:
        """The window head's result, through the attempt ladder; ``None``
        once the spec is quarantined."""
        expected, handle, hit = window.popleft()
        assert expected == digest  # both follow input order
        if hit is not None:
            return hit
        attempts = 0
        while True:
            attempts += 1
            try:
                result = executor.result(handle, digest, timeout_s)
            except _FutureTimeout as exc:
                # the stale computation is abandoned (its worker finishes
                # it into the void); the spec re-enters under the ladder
                report.record_timeout(digest)
                rec.counter("batch.retry.timeouts")
                if retry is None:
                    raise FlowError(
                        f"spec {digest[:12]} exceeded its {timeout_s}s wait "
                        f"budget (pass retry= to resubmit instead)"
                    ) from exc
                error: BaseException = exc
            except (BrokenProcessPool, InjectedFaultError) as exc:
                # a lost worker — transient by construction
                if retry is None:
                    raise
                if isinstance(exc, BrokenProcessPool):
                    _restart_pool()
                error = exc
            except ReproError as exc:
                # the spec itself failed — deterministic, so an attempt
                # ladder cannot change the outcome
                if retry is None:
                    raise
                _quarantine(digest, attempts, exc)
                return None
            else:
                return _computed(digest, result)
            if attempts >= max_attempts or not budget.take():
                _quarantine(digest, attempts, error)
                return None
            report.record_resubmit(digest, attempts, type(error).__name__)
            rec.counter("batch.retry.resubmitted")
            sleep_for(retry.delay_s(attempts, key=digest))
            handle = _submit(digest)

    try:
        _fill()
        for index, digest in enumerate(digests):
            if digest not in live:
                live[digest] = _resolve(digest)
                _fill()
            result = live[digest]
            remaining[digest] -= 1
            if not remaining[digest]:
                del live[digest]
            if result is not None:
                yield index, result
        injector = active_injector()
        if injector is not None:
            report.attach_faults(injector.report())
    finally:
        executor.shutdown()


def run_many(
    specs: Sequence[FlowSpec],
    workers: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    store=None,
    suite: str = "",
    scenario: str = "",
    retry: Optional[RetryPolicy] = None,
    timeout_s: Optional[float] = None,
    report: Optional[RunReport] = None,
) -> List[FlowResult]:
    """Run every spec, in order, with dedup / caching / parallelism.

    Parameters
    ----------
    specs:
        The flow configurations to execute.
    workers:
        ``None`` or ``1`` runs serially in-process; ``N > 1`` executes
        cache misses in an ``N``-worker process pool.
    cache_dir:
        Optional directory for the persistent result cache.  Identical
        specs (same :func:`spec_hash`) hit the cache across calls *and*
        across processes; pass a fresh directory (or ``None``) to force
        recomputation.  Cached payloads are version-stamped — pickles
        written by a different library/record-schema version are misses.
    store:
        Optional :class:`~repro.results.ResultStore` (or store
        directory path): every result is flattened to a
        :class:`~repro.results.RunRecord` and appended as it finishes,
        tagged with *suite*/*scenario*.  For large grids that only need
        the store, prefer :func:`repro.results.run_to_store`, which
        never materializes the result list.
    retry / timeout_s / report:
        Resilience knobs, passed through to :func:`iter_results`: with
        ``retry`` set, crashed/stalled workers are resubmitted under the
        policy's budget, store appends are retried (a torn write is a
        transient), and a spec out of attempts is quarantined into
        *report* — its slot in the returned list stays ``None`` instead
        of aborting the sweep.  Without ``retry``, behaviour (including
        the returned ``List[FlowResult]`` type) is unchanged.

    Returns
    -------
    list of FlowResult
        One per input spec, in input order.  Equal input specs share one
        result object.  Quarantined specs (only possible with ``retry``)
        leave ``None`` at their indices; ``report.poisoned()`` names
        them.
    """
    specs = list(specs)
    results: List[Optional[FlowResult]] = [None] * len(specs)
    if retry is not None and report is None:
        report = RunReport()
    if store is not None:
        from ..results.record import RunRecord
        from ..results.store import ResultStore

        if not isinstance(store, ResultStore):
            store = ResultStore(store)

    for index, result in iter_results(
        specs,
        workers=workers,
        cache_dir=cache_dir,
        retry=retry,
        timeout_s=timeout_s,
        report=report,
    ):
        results[index] = result
        if store is not None:
            record = RunRecord.from_result(result, suite=suite, scenario=scenario)
            if retry is None:
                store.append(record)
            else:
                # a torn index write (crash mid-append) is transient: the
                # appender self-heals the ledger tail on the next attempt
                retry.call(
                    lambda: store.append(record),
                    retry_on=(ResilienceError, OSError),
                    key=f"store:{index}",
                    on_retry=lambda _a, _e: report.record_store_retry(),
                )
    return results  # type: ignore[return-value]


def clear_cache(cache_dir: Union[str, Path]) -> int:
    """Delete every cached flow result under *cache_dir*; returns count."""
    cache = Path(cache_dir)
    removed = 0
    if cache.is_dir():
        for path in cache.glob(f"*{_CACHE_SUFFIX}"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    return removed


def prune_cache(
    cache_dir: Union[str, Path],
    max_entries: Optional[int] = None,
    max_bytes: Optional[int] = None,
    dry_run: bool = False,
):
    """Evict oldest cached flow results until the budget fits.

    The on-disk result cache only ever grows (every distinct spec adds a
    pickle); this sweep bounds it with the same LRU-by-count/bytes policy
    the serving layer's in-memory ``EngineCache`` uses — oldest mtime
    first, deterministic name tie-break (see
    :func:`repro.caching.prune_dir`).  Eviction is always safe: entries
    are content-addressed, so a pruned spec simply recomputes on its
    next run.  Returns the :class:`~repro.caching.PruneResult` sweep
    summary (what ``repro cache prune`` renders).
    """
    from ..caching import prune_dir  # late: keep batch import light

    return prune_dir(
        cache_dir,
        _CACHE_SUFFIX,
        max_entries=max_entries,
        max_bytes=max_bytes,
        dry_run=dry_run,
    )
