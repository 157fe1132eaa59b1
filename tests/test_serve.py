"""The serve subsystem: protocol, engine cache, worker pool, daemon.

The load-bearing pins:

* **sub-spec hash stability** — the cache keys are content hashes of
  spec subtrees, pinned here as literals; a hash change invalidates
  every warm daemon's cache on deploy and must be a deliberate act;
* **lease isolation** — cache hits fork fresh counters over shared
  immutable arrays, so concurrent workers never share mutable state;
* **byte-identity** — a served record equals the in-process
  ``Flow.run`` record modulo provenance/timings/diagnostics;
* **backpressure** — a full queue answers 429 + ``Retry-After``
  immediately instead of stacking blocked connection threads.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ServeError
from repro.flow import Flow, platform_spec
from repro.flow.spec import FloorplanSpec, FlowSpec
from repro.results import ResultStore
from repro.serve import (
    EngineCache,
    ServeClient,
    ServeDaemon,
    ServeJob,
    WorkerPool,
    QueueFullError,
    floorplan_subspec_hash,
    library_subspec_hash,
    platform_cache_key,
    solver_subspec_hash,
    subspec_hash,
    workload_cache_key,
)
from repro.serve import protocol


def bm1_spec(**kwargs):
    return platform_spec("Bm1", policy="thermal", **kwargs)


#: Channels that legitimately differ between servings of the same spec.
VARIABLE_KEYS = ("provenance", "timings", "diagnostics")


def comparable(record):
    trimmed = dict(record)
    for key in VARIABLE_KEYS:
        trimmed.pop(key, None)
    return trimmed


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_parse_submit_round_trips_the_spec(self):
        spec = bm1_spec(weight=0.7)
        raw = protocol.encode({"spec": spec.to_dict(), "store": False})
        request = protocol.parse_submit(raw)
        assert request.spec == spec
        assert request.store is False
        assert request.suite == "serve"
        assert request.scenario == ""

    def test_unknown_keys_rejected(self):
        raw = protocol.encode({"spec": bm1_spec().to_dict(), "sotre": True})
        with pytest.raises(ServeError, match="sotre"):
            protocol.parse_submit(raw)

    def test_missing_spec_rejected(self):
        with pytest.raises(ServeError, match="spec"):
            protocol.parse_submit(b'{"store": true}')

    def test_invalid_spec_rejected_with_detail(self):
        raw = protocol.encode({"spec": {"graph": {"kind": "nope"}}})
        with pytest.raises(ServeError, match="invalid spec"):
            protocol.parse_submit(raw)

    def test_non_json_and_non_object_bodies_rejected(self):
        with pytest.raises(ServeError, match="not valid JSON"):
            protocol.parse_submit(b"{nope")
        with pytest.raises(ServeError, match="JSON object"):
            protocol.parse_submit(b"[1, 2]")

    def test_store_must_be_boolean(self):
        raw = protocol.encode({"spec": bm1_spec().to_dict(), "store": 1})
        with pytest.raises(ServeError, match="boolean"):
            protocol.parse_submit(raw)

    def test_payload_shapes_carry_protocol_version(self):
        success = protocol.success_payload({"x": 1}, "req-1", "w0", {})
        error = protocol.error_payload("busy", "full", "req-2")
        assert success["ok"] and success["protocol"] == 1
        assert success["record"] == {"x": 1}
        assert not error["ok"] and error["error"]["kind"] == "busy"
        assert error["request_id"] == "req-2"


# ----------------------------------------------------------------------
# sub-spec hashes (satellite: pinned literals)
# ----------------------------------------------------------------------
class TestSubSpecHashes:
    def test_pinned_hash_literals(self):
        """The cache keys for the canonical Bm1 thermal spec, pinned.

        A failure here means every warm daemon's cache is invalidated on
        deploy — fine if deliberate (update the literals), a bug if not.
        """
        spec = bm1_spec()
        assert floorplan_subspec_hash(spec) == "dca817a3c93b0ad6459a"
        assert solver_subspec_hash(spec) == "11ad25683f3408c70246"
        assert library_subspec_hash(spec) == "0a046cf9ca71718cc0c0"
        assert platform_cache_key(spec) == (
            "dca817a3c93b0ad6459a:11ad25683f3408c70246"
        )
        assert workload_cache_key(spec) == "0a046cf9ca71718cc0c0"
        assert subspec_hash({}) == "44136fa355b3678a1146"

    def test_policy_weight_change_preserves_both_keys(self):
        a, b = bm1_spec(), bm1_spec(weight=0.7)
        assert platform_cache_key(a) == platform_cache_key(b)
        assert workload_cache_key(a) == workload_cache_key(b)

    def test_defaulted_and_explicit_platform_floorplan_hash_alike(self):
        defaulted = bm1_spec()
        explicit = FlowSpec.from_dict(
            {**defaulted.to_dict(),
             "floorplan": FloorplanSpec(kind="platform").to_dict()}
        )
        assert floorplan_subspec_hash(explicit) == floorplan_subspec_hash(
            defaulted
        )

    def test_graph_change_moves_workload_key_not_platform_key(self):
        a, b = bm1_spec(), platform_spec("Bm2", policy="thermal")
        assert workload_cache_key(a) != workload_cache_key(b)
        assert platform_cache_key(a) == platform_cache_key(b)

    def test_floorplan_change_moves_platform_key_not_workload_key(self):
        a = bm1_spec()
        b = bm1_spec(floorplan=FloorplanSpec(kind="genetic"))
        assert platform_cache_key(a) != platform_cache_key(b)
        assert workload_cache_key(a) == workload_cache_key(b)


# ----------------------------------------------------------------------
# the engine cache
# ----------------------------------------------------------------------
class TestEngineCache:
    def test_workload_hit_returns_the_cached_pair(self):
        cache = EngineCache()
        pair = cache.workload_for(bm1_spec())
        again = cache.workload_for(bm1_spec(weight=0.7))
        assert again[0] is pair[0] and again[1] is pair[1]
        assert cache.workloads.stats()["hits"] == 1

    def test_platform_leases_are_isolated_but_share_arrays(self):
        cache = EngineCache()
        first = cache.platform_for(bm1_spec())
        second = cache.platform_for(bm1_spec(weight=0.7))
        assert first.thermal is not second.thermal
        # the expensive immutable state is shared, not rebuilt
        assert first.thermal.network is second.thermal.network
        engine_a = first.thermal.query_engine()
        engine_b = second.thermal.query_engine()
        assert engine_a.response is engine_b.response
        # counters are per-lease
        first.thermal.average_temperature({"pe0": 5.0})
        assert first.thermal.query_count == 1
        assert second.thermal.query_count == 0

    def test_zero_entries_is_truly_cold(self):
        cache = EngineCache(max_entries=0)
        cache.platform_for(bm1_spec())
        cache.platform_for(bm1_spec())
        stats = cache.stats()
        assert stats["platforms"]["entries"] == 0
        assert stats["platforms"]["hits"] == 0
        assert stats["platforms"]["misses"] == 2

    def test_non_hotspot_solver_bypasses_platform_cache(self):
        cache = EngineCache()
        spec = FlowSpec.from_dict(
            {**bm1_spec().to_dict(), "thermal": {"solver": "gridmodel"}}
        )
        platform = cache.platform_for(spec)  # built fresh, never stored
        assert platform.thermal is not None
        assert cache.stats()["platform_bypasses"] == 1
        assert cache.stats()["platforms"]["entries"] == 0

    def test_flow_marks_engine_cache_provenance(self):
        cache = EngineCache()
        spec = bm1_spec()
        cold = Flow(cache=cache).run(spec)
        warm = Flow(cache=cache).run(spec)
        assert warm.provenance["engine_cache"] == {
            "workload": True, "platform": True,
        }
        assert cold.provenance["engine_cache"] == {
            "workload": True, "platform": True,
        }  # workload_for always returns a pair; both runs lease fine

    def test_cached_flow_result_matches_uncached(self):
        cache = EngineCache()
        spec = bm1_spec()
        Flow(cache=cache).run(spec)  # populate
        warm = Flow(cache=cache).run(spec).as_record(suite="s").to_dict()
        cold = Flow().run(spec).as_record(suite="s").to_dict()
        assert comparable(warm) == comparable(cold)


# ----------------------------------------------------------------------
# the worker pool
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_jobs_execute_and_carry_provenance(self, tmp_path):
        pool = WorkerPool(
            cache=EngineCache(), workers=2, store=tmp_path / "runs"
        )
        pool.start()
        try:
            jobs = [
                ServeJob(request_id=f"req-{i}", spec=bm1_spec(weight=w))
                for i, w in enumerate((0.3, 0.5, 0.7))
            ]
            for job in jobs:
                pool.submit(job)
            for job in jobs:
                assert job.done.wait(timeout=60)
                assert job.error is None
                assert job.record["provenance"]["request_id"] == job.request_id
                assert job.record["provenance"]["served_by"].startswith(
                    "serve-worker-"
                )
        finally:
            pool.stop()
        stored = ResultStore(tmp_path / "runs").load()
        assert len(stored) == 3
        assert pool.stats()["completed"] == 3

    def test_repro_errors_become_typed_job_errors(self):
        pool = WorkerPool(workers=1)
        pool.start()
        try:
            bad = FlowSpec.from_dict(
                {**bm1_spec().to_dict(), "policy": {"name": "nope"}}
            )
            job = ServeJob(request_id="req-x", spec=bad, store=False)
            pool.submit(job)
            assert job.done.wait(timeout=60)
        finally:
            pool.stop()
        kind, message = job.error
        assert kind == "SchedulingError"
        assert "nope" in message

    def test_full_queue_rejects_immediately(self):
        pool = WorkerPool(workers=1, queue_size=1)  # never started
        pool.submit(ServeJob(request_id="a", spec=bm1_spec(), store=False))
        with pytest.raises(QueueFullError) as excinfo:
            pool.submit(ServeJob(request_id="b", spec=bm1_spec(), store=False))
        assert excinfo.value.retry_after_s >= 1
        assert pool.stats()["rejected"] == 1

    def test_stats_shape(self):
        pool = WorkerPool(cache=EngineCache(), workers=2, queue_size=5)
        stats = pool.stats()
        assert stats["workers"] == 2
        assert stats["queue_capacity"] == 5
        assert {"window", "mean_s", "p50_s", "p90_s", "p99_s"} <= set(
            stats["latency"]
        )
        assert {"workloads", "platforms"} <= set(stats["cache"])


# ----------------------------------------------------------------------
# the daemon, over real loopback HTTP
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    store = tmp_path_factory.mktemp("serve-store")
    with ServeDaemon(
        port=0, workers=2, store=store, request_timeout_s=120.0
    ) as running:
        yield running


@pytest.fixture(scope="module")
def client(daemon):
    return ServeClient(daemon.url, timeout_s=120.0)


class TestDaemon:
    def test_health_and_stats_endpoints(self, client):
        assert client.health()
        stats = client.stats()
        assert {"requests", "timeouts", "workers", "queue_depth",
                "latency", "cache"} <= set(stats)

    def test_served_record_is_byte_identical_to_in_process(self, client):
        spec = bm1_spec(weight=0.61)
        payload = client.submit(spec, store=False)
        assert payload["ok"] and payload["served_by"]
        local = Flow().run(spec).as_record(suite="serve").to_dict()
        assert comparable(payload["record"]) == comparable(local)

    def test_second_serving_hits_the_warm_cache(self, client):
        spec = bm1_spec(weight=0.62)
        client.submit(spec, store=False)
        before = client.stats()["cache"]["platforms"]["hits"]
        client.submit(bm1_spec(weight=0.63), store=False)
        after = client.stats()["cache"]["platforms"]["hits"]
        assert after > before

    def test_stored_records_carry_serve_provenance(self, daemon, client):
        payload = client.submit(bm1_spec(weight=0.64), suite="prov-test")
        stored = ResultStore(daemon.pool._store.root).load(suite="prov-test")
        assert len(stored) == 1
        record = list(stored)[0]
        assert record.provenance["request_id"] == payload["request_id"]
        assert record.provenance["served_by"] == payload["served_by"]

    def test_execution_failure_maps_to_typed_error(self, client):
        bad = FlowSpec.from_dict(
            {**bm1_spec().to_dict(), "policy": {"name": "nope"}}
        )
        with pytest.raises(ServeError, match=r"\[SchedulingError\]"):
            client.submit(bad, store=False)

    def test_bad_request_and_unknown_endpoint(self, daemon):
        import urllib.request

        request = urllib.request.Request(
            daemon.url + "/run", data=b"{nope", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["kind"] == "bad-request"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(daemon.url + "/nope", timeout=30)
        assert excinfo.value.code == 404

    def test_request_ids_are_unique_and_clock_free(self, client):
        ids = {
            client.submit(bm1_spec(weight=w), store=False)["request_id"]
            for w in (0.71, 0.72, 0.73)
        }
        assert len(ids) == 3
        assert all(i.startswith("req-") for i in ids)


class TestHandleSubmitPolicy:
    """The request policy, driven without sockets."""

    def _daemon(self, **kwargs):
        # port=0: ephemeral bind, never started — handle_submit only
        return ServeDaemon(port=0, **kwargs)

    def test_timeout_answers_504_and_counts(self):
        daemon = self._daemon(workers=1, request_timeout_s=0.05)
        try:
            # pool not started: the job can never complete
            raw = protocol.encode({"spec": bm1_spec().to_dict()})
            status, payload, _ = daemon.handle_submit(raw)
            assert status == 504
            assert payload["error"]["kind"] == "timeout"
            assert daemon.stats()["timeouts"] == 1
        finally:
            daemon._http.server_close()

    def test_full_queue_answers_429_with_retry_after(self):
        daemon = self._daemon(
            workers=1, queue_size=1, request_timeout_s=0.05
        )
        try:
            raw = protocol.encode({"spec": bm1_spec().to_dict()})
            daemon.handle_submit(raw)  # fills the (undrained) queue
            status, payload, headers = daemon.handle_submit(raw)
            assert status == 429
            assert payload["error"]["kind"] == "busy"
            assert int(headers["Retry-After"]) >= 1
        finally:
            daemon._http.server_close()

    def test_unparsable_body_answers_400(self):
        daemon = self._daemon(workers=1)
        try:
            status, payload, _ = daemon.handle_submit(b'{"no-spec": 1}')
            assert status == 400
            assert payload["error"]["kind"] == "bad-request"
        finally:
            daemon._http.server_close()

    def test_invalid_constructor_arguments_raise(self):
        with pytest.raises(ServeError, match="request_timeout_s"):
            ServeDaemon(port=0, request_timeout_s=0.0)
        with pytest.raises(ServeError, match="workers"):
            WorkerPool(workers=0)
        with pytest.raises(ServeError, match="timeout_s"):
            ServeClient("http://x", timeout_s=0)


# ----------------------------------------------------------------------
# the CLI pair
# ----------------------------------------------------------------------
class TestSubmitCLI:
    def test_submit_shorthand_prints_served_row(self, daemon, capsys):
        code = main([
            "submit", "--url", daemon.url, "--benchmark", "Bm1",
            "--policy", "thermal", "--no-store",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "served by" in out and "serve-worker-" in out

    def test_submit_spec_file_json_payload(self, daemon, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(bm1_spec(weight=0.8).to_json(indent=2))
        code = main([
            "submit", str(spec_path), "--url", daemon.url, "--no-store",
            "--json",
        ])
        assert code == 0
        payloads = json.loads(capsys.readouterr().out)
        assert len(payloads) == 1
        assert payloads[0]["ok"] and payloads[0]["record"]["spec"][
            "policy"
        ]["weight"] == 0.8

    def test_submit_unreachable_daemon_exits_one(self, capsys):
        code = main([
            "submit", "--url", "http://127.0.0.1:1", "--timeout", "2",
        ])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err
