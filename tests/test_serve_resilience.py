"""Serving under failure: client retries, circuit breaker, orphans,
degradation states, draining shutdown.

The client half pins the bounded-budget retry contract against a
scripted transport (no sockets, no sleeps); the daemon half drives a
real loopback daemon through injected connection resets and handler
exceptions and asserts the client absorbs them.
"""

import pytest

from repro.errors import ServeConnectionError, ServeError
from repro.flow import Flow, platform_spec, spec_hash
from repro.flow.spec import generated_source
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy, inject
from repro.results import ResultStore
from repro.serve import ServeClient, ServeDaemon, protocol

#: Zero-delay policy so retry tests run at full speed.
FAST_RETRY = RetryPolicy(max_attempts=4, base_delay_s=0.0, max_delay_s=0.0)


def bm1_spec(**kwargs):
    return platform_spec("Bm1", policy="thermal", **kwargs)


def bad_spec():
    """Parses fine, fails at execution time (unknown policy) — the 422
    family the circuit breaker counts."""
    from repro.flow.spec import FlowSpec

    return FlowSpec.from_dict(
        {**bm1_spec().to_dict(), "policy": {"name": "nope"}}
    )


VARIABLE_KEYS = ("provenance", "timings", "diagnostics")


def comparable(record):
    trimmed = dict(record)
    for key in VARIABLE_KEYS:
        trimmed.pop(key, None)
    return trimmed


# ----------------------------------------------------------------------
# the client's retry budget, against a scripted transport
# ----------------------------------------------------------------------
class _ScriptedTransport:
    """Replaces ``ServeClient._request`` with a canned response list."""

    def __init__(self, client, script):
        self.script = list(script)
        self.calls = 0
        client._request = self  # bound-method shadowing on the instance

    def __call__(self, method, path, body=None):
        self.calls += 1
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


OK = (200, {"ok": True, "protocol": 1, "record": {"x": 1},
            "request_id": "req-1", "served_by": "w0", "timings": {}}, {})


def _client(sleeps):
    client = ServeClient("http://127.0.0.1:1", timeout_s=5.0,
                         max_retries=3, retry=FAST_RETRY)
    return client


@pytest.fixture()
def sleeps(monkeypatch):
    recorded = []
    monkeypatch.setattr("repro.serve.client.sleep_for", recorded.append)
    return recorded


def _error(status, kind):
    return (status, protocol.error_payload(kind, f"scripted {kind}", "req-x"),
            {})


class TestClientRetry:
    def test_transient_503_and_500_are_absorbed(self, sleeps):
        client = _client(sleeps)
        transport = _ScriptedTransport(client, [
            _error(503, "draining"), _error(500, "internal"), OK,
        ])
        payload = client.submit(bm1_spec(), store=False)
        assert payload["ok"]
        assert transport.calls == 3
        assert len(sleeps) == 2

    def test_connection_resets_are_absorbed(self, sleeps):
        client = _client(sleeps)
        transport = _ScriptedTransport(client, [
            ServeConnectionError("reset"), ServeConnectionError("refused"),
            OK,
        ])
        assert client.submit(bm1_spec(), store=False)["ok"]
        assert transport.calls == 3

    def test_budget_bounds_connection_retries(self, sleeps):
        client = _client(sleeps)
        _ScriptedTransport(client, [ServeConnectionError("down")] * 10)
        with pytest.raises(ServeConnectionError, match="down"):
            client.submit(bm1_spec(), store=False)
        # max_retries=3 → 4 attempts, 3 backoffs, not 10
        assert len(sleeps) == 3

    def test_budget_bounds_http_retries_then_raises_the_kind(self, sleeps):
        client = _client(sleeps)
        transport = _ScriptedTransport(client, [_error(503, "busy")] * 10)
        with pytest.raises(ServeError, match=r"\[busy\]"):
            client.submit(bm1_spec(), store=False)
        assert transport.calls == 4

    def test_422_is_never_retried(self, sleeps):
        client = _client(sleeps)
        transport = _ScriptedTransport(
            client, [_error(422, "SchedulingError")] * 2
        )
        with pytest.raises(ServeError, match=r"\[SchedulingError\]"):
            client.submit(bm1_spec(), store=False)
        assert transport.calls == 1
        assert sleeps == []

    def test_retry_after_hint_stretches_the_wait_but_is_capped(self, sleeps):
        client = _client(sleeps)
        script = [
            (429, protocol.error_payload("busy", "full", "r"),
             {"Retry-After": "2"}),
            (429, protocol.error_payload("busy", "full", "r"),
             {"Retry-After": "9999"}),
            OK,
        ]
        _ScriptedTransport(client, script)
        assert client.submit(bm1_spec(), store=False)["ok"]
        assert sleeps[0] == 2.0       # hint longer than 0-delay backoff
        assert sleeps[1] == 30.0      # absurd hints cap at 30s

    def test_zero_retries_means_one_attempt(self, sleeps):
        client = ServeClient("http://127.0.0.1:1", timeout_s=5.0,
                             max_retries=0)
        transport = _ScriptedTransport(client, [ServeConnectionError("x")])
        with pytest.raises(ServeConnectionError):
            client.submit(bm1_spec(), store=False)
        assert transport.calls == 1

    def test_default_policy_budget_tracks_max_retries(self):
        client = ServeClient("http://127.0.0.1:1", max_retries=5)
        assert client.retry.max_attempts == 6
        assert client.retry.jitter > 0

    def test_health_state_unreachable_when_nothing_answers(self):
        client = ServeClient("http://127.0.0.1:1", timeout_s=0.2)
        state, reasons = client.health_state()
        assert state == "unreachable"
        assert reasons and "cannot reach daemon" in reasons[0]


# ----------------------------------------------------------------------
# protocol: the degradation vocabulary
# ----------------------------------------------------------------------
class TestHealthPayload:
    def test_defaults_to_ok_with_no_reasons(self):
        payload = protocol.health_payload()
        assert payload["ok"] is True
        assert payload["state"] == "ok"
        assert payload["reasons"] == []

    def test_degraded_carries_reasons_but_stays_ok(self):
        # liveness probes must not kill a load-shedding daemon
        payload = protocol.health_payload("degraded", ("draining: bye",))
        assert payload["ok"] is True
        assert payload["state"] == "degraded"
        assert payload["reasons"] == ["draining: bye"]


# ----------------------------------------------------------------------
# the daemon, over real loopback HTTP, with injected faults
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def _always_disarmed():
    from repro.resilience import disarm

    disarm()
    yield
    disarm()


class TestDaemonUnderFaults:
    def test_client_absorbs_reset_and_handler_exception(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.serve.client.sleep_for", sleeps.append)
        plan = FaultPlan(faults=(
            FaultSpec(site="serve.connection-reset", ordinal=0),
            FaultSpec(site="serve.handler-exception", ordinal=0),
        ))
        with ServeDaemon(port=0, workers=1) as daemon:
            client = ServeClient(daemon.url, timeout_s=60.0,
                                 max_retries=3, retry=FAST_RETRY)
            spec = bm1_spec(weight=0.55)
            with inject(plan) as injector:
                payload = client.submit(spec, store=False)
            assert payload["ok"]
            assert len(injector.fired()) == 2
            assert len(sleeps) == 2  # one reset + one 500 absorbed
        local = Flow().run(spec).as_record(suite="serve").to_dict()
        assert comparable(payload["record"]) == comparable(local)

    def test_orphaned_timeout_completes_and_is_counted(self, tmp_path):
        heavy = platform_spec(
            "Bm1", policy="thermal",
            graph=generated_source("layered", tasks=400, seed=3), count=6,
        )
        with ServeDaemon(
            port=0, workers=1, store=tmp_path / "store",
            request_timeout_s=0.005,
        ) as daemon:
            client = ServeClient(daemon.url, timeout_s=60.0, max_retries=0)
            with pytest.raises(ServeError, match=r"\[timeout\]"):
                client.submit(heavy, suite="orphan-test")
            # the work was abandoned, not killed: it finishes and stores
            deadline_poll = 0
            while daemon.pool.orphan_completed == 0 and deadline_poll < 400:
                import time

                time.sleep(0.025)
                deadline_poll += 1
            assert daemon.pool.orphan_completed == 1
            assert daemon.stats()["timeouts"] == 1
        stored = ResultStore(tmp_path / "store").load(suite="orphan-test")
        assert len(stored) == 1
        record = list(stored)[0]
        assert record.provenance["orphaned_wait"] is True
        assert record.provenance["served_by"]


class TestCircuitBreaker:
    def test_failing_family_trips_healthy_family_survives(self):
        with ServeDaemon(
            port=0, workers=1, circuit_threshold=2, circuit_cooldown_s=60.0,
        ) as daemon:
            client = ServeClient(daemon.url, timeout_s=60.0, max_retries=0)
            bad = bad_spec()
            family = spec_hash(bad)
            for _ in range(2):
                with pytest.raises(ServeError, match=r"\[SchedulingError\]"):
                    client.submit(bad, store=False)
            # third request never reaches a worker
            with pytest.raises(ServeError, match=r"\[circuit-open\]"):
                client.submit(bad, store=False)
            assert daemon.stats()["circuit_rejections"] == 1
            assert daemon.stats()["circuits"]["circuits"][family][
                "state"
            ] == "open"
            # the healthy family is untouched
            assert client.submit(bm1_spec(), store=False)["ok"]
            state, reasons = client.health_state()
            assert state == "degraded"
            assert any("circuit-open" in reason for reason in reasons)

    def test_disabled_breaker_never_rejects(self):
        with ServeDaemon(port=0, workers=1, circuit_threshold=0) as daemon:
            client = ServeClient(daemon.url, timeout_s=60.0, max_retries=0)
            for _ in range(3):
                with pytest.raises(ServeError, match=r"\[SchedulingError\]"):
                    client.submit(bad_spec(), store=False)
            assert daemon.stats()["circuit_rejections"] == 0
            assert "circuits" not in daemon.stats()

    def test_handle_submit_policy_without_sockets(self):
        # workers run, HTTP loop never starts — handle_submit only
        daemon = ServeDaemon(
            port=0, workers=1, circuit_threshold=1, circuit_cooldown_s=60.0,
        )
        daemon.pool.start()
        try:
            raw = protocol.encode({"spec": bad_spec().to_dict(),
                                   "store": False})
            status, payload, _ = daemon.handle_submit(raw)
            assert status == 422
            status, payload, headers = daemon.handle_submit(raw)
            assert status == 503
            assert payload["error"]["kind"] == "circuit-open"
            assert int(headers["Retry-After"]) >= 1
        finally:
            daemon.pool.stop()
            daemon._http.server_close()


class TestDraining:
    def test_draining_daemon_rejects_new_work_with_503(self):
        with ServeDaemon(port=0, workers=1) as daemon:
            client = ServeClient(daemon.url, timeout_s=60.0, max_retries=0)
            assert client.submit(bm1_spec(), store=False)["ok"]
            daemon.begin_drain()
            assert daemon.draining
            with pytest.raises(ServeError, match=r"\[draining\]"):
                client.submit(bm1_spec(), store=False)
            assert daemon.stats()["drain_rejections"] == 1
            state, reasons = client.health_state()
            assert state == "degraded"
            assert any("draining" in reason for reason in reasons)

    def test_shutdown_implies_drain(self):
        daemon = ServeDaemon(port=0, workers=1)
        with daemon as running:
            client = ServeClient(running.url, timeout_s=60.0)
            assert client.health()
        assert daemon.draining

    def test_healthz_reports_ok_when_healthy(self):
        with ServeDaemon(port=0, workers=1) as daemon:
            client = ServeClient(daemon.url, timeout_s=60.0)
            assert client.health_state() == ("ok", ())
            assert client.health()
