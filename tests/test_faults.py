"""Tests for the fault-injection layer and the retry machinery it exercises."""

import io
import random
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.driver import HTTPClient, InProcessClient, RetryPolicy
from repro.engine import ColumnEngine, Database
from repro.errors import TransportError
from repro.obs import MetricsRegistry
from repro.platform import (
    FaultConfig,
    FaultInjector,
    FlakyEngine,
    PlatformServer,
    PlatformService,
    SimulatedCrash,
    Store,
    UnreliableClient,
)
from repro.platform.models import User, new_submission
from repro.platform.webapp import create_wsgi_app


# ---------------------------------------------------------------------------
# the injector itself
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_same_seed_same_decisions(self):
        config = FaultConfig(drop_request=0.3, duplicate=0.2)
        first = FaultInjector(config, seed=42)
        second = FaultInjector(config, seed=42)
        rolls = [(first.fire("drop_request"), first.fire("duplicate"))
                 for _ in range(200)]
        replay = [(second.fire("drop_request"), second.fire("duplicate"))
                  for _ in range(200)]
        assert rolls == replay
        assert first.counts == second.counts
        assert first.total() > 0  # the probabilities actually fire

    def test_zero_probability_never_fires(self):
        injector = FaultInjector(FaultConfig(), seed=7)
        assert not any(injector.fire("drop_request") for _ in range(500))
        assert injector.total() == 0

    def test_store_hook_raises_simulated_crash(self):
        injector = FaultInjector(FaultConfig(store_crash=1.0), seed=1)
        with pytest.raises(SimulatedCrash):
            injector.store_hook("apply_batch.commit")
        assert injector.counts["store_crash"] == 1


# ---------------------------------------------------------------------------
# transport faults around a real service
# ---------------------------------------------------------------------------


def _service_with_queue():
    service = PlatformService()
    owner = service.register_user("owner", "owner@example.org")
    contributor = service.register_user("worker", "worker@example.org")
    service.register_dbms("columnstore", "1.0")
    service.register_host("laptop")
    project = service.create_project(owner, "faults-demo")
    service.invite_contributor(owner, project, contributor)
    experiment = service.add_experiment(
        owner, project, "exp", "select sum(price) from t where id > 0",
        repeats=1, timeout_seconds=60.0)
    pool = service.build_pool(experiment, seed=3)
    pool.seed_baseline()
    service.enqueue_pool(owner, experiment, pool, dbms_label="columnstore-1.0",
                         host_name="laptop")
    return service, contributor, experiment


class TestUnreliableClient:
    def test_drop_request_prevents_delivery(self):
        service, contributor, experiment = _service_with_queue()
        inner = InProcessClient(service, contributor.contributor_key)
        injector = FaultInjector(FaultConfig(drop_request=1.0), seed=1)
        client = UnreliableClient(inner, injector)
        with pytest.raises(TransportError, match="request dropped"):
            client.next_tasks(experiment.id, count=1)
        # the request never reached the service: nothing was leased out.
        assert service.queue_status(experiment)["pending"] == 1

    def test_drop_response_loses_ack_not_effect(self):
        service, contributor, experiment = _service_with_queue()
        inner = InProcessClient(service, contributor.contributor_key)
        injector = FaultInjector(FaultConfig(drop_response=1.0), seed=1)
        client = UnreliableClient(inner, injector)
        with pytest.raises(TransportError, match="response dropped"):
            client.next_tasks(experiment.id, count=1)
        # at-least-once crux: the server DID process the claim.
        assert service.queue_status(experiment)["running"] == 1

    def test_duplicate_delivery_is_absorbed_by_idempotency(self):
        service, contributor, experiment = _service_with_queue()
        inner = InProcessClient(service, contributor.contributor_key)
        task = inner.next_tasks(experiment.id, count=1)[0]
        injector = FaultInjector(FaultConfig(duplicate=1.0), seed=1)
        client = UnreliableClient(inner, injector)
        record = client.submit_results([new_submission(
            task["id"], times=[0.1], idempotency_key="k" * 32,
            attempt=task["attempts"])])[0]
        assert record is not None
        assert injector.counts["duplicate"] == 1
        # delivered twice, recorded once.
        assert len(service.store.results(experiment.id)) == 1
        assert service.metrics.counter("results.deduplicated").value == 1


class TestFlakyEngine:
    def test_injected_failures_become_failed_outcomes(self):
        from repro.driver import measure_query

        database = Database("flaky-unit")
        database.create_table("t", [("id", "int"), ("price", "float")])
        database.insert_rows("t", [(1, 10.0), (2, 20.0)])
        engine = FlakyEngine(ColumnEngine(database),
                             FaultInjector(FaultConfig(fail_task=1.0), seed=9))
        outcome = measure_query(engine, "select sum(price) from t", repeats=2)
        assert outcome.failed and "injected fault" in outcome.error
        # delegation: label and friends come from the wrapped engine.
        assert outcome.extras["engine"] == engine.inner.label


# ---------------------------------------------------------------------------
# crash-safe store
# ---------------------------------------------------------------------------


class TestCrashSafeStore:
    def _users(self, n):
        return [User(nickname=f"u{i}", email=f"u{i}@example.org",
                     contributor_key=f"{i:032d}") for i in range(n)]

    def test_kill_mid_batch_leaves_no_partial_state(self, tmp_path):
        """A crash inside apply_batch must roll back every row of the batch."""
        path = str(tmp_path / "crash.db")
        store = Store(path)
        first, second, third = self._users(3)
        store.insert("users", first)

        crash_at = {"apply_batch.commit"}

        def hook(point):
            if point in crash_at:
                raise SimulatedCrash(point)

        store.fault_hook = hook
        first.nickname = "renamed"
        with pytest.raises(SimulatedCrash):
            store.apply_batch(inserts=[("users", second), ("users", third)],
                              updates=[("users", first)],
                              idempotency=[("key-1", second)])
        # insert ids were reset so the entities can be cleanly re-inserted.
        assert second.id is None and third.id is None

        # reopen the file as a recovering process would.
        store.close()
        recovered = Store(path)
        survivors = recovered.users()
        assert [user.nickname for user in survivors] == ["u0"]  # update rolled back
        assert recovered.recall_submission("key-1") is None
        # and the recovered store is writable: retrying the batch succeeds.
        recovered.apply_batch(inserts=[("users", second), ("users", third)],
                              updates=[], idempotency=[("key-1", second)])
        assert len(recovered.users()) == 3
        assert recovered.recall_submission("key-1") == second.id
        recovered.close()

    def test_crash_during_writes_rolls_back_too(self, tmp_path):
        path = str(tmp_path / "crash2.db")
        store = Store(path)
        injector = FaultInjector(FaultConfig(store_crash=1.0), seed=2)
        store.fault_hook = injector.store_hook
        users = self._users(2)
        with pytest.raises(SimulatedCrash):
            store.insert_many("users", users)
        store.fault_hook = None
        assert store.users() == []
        store.close()

    def test_wal_mode_on_file_databases(self, tmp_path):
        store = Store(str(tmp_path / "wal.db"))
        mode = store._connection.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        store.close()


# ---------------------------------------------------------------------------
# HTTP retry/backoff
# ---------------------------------------------------------------------------


class _FlakyApp:
    """WSGI middleware that 503s (with Retry-After) the first ``fail`` calls."""

    def __init__(self, inner, fail: int, retry_after: str | None = "0.01"):
        self.inner = inner
        self.remaining = fail
        self.retry_after = retry_after
        self.requests = 0
        self._lock = threading.Lock()

    def __call__(self, environ, start_response):
        with self._lock:
            self.requests += 1
            failing = self.remaining > 0
            if failing:
                self.remaining -= 1
        if failing:
            headers = [("Content-Type", "application/json")]
            if self.retry_after is not None:
                headers.append(("Retry-After", self.retry_after))
            start_response("503 Service Unavailable", headers)
            return [b'{"error": "warming up"}']
        return self.inner(environ, start_response)


class TestHTTPRetries:
    def test_retries_transient_503_until_success(self):
        service, contributor, experiment = _service_with_queue()
        flaky = _FlakyApp(create_wsgi_app(service), fail=2)
        metrics = MetricsRegistry()
        with PlatformServer(service, application=flaky) as server:
            client = HTTPClient(
                server.url, contributor.contributor_key,
                retry=RetryPolicy(attempts=4, base_delay=0.001, max_delay=0.01),
                metrics=metrics, rng=random.Random(0))
            assert client.ping()["status"] == "ok"
        assert flaky.requests == 3  # two 503s, then the success
        assert metrics.counter("client.retries").value == 2

    def test_gives_up_after_budget(self):
        service, contributor, experiment = _service_with_queue()
        flaky = _FlakyApp(create_wsgi_app(service), fail=100)
        with PlatformServer(service, application=flaky) as server:
            client = HTTPClient(
                server.url, contributor.contributor_key,
                retry=RetryPolicy(attempts=2, base_delay=0.001, max_delay=0.01),
                rng=random.Random(0))
            with pytest.raises(TransportError, match="503"):
                client.ping()
        assert flaky.requests == 3  # initial try + 2 retries

    def test_non_transient_errors_fail_fast(self):
        service, contributor, experiment = _service_with_queue()
        with PlatformServer(service) as server:
            client = HTTPClient(server.url, "wrong-key",
                                retry=RetryPolicy(attempts=5, base_delay=0.001))
            with pytest.raises(TransportError, match="403"):
                client.next_tasks(experiment.id)

    def test_retry_disabled_fails_fast(self):
        service, contributor, experiment = _service_with_queue()
        flaky = _FlakyApp(create_wsgi_app(service), fail=1)
        with PlatformServer(service, application=flaky) as server:
            client = HTTPClient(server.url, contributor.contributor_key, retry=None)
            with pytest.raises(TransportError):
                client.ping()
        assert flaky.requests == 1


class TestMalformedRequests:
    """A missing or mistyped field is the client's fault: 400, which the
    client does not retry -- not a 500 it would send four more times."""

    @staticmethod
    def _status(application, path: str, body: bytes, key: str) -> str:
        environ = {"REQUEST_METHOD": "POST", "PATH_INFO": path, "QUERY_STRING": "",
                   "CONTENT_LENGTH": str(len(body)), "wsgi.input": io.BytesIO(body),
                   "HTTP_X_SQALPEL_KEY": key}
        statuses = []
        application(environ, lambda status, headers: statuses.append(status))
        return statuses[0]

    @pytest.mark.parametrize("path, body", [
        ("/api/tasks", b"{}"),
        ("/api/tasks", b'{"experiment": "x"}'),
        ("/api/tasks", b'{"experiment": 1, "count": null}'),
        ("/api/results/batch", b'{"results": [{"times": [1]}]}'),
        ("/api/results/batch", b'{"results": [{"task": "one"}]}'),
        ("/api/results/batch", b'{"results": [1]}'),
        ("/api/results/batch", b'{"results": {"task": 1}}'),
    ])
    def test_the_app_answers_400(self, path, body):
        service, contributor, _ = _service_with_queue()
        application = create_wsgi_app(service)
        assert self._status(application, path, body, contributor.contributor_key) \
            == "400 Bad Request"

    def test_the_client_sends_a_malformed_request_once(self):
        service, contributor, _ = _service_with_queue()
        counting = _FlakyApp(create_wsgi_app(service), fail=0)
        with PlatformServer(service, application=counting) as server:
            client = HTTPClient(server.url, contributor.contributor_key,
                                retry=RetryPolicy(attempts=4, base_delay=0.001))
            with pytest.raises(TransportError, match="failed with 400: .*'task'"):
                client.submit_results([{"times": [1]}])
        assert counting.requests == 1


class TestKeptConnections:
    def test_requests_share_one_connection(self):
        service, contributor, experiment = _service_with_queue()
        with PlatformServer(service) as server:
            client = HTTPClient(server.url, contributor.contributor_key)
            client.ping()
            kept = client._local.sock
            assert client.next_tasks(experiment.id, count=1)
            assert client._local.sock is kept
            assert len(server._server._open) == 1

    def test_stop_closes_kept_connections_promptly(self):
        """``stop`` returns at once and closes the connection a client keeps:
        the client's next request fails as one to a stopped server does,
        "cannot reach" once its retries are spent."""
        service, contributor, _ = _service_with_queue()
        metrics = MetricsRegistry()
        server = PlatformServer(service).start()
        client = HTTPClient(server.url, contributor.contributor_key,
                            retry=RetryPolicy(attempts=2, base_delay=0.001, max_delay=0.01),
                            metrics=metrics)
        assert client.ping()["status"] == "ok"
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 0.1
        with pytest.raises(TransportError, match="cannot reach the platform"):
            client.ping()
        assert metrics.counter("client.retries").value == 2
        deadline = time.monotonic() + 2.0
        while server._server._open and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not server._server._open  # no handler thread outlives the stop

    def test_a_connection_per_thread(self):
        service, contributor, _ = _service_with_queue()
        with PlatformServer(service) as server:
            client = HTTPClient(server.url, contributor.contributor_key)
            sockets = []

            def ping() -> None:
                client.ping()
                sockets.append(client._local.sock)

            threads = [threading.Thread(target=ping) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len({id(sock) for sock in sockets}) == 3


class TestRetryPolicy:
    def test_next_delay_stays_within_bounds(self):
        policy = RetryPolicy(attempts=3, base_delay=0.05, max_delay=2.0)
        rng = random.Random(123)
        delay = policy.base_delay
        for _ in range(100):
            delay = policy.next_delay(delay, rng)
            assert policy.base_delay <= delay <= policy.max_delay

    def test_delays_are_decorrelated_not_fixed(self):
        policy = RetryPolicy(attempts=3, base_delay=0.05, max_delay=2.0)
        rng = random.Random(7)
        delays = []
        delay = policy.base_delay
        for _ in range(10):
            delay = policy.next_delay(delay, rng)
            delays.append(delay)
        assert len(set(delays)) > 1
