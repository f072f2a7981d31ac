"""Transports the driver uses to talk to the platform.

Two interchangeable clients implement the same small protocol (`next_task`,
`next_tasks`, `submit_result`, `submit_results`, `results`) -- the plural
forms are the batched pipeline used by
:class:`repro.driver.runner.BatchRunner`, claiming N tasks and delivering N
results per round trip:

* :class:`HTTPClient` talks JSON over HTTP to a deployed
  :class:`repro.platform.webapp.PlatformServer` -- the remote-contributor
  setup of the paper, and
* :class:`InProcessClient` calls a :class:`PlatformService` directly -- used
  by tests, benchmarks and single-machine experiments.

:class:`HTTPClient` retries transient failures (connection errors, 5xx, 429)
with exponential backoff and *decorrelated jitter* (:class:`RetryPolicy`),
honouring a ``Retry-After`` header when the server sends one.  Retrying a
``POST`` is safe because result submissions carry client-generated
idempotency keys: a request whose response was lost replays the original
record server-side instead of inserting a duplicate.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Protocol

from repro.errors import TransportError
from repro.obs import (
    NULL_LOGGER,
    JsonLogger,
    MetricsRegistry,
    SpanContext,
    current_context,
    new_span_id,
    new_trace_id,
)
from repro.platform.models import Experiment, new_submission
from repro.platform.service import PlatformService

#: HTTP statuses worth retrying: the platform is overloaded or restarting,
#: not rejecting the request.
TRANSIENT_HTTP_STATUSES = frozenset({429, 500, 502, 503, 504})


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for transient transport failures.

    ``attempts`` counts *retries* after the first try.  Delays follow the
    decorrelated-jitter scheme: each sleep is drawn uniformly from
    ``[base_delay, 3 * previous_sleep]`` and capped at ``max_delay``, which
    spreads retry storms without the synchronised waves plain exponential
    backoff produces.
    """

    attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    retry_statuses: frozenset = field(default_factory=lambda: TRANSIENT_HTTP_STATUSES)

    def next_delay(self, previous: float, rng: random.Random) -> float:
        """The next decorrelated-jitter sleep given the ``previous`` one."""
        return min(self.max_delay,
                   rng.uniform(self.base_delay, max(previous, self.base_delay) * 3))


def _retry_after_seconds(exc: urllib.error.HTTPError) -> float | None:
    """Parse a numeric ``Retry-After`` header (None when absent/unparseable)."""
    raw = exc.headers.get("Retry-After") if exc.headers is not None else None
    if raw is None:
        return None
    try:
        return max(0.0, float(raw))
    except ValueError:  # an HTTP-date; fall back to the backoff schedule
        return None


class PlatformClient(Protocol):
    """Protocol shared by the HTTP and in-process transports."""

    def next_task(self, experiment_id: int, dbms: str | None = None) -> dict | None: ...

    def next_tasks(self, experiment_id: int, count: int = 1,
                   dbms: str | None = None) -> list[dict]: ...

    def submit_result(self, task_id: int, times: list[float], error: str | None,
                      load_averages: dict, extras: dict,
                      idempotency_key: str | None = None,
                      attempt: int | None = None,
                      error_kind: str | None = None) -> dict | None: ...

    def submit_results(self, results: list[dict]) -> list[dict | None]: ...

    def results(self, experiment_id: int) -> list[dict]: ...


class HTTPClient:
    """JSON-over-HTTP transport (the remote ``sqalpel.py`` setup).

    Transient failures -- ``URLError`` (the platform is unreachable) and the
    HTTP statuses in ``retry.retry_statuses`` -- are retried per
    :class:`RetryPolicy`; pass ``retry=None`` to fail fast.  ``metrics``
    (optional) counts every performed retry under ``client.retries``.
    ``rng`` seeds the jitter for deterministic tests.
    """

    def __init__(self, base_url: str, contributor_key: str, timeout: float = 30.0,
                 retry: RetryPolicy | None = RetryPolicy(),
                 metrics: MetricsRegistry | None = None,
                 rng: random.Random | None = None,
                 logger: JsonLogger | None = None):
        self.base_url = base_url.rstrip("/")
        self.contributor_key = contributor_key
        self.timeout = timeout
        self.retry = retry
        self.metrics = metrics
        self.log = (logger or NULL_LOGGER).bind("client")
        self._rng = rng or random.Random()

    # -- raw helpers -------------------------------------------------------------

    def _request_once(self, method: str, path: str, payload: dict | None,
                      context: SpanContext) -> dict | list:
        url = f"{self.base_url}{path}"
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        request = urllib.request.Request(url, data=data, method=method)
        request.add_header("Content-Type", "application/json")
        request.add_header("X-Sqalpel-Key", self.contributor_key)
        request.add_header("Traceparent", context.to_traceparent())
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            return json.loads(response.read().decode("utf-8"))

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict | list:
        policy = self.retry
        attempts = policy.attempts if policy is not None else 0
        delay = policy.base_delay if policy is not None else 0.0
        # one traceparent per logical request, continuing the ambient span
        # context when there is one (e.g. the driver executing a traced
        # task); retries reuse it, so the server-side ``http`` spans of
        # every attempt share a trace id.
        context = current_context() or SpanContext(new_trace_id(), new_span_id())
        for attempt in range(attempts + 1):
            try:
                return self._request_once(method, path, payload, context)
            except urllib.error.HTTPError as exc:
                detail = exc.read().decode("utf-8", errors="replace")
                transient = policy is not None and exc.code in policy.retry_statuses
                if not transient or attempt == attempts:
                    raise TransportError(
                        f"{method} {path} failed with {exc.code}: {detail}") from exc
                # the server knows best when it will recover; fall back to
                # decorrelated jitter when it does not say.
                retry_after = _retry_after_seconds(exc)
                delay = (min(retry_after, policy.max_delay)
                         if retry_after is not None
                         else policy.next_delay(delay, self._rng))
                self.log.warning("client.retry", method=method, path=path,
                                 status=exc.code, delay=delay,
                                 attempt=attempt + 1,
                                 trace_id=context.trace_id)
            except (urllib.error.URLError, TimeoutError) as exc:
                if policy is None or attempt == attempts:
                    raise TransportError(
                        f"cannot reach the platform at {self.base_url}{path}: {exc}"
                    ) from exc
                delay = policy.next_delay(delay, self._rng)
                self.log.warning("client.retry", method=method, path=path,
                                 error=str(exc), delay=delay,
                                 attempt=attempt + 1,
                                 trace_id=context.trace_id)
            if self.metrics is not None:
                self.metrics.counter("client.retries").inc()
            time.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def ping(self) -> dict:
        return self._request("GET", "/api/ping")

    # -- protocol ------------------------------------------------------------------

    def next_task(self, experiment_id: int, dbms: str | None = None) -> dict | None:
        payload = {"experiment": experiment_id}
        if dbms:
            payload["dbms"] = dbms
        response = self._request("POST", "/api/task", payload)
        return response.get("task")

    def next_tasks(self, experiment_id: int, count: int = 1,
                   dbms: str | None = None) -> list[dict]:
        payload = {"experiment": experiment_id, "count": count}
        if dbms:
            payload["dbms"] = dbms
        response = self._request("POST", "/api/tasks", payload)
        return response.get("tasks", [])

    def submit_result(self, task_id: int, times: list[float], error: str | None,
                      load_averages: dict, extras: dict,
                      idempotency_key: str | None = None,
                      attempt: int | None = None,
                      error_kind: str | None = None) -> dict | None:
        payload = new_submission(task_id, times, error, error_kind=error_kind,
                             load_averages=load_averages, extras=extras,
                             idempotency_key=idempotency_key, attempt=attempt)
        response = self._request("POST", "/api/result", payload)
        return response.get("result")

    def submit_results(self, results: list[dict]) -> list[dict | None]:
        response = self._request("POST", "/api/results/batch", {"results": results})
        return response.get("results", [])

    def results(self, experiment_id: int) -> list[dict]:
        return self._request("GET", f"/api/results?experiment={experiment_id}")


class InProcessClient:
    """Direct transport over a :class:`PlatformService` instance."""

    def __init__(self, service: PlatformService, contributor_key: str):
        self.service = service
        self.contributor_key = contributor_key

    def _contributor(self):
        return self.service.authenticate(self.contributor_key)

    def _experiment(self, experiment_id: int) -> Experiment:
        return self.service.store.experiment(experiment_id)

    def next_task(self, experiment_id: int, dbms: str | None = None) -> dict | None:
        task = self.service.next_task(self._contributor(), self._experiment(experiment_id),
                                      dbms_label=dbms)
        return task.to_dict() if task is not None else None

    def next_tasks(self, experiment_id: int, count: int = 1,
                   dbms: str | None = None) -> list[dict]:
        tasks = self.service.next_tasks(self._contributor(),
                                        self._experiment(experiment_id),
                                        limit=count, dbms_label=dbms)
        return [task.to_dict() for task in tasks]

    def submit_result(self, task_id: int, times: list[float], error: str | None,
                      load_averages: dict, extras: dict,
                      idempotency_key: str | None = None,
                      attempt: int | None = None,
                      error_kind: str | None = None) -> dict | None:
        return self.submit_results([new_submission(
            task_id, times, error, error_kind=error_kind, load_averages=load_averages,
            extras=extras, idempotency_key=idempotency_key, attempt=attempt)])[0]

    def submit_results(self, results: list[dict]) -> list[dict | None]:
        records = self.service.submit_results(self._contributor(), list(results))
        return [record.to_dict() if record is not None else None
                for record in records]

    def results(self, experiment_id: int) -> list[dict]:
        experiment = self._experiment(experiment_id)
        viewer = self._contributor()
        return [record.to_dict() for record in self.service.results(experiment, viewer=viewer)]
