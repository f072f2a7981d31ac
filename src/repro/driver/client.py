"""Transports the driver uses to talk to the platform.

Two interchangeable clients implement the same small protocol
(`next_tasks`, `submit_results`, `results`) used by
:class:`repro.driver.runner.BatchRunner`, claiming N tasks and delivering N
results per round trip (N = 1 is the paper's one-task loop):

* :class:`HTTPClient` talks JSON over HTTP to a deployed
  :class:`repro.platform.webapp.PlatformServer` -- the remote-contributor
  setup of the paper, and
* :class:`InProcessClient` calls a :class:`PlatformService` directly -- used
  by tests, benchmarks and single-machine experiments.

:class:`HTTPClient` keeps one HTTP/1.1 connection open per thread and
retries transient failures (connection errors, 5xx, 429) with exponential
backoff and *decorrelated jitter* (:class:`RetryPolicy`), honouring a
``Retry-After`` header when the server sends one.  Retrying a ``POST`` is
safe because result submissions carry client-generated idempotency keys: a
request whose response was lost replays the original record server-side
instead of inserting a duplicate.
"""

from __future__ import annotations

import json
import random
import socket
import ssl
import threading
import time
from dataclasses import dataclass, field
from typing import Protocol
from urllib.parse import urlsplit

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
from repro.platform.models import Experiment
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


def _retry_after_seconds(raw: str | None) -> float | None:
    """Parse a numeric ``Retry-After`` header (None when absent/unparseable)."""
    if raw is None:
        return None
    try:
        return max(0.0, float(raw))
    except ValueError:  # an HTTP-date; fall back to the backoff schedule
        return None


def _read_response(reader) -> tuple[int, dict[str, str], bytes]:
    """Read one response off ``reader``: ``(status, headers with lower-cased
    names, body)``.  A body without ``Content-Length`` runs to the end of
    the connection (the headers then say ``close``)."""
    status = 100
    while status < 200:  # interim (1xx) responses precede the final one
        line = reader.readline(65537)
        version, _, rest = line.partition(b" ")
        if not version.startswith(b"HTTP/1.") or not rest[:3].isdigit():
            raise ConnectionError(f"malformed status line {line[:80]!r}" if line
                                  else "the platform closed the connection")
        status, headers = int(rest[:3]), {}
        while (line := reader.readline(65537)) not in (b"\r\n", b"\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "")
    if not length.isdecimal() or version == b"HTTP/1.0":
        headers["connection"] = "close"
        return status, headers, reader.read(int(length) if length.isdecimal() else -1)
    body = reader.read(int(length))
    if len(body) < int(length):
        raise ConnectionError("the platform closed the connection mid-response")
    return status, headers, body


class PlatformClient(Protocol):
    """Protocol shared by the HTTP and in-process transports."""

    def next_tasks(self, experiment_id: int, count: int = 1,
                   dbms: str | None = None) -> list[dict]: ...

    def submit_results(self, results: list[dict]) -> list[dict | None]: ...

    def results(self, experiment_id: int) -> list[dict]: ...


class HTTPClient:
    """JSON-over-HTTP transport (the remote ``sqalpel.py`` setup).

    Each calling thread keeps one socket to the platform open, with
    ``TCP_NODELAY`` set (else Nagle's algorithm holds a small write for the
    peer's delayed ACK, ~40 ms), sends a request in one ``sendall`` and reads
    the response with :func:`_read_response`; ``Connection: close`` ends the
    socket.  A request that finds its kept socket closed by the server is
    sent once more on a new one, which is not a retry.

    Transient failures -- the platform is unreachable (a connection error or
    timeout) or answers with an HTTP status in ``retry.retry_statuses`` --
    are retried per :class:`RetryPolicy`; pass ``retry=None`` to fail fast.
    ``metrics`` (optional) counts every performed retry under
    ``client.retries``.  ``rng`` seeds the jitter for deterministic tests.
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
        address = urlsplit(self.base_url)
        self._tls = address.scheme == "https"
        self._host, self._netloc, self._prefix = address.hostname, address.netloc, address.path
        self._port = address.port or (443 if self._tls else 80)
        #: per thread: ``sock``, its kept connection, and a ``reader`` over it
        self._local = threading.local()

    # -- raw helpers -------------------------------------------------------------

    def _request_once(self, method: str, path: str, payload: dict | None,
                      context: SpanContext) -> tuple[int, str | None, bytes]:
        """One exchange on this thread's socket: ``(status, Retry-After,
        body)``.  Raises ``OSError`` when the platform cannot be reached or
        answers with something that is no HTTP/1.x response."""
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        message = (f"{method} {self._prefix}{path} HTTP/1.1\r\nHost: {self._netloc}\r\n"
                   f"X-Sqalpel-Key: {self.contributor_key}\r\n"
                   f"Traceparent: {context.to_traceparent()}\r\n"
                   "Content-Type: application/json\r\n"
                   f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1") + body
        local = self._local
        for kept in (hasattr(local, "sock"), False):
            try:
                if not hasattr(local, "sock"):
                    sock = socket.create_connection((self._host, self._port), self.timeout)
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    if self._tls:
                        sock = ssl.create_default_context().wrap_socket(
                            sock, server_hostname=self._host)
                    local.sock, local.reader = sock, sock.makefile("rb")
                local.sock.sendall(message)
                status, headers, data = _read_response(local.reader)
            except OSError as exc:
                self._close()
                if not kept or isinstance(exc, TimeoutError):
                    raise
            else:
                if headers.get("connection", "").lower() == "close":
                    self._close()
                return status, headers.get("retry-after"), data
        raise AssertionError("unreachable")  # pragma: no cover

    def _close(self) -> None:
        """Drop this thread's socket; the next request opens a new one."""
        if hasattr(self._local, "sock"):
            self._local.reader.close()
            self._local.__dict__.pop("sock").close()

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
                status, retry_after, body = self._request_once(method, path, payload, context)
            except OSError as exc:
                if policy is None or attempt == attempts:
                    raise TransportError(
                        f"cannot reach the platform at {self.base_url}{path}: {exc}"
                    ) from exc
                delay = policy.next_delay(delay, self._rng)
                self.log.warning("client.retry", method=method, path=path,
                                 error=str(exc), delay=delay,
                                 attempt=attempt + 1,
                                 trace_id=context.trace_id)
            else:
                if 200 <= status < 300:
                    return json.loads(body.decode("utf-8"))
                detail = body.decode("utf-8", errors="replace")
                transient = policy is not None and status in policy.retry_statuses
                if not transient or attempt == attempts:
                    raise TransportError(f"{method} {path} failed with {status}: {detail}")
                # the server knows best when it will recover; fall back to
                # decorrelated jitter when it does not say.
                seconds = _retry_after_seconds(retry_after)
                delay = (min(seconds, policy.max_delay) if seconds is not None
                         else policy.next_delay(delay, self._rng))
                self.log.warning("client.retry", method=method, path=path,
                                 status=status, delay=delay,
                                 attempt=attempt + 1,
                                 trace_id=context.trace_id)
            if self.metrics is not None:
                self.metrics.counter("client.retries").inc()
            time.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def ping(self) -> dict:
        return self._request("GET", "/api/ping")

    # -- protocol ------------------------------------------------------------------

    def next_tasks(self, experiment_id: int, count: int = 1,
                   dbms: str | None = None) -> list[dict]:
        payload = {"experiment": experiment_id, "count": count}
        if dbms:
            payload["dbms"] = dbms
        response = self._request("POST", "/api/tasks", payload)
        return response.get("tasks", [])

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

    def next_tasks(self, experiment_id: int, count: int = 1,
                   dbms: str | None = None) -> list[dict]:
        tasks = self.service.next_tasks(self._contributor(),
                                        self._experiment(experiment_id),
                                        limit=count, dbms_label=dbms)
        return [task.to_dict() for task in tasks]

    def submit_results(self, results: list[dict]) -> list[dict | None]:
        records = self.service.submit_results(self._contributor(), list(results))
        return [record.to_dict() if record is not None else None
                for record in records]

    def results(self, experiment_id: int) -> list[dict]:
        experiment = self._experiment(experiment_id)
        viewer = self._contributor()
        return [record.to_dict() for record in self.service.results(experiment, viewer=viewer)]
