"""WSGI JSON API exposing the platform service.

The paper's GUI is a Flask/Bokeh web application; the reproduction exposes the
same operations as a JSON-over-HTTP API, a WSGI app behind a small server,
so the remote experiment driver can interact with a deployment exactly
the way ``sqalpel.py`` does: request a task from a project pool, execute it
locally and report the findings.

Endpoints (all JSON; the contributor key travels in the ``X-Sqalpel-Key``
header):

=======================  ======  ===========================================
path                     method  purpose
=======================  ======  ===========================================
``/api/ping``            GET     liveness probe / version
``/api/projects``        GET     projects visible to the caller
``/api/experiments``     GET     experiments of a project (``?project=<id>``)
``/api/tasks``           POST    claim a batch of pending tasks (``count``)
``/api/results/batch``   POST    submit measurements for a batch of tasks
``/api/results``         GET     results of an experiment (``?experiment=<id>``)
``/api/queue``           GET     queue status of an experiment
``/api/metrics``         GET     service-level metrics snapshot
=======================  ======  ===========================================

The batch endpoints back the driver's :class:`repro.driver.runner.BatchRunner`
pipeline: one round trip claims N tasks and one round trip delivers N results;
a batch of one is the paper's one-task exchange.  A missing or mistyped
request field is answered 400, as malformed JSON is.  :class:`PlatformServer`
serves a connection's HTTP/1.1 requests on one thread until the client closes
it, and closes what is still open when it stops.  It frames HTTP/1.1 itself
(RFC 9112): no ``email`` header parsing, no per-request copy of ``os.environ``.
"""

from __future__ import annotations

import contextlib
import io
import json
import socket
import sys
import threading
import time
import traceback
from email.utils import formatdate
from socketserver import StreamRequestHandler, TCPServer, ThreadingMixIn
from typing import Callable
from urllib.parse import unquote

from repro import __version__
from repro.errors import AccessDenied, NotFound, PlatformError, ValidationError
from repro.obs import (
    JsonLogger,
    SpanContext,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    use_context,
)
from repro.platform.models import submission_from_wire, wire_integer
from repro.platform.service import PlatformService

#: endpoints with their own latency histogram; anything else shares one
#: "unmatched" series so probing garbage paths cannot grow the registry
#: without bound.
_ENDPOINTS = frozenset((
    "/api/ping", "/api/projects", "/api/experiments", "/api/tasks",
    "/api/results/batch", "/api/results", "/api/queue", "/api/metrics",
))


def create_wsgi_app(service: PlatformService,
                    logger: JsonLogger | None = None) -> Callable:
    """Build the WSGI application closure over ``service``.

    The closure is also the telemetry middleware: every request opens a
    server span (continuing the caller's ``traceparent`` when one is
    sent), is timed into a per-endpoint latency histogram
    (``http.request_seconds.<path>``), and emits one structured
    ``http.request`` log record.  ``logger`` defaults to the service's
    logger (silent unless the service was given a sink).
    """
    log = (logger if logger is not None else service.log).bind("webapp")

    def application(environ, start_response):
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/")
        query = _parse_query(environ.get("QUERY_STRING", ""))
        key = environ.get("HTTP_X_SQALPEL_KEY", "")
        incoming = parse_traceparent(environ.get("HTTP_TRACEPARENT"))
        server_context = SpanContext(
            incoming.trace_id if incoming else new_trace_id(), new_span_id())
        started = time.time()
        try:
            with use_context(server_context):
                body = _read_body(environ)
                status, payload = _dispatch(service, method, path, query, key, body)
        except AccessDenied as exc:
            status, payload = "403 Forbidden", {"error": str(exc)}
        except NotFound as exc:
            status, payload = "404 Not Found", {"error": str(exc)}
        except ValidationError as exc:
            status, payload = "400 Bad Request", {"error": str(exc)}
        except PlatformError as exc:
            status, payload = "400 Bad Request", {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive
            status, payload = "500 Internal Server Error", {"error": str(exc)}
        ended = time.time()
        endpoint = path if path in _ENDPOINTS else "unmatched"
        code = int(status.split(" ", 1)[0])
        service.metrics.histogram(f"http.request_seconds.{endpoint}") \
            .observe(ended - started)
        service.metrics.counter(f"http.responses.{code // 100}xx").inc()
        if service.spans.enabled:
            service.spans.record(
                "http", server_context.trace_id,
                span_id=server_context.span_id,
                parent_span_id=incoming.span_id if incoming else None,
                start=started, end=ended,
                method=method, endpoint=endpoint, status=code)
        log.log("info" if code < 500 else "error", "http.request",
                method=method, path=path, status=code,
                elapsed=ended - started,
                trace_id=server_context.trace_id,
                span_id=server_context.span_id)
        encoded = json.dumps(payload).encode("utf-8")
        start_response(status, [
            ("Content-Type", "application/json"),
            ("Content-Length", str(len(encoded))),
        ])
        return [encoded]

    return application


def _parse_query(query_string: str) -> dict:
    from urllib.parse import parse_qs

    parsed = parse_qs(query_string)
    return {key: values[0] for key, values in parsed.items()}


def _read_body(environ) -> dict:
    try:
        length = int(environ.get("CONTENT_LENGTH") or 0)
    except ValueError:
        length = 0
    if length <= 0:
        return {}
    raw = environ["wsgi.input"].read(length)
    if not raw:
        return {}
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        # malformed JSON is the client's fault: 400, not a generic 500.
        raise ValidationError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise ValidationError("request body must be a JSON object")
    return body


def _dispatch(service: PlatformService, method: str, path: str, query: dict,
              key: str, body: dict) -> tuple[str, dict | list]:
    if path == "/api/ping" and method == "GET":
        return "200 OK", {"status": "ok", "version": __version__}

    if path == "/api/metrics" and method == "GET":
        # service-level totals (tasks dispatched, results accepted, queue
        # timeouts); no auth needed -- the snapshot carries no query data.
        return "200 OK", service.metrics.snapshot()

    # the contributor loop's two routes read the caller once, to refuse it
    if path == "/api/tasks" and method == "POST":
        contributor = service.authenticate(key)
        experiment = service.store.experiment(wire_integer(body, "experiment"))
        tasks = service.next_tasks(contributor, experiment,
                                   limit=wire_integer(body, "count", 1),
                                   dbms_label=body.get("dbms"))
        return "200 OK", {"tasks": [task.to_dict() for task in tasks]}

    if path == "/api/results/batch" and method == "POST":
        contributor = service.authenticate(key)
        results = body.get("results", [])
        if not isinstance(results, list):
            raise ValidationError(f"'results' must be a list, not {results!r}")
        records = service.submit_results(
            contributor, [submission_from_wire(entry) for entry in results])
        # a ``null`` entry acknowledges a stale submission that was
        # deliberately dropped; the client must not resubmit it.
        return "200 OK", {"results": [
            record.to_dict() if record is not None else None for record in records
        ]}

    viewer = service.store.user_by_key(key) if key else None

    if path == "/api/projects" and method == "GET":
        projects = service.list_projects(viewer)
        return "200 OK", [project.to_dict() for project in projects]

    if path == "/api/experiments" and method == "GET":
        project = service.get_project(wire_integer(query, "project"), viewer)
        experiments = service.experiments(project, viewer)
        return "200 OK", [experiment.to_dict() for experiment in experiments]

    if path == "/api/queue" and method == "GET":
        experiment = service.store.experiment(wire_integer(query, "experiment"))
        service.get_project(experiment.project_id, viewer)
        return "200 OK", service.queue_status(experiment)

    if path == "/api/results" and method == "GET":
        experiment = service.store.experiment(wire_integer(query, "experiment"))
        records = service.results(experiment, viewer=viewer)
        return "200 OK", [record.to_dict() for record in records]

    raise NotFound(f"no endpoint for {method} {path}")


#: the longest request or header line, and the most headers (``http.server``'s)
_MAX_LINE, _MAX_HEADERS = 65536, 100
_JSON = [("Content-Type", "application/json")]


class _Refused(Exception):
    """A request the handler answers with this status, then closes."""


class _ConnectionHandler(StreamRequestHandler):
    """Serves the HTTP/1.1 requests of one connection (RFC 9112) until the
    client closes it or asks to: reads the request line, the header lines
    and a ``Content-Length`` body, calls the WSGI application, and writes the
    status line, the headers and the body in one write.  What it cannot
    frame it refuses, then closes: 400, 414 (a request line over 64 KiB), 431
    (a header line over 64 KiB or over 100 headers) or 501 (any
    ``Transfer-Encoding``)."""

    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self.serve_one():
                pass
        except _Refused as refused:
            self.send(str(refused), _JSON, json.dumps({"error": str(refused)}).encode(), False)

    def serve_one(self) -> bool:
        """Answer one request; False once the connection is to close."""
        line = self.rfile.readline(_MAX_LINE + 1)
        if not line:
            return False
        if len(line) > _MAX_LINE:
            raise _Refused("414 URI Too Long")
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or parts[2] not in ("HTTP/1.1", "HTTP/1.0"):
            raise _Refused("400 Bad Request")
        method, target, version = parts
        path, _, query = target.partition("?")
        environ = {**self.server.environ, "REQUEST_METHOD": method, "SERVER_PROTOCOL": version,
                   "PATH_INFO": unquote(path, "latin-1"), "QUERY_STRING": query}
        for _ in range(_MAX_HEADERS + 1):
            line = self.rfile.readline(_MAX_LINE + 1)
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.decode("latin-1").partition(":")
            if len(line) > _MAX_LINE:
                raise _Refused("431 Request Header Fields Too Large")
            if not colon or not name or name != name.strip():  # obs-fold included
                raise _Refused("400 Bad Request")
            key = name.upper().replace("-", "_")
            key = key if key in ("CONTENT_TYPE", "CONTENT_LENGTH") else "HTTP_" + key
            if "_" not in name:  # else ``X_Sqalpel_Key`` would pass for ``X-Sqalpel-Key``
                environ[key] = f"{environ[key]},{value.strip()}" if key in environ \
                    else value.strip()
        else:
            raise _Refused("431 Request Header Fields Too Large")
        if "HTTP_TRANSFER_ENCODING" in environ:  # only Content-Length bodies are read
            raise _Refused("501 Not Implemented")
        if not (length := environ.get("CONTENT_LENGTH", "0")).isdecimal():
            raise _Refused("400 Bad Request")
        if version == "HTTP/1.1" and environ.get("HTTP_EXPECT", "").lower() == "100-continue":
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(int(length))
        if not line or len(body) < int(length):  # the client left mid-request
            return False
        environ["wsgi.input"] = io.BytesIO(body)
        keep = version == "HTTP/1.1" and "close" not in \
            environ.get("HTTP_CONNECTION", "").lower().replace(" ", "").split(",")
        started, written = [], []

        def start_response(status, headers, exc_info=None):
            started[:] = status, headers
            return written.append

        try:
            result = self.server.application(environ, start_response)
            body = b"".join([*written, *result])
            getattr(result, "close", lambda: None)()
            status, headers = started
        except Exception:  # the application failed: 500, and the connection ends
            traceback.print_exc()
            status, headers, keep = "500 Internal Server Error", _JSON, False
            body = b'{"error": "the server failed to answer the request"}'
        self.send(status, headers, body, keep)
        return keep

    def send(self, status: str, headers: list, body: bytes, keep: bool) -> None:
        lines = [f"HTTP/1.1 {status}", *(f"{name}: {value}" for name, value in headers
                                         if name.lower() not in ("content-length", "connection")),
                 f"Content-Length: {len(body)}", f"Date: {formatdate(usegmt=True)}"]
        if not keep:
            lines.append("Connection: close")
        self.connection.sendall("\r\n".join([*lines, "\r\n"]).encode("latin-1") + body)


class ThreadingWSGIServer(ThreadingMixIn, TCPServer):
    """HTTP server calling one WSGI application, each connection on its own
    daemon thread.

    A single-threaded server would serialise every contributor behind the
    slowest request and hide concurrency bugs from the chaos/load tests.
    Handler threads are daemonic so a hung request cannot block interpreter
    shutdown; request-level consistency is the service's job (every queue
    transition is one store transaction).  The server knows its open
    connections, so :meth:`close_connections` can end the threads that wait
    on them for a next request.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], application: Callable):
        self.application = application
        self._open: set[socket.socket] = set()
        super().__init__(address, _ConnectionHandler)
        #: what every request's WSGI environ starts from
        self.environ = {"SERVER_NAME": address[0], "SERVER_PORT": str(self.server_address[1]),
                        "SCRIPT_NAME": "", "wsgi.version": (1, 0), "wsgi.url_scheme": "http",
                        "wsgi.errors": sys.stderr, "wsgi.multithread": True,
                        "wsgi.multiprocess": False, "wsgi.run_once": False}

    def process_request(self, request, client_address) -> None:
        self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        self._open.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut every open connection down: its thread reads the end of it
        (or fails its write) and closes it."""
        for connection in self._open.copy():
            with contextlib.suppress(OSError):  # closed meanwhile
                connection.shutdown(socket.SHUT_RDWR)

    def handle_error(self, request, client_address) -> None:
        # a connection closed mid-request is no server fault worth a traceback
        if not isinstance(sys.exc_info()[1], OSError):
            super().handle_error(request, client_address)


class PlatformServer:
    """A background HTTP server wrapping the WSGI app (used by driver tests/examples).

    ``application`` overrides the WSGI callable (the fault-injection tests
    wrap the real app in deliberately misbehaving middleware).  It serves
    HTTP/1.1 keep-alive connections (:class:`_ConnectionHandler`); every
    response carries ``Content-Length`` and ``Date``.  :meth:`stop` closes the
    connections still open -- a client's next request on one fails as one to
    a stopped server does -- and returns without waiting on a poll interval.
    ``logger`` receives the app's ``http.request`` record, one per request.
    """

    def __init__(self, service: PlatformService, host: str = "127.0.0.1",
                 port: int = 0, application: Callable | None = None,
                 logger: JsonLogger | None = None):
        self.service = service
        self._server = ThreadingWSGIServer(
            (host, port), application or create_wsgi_app(service, logger))
        self.host = host
        self.port = self._server.server_address[1]
        self._thread: threading.Thread | None = None
        self._stopping = False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "PlatformServer":
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def _serve(self) -> None:
        while not self._stopping:
            self._server.handle_request()  # blocks until a connection arrives

    def stop(self) -> None:
        self._stopping = True
        if self._thread is not None:
            # a connection of its own wakes the accept loop to see the flag
            with contextlib.suppress(OSError):
                socket.create_connection((self.host, self.port), timeout=1).close()
            self._thread.join(timeout=5)
            self._thread = None
        self._server.close_connections()
        self._server.server_close()

    def __enter__(self) -> "PlatformServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
