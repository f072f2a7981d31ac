"""WSGI JSON API exposing the platform service.

The paper's GUI is a Flask/Bokeh web application; the reproduction exposes the
same operations as a JSON-over-HTTP API on the standard library's ``wsgiref``
server so the remote experiment driver can interact with a deployment exactly
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
``/api/task``            POST    assign the next pending task of an experiment
``/api/tasks``           POST    claim a batch of pending tasks (``count``)
``/api/result``          POST    submit the measurements for a task
``/api/results/batch``   POST    submit measurements for a batch of tasks
``/api/results``         GET     results of an experiment (``?experiment=<id>``)
``/api/queue``           GET     queue status of an experiment
``/api/metrics``         GET     service-level metrics snapshot
=======================  ======  ===========================================

The batch endpoints back the driver's :class:`repro.driver.runner.BatchRunner`
pipeline: one round trip claims N tasks and one round trip delivers N results.
"""

from __future__ import annotations

import json
import threading
import time
from socketserver import ThreadingMixIn
from typing import Callable
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

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
from repro.platform.models import submission_from_wire
from repro.platform.service import PlatformService

#: endpoints with their own latency histogram; anything else shares one
#: "unmatched" series so probing garbage paths cannot grow the registry
#: without bound.
_ENDPOINTS = frozenset((
    "/api/ping", "/api/projects", "/api/experiments", "/api/task",
    "/api/tasks", "/api/result", "/api/results/batch", "/api/results",
    "/api/queue", "/api/metrics",
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
    viewer = service.store.user_by_key(key) if key else None

    if path == "/api/ping" and method == "GET":
        return "200 OK", {"status": "ok", "version": __version__}

    if path == "/api/metrics" and method == "GET":
        # service-level totals (tasks dispatched, results accepted, queue
        # timeouts); no auth needed -- the snapshot carries no query data.
        return "200 OK", service.metrics.snapshot()

    if path == "/api/projects" and method == "GET":
        projects = service.list_projects(viewer)
        return "200 OK", [project.to_dict() for project in projects]

    if path == "/api/experiments" and method == "GET":
        project = service.get_project(int(query["project"]), viewer)
        experiments = service.experiments(project, viewer)
        return "200 OK", [experiment.to_dict() for experiment in experiments]

    if path == "/api/queue" and method == "GET":
        experiment = service.store.experiment(int(query["experiment"]))
        service.get_project(experiment.project_id, viewer)
        return "200 OK", service.queue_status(experiment)

    if path == "/api/task" and method == "POST":
        contributor = service.authenticate(key)
        experiment = service.store.experiment(int(body["experiment"]))
        task = service.next_task(contributor, experiment,
                                 dbms_label=body.get("dbms"))
        if task is None:
            return "200 OK", {"task": None}
        return "200 OK", {"task": task.to_dict()}

    if path == "/api/tasks" and method == "POST":
        contributor = service.authenticate(key)
        experiment = service.store.experiment(int(body["experiment"]))
        tasks = service.next_tasks(contributor, experiment,
                                   limit=int(body.get("count", 1)),
                                   dbms_label=body.get("dbms"))
        return "200 OK", {"tasks": [task.to_dict() for task in tasks]}

    if path == "/api/results/batch" and method == "POST":
        contributor = service.authenticate(key)
        records = service.submit_results(
            contributor, [submission_from_wire(entry) for entry in body.get("results", [])])
        # a ``null`` entry acknowledges a stale submission that was
        # deliberately dropped; the client must not resubmit it.
        return "200 OK", {"results": [
            record.to_dict() if record is not None else None for record in records
        ]}

    if path == "/api/result" and method == "POST":
        contributor = service.authenticate(key)
        result = service.submit_results(contributor, [submission_from_wire(body)])[0]
        return "200 OK", {"result": result.to_dict() if result is not None else None}

    if path == "/api/results" and method == "GET":
        experiment = service.store.experiment(int(query["experiment"]))
        records = service.results(experiment, viewer=viewer)
        return "200 OK", [record.to_dict() for record in records]

    raise NotFound(f"no endpoint for {method} {path}")


class _QuietHandler(WSGIRequestHandler):
    """Request handler that does not spam stderr with access logs."""

    def log_message(self, format, *args):  # noqa: A002 - signature fixed by stdlib
        pass


def _handler_class(logger: JsonLogger | None) -> type[WSGIRequestHandler]:
    """A request-handler class routing stdlib access logs through ``logger``.

    ``BaseHTTPRequestHandler`` writes one raw line to stderr per request,
    which interleaves badly under concurrent claimers; with a structured
    logger attached those lines become ``http.access`` JSON records on the
    shared sink (one ``write`` each, so they never shear), and without one
    the handler is fully quiet -- tests and the in-process driver see no
    request logging at all.
    """
    if logger is None:
        return _QuietHandler
    access_log = logger.bind("webapp")

    class _StructuredHandler(WSGIRequestHandler):
        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            access_log.info("http.access", client=self.address_string(),
                            message=format % args)

    return _StructuredHandler


class ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
    """WSGI server handling each request on its own daemon thread.

    ``wsgiref``'s default server is single-threaded, which would serialise
    every contributor behind the slowest request and hide concurrency bugs
    from the chaos/load tests.  Handler threads are daemonic so a hung
    request cannot block interpreter shutdown; request-level consistency is
    the service's job (every queue transition is one store transaction).
    """

    daemon_threads = True


class PlatformServer:
    """A background HTTP server wrapping the WSGI app (used by driver tests/examples).

    ``application`` overrides the WSGI callable (the fault-injection tests
    wrap the real app in deliberately misbehaving middleware).
    """

    def __init__(self, service: PlatformService, host: str = "127.0.0.1",
                 port: int = 0, application: Callable | None = None,
                 logger: JsonLogger | None = None):
        self.service = service
        self._server = make_server(host, port,
                                   application or create_wsgi_app(service, logger),
                                   server_class=ThreadingWSGIServer,
                                   handler_class=_handler_class(logger))
        self.host = host
        self.port = self._server.server_address[1]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "PlatformServer":
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._server.server_close()

    def __enter__(self) -> "PlatformServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
