"""In-memory span tracer and the timing wrappers placed at each layer boundary.

Every wrapper goes around a *public* entry point of the program and is handed
in through a public constructor (``PlatformService(store=...)``,
``PlatformServer(application=...)``, ``BatchRunner(client=..., engine=...)``),
so nothing under ``src/`` knows it is being measured.  Wrappers are installed
in the traced run only; the untraced run keeps the plain classes and only the
client-side round-trip stopwatch of :class:`TimedClient`.

A span is ``{id, parent, name, layer, thread, start, end, ...attributes}`` with
``perf_counter`` stamps.  Spans nest through a per-thread stack; the one
cross-thread edge (HTTP client call -> WSGI request on a server thread) is
linked through the ``traceparent`` header the program already sends.  A
layer's *self time* is its spans' duration minus the part covered by child
spans, so self times of one runner's span tree add up to that runner's wall.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.driver.runner import BatchRunner
from repro.obs import (
    SpanContext,
    current_context,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    use_context,
)
from repro.platform.service import PlatformService
from repro.platform.store import Store
from repro.pool.morph import Morpher

RUNNER = "driver.runner"
CLIENT = "driver.client"
WEBAPP = "platform.webapp"
SERVICE = "platform.service"
STORE = "platform.store"
ENGINE = "engine"

#: root span of one claim -> execute -> submit cycle on a runner thread.
BATCH_SPAN = "runner.batch"


class Tracer:
    """Collects spans in memory; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: ``traceparent`` trace id -> id of the client span that sent it.
        self.links: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, layer: str, parent: int | None = None, **attributes):
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1]
        record = {"id": next(self._ids), "parent": parent, "name": name,
                  "layer": layer, "thread": threading.current_thread().name,
                  **attributes, "start": time.perf_counter()}
        stack.append(record["id"])
        try:
            yield record
        except BaseException:
            record["error"] = True
            raise
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    result = {}
    for span in spans:
        covered, cursor = 0.0, span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        result[span["id"]] = span["end"] - span["start"] - covered
    return result


def batch_of(spans: list[dict]) -> dict[int, int | None]:
    """Span id -> id of the ``runner.batch`` span it descends from (or None)."""
    by_id = {span["id"]: span for span in spans}
    roots: dict[int | None, int | None] = {None: None}

    def resolve(span_id: int | None) -> int | None:
        if span_id not in roots:
            span = by_id.get(span_id)
            if span is None:
                roots[span_id] = None
            elif span["name"] == BATCH_SPAN:
                roots[span_id] = span_id
            else:
                roots[span_id] = resolve(span["parent"])
        return roots[span_id]

    return {span["id"]: resolve(span["id"]) for span in spans}


def _timed(method, name: str, layer: str, rows=None):
    """Wrap ``method`` of a class holding a ``tracer`` in a span.

    ``rows(result, *args)`` records how many rows the call decoded or wrote.
    """
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self.tracer.span(name, layer) as span:
            result = method(self, *args, **kwargs)
            if rows is not None:
                span["rows"] = rows(result, *args)
            return result
    return wrapper


def _found(result, *_args) -> int:
    return 0 if result is None else 1


def _length(result, *_args) -> int:
    return len(result)


class TimedStore(Store):
    """``Store`` whose reads and writes each record a span and a row count."""

    def __init__(self, tracer: Tracer, path: str):
        self.tracer = tracer
        super().__init__(path)

    tasks = _timed(Store.tasks, "store.tasks_scan", STORE, _length)
    results = _timed(Store.results, "store.results_scan", STORE, _length)
    all = _timed(Store.all, "store.table_scan", STORE, _length)
    get = _timed(Store.get, "store.point_read", STORE, _found)
    user_by_key = _timed(Store.user_by_key, "store.point_read", STORE, _found)
    user_by_nickname = _timed(Store.user_by_nickname, "store.point_read", STORE, _found)
    recall_submission = _timed(Store.recall_submission, "store.recall_submission", STORE)
    insert = _timed(Store.insert, "store.insert", STORE)
    insert_many = _timed(Store.insert_many, "store.insert_many", STORE)
    update = _timed(Store.update, "store.update", STORE)
    update_many = _timed(Store.update_many, "store.update_many", STORE)
    apply_batch = _timed(Store.apply_batch, "store.apply_batch", STORE)


class TimedService(PlatformService):
    """``PlatformService`` with a span around each use case the loop calls."""

    def __init__(self, tracer: Tracer, **kwargs):
        self.tracer = tracer
        super().__init__(**kwargs)

    authenticate = _timed(PlatformService.authenticate, "service.authenticate", SERVICE)
    add_experiment = _timed(PlatformService.add_experiment, "service.add_experiment",
                            SERVICE)
    build_pool = _timed(PlatformService.build_pool, "service.build_pool", SERVICE)
    enqueue_pool = _timed(PlatformService.enqueue_pool, "service.enqueue_pool", SERVICE)
    next_tasks = _timed(PlatformService.next_tasks, "service.next_tasks", SERVICE)
    submit_results = _timed(PlatformService.submit_results, "service.submit_results",
                            SERVICE)
    results = _timed(PlatformService.results, "service.results", SERVICE)


class TimedRunner(BatchRunner):
    """``BatchRunner`` whose every batch is the root span of its span tree."""

    tracer: Tracer

    def run_batch(self, experiment_id: int, count: int | None = None) -> int:
        with self.tracer.span(BATCH_SPAN, RUNNER) as span:
            span["tasks"] = super().run_batch(experiment_id, count=count)
            return span["tasks"]


class CountingMorpher(Morpher):
    """``Morpher`` that counts attempted steps (accepted ones are ``actions``)."""

    steps = 0

    def step(self, strategy=None):
        self.steps += 1
        return super().step(strategy)


class TimedEngine:
    """Engine proxy (duck-typed like ``FlakyEngine``) timing prepare/execute."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def prepare(self, query):
        with self.tracer.span("engine.prepare", ENGINE):
            return self.inner.prepare(query)

    def execute(self, query, **kwargs):
        with self.tracer.span("engine.execute", ENGINE,
                              strategy=self.inner.strategy()) as span:
            result = self.inner.execute(query, **kwargs)
            counters = result.metrics.snapshot()
            span.update(elapsed=result.elapsed, rows=len(result.rows),
                        chunks_scanned=counters.get("scan.chunks_scanned", 0),
                        chunks_skipped=counters.get("scan.chunks_skipped", 0))
            return result

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TimedClient:
    """Client proxy: round-trip stopwatch always, spans when a tracer is set.

    Every claim and submit round trip is kept with the time it ended, so the
    harness can cut a drain into consecutive windows.  It also keeps what the
    output checks need from the contributor's side: every ``(task, attempt)``
    lease it was handed and how many submissions the platform acknowledged.
    """

    def __init__(self, inner, strategy: str, tracer: Tracer | None = None):
        self.inner = inner
        #: "row" or "column": the engine this client's runner measures on.
        self.strategy = strategy
        self.tracer = tracer
        #: ``(ended, round-trip ms)`` per claim.
        self.claims: list[tuple[float, float]] = []
        #: ``(ended, round-trip ms, results sent)`` per submit.
        self.submits: list[tuple[float, float, int]] = []
        #: task id -> the engine-reported ``times`` of its successful result.
        self.times: dict[int, list[float]] = {}
        #: task id -> its SQL text, as claimed.
        self.sql: dict[int, str] = {}
        self.leases: list[tuple[int, int]] = []
        self.acknowledged = 0

    def _call(self, name: str, call):
        """Run ``call``; returns ``(its result, when it ended, round-trip ms)``."""
        started = time.perf_counter()
        if self.tracer is None:
            result = call()
        else:
            # the HTTP client stamps the ambient context (or a fresh one) on
            # the request; pinning it here changes nothing it sends and lets
            # the WSGI wrapper find the span that caused the request.
            context = current_context() or SpanContext(new_trace_id(), new_span_id())
            with self.tracer.span(name, CLIENT) as span, use_context(context):
                self.tracer.links[context.trace_id] = span["id"]
                result = call()
        ended = time.perf_counter()
        return result, ended, (ended - started) * 1000.0

    def next_tasks(self, experiment_id: int, count: int = 1, dbms: str | None = None):
        tasks, ended, ms = self._call("client.claim", lambda: self.inner.next_tasks(
            experiment_id, count=count, dbms=dbms))
        self.claims.append((ended, ms))
        self.leases.extend((task["id"], task["attempts"]) for task in tasks)
        self.sql.update((task["id"], task["query_sql"]) for task in tasks)
        return tasks

    def submit_results(self, results: list[dict]):
        records, ended, ms = self._call("client.submit",
                                        lambda: self.inner.submit_results(results))
        self.submits.append((ended, ms, len(results)))
        self.times.update((result["task"], result["times"]) for result in results
                          if result["error"] is None)
        self.acknowledged += len(records)
        return records

    def __getattr__(self, name):
        return getattr(self.inner, name)


def traced_application(application, tracer: Tracer):
    """WSGI middleware: one ``webapp.request`` span per request, with sizes."""
    def wrapped(environ, start_response):
        incoming = parse_traceparent(environ.get("HTTP_TRACEPARENT"))
        parent = tracer.links.get(incoming.trace_id) if incoming else None
        with tracer.span("webapp.request", WEBAPP, parent=parent,
                         endpoint=environ.get("PATH_INFO", "")) as span:
            span["request_bytes"] = int(environ.get("CONTENT_LENGTH") or 0)
            body = application(environ, start_response)
            span["response_bytes"] = sum(len(chunk) for chunk in body)
            return body
    return wrapped


def layer_metrics(spans: list[dict], walls: list[float], claimed: int) -> dict[str, float]:
    """Per-layer numbers of one traced round, from its spans.

    Client, webapp, service and store numbers count the drain only (spans
    under a ``runner.batch``), so publishing and analytics do not blur them;
    ``service.enqueue_pool_s`` is the publish-side exception.
    """
    own = self_times(spans)
    batch = batch_of(spans)
    every: dict[str, list[dict]] = defaultdict(list)
    drain: dict[str, list[dict]] = defaultdict(list)
    layer_self: dict[str, float] = defaultdict(float)
    rows_decoded = 0
    for span in spans:
        every[span["name"]].append(span)
        if batch[span["id"]] is not None:
            drain[span["name"]].append(span)
            layer_self[span["layer"]] += own[span["id"]]
            if span["layer"] == STORE:
                rows_decoded += span.get("rows", 0)

    def seconds(pool: list[dict]) -> float:
        return sum(span["end"] - span["start"] for span in pool)

    runner_wall = sum(walls)
    batches, requests = every[BATCH_SPAN], drain["webapp.request"]
    executes = every["engine.execute"]
    tasks_run = sum(span["tasks"] for span in batches)
    return {
        "runner.batches": len(batches),
        "runner.self_s": layer_self[RUNNER],
        "runner.overhead_ms_per_task": 1000.0 * layer_self[RUNNER] / max(tasks_run, 1),
        "client.claim_calls": len(drain["client.claim"]),
        "client.claim_s": seconds(drain["client.claim"]),
        "client.submit_calls": len(drain["client.submit"]),
        "client.submit_s": seconds(drain["client.submit"]),
        "http.transport_s": layer_self[CLIENT],
        "http.request_bytes": sum(span["request_bytes"] for span in requests),
        "http.response_bytes": sum(span["response_bytes"] for span in requests),
        "webapp.requests": len(requests),
        "webapp.busy_s": seconds(requests),
        "webapp.self_s": layer_self[WEBAPP],
        "service.next_tasks_s": seconds(drain["service.next_tasks"]),
        "service.submit_results_s": seconds(drain["service.submit_results"]),
        "service.enqueue_pool_s": seconds(every["service.enqueue_pool"]),
        "service.self_s": layer_self[SERVICE],
        "store.busy_s": layer_self[STORE],
        "store.tasks_scan_calls": len(drain["store.tasks_scan"]),
        "store.tasks_scan_s": seconds(drain["store.tasks_scan"]),
        "store.rows_decoded": rows_decoded,
        "store.rows_decoded_per_claimed_task": rows_decoded / max(claimed, 1),
        "store.update_many_s": seconds(drain["store.update_many"]),
        "store.apply_batch_s": seconds(drain["store.apply_batch"]),
        "store.point_reads": len(drain["store.point_read"]),
        "engine.prepare_calls": len(every["engine.prepare"]),
        "engine.prepare_s": seconds(every["engine.prepare"]),
        "engine.execute_calls": len(executes),
        "engine.row.execute_s": seconds([span for span in executes
                                         if span["strategy"] == "row"]),
        "engine.column.execute_s": seconds([span for span in executes
                                            if span["strategy"] == "column"]),
        "engine.shell_s": sum(span["end"] - span["start"] - span["elapsed"]
                              for span in executes if "elapsed" in span),
        "engine.failed_execute_s": seconds([span for span in executes
                                            if span.get("error")]),
        "engine.chunks_scanned": sum(span.get("chunks_scanned", 0) for span in executes),
        "engine.chunks_skipped": sum(span.get("chunks_skipped", 0) for span in executes),
        "engine.rows_out": sum(span.get("rows", 0) for span in executes),
        "bench.engine_share": layer_self[ENGINE] / runner_wall,
        "bench.platform_share": (layer_self[SERVICE] + layer_self[STORE]) / runner_wall,
        "bench.unattributed_share": 1.0 - sum(layer_self.values()) / runner_wall,
    }
