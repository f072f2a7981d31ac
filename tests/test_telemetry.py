"""End-to-end platform telemetry: trace propagation, structured logging,
latency histograms, the flight recorder, and stitched task timelines."""

import io
import json

import pytest

from repro.analytics import (
    profiles_by_trace,
    read_span_log,
    stitch_timelines,
    timeline_lines,
    timeline_report,
)
from repro.driver import BatchRunner, DriverConfig, InProcessClient
from repro.engine import ColumnEngine, Database
from repro.obs import (
    FlightRecorder,
    JsonLogger,
    MetricsRegistry,
    SpanContext,
    SpanRecorder,
    TelemetryConfig,
    current_context,
    parse_log_lines,
    parse_traceparent,
    use_context,
)
from repro.platform import (
    FaultConfig,
    FaultInjector,
    FlakyEngine,
    PlatformService,
    UnreliableClient,
)
from repro.platform.models import TaskStatus, new_submission
from repro.platform.webapp import create_wsgi_app


# ---------------------------------------------------------------------------
# traceparent propagation primitives
# ---------------------------------------------------------------------------


class TestTraceparent:
    def test_roundtrip(self):
        context = SpanContext("ab" * 16, "cd" * 8)
        parsed = parse_traceparent(context.to_traceparent())
        assert parsed == context

    def test_child_keeps_trace_changes_span(self):
        context = SpanContext("ab" * 16, "cd" * 8)
        child = context.child()
        assert child.trace_id == context.trace_id
        assert child.span_id != context.span_id

    @pytest.mark.parametrize("header", [
        None, "", "garbage",
        "00-short-cdcdcdcdcdcdcdcd-01",                     # bad widths
        "00-" + "gg" * 16 + "-" + "cd" * 8 + "-01",         # non-hex
        "00-" + "00" * 16 + "-" + "cd" * 8 + "-01",         # all-zero trace
        "00-" + "ab" * 16 + "-" + "00" * 8 + "-01",         # all-zero span
        "00-" + "ab" * 16 + "-" + "cd" * 8,                 # missing flags
    ])
    def test_malformed_headers_degrade_to_none(self, header):
        assert parse_traceparent(header) is None

    def test_ambient_context_nests_and_restores(self):
        outer = SpanContext("ab" * 16, "cd" * 8)
        assert current_context() is None
        with use_context(outer):
            assert current_context() == outer
            with use_context(outer.child()):
                assert current_context().trace_id == outer.trace_id
                assert current_context().span_id != outer.span_id
            assert current_context() == outer
        assert current_context() is None


# ---------------------------------------------------------------------------
# structured logging
# ---------------------------------------------------------------------------


class TestJsonLogger:
    def test_records_are_json_lines_with_component(self):
        registry = MetricsRegistry()
        root = JsonLogger(registry=registry)
        root.bind("service").info("tasks.enqueued", count=3)
        root.bind("driver").warning("client.retry", attempt=1)
        records = parse_log_lines(root.stream.getvalue())
        assert [record["component"] for record in records] == ["service", "driver"]
        assert records[0]["event"] == "tasks.enqueued"
        assert records[0]["count"] == 3
        assert all("ts" in record for record in records)
        # the registry counted levels and events for the derived rates.
        assert registry.counter("log.records.info").value == 1
        assert registry.counter("log.records.warning").value == 1
        assert registry.counter("log.events.client.retry").value == 1

    def test_ambient_trace_context_is_stamped(self):
        logger = JsonLogger(component="test")
        context = SpanContext("ab" * 16, "cd" * 8)
        with use_context(context):
            logger.info("with.context")
            logger.info("explicit.wins", trace_id="override")
        records = parse_log_lines(logger.stream.getvalue())
        assert records[0]["trace_id"] == context.trace_id
        assert records[0]["span_id"] == context.span_id
        assert records[1]["trace_id"] == "override"

    def test_bound_loggers_share_one_stream(self):
        root = JsonLogger()
        child = root.bind("webapp")
        assert child.stream is root.stream
        child.error("boom")
        assert "boom" in root.stream.getvalue()


# ---------------------------------------------------------------------------
# webapp middleware: histograms, responses, server spans
# ---------------------------------------------------------------------------


def _call_app(app, path, method="GET", headers=None, body=None):
    raw = json.dumps(body).encode() if body is not None else b""
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": "",
        "CONTENT_LENGTH": str(len(raw)),
        "wsgi.input": io.BytesIO(raw),
    }
    for name, value in (headers or {}).items():
        environ["HTTP_" + name.upper().replace("-", "_")] = value
    captured = {}

    def start_response(status, response_headers):
        captured["status"] = status

    payload = json.loads(b"".join(app(environ, start_response)).decode())
    return captured["status"], payload


class TestWebappTelemetry:
    def test_request_observes_latency_histogram_and_status_counter(self):
        service = PlatformService()
        app = create_wsgi_app(service)
        status, payload = _call_app(app, "/api/ping")
        assert status.startswith("200")
        summary = service.metrics.histogram(
            "http.request_seconds./api/ping").summary()
        assert summary["count"] == 1
        assert service.metrics.counter("http.responses.2xx").value == 1

    def test_unknown_paths_share_the_unmatched_bucket(self):
        service = PlatformService()
        app = create_wsgi_app(service)
        _call_app(app, "/api/garbage-1")
        _call_app(app, "/api/garbage-2")
        summary = service.metrics.histogram(
            "http.request_seconds.unmatched").summary()
        assert summary["count"] == 2
        names = set(service.metrics.snapshot()["histograms"])
        assert not any("garbage" in name for name in names)

    def test_incoming_traceparent_continues_the_trace(self):
        service = PlatformService()
        logger = JsonLogger()
        app = create_wsgi_app(service, logger=logger)
        caller = SpanContext("ab" * 16, "cd" * 8)
        _call_app(app, "/api/ping",
                  headers={"Traceparent": caller.to_traceparent()})
        spans = service.spans.spans(caller.trace_id)
        assert [span["name"] for span in spans] == ["http"]
        assert spans[0]["parent_span_id"] == caller.span_id
        assert spans[0]["attributes"]["endpoint"] == "/api/ping"
        assert spans[0]["attributes"]["status"] == 200
        records = parse_log_lines(logger.stream.getvalue())
        assert records[-1]["event"] == "http.request"
        assert records[-1]["trace_id"] == caller.trace_id

    def test_disabled_telemetry_records_no_spans(self):
        service = PlatformService(telemetry=TelemetryConfig.disabled())
        app = create_wsgi_app(service)
        _call_app(app, "/api/ping")
        assert len(service.spans) == 0
        assert not service.flight.enabled


# ---------------------------------------------------------------------------
# trace continuity across fault paths
# ---------------------------------------------------------------------------


def _service_with_queue(logger=None, telemetry=None, max_attempts=3):
    service = PlatformService(logger=logger, telemetry=telemetry)
    owner = service.register_user("owner", "owner@example.org")
    contributor = service.register_user("worker", "worker@example.org")
    service.register_dbms("columnstore", "1.0")
    service.register_host("laptop")
    project = service.create_project(owner, "telemetry-demo")
    service.invite_contributor(owner, project, contributor)
    experiment = service.add_experiment(
        owner, project, "exp", "select sum(price) from t where id > 0",
        repeats=1, timeout_seconds=60.0, max_attempts=max_attempts)
    pool = service.build_pool(experiment, seed=3)
    pool.seed_baseline()
    service.enqueue_pool(owner, experiment, pool, dbms_label="columnstore-1.0",
                         host_name="laptop")
    return service, owner, contributor, experiment


def _flaky_database():
    database = Database("telemetry-unit")
    database.create_table("t", [("id", "int"), ("price", "float")])
    database.insert_rows("t", [(1, 10.0), (2, 20.0)])
    return database


class TestTraceContinuity:
    def test_trace_id_minted_at_enqueue_and_stable_across_retry(self):
        logger = JsonLogger()
        service, owner, contributor, experiment = _service_with_queue(logger=logger)
        task, = service.next_tasks(contributor, experiment)
        trace_id = task.trace_id
        assert trace_id and len(trace_id) == 32
        # attempt 1 fails -> the task goes back to pending under the SAME trace.
        service.submit_results(contributor, [new_submission(
            task, times=[], error="boom", attempt=task.attempts)])
        task, = service.next_tasks(contributor, experiment)
        assert task.trace_id == trace_id
        assert task.attempts == 2
        service.submit_results(contributor, [new_submission(
            task, times=[0.1], attempt=task.attempts)])
        assert task.status == TaskStatus.DONE.value

        spans = service.spans.spans(trace_id)
        names = [span["name"] for span in spans]
        assert names.count("claim") == 2
        assert [span["attributes"]["attempt"] for span in spans
                if span["name"] == "claim"] == [1, 2]
        submits = [span["attributes"] for span in spans if span["name"] == "submit"]
        assert [attrs["outcome"] for attrs in submits] == ["retried", "done"]
        # the structured log tells the same story under the same trace id.
        events = parse_log_lines(logger.stream.getvalue())
        retried = [record for record in events if record["event"] == "task.retried"]
        assert retried and retried[0]["trace_id"] == trace_id
        assert retried[0]["reason"] == "error_result"

    def test_dedup_replay_is_annotated_on_the_trace(self):
        service, owner, contributor, experiment = _service_with_queue()
        inner = InProcessClient(service, contributor.contributor_key)
        task = inner.next_tasks(experiment.id, count=1)[0]
        # duplicate delivery (faults.py injector): recorded once, and the
        # replay leaves a dedup-annotated submit span on the task's trace.
        client = UnreliableClient(
            inner, FaultInjector(FaultConfig(duplicate=1.0), seed=1))
        client.submit_results([new_submission(
            task["id"], times=[0.1], idempotency_key="k" * 32,
            attempt=task["attempts"])])
        assert len(service.store.results(experiment.id)) == 1
        submits = [span for span in service.spans.spans(task["trace_id"])
                   if span["name"] == "submit"]
        assert [span["attributes"].get("dedup") for span in submits] == [False, True]
        assert submits[1]["attributes"]["outcome"] == "dedup"

    def test_dead_lettered_task_flight_entry_records_last_error(self):
        logger = JsonLogger()
        service, owner, contributor, experiment = _service_with_queue(
            logger=logger, max_attempts=1)
        task, = service.next_tasks(contributor, experiment)
        trace_id = task.trace_id
        # the lease expires with the retry budget spent -> dead letter.
        task.assigned_at -= task.timeout_seconds + 1
        service.store.update("tasks", task)
        swept = service.expire_stuck_tasks(experiment)
        assert [item.status for item in swept] == [TaskStatus.DEAD_LETTER.value]

        entries = service.flight.entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["trace_id"] == trace_id
        assert entry["outcome"] == "dead_letter"
        assert "lease expired" in entry["last_error"]
        span_names = [span["name"] for span in entry["spans"]]
        assert "claim" in span_names and "sweep" in span_names
        events = parse_log_lines(logger.stream.getvalue())
        dead = [record for record in events
                if record["event"] == "task.dead_lettered"]
        assert dead and dead[0]["trace_id"] == trace_id

    def test_flaky_engine_failures_keep_one_trace_per_task(self):
        service, owner, contributor, experiment = _service_with_queue(
            max_attempts=2)
        engine = FlakyEngine(ColumnEngine(_flaky_database()),
                             FaultInjector(FaultConfig(fail_task=1.0), seed=9))
        config = DriverConfig(key=contributor.contributor_key,
                              dbms="columnstore-1.0", host="laptop",
                              repeats=1, retries=0, trace_tasks=True)
        runner = BatchRunner(
            client=InProcessClient(service, contributor.contributor_key),
            engine=engine, config=config)
        runner.run_all(experiment.id)
        task = service.store.tasks(experiment.id)[0]
        assert task.status == TaskStatus.DEAD_LETTER.value
        spans = service.spans.spans(task.trace_id)
        execute_errors = [span["attributes"].get("error")
                          for span in spans if span["name"] == "driver.execute"]
        assert len(execute_errors) == 2  # one per attempt, same trace id
        assert all("injected fault" in error for error in execute_errors)
        assert service.flight.entries()[0]["outcome"] == "dead_letter"


class TestWhyATaskFailed:
    """A dead letter says why, in every record that tells its story: refused
    by the engine (one lease) or budget exhausted (all of them)."""

    def _drain(self, engine, **queue):
        logger = JsonLogger()
        service, owner, contributor, experiment = _service_with_queue(
            logger=logger, **queue)
        config = DriverConfig(key=contributor.contributor_key,
                              dbms="columnstore-1.0", host="laptop",
                              repeats=1, retries=0, trace_tasks=True)
        runner = BatchRunner(
            client=InProcessClient(service, contributor.contributor_key),
            engine=engine, config=config)
        leases = runner.run_all(experiment.id)
        return service, experiment, runner, leases, parse_log_lines(logger.stream.getvalue())

    def test_a_refused_task_shows_one_attempt_everywhere(self):
        # the published text reads table ``t``; this database has none, so
        # ``prepare`` refuses it (CatalogError -> kind ``plan``).
        service, experiment, runner, leases, events = self._drain(
            ColumnEngine(Database("no-tables")))
        task = service.store.tasks(experiment.id)[0]
        assert (leases, task.status, task.attempts) == (1, TaskStatus.DEAD_LETTER.value, 1)
        counters = service.metrics.snapshot()["counters"]
        assert counters["tasks.refused"] == counters["tasks.dead_lettered"] == 1
        assert "tasks.retried" not in counters

        dead = [event for event in events if event["event"] == "task.dead_lettered"]
        assert [(event["reason"], event["attempt"]) for event in dead] == [("refused", 1)]
        assert not [event for event in events if event["event"] == "task.retried"]

        entry = service.flight.entries()[0]
        assert (entry["outcome"], entry["reason"], entry["attempts"]) \
            == ("dead_letter", "refused", 1)
        assert entry["last_error"].startswith("CatalogError: unknown table 't'")
        story = [span["name"] for span in entry["spans"]
                 if span["name"] in ("claim", "driver.execute", "submit")]
        assert story == ["claim", "driver.execute", "submit"]

        results = service.store.results(experiment.id)
        timeline = stitch_timelines(
            tasks=[task], results=results,
            span_sources=[service.spans, runner.spans])[0]
        assert (timeline.outcome, timeline.attempts) == ("dead_letter", 1)
        by_name = {span["name"]: span["attributes"] for span in timeline.spans}
        assert by_name["driver.execute"]["error"] == entry["last_error"]
        assert by_name["submit"]["reason"] == "refused"
        assert timeline.span_names().count("claim") == 1
        assert any("outcome=dead_letter reason=refused" in line
                   for line in timeline.lines())
        assert results[0].extras["error_kind"] == "plan"

    def test_a_spent_budget_reads_budget_exhausted(self):
        engine = FlakyEngine(ColumnEngine(_flaky_database()),
                             FaultInjector(FaultConfig(fail_task=1.0), seed=9))
        service, experiment, _runner, leases, events = self._drain(engine, max_attempts=2)
        assert leases == 2
        dead = [event for event in events if event["event"] == "task.dead_lettered"]
        assert [(event["reason"], event["attempt"]) for event in dead] \
            == [("budget_exhausted", 2)]
        assert service.flight.entries()[0]["reason"] == "budget_exhausted"
        submits = [span["attributes"] for span in
                   service.spans.spans(service.store.tasks(experiment.id)[0].trace_id)
                   if span["name"] == "submit"]
        assert [(attrs["outcome"], attrs.get("reason")) for attrs in submits] \
            == [("retried", None), ("dead_letter", "budget_exhausted")]
        assert "tasks.refused" not in service.metrics.snapshot()["counters"]
        assert [record.extras["error_kind"]
                for record in service.store.results(experiment.id)] == ["execution"] * 2

    def test_an_expired_lease_still_reads_lease_expired(self):
        logger = JsonLogger()
        service, owner, contributor, experiment = _service_with_queue(
            logger=logger, max_attempts=1)
        task, = service.next_tasks(contributor, experiment)
        task.assigned_at -= task.timeout_seconds + 1
        service.store.update("tasks", task)
        service.expire_stuck_tasks(experiment)
        dead = [event for event in parse_log_lines(logger.stream.getvalue())
                if event["event"] == "task.dead_lettered"]
        assert [event["reason"] for event in dead] == ["lease_expired"]
        assert service.flight.entries()[0]["reason"] == "lease_expired"

    def test_history_and_summaries_show_the_refusal(self, tmp_path, capsys):
        from repro.analytics import experiment_history
        from repro.cli.main import main
        from repro.platform import Store
        from repro.workflow import DemoSummary, _replay_results_into_pool

        path = str(tmp_path / "queue.db")
        service = PlatformService(Store(path))
        owner = service.register_user("owner", "owner@example.org")
        project = service.create_project(owner, "refusals")
        experiment = service.add_experiment(
            owner, project, "exp", "select sum(price) from t where id > 0", repeats=1)
        pool = service.build_pool(experiment, seed=3)
        pool.seed_baseline()
        service.enqueue_pool(owner, experiment, pool, "columnstore-1.0", "laptop")
        engine = ColumnEngine(Database("no-tables"))
        config = DriverConfig(key=owner.contributor_key, dbms=engine.label,
                              host="laptop", repeats=1)
        BatchRunner(client=InProcessClient(service, owner.contributor_key),
                    engine=engine, config=config).run_all(experiment.id)

        # the yellow node says what failed and of which kind -- read from the
        # platform's stored result, and from a pool measured without a platform
        _replay_results_into_pool(service, experiment, pool)
        measured = service.build_pool(experiment, seed=3)
        measured.seed_baseline()
        measured.measure(engine, repeats=1)
        for source in (pool, measured):
            node = experiment_history(source, engine.label).error_nodes()[0]
            assert node.details["error"] == "CatalogError: unknown table 't'"
            assert node.details["error_kind"] == "plan"

        summary = DemoSummary(service=service, owner=owner, contributor=owner,
                              project=project, experiment=experiment, pool=pool,
                              metrics=service.metrics.snapshot())
        assert "0 retried, 1 refused" in summary.describe()
        service.store.close()
        assert main(["metrics", "--store", path]) == 0
        output = capsys.readouterr().out
        assert "tasks.refused" in output and "results.failed" in output


# ---------------------------------------------------------------------------
# flight recorder retention
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_failures_always_kept_successes_compete_on_duration(self):
        recorder = FlightRecorder(capacity=2, slow_task_seconds=1.0)
        assert recorder.record(1, "t1", "dead_letter", duration=0.01) is not None
        assert recorder.record(2, "t2", "done", duration=0.5) is None  # fast
        assert recorder.record(3, "t3", "done", duration=1.5) is not None
        assert recorder.record(4, "t4", "done", duration=3.0) is not None
        assert recorder.record(5, "t5", "done", duration=1.2) is None  # evicted
        outcomes = [(entry["task"], entry["outcome"])
                    for entry in recorder.entries()]
        assert outcomes == [(1, "dead_letter"), (4, "done"), (3, "done")]

    def test_disabled_recorder_is_a_noop(self):
        recorder = FlightRecorder(capacity=0)
        assert not recorder.enabled
        assert recorder.record(1, "t1", "dead_letter", duration=9.0) is None
        assert len(recorder) == 0

    def test_jsonl_sink_feeds_the_timeline_reader(self, tmp_path):
        sink = tmp_path / "flight.jsonl"
        recorder = FlightRecorder(capacity=4, slow_task_seconds=0.0,
                                  sink_path=str(sink))
        spans = [{"name": "claim", "trace_id": "ab" * 16, "span_id": "cd" * 8,
                  "parent_span_id": None, "start": 1.0, "end": 1.1,
                  "attributes": {"attempt": 1}}]
        recorder.record(7, "ab" * 16, "dead_letter", duration=2.0, spans=spans,
                        last_error="boom")
        loaded = read_span_log(sink)
        assert [record["span_id"] for record in loaded] == ["cd" * 8]
        timelines = stitch_timelines(span_sources=[loaded])
        assert timelines[0].trace_id == "ab" * 16
        assert timelines[0].attempts == 1


# ---------------------------------------------------------------------------
# the stitched end-to-end timeline (the acceptance scenario)
# ---------------------------------------------------------------------------


class TestStitchedTimeline:
    def _run_with_retry(self):
        """Enqueue one task, fault-inject a failed first attempt, then accept."""
        logger = JsonLogger()
        service, owner, contributor, experiment = _service_with_queue(
            logger=logger)
        engine = ColumnEngine(_flaky_database())
        config = DriverConfig(key=contributor.contributor_key,
                              dbms="columnstore-1.0", host="laptop",
                              repeats=1, retries=0, trace_tasks=True)
        # attempt 1: an injected execution fault -> error result -> retry.
        flaky = FlakyEngine(engine, FaultInjector(FaultConfig(fail_task=1.0),
                                                  seed=9))
        failing = BatchRunner(
            client=InProcessClient(service, contributor.contributor_key),
            engine=flaky, config=config, logger=logger)
        assert failing.run_batch(experiment.id, count=1) == 1
        # attempt 2: the healthy engine delivers the accepted result.
        healing = BatchRunner(
            client=InProcessClient(service, contributor.contributor_key),
            engine=engine, config=config, logger=logger)
        assert healing.run_batch(experiment.id, count=1) == 1
        return service, experiment, [failing, healing]

    def test_clean_fast_submission_keeps_spans_client_side(self):
        """Adaptive shipping: an uneventful first-attempt run ships no spans.

        The submitted extras still carry the trace id (analytics join on
        it), the driver's recorder still holds the spans locally, but the
        wire payload and the result store stay lean; only failed, retried
        or slow executions ship their span records (see the retry tests,
        whose server-side stitching depends on exactly that).
        """
        service, owner, contributor, experiment = _service_with_queue()
        engine = ColumnEngine(_flaky_database())
        config = DriverConfig(key=contributor.contributor_key,
                              dbms="columnstore-1.0", host="laptop",
                              repeats=1, retries=0, trace_tasks=True)
        runner = BatchRunner(
            client=InProcessClient(service, contributor.contributor_key),
            engine=engine, config=config)
        assert runner.run_batch(experiment.id, count=1) == 1

        record = service.store.results(experiment.id)[0]
        task = service.store.task(record.task_id)
        assert record.extras["trace_id"] == task.trace_id
        assert "spans" not in record.extras
        # the driver kept the task's spans locally.
        names = [span["name"] for span in runner.spans.spans(task.trace_id)]
        assert "driver.execute" in names and "engine.query" in names

    def test_single_trace_covers_enqueue_retry_and_acceptance(self):
        service, experiment, runners = self._run_with_retry()
        tasks = service.store.tasks(experiment.id)
        assert len(tasks) == 1
        task = tasks[0]
        assert task.status == TaskStatus.DONE.value and task.attempts == 2

        results = service.store.results(experiment.id)
        timelines = stitch_timelines(
            tasks=tasks, results=results,
            span_sources=[service.spans] + [runner.spans for runner in runners],
            profiles=profiles_by_trace(results))
        assert len(timelines) == 1
        timeline = timelines[0]
        assert timeline.trace_id == task.trace_id
        assert timeline.task_id == task.id
        assert timeline.outcome == "done"
        assert timeline.attempts == 2

        names = timeline.span_names()
        assert names.count("claim") == 2          # both claim attempts
        assert names.count("driver.execute") == 2  # failed + successful run
        assert "engine.query" in names             # the engine trace nests in
        submits = [span["attributes"]["outcome"] for span in timeline.spans
                   if span["name"] == "submit"]
        assert submits == ["retried", "done"]
        # the engine tree hangs under the driver's execute span.
        engine_roots = [span for span in timeline.spans
                        if span["name"] == "engine.query"]
        execute_ids = {span["span_id"] for span in timeline.spans
                       if span["name"] == "driver.execute"}
        assert engine_roots and all(span["parent_span_id"] in execute_ids
                                    for span in engine_roots)
        # derived phases: queue wait and execution are always measurable here.
        assert timeline.phases["queue_wait"] >= 0.0
        assert timeline.phases["execute"] > 0.0
        assert timeline.phases["submit"] >= 0.0
        # the engine profile joined on the same trace id.
        assert timeline.profile and timeline.profile["trace_id"] == task.trace_id

    def test_report_and_renderer_round_trip(self, tmp_path):
        service, experiment, runners = self._run_with_retry()
        tasks = service.store.tasks(experiment.id)
        results = service.store.results(experiment.id)
        timelines = stitch_timelines(tasks=tasks, results=results,
                                     span_sources=[service.spans])
        report = timeline_report(timelines)
        assert report["tasks"] == 1
        assert set(report["phase_totals"]) >= {"execute", "queue_wait"}
        # the artifact is valid JSON end to end.
        path = tmp_path / "timeline.json"
        path.write_text(json.dumps(report))
        assert json.loads(path.read_text())["tasks"] == 1
        rendered = "\n".join(timeline_lines(timelines))
        assert f"trace {timelines[0].trace_id[:12]}" in rendered
        assert "driver.execute" in rendered

    def test_driver_span_log_export(self, tmp_path):
        sink = tmp_path / "spans.jsonl"
        logger = JsonLogger()
        service, owner, contributor, experiment = _service_with_queue(
            logger=logger)
        config = DriverConfig(key=contributor.contributor_key,
                              dbms="columnstore-1.0", host="laptop",
                              repeats=1, retries=0, trace_tasks=True,
                              span_log=str(sink))
        runner = BatchRunner(
            client=InProcessClient(service, contributor.contributor_key),
            engine=ColumnEngine(_flaky_database()), config=config)
        runner.run_all(experiment.id)
        written = read_span_log(sink)
        assert written
        timelines = stitch_timelines(span_sources=[written])
        assert timelines and "driver.execute" in timelines[0].span_names()


# ---------------------------------------------------------------------------
# derived metrics and the profile join
# ---------------------------------------------------------------------------


class TestDerivedMetrics:
    def test_rates_derive_from_log_counters(self):
        registry = MetricsRegistry()
        logger = JsonLogger(registry=registry)
        registry.counter("tasks.dispatched").inc(10)
        registry.counter("tasks.enqueued").inc(8)
        for _ in range(2):
            logger.warning("task.retried", task=1)
        logger.error("task.dead_lettered", task=2)
        derived = registry.snapshot()["derived"]
        assert derived["tasks.retry_rate"] == pytest.approx(0.2)
        assert derived["tasks.dead_letter_rate"] == pytest.approx(1 / 8)

    def test_gauges_surface_in_snapshot(self):
        service, owner, contributor, experiment = _service_with_queue()
        service.expire_stuck_tasks(experiment)
        snapshot = service.metrics.snapshot()
        assert snapshot["gauges"]["queue.depth"] == 1.0
        assert snapshot["gauges"]["queue.oldest_lease_seconds"] == 0.0
        # what a claim costs at that depth sits next to them.
        assert "queue.claim_seconds" not in snapshot["histograms"]
        service.next_tasks(contributor, experiment, limit=1)
        claim = service.metrics.snapshot()["histograms"]["queue.claim_seconds"]
        assert claim["count"] == 1 and 0.0 < claim["p50"] <= claim["p95"]


class TestProfilesByTrace:
    def test_joins_profiles_on_trace_id(self):
        records = [
            {"extras": {"trace_id": "a" * 32,
                        "profile": {"trace_id": "a" * 32, "rows": 4}}},
            {"extras": {"profile": {"rows": 2}}},  # untraced: skipped
            {"extras": {"trace_id": "b" * 32}},    # traced, no profile
        ]
        joined = profiles_by_trace(records)
        assert joined["a" * 32]["rows"] == 4
        assert joined["b" * 32] == {}
        assert len(joined) == 2


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------


class TestCLI:
    def test_metrics_from_store_file(self, tmp_path, capsys):
        from repro.cli.main import main
        from repro.platform import Store
        from repro.platform.models import Task

        path = str(tmp_path / "queue.db")
        store = Store(path)
        store.insert("tasks", Task(experiment_id=1, query_sql="select 1",
                                   query_key="k", dbms_label="d", host_name="h"))
        store.close()
        assert main(["metrics", "--store", path]) == 0
        output = capsys.readouterr().out
        assert "queue.pending" in output and "results.stored" in output

    def test_metrics_requires_a_source(self, capsys):
        from repro.cli.main import main

        assert main(["metrics"]) == 2

    def test_timeline_renders_a_flight_log(self, tmp_path, capsys):
        from repro.cli.main import main

        recorder = FlightRecorder(capacity=4, slow_task_seconds=0.0,
                                  sink_path=str(tmp_path / "flight.jsonl"))
        spans = [{"name": "claim", "trace_id": "ab" * 16, "span_id": "cd" * 8,
                  "parent_span_id": None, "start": 1.0, "end": 1.2,
                  "attributes": {"attempt": 1}}]
        recorder.record(3, "ab" * 16, "dead_letter", duration=2.0, spans=spans)
        artifact = tmp_path / "timeline.json"
        assert main(["timeline", "--flight-log",
                     str(tmp_path / "flight.jsonl"),
                     "--json", str(artifact)]) == 0
        output = capsys.readouterr().out
        assert "claim" in output
        assert json.loads(artifact.read_text())["tasks"] == 1

    def test_timeline_slowest_joins_flight_entries_to_profiles(self, tmp_path, capsys):
        """``timeline --slowest N``: the N slowest flight entries of a log, each
        with its stitched timeline and the engine profile its result carries
        under the same trace id -- the consumer of ``profiles_by_trace``."""
        from repro.cli.main import main
        from repro.platform import Store

        flight_log, store_path = tmp_path / "flight.jsonl", tmp_path / "store.db"
        telemetry = TelemetryConfig(slow_task_seconds=0.0, flight_log=str(flight_log))
        service = PlatformService(store=Store(str(store_path)), telemetry=telemetry)
        owner = service.register_user("owner", "owner@example.org")
        contributor = service.register_user("worker", "worker@example.org")
        service.register_dbms("columnstore", "1.0")
        service.register_host("laptop")
        project = service.create_project(owner, "slowest")
        service.invite_contributor(owner, project, contributor)
        experiment = service.add_experiment(
            owner, project, "exp", "select sum(price) from t where id > 0",
            repeats=1, timeout_seconds=60.0)
        pool = service.build_pool(experiment, seed=3)
        pool.seed_baseline()
        pool.seed_random(2)
        service.enqueue_pool(owner, experiment, pool, dbms_label="columnstore-1.0",
                             host_name="laptop")
        config = DriverConfig(key=contributor.contributor_key, dbms="columnstore-1.0",
                              host="laptop", repeats=1, retries=0, batch_size=1,
                              trace_tasks=True, telemetry=telemetry)
        BatchRunner(client=InProcessClient(service, contributor.contributor_key),
                    engine=ColumnEngine(_flaky_database()), config=config
                    ).run_all(experiment.id)
        entries = service.flight.entries()
        assert len(entries) >= 2
        slowest = max(entries, key=lambda entry: entry["duration"])
        # only a text with a push-down predicate gates the chunks it scans
        pushed_down = " where " in service.store.task(slowest["task"]).query_sql.lower()
        service.store.close()

        assert main(["timeline", "--slowest", "1", "--flight-log", str(flight_log),
                     "--store", str(store_path)]) == 0
        output = capsys.readouterr().out
        assert output.count("#1 task=") == 1 and "#2 task=" not in output
        assert f"#1 task={slowest['task']} outcome=done" in output
        assert f"trace {slowest['trace_id'][:12]} task={slowest['task']}" in output
        assert "driver.execute" in output and "engine.scan" in output
        assert "engine profile: engine=columnstore-1.0 rows=1 plan_cache=not consulted" \
            in output
        assert "phases: " in output
        assert ("scan.chunks_scanned=1" in output) == pushed_down
        # without the store there is no profile to join: said, not guessed
        assert main(["timeline", "--slowest", "5", "--flight-log", str(flight_log)]) == 0
        output = capsys.readouterr().out
        assert output.count("engine profile: none") == len(entries)
