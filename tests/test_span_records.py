"""One span record from engine to store.

The engine's ``QueryTrace`` is a flat list of records with the tree as a view;
``export_query_trace`` is one pass over it; ``encode_spans`` / ``decode_spans``
are the one wire and stored form of a task's records (the envelope under
``extras["spans"]`` and in flight-log lines), and the decoder is the one place
that still reads the list of dicts older store files and flight logs hold.
"""

from __future__ import annotations

import json
import re
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import read_flight_log, read_span_log, stitch_timelines
from repro.driver import BatchRunner, DriverConfig, HTTPClient, InProcessClient
from repro.engine import ColumnEngine, Database, RowEngine
from repro.obs import (
    FlightRecorder,
    QueryTrace,
    Span,
    TelemetryConfig,
    decode_spans,
    encode_spans,
    export_query_trace,
    format_trace,
)
from repro.platform import (
    FaultConfig,
    FaultInjector,
    FlakyEngine,
    PlatformServer,
    PlatformService,
)
from repro.platform.models import TaskStatus, new_submission
from repro.tpch import QUERIES
from repro.workflow import build_tpch_database

TRACE = "ab" * 16

# ---------------------------------------------------------------------------
# the trace: a flat list, the tree a view
# ---------------------------------------------------------------------------


def _sample_trace() -> QueryTrace:
    trace = QueryTrace(sql="select 1", engine="test")
    with trace.span("plan", plan_cache="hit"):
        pass
    with trace.span("execute") as execute:
        with trace.span("scan", source="t") as scan:
            scan.set(rows_in=10, rows_out=4)
            # two detached spans, filed once they are closed (as the row
            # engine files the operators of a fused pipeline)
            for _ in range(2):
                trace.adopt(scan, Span("fused").set(rows_out=2).close())
        with trace.span("aggregate") as aggregate:
            aggregate.set(rows_in=4, rows_out=1)
        execute.set(rows_out=1)
    return trace.finish()


class TestFlatTrace:
    def test_records_are_filed_in_opening_order_with_parent_indices(self):
        trace = _sample_trace()
        assert [(span.name, span.parent) for span in trace.records] == [
            ("query", None), ("plan", 0), ("execute", 0), ("scan", 2),
            ("fused", 3), ("fused", 3), ("aggregate", 2)]
        assert [span.index for span in trace.records] == list(range(7))
        assert "sql" not in trace.root.attributes  # the text lives on the trace

    def test_the_tree_is_a_view_over_the_list(self):
        trace = _sample_trace()
        scan = trace.find("scan")
        assert [child.name for child in scan.children] == ["fused", "fused"]
        assert [child.name for child in trace.find("execute").children] \
            == ["scan", "aggregate"]
        assert [span.name for span in trace.spans()] == [
            "query", "plan", "execute", "scan", "fused", "fused", "aggregate"]
        assert Span("detached").children == []
        nested = trace.to_dict()["root"]
        assert [child["name"] for child in nested["children"]] == ["plan", "execute"]
        assert [line.split(" (")[0].strip("│├└─ ") for line in format_trace(trace)[1:]] \
            == [span.name for span in trace.spans()]

    def test_export_is_one_pass_with_the_views_parent_links(self):
        trace = _sample_trace()
        records = export_query_trace(trace, TRACE, parent_span_id="cd" * 8)
        assert [record["name"] for record in records] \
            == [f"engine.{span.name}" for span in trace.records]
        assert len({record["span_id"] for record in records}) == len(records)
        ids = [record["span_id"] for record in records]
        assert [record["parent_span_id"] for record in records] \
            == ["cd" * 8] + [ids[span.parent] for span in trace.records[1:]]
        assert {record["trace_id"] for record in records} == {TRACE}
        scan = records[3]
        assert scan["attributes"] == {"source": "t", "rows_in": 10, "rows_out": 4}
        assert "sql" not in records[0]["attributes"]
        # epoch axis, child windows inside their parent's
        for record, span in zip(records, trace.records):
            assert record["end"] - record["start"] == pytest.approx(span.elapsed, abs=1e-6)
            if span.parent is not None:
                assert record["start"] >= records[span.parent]["start"]


@pytest.fixture(scope="module")
def tpch_db() -> Database:
    return build_tpch_database(scale_factor=0.001)


#: EXPLAIN ANALYZE of a warm Q1 / Q6 as the tree-of-objects trace rendered it
#: (the commit before the flat list), times and pipeline numbers blanked; the
#: column engine's Q6 scan has started from the scan window since it reads one.
RENDERED = {
    ("row", 1): [
        "query (T ms, rows=4)",
        "├─ plan (T ms) [plan_cache=hit]",
        "└─ execute (T ms, rows=4)",
        "   ├─ scan (T ms, rows 5936 -> 5607) [source=lineitem, chunks_scanned=2, "
        "chunks_skipped=0, fused=<rowpipe:N>]",
        "   ├─ pipeline (T ms) [source=<rowpipe:N>]",
        "   │  └─ aggregate (T ms, rows 5607 -> 4) [fused=<rowpipe:N>]",
        "   └─ order (T ms, rows=4)",
    ],
    ("row", 6): [
        "query (T ms, rows=1)",
        "├─ plan (T ms) [plan_cache=hit]",
        "└─ execute (T ms, rows=1)",
        "   ├─ scan (T ms, rows 900 -> 130) [source=lineitem, chunks_scanned=2, "
        "chunks_skipped=0, access=window, window=l_shipdate [1994-01-01, 1995-01-01), "
        "fused=<rowpipe:N>]",
        "   └─ pipeline (T ms) [source=<rowpipe:N>]",
        "      └─ aggregate (T ms, rows 130 -> 1) [fused=<rowpipe:N>]",
    ],
    ("column", 1): [
        "query (T ms, rows=4)",
        "├─ plan (T ms) [plan_cache=hit]",
        "└─ execute (T ms, rows=4)",
        "   ├─ scan (T ms, rows 5936 -> 5607) [source=lineitem, chunks_scanned=2, "
        "chunks_skipped=0, selection_size=5607]",
        "   ├─ aggregate (T ms, rows 5607 -> 4)",
        "   └─ order (T ms, rows=4)",
    ],
    ("column", 6): [
        "query (T ms, rows=1)",
        "├─ plan (T ms) [plan_cache=hit]",
        "└─ execute (T ms, rows=1)",
        "   ├─ scan (T ms, rows 900 -> 130) [source=lineitem, chunks_scanned=2, "
        "chunks_skipped=0, access=window, window=l_shipdate [1994-01-01, 1995-01-01), "
        "selection_size=130]",
        "   └─ aggregate (T ms, rows 130 -> 1)",
    ],
}


@pytest.mark.parametrize("kind,number", sorted(RENDERED))
def test_explain_analyze_renders_the_same_lines(tpch_db, kind, number):
    factory = RowEngine if kind == "row" else ColumnEngine
    engine = factory(tpch_db)
    engine.execute(QUERIES[number])  # warm: the traced run hits the plan cache
    result = engine.execute("explain analyze " + QUERIES[number])
    lines = [re.sub(r"<rowpipe:\d+>", "<rowpipe:N>",
                    re.sub(r"\d+\.\d+ ms", "T ms", row[0])) for row in result.rows]
    assert lines[0].startswith(engine.label + ": select")
    assert lines[1:-2] == RENDERED[kind, number]
    assert lines[-2].startswith("planning:") and lines[-1].startswith("metrics:")


# ---------------------------------------------------------------------------
# the envelope
# ---------------------------------------------------------------------------

_span_ids = st.integers(min_value=1, max_value=2 ** 64 - 1).map("{:016x}".format)
_attributes = st.dictionaries(
    st.sampled_from(["attempt", "rows", "error", "source", "mode", "dedup"]),
    st.one_of(st.integers(-5, 10 ** 6), st.booleans(), st.text(max_size=12),
              st.floats(allow_nan=False, allow_infinity=False, width=32)),
    max_size=4)


@st.composite
def _records(draw) -> list[dict]:
    """Span records of one trace: unique ids; a parent is another record of
    the list, an id outside it (the traceparent a request arrived under), or
    None."""
    ids = draw(st.lists(_span_ids, min_size=1, max_size=8, unique=True))
    outside = draw(_span_ids.filter(lambda value: value not in ids))
    base = draw(st.floats(min_value=1.0e9, max_value=2.0e9))
    records = []
    for span_id in ids:
        start = base + draw(st.floats(min_value=-5.0, max_value=600.0))
        records.append({
            "name": draw(st.sampled_from(["claim", "driver.execute", "engine.scan",
                                          "driver.submit", "submit"])),
            "trace_id": TRACE,
            "span_id": span_id,
            "parent_span_id": draw(st.sampled_from([None, outside, *ids])),
            "start": start,
            "end": start + draw(st.floats(min_value=0.0, max_value=30.0)),
            "attributes": draw(_attributes),
        })
    return records


@settings(max_examples=150, deadline=None)
@given(_records())
def test_envelope_round_trip(records):
    envelope = json.loads(json.dumps(encode_spans(records)))  # as stored / shipped
    decoded = decode_spans(envelope, TRACE)
    assert len(decoded) == len(records)
    for before, after in zip(records, decoded):
        assert set(after) == set(before)
        for key in ("name", "trace_id", "span_id", "parent_span_id", "attributes"):
            assert after[key] == before[key]  # ids and parent links exact
        assert after["start"] == pytest.approx(before["start"], abs=1.001e-6)
        assert after["end"] == pytest.approx(before["end"], abs=1.001e-6)
    # a parent inside the envelope is an index, one outside it stays an id
    inside = {record["span_id"] for record in records}
    for row, record in zip(envelope["records"], records):
        parent = record["parent_span_id"]
        assert row[2] == (parent if parent not in inside
                          else [r["span_id"] for r in records].index(parent))
    # ... and ``skip`` holds back the ids a recorder already supplied
    skipped = {records[0]["span_id"]}
    assert [record["span_id"] for record in decode_spans(envelope, TRACE, skip=skipped)] \
        == [record["span_id"] for record in records[1:]]


def test_envelope_is_smaller_and_carries_no_trace_id_or_none():
    records = [
        {"name": "driver.execute", "trace_id": TRACE, "span_id": "01" * 8,
         "parent_span_id": None, "start": 1759500000.1234567, "end": 1759500000.2234567,
         "attributes": {"task": 3, "attempt": 1, "rows": 4}},
        {"name": "engine.query", "trace_id": TRACE, "span_id": "02" * 8,
         "parent_span_id": "01" * 8, "start": 1759500000.1334567,
         "end": 1759500000.2134567, "attributes": {"rows_out": 4}},
    ]
    envelope = encode_spans(records)
    assert envelope == {"epoch": 1759500000.123457, "records": [
        ["driver.execute", "01" * 8, None, 0, 100000, {"task": 3, "attempt": 1, "rows": 4}],
        ["engine.query", "02" * 8, 0, 10000, 80000, {"rows_out": 4}]]}
    assert len(json.dumps(envelope)) < len(json.dumps(records)) / 2
    assert TRACE not in json.dumps(envelope)
    assert decode_spans(envelope) == []  # an envelope names no trace: say which


MALFORMED = {
    "a string": "spans",
    "a number": 7,
    "an empty dict": {},
    "records not a list": {"epoch": 1.0, "records": "x"},
    "epoch not a number": {"epoch": "now", "records": []},
    "epoch a bool": {"epoch": True, "records": []},
    "a short record": {"epoch": 1.0, "records": [["claim", "cd" * 8, None, 0, 5]]},
    "a record that is a dict": {"epoch": 1.0, "records": [{"name": "claim"}]},
    "a non-hex id": {"epoch": 1.0, "records": [["claim", "zz" * 8, None, 0, 5, {}]]},
    "an id of the wrong width": {"epoch": 1.0, "records": [["claim", "cd" * 7, None, 0, 5, {}]]},
    "a parent index out of range": {"epoch": 1.0,
                                    "records": [["claim", "cd" * 8, 1, 0, 5, {}]]},
    "a negative parent index": {"epoch": 1.0, "records": [["claim", "cd" * 8, -1, 0, 5, {}]]},
    "a parent that is no id": {"epoch": 1.0, "records": [["claim", "cd" * 8, "up", 0, 5, {}]]},
    "a start that is a string": {"epoch": 1.0, "records": [["claim", "cd" * 8, None, "0", 5, {}]]},
    "attributes not a dict": {"epoch": 1.0, "records": [["claim", "cd" * 8, None, 0, 5, []]]},
    "one bad record among good ones": {"epoch": 1.0, "records": [
        ["claim", "cd" * 8, None, 0, 5, {}], ["submit", "ef" * 8, 0, 9]]},
    "a legacy list of junk": [7, "x", None, {"name": "claim"}, {"span_id": "cd" * 8},
                              {"name": "claim", "trace_id": TRACE, "span_id": "cd" * 8,
                               "start": "yesterday"}],
    # the form drivers shipped before the envelope: no longer read
    "a bare list of records": [{"name": "claim", "trace_id": TRACE, "span_id": "cd" * 8,
                                "parent_span_id": None, "start": 1.0, "end": 1.25,
                                "attributes": {}}],
}


@pytest.mark.parametrize("shipped", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_spans_decode_to_nothing(shipped):
    assert decode_spans(shipped, TRACE) == []


def test_malformed_trace_id_decodes_to_nothing():
    envelope = {"epoch": 1.0, "records": [["claim", "cd" * 8, None, 0, 5, {}]]}
    assert len(decode_spans(envelope, TRACE)) == 1
    for trace_id in (None, 7, ["x"]):
        assert decode_spans(envelope, trace_id) == []


# ---------------------------------------------------------------------------
# the platform: stores what arrived, decodes only to ingest
# ---------------------------------------------------------------------------


def _platform(max_attempts=3, **telemetry):
    service = PlatformService(telemetry=TelemetryConfig(**telemetry))
    owner = service.register_user("owner", "owner@example.org")
    contributor = service.register_user("worker", "worker@example.org")
    service.register_dbms("columnstore", "1.0")
    service.register_host("laptop")
    project = service.create_project(owner, "span-records")
    service.invite_contributor(owner, project, contributor)
    experiment = service.add_experiment(
        owner, project, "exp", "select sum(price) from t where id > 0",
        repeats=1, timeout_seconds=60.0, max_attempts=max_attempts)
    pool = service.build_pool(experiment, seed=3)
    pool.seed_baseline()
    service.enqueue_pool(owner, experiment, pool, dbms_label="columnstore-1.0",
                         host_name="laptop")
    return service, contributor, experiment


def _database() -> Database:
    database = Database("span-records")
    database.create_table("t", [("id", "int"), ("price", "float")])
    database.insert_rows("t", [(1, 10.0), (2, 20.0)])
    return database


def _runner(service, contributor, engine, **telemetry) -> BatchRunner:
    config = DriverConfig(key=contributor.contributor_key, dbms="columnstore-1.0",
                          host="laptop", repeats=1, retries=0, trace_tasks=True,
                          telemetry=TelemetryConfig(**telemetry))
    return BatchRunner(client=InProcessClient(service, contributor.contributor_key),
                       engine=engine, config=config)


class TestShippedSpans:
    def test_the_result_stores_the_envelope_and_the_service_ingests_it(self):
        service, contributor, experiment = _platform(slow_task_seconds=0.0)
        runner = _runner(service, contributor, ColumnEngine(_database()),
                         slow_task_seconds=0.0)
        assert runner.run_all(experiment.id) == 1
        task = service.store.tasks(experiment.id)[0]
        record = service.store.results(experiment.id)[0]
        shipped = record.extras["spans"]
        assert set(shipped) == {"epoch", "records"}
        driver_side = runner.spans.spans(task.trace_id)
        # shipped before the submit round trip: everything but driver.submit
        assert [row[0] for row in shipped["records"]] \
            == [span["name"] for span in driver_side if span["name"] != "driver.submit"]
        assert shipped["records"][0][0] == "driver.execute"
        assert shipped["records"][1][:3] == ["engine.query", driver_side[1]["span_id"], 0]
        text = json.dumps(shipped)
        assert task.trace_id not in text and "select sum" not in text.lower()
        # no ``error: None``: the one null is driver.execute's missing parent
        assert text.count("null") == 1 and shipped["records"][0][2] is None
        # the server's recorder holds each shipped record once, as a record
        ingested = [span for span in service.spans.spans(task.trace_id)
                    if span["name"].startswith(("driver.", "engine."))]
        assert [span["span_id"] for span in ingested] \
            == [row[1] for row in shipped["records"]]
        assert ingested[1]["parent_span_id"] == ingested[0]["span_id"]
        # and the stitcher reads the stored envelope through the same decoder
        from_store = stitch_timelines(tasks=[task], results=[record])[0]
        assert from_store.span_names() == [row[0] for row in shipped["records"]]
        everything = stitch_timelines(tasks=[task], results=[record],
                                      span_sources=[service.spans, runner.spans])[0]
        assert len(everything.spans) == len({span["span_id"] for span in everything.spans})

    def test_a_retried_task_reshipping_its_spans_is_ingested_once(self):
        service, contributor, experiment = _platform()
        engine = ColumnEngine(_database())
        flaky = FlakyEngine(engine, FaultInjector(FaultConfig(fail_task=1.0), seed=9))
        runner = _runner(service, contributor, flaky)
        assert runner.run_batch(experiment.id, count=1) == 1  # attempt 1 fails
        runner.engine = engine
        assert runner.run_batch(experiment.id, count=1) == 1  # attempt 2 delivers
        task = service.store.tasks(experiment.id)[0]
        assert (task.status, task.attempts) == (TaskStatus.DONE.value, 2)
        first, second = service.store.results(experiment.id)
        # the second submission re-ships the first attempt's records too ...
        first_ids = [row[1] for row in first.extras["spans"]["records"]]
        second_ids = [row[1] for row in second.extras["spans"]["records"]]
        assert second_ids[:len(first_ids)] == first_ids and len(second_ids) > len(first_ids)
        # ... and the server's recorder still holds each exactly once
        ingested = [span["span_id"] for span in service.spans.spans(task.trace_id)
                    if span["name"].startswith(("driver.", "engine."))]
        assert sorted(ingested) == sorted(set(second_ids))
        executes = [span for span in service.spans.spans(task.trace_id)
                    if span["name"] == "driver.execute"]
        assert [span["attributes"]["attempt"] for span in executes] == [1, 2]

    @pytest.mark.parametrize("shipped", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_spans_never_fail_a_submission(self, shipped):
        service, contributor, experiment = _platform(slow_task_seconds=0.0)
        task, = service.next_tasks(contributor, experiment)
        before = len(service.spans)
        record = service.submit_results(contributor, [new_submission(
            task, times=[0.1], attempt=task.attempts,
            extras={"trace_id": task.trace_id, "spans": shipped})])[0]
        assert record is not None and task.status == TaskStatus.DONE.value
        stored = service.store.results(experiment.id)[0]
        assert stored.extras["spans"] == shipped  # stored as sent
        # ingested as nothing: the only new record is the server's own submit
        assert [span["name"] for span in service.spans.spans()[before:]] == ["submit"]
        entry = service.flight.entries()[0]
        assert "submit" in [span["name"] for span in entry["spans"]]
        assert stitch_timelines(tasks=[task], results=[stored],
                                span_sources=[service.spans])[0].outcome == "done"

    def test_the_service_reads_the_envelope_under_the_tasks_own_trace_id(self):
        """``extras["trace_id"]`` is the contributor's word; the service files
        the records under the id it minted, whatever the extras claim."""
        service, contributor, experiment = _platform()
        task, = service.next_tasks(contributor, experiment)
        envelope = {"epoch": 1.0, "records": [["claim", "cd" * 8, None, 0, 5, {}]]}
        record = service.submit_results(contributor, [new_submission(
            task, times=[0.1], attempt=task.attempts,
            extras={"trace_id": ["not", "hashable"], "spans": envelope})])[0]
        assert record is not None and task.status == TaskStatus.DONE.value
        assert "cd" * 8 in [span["span_id"] for span in service.spans.spans(task.trace_id)]
        # the stitcher has only the extras to go by: no trace id, no records
        assert stitch_timelines(results=[record]) == []

    @pytest.mark.parametrize("name", ["a string", "a short record", "a non-hex id",
                                      "a parent index out of range"])
    def test_malformed_spans_over_http(self, name):
        service, contributor, experiment = _platform(slow_task_seconds=0.0)
        with PlatformServer(service) as server:
            client = HTTPClient(server.url, contributor.contributor_key)
            task = client.next_tasks(experiment.id, count=1)[0]
            accepted = client.submit_results([{
                "task": task["id"], "times": [0.1], "error": None,
                "load_averages": {}, "attempt": task["attempts"],
                "idempotency_key": "k" * 32,
                "extras": {"trace_id": task["trace_id"], "spans": MALFORMED[name]}}])
            assert accepted[0] is not None and accepted[0]["error"] is None
            request = urllib.request.Request(
                f"{server.url}/api/results?experiment={experiment.id}",
                headers={"X-Sqalpel-Key": contributor.contributor_key})
            with urllib.request.urlopen(request) as response:
                listed = json.loads(response.read().decode("utf-8"))
        assert listed[0]["extras"]["spans"] == MALFORMED[name]
        assert service.store.tasks(experiment.id)[0].status == TaskStatus.DONE.value
        assert not [span for span in service.spans.spans(task["trace_id"])
                    if span["name"].startswith(("driver.", "engine."))]


class TestFlightLog:
    def test_the_sink_holds_the_envelope_and_reads_back_the_entry(self, tmp_path):
        sink = tmp_path / "flight.jsonl"
        recorder = FlightRecorder(capacity=4, slow_task_seconds=0.0, sink_path=str(sink))
        spans = [
            {"name": "claim", "trace_id": TRACE, "span_id": "cd" * 8,
             "parent_span_id": "ee" * 8, "start": 1.0, "end": 1.25,
             "attributes": {"attempt": 1}},
            {"name": "submit", "trace_id": TRACE, "span_id": "ef" * 8,
             "parent_span_id": "cd" * 8, "start": 2.0, "end": 2.5,
             "attributes": {"outcome": "dead_letter"}},
        ]
        entry = recorder.record(7, TRACE, "dead_letter", duration=2.0, spans=spans,
                                last_error="boom", attempts=3)
        assert entry["spans"] == spans  # in memory: the records
        line = json.loads(sink.read_text())
        assert line["spans"] == {"epoch": 1.0, "records": [
            ["claim", "cd" * 8, "ee" * 8, 0, 250000, {"attempt": 1}],
            ["submit", "ef" * 8, 0, 1000000, 500000, {"outcome": "dead_letter"}]]}
        assert read_flight_log(sink) == [entry]
        assert read_span_log(sink) == spans

    def test_a_flight_log_of_the_commit_before_reads_the_same(self, tmp_path):
        """A pre-envelope line (a bare span list) still reads back as its
        entry, its spans dropped; the blank line and the half-written tail
        a crashed process leaves are skipped."""
        spans = [{"name": "claim", "trace_id": TRACE, "span_id": "cd" * 8,
                  "parent_span_id": None, "start": 1.0, "end": 1.1,
                  "attributes": {"attempt": 1}}]
        old_line = {"task": 7, "trace_id": TRACE, "outcome": "dead_letter",
                    "duration": 2.0, "spans": spans, "last_error": "boom"}
        sink = tmp_path / "flight.jsonl"
        sink.write_text(json.dumps(old_line) + "\n\n{half a li")
        assert read_flight_log(sink) == [{**old_line, "spans": []}]
        assert read_span_log(sink) == []
