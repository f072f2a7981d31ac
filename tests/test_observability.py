"""Tests for the observability layer: traces, metrics, EXPLAIN (ANALYZE).

Covers the span-tree primitives, per-query metrics contexts (including their
independence across concurrent executions), the metrics registry behind the
platform's ``/api/metrics`` endpoint, EXPLAIN / EXPLAIN ANALYZE through both
engines, phase timings around the plan cache, the driver's profile extras
and the analytics profile report built from them.
"""

from __future__ import annotations

import json
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analytics import profile_report
from repro.engine import ColumnEngine, Database, EngineOptions, RowEngine
from repro.obs import (
    Counter,
    Histogram,
    MetricsContext,
    MetricsRegistry,
    NULL_SPAN,
    QueryTrace,
    count,
    current_metrics,
    format_trace,
)
from repro.tpch import QUERIES
from repro.workflow import build_tpch_database


@pytest.fixture(scope="module")
def tpch_db() -> Database:
    return build_tpch_database(scale_factor=0.001)


@pytest.fixture()
def clustered_db() -> Database:
    """Values clustered by chunk, so zone maps can refute whole chunks."""
    database = Database("clustered", chunk_rows=10)
    database.create_table("t", [("x", "int"), ("tag", "str")])
    database.insert_rows("t", [(value, f"tag{value % 3}") for value in range(30)])
    return database


# ---------------------------------------------------------------------------
# trace primitives
# ---------------------------------------------------------------------------


class TestQueryTrace:
    def test_spans_nest_and_close(self):
        trace = QueryTrace(sql="select 1", engine="test")
        with trace.span("execute"):
            with trace.span("scan", source="t") as scan:
                scan.set(rows_in=10, rows_out=4)
        trace.finish()
        execute = trace.find("execute")
        scan = trace.find("scan")
        assert execute is not None and scan in execute.children
        assert scan.rows_in == 10 and scan.rows_out == 4
        assert scan.attributes["source"] == "t"
        assert scan.started >= execute.started
        assert scan.ended is not None and scan.ended <= execute.ended
        assert trace.root.ended is not None

    def test_find_all_and_walk_are_preorder(self):
        trace = QueryTrace()
        with trace.span("execute"):
            with trace.span("scan"):
                pass
            with trace.span("scan"):
                pass
        trace.finish()
        assert [span.name for span in trace.spans()] == \
            ["query", "execute", "scan", "scan"]
        assert len(trace.find_all("scan")) == 2

    def test_to_dict_round_trips_through_json(self):
        trace = QueryTrace(sql="select 1", engine="e")
        with trace.span("execute", detail="x"):
            pass
        payload = json.loads(json.dumps(trace.finish().to_dict()))
        assert payload["engine"] == "e"
        assert payload["root"]["children"][0]["attributes"] == {"detail": "x"}

    def test_null_span_is_inert(self):
        with NULL_SPAN as span:
            assert span.set(rows_in=1, rows_out=2, anything="goes") is span

    def test_format_trace_draws_the_tree(self):
        trace = QueryTrace(sql="select *\n  from t", engine="row")
        with trace.span("execute"):
            with trace.span("scan", source="t") as scan:
                scan.set(rows_out=3)
        lines = format_trace(trace.finish())
        assert lines[0] == "row: select * from t"  # header flattens the SQL
        assert lines[1].startswith("query (")
        assert any("└─ scan" in line and "[source=t]" in line for line in lines)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestMetricsContext:
    def test_counts_only_inside_active_context(self):
        context = MetricsContext()
        count("orphan")  # no active context: dropped, not an error
        with context.activate():
            count("scan.chunks_scanned", 3)
            count("scan.chunks_scanned")
        count("scan.chunks_scanned")  # deactivated again
        assert context.get("scan.chunks_scanned") == 4
        assert context.snapshot() == {"scan.chunks_scanned": 4}
        assert current_metrics() is None

    def test_scan_efficiency(self):
        context = MetricsContext()
        with context.activate():
            count("scan.chunks_scanned", 1)
            count("scan.chunks_skipped", 3)
        assert context.scan_efficiency() == 0.75
        assert MetricsContext().scan_efficiency() is None

    def test_concurrent_executions_keep_independent_contexts(self, clustered_db):
        engine = ColumnEngine(clustered_db)
        queries = ["select count(*) from t where x > 25",
                   "select count(*) from t where x >= 0"]

        def run(sql):
            return engine.execute(sql)

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run, queries * 8))
        for index, result in enumerate(results):
            scanned = result.metrics.get("scan.chunks_scanned")
            skipped = result.metrics.get("scan.chunks_skipped")
            # each context saw exactly one table scan, never a neighbour's
            assert scanned + skipped == 3, f"query {index} leaked metrics"
            if index % 2 == 0:
                assert skipped == 2  # x > 25 refutes chunks [0,10) and [10,20)


class TestMetricsRegistry:
    def test_counter_and_histogram(self):
        registry = MetricsRegistry()
        registry.counter("tasks.enqueued").inc(3)
        registry.counter("tasks.enqueued").inc()
        for value in (0.2, 0.4, 0.6):
            registry.histogram("results.best_seconds").observe(value)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["tasks.enqueued"] == 4
        summary = snapshot["histograms"]["results.best_seconds"]
        assert summary["count"] == 3
        assert summary["min"] == 0.2 and summary["max"] == 0.6
        assert summary["mean"] == pytest.approx(0.4)

    def test_primitives(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        histogram = Histogram("h")
        assert histogram.summary() == {"count": 0, "sum": 0.0, "min": None,
                                       "max": None, "mean": None,
                                       "p50": None, "p95": None, "p99": None}
        for value in range(1, 101):
            histogram.observe(float(value))
        summary = histogram.summary()
        assert summary["p50"] == 51.0
        assert summary["p95"] == 96.0
        assert summary["p99"] == 100.0


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------


class TestEngineTracing:
    @pytest.mark.parametrize("engine_cls", [RowEngine, ColumnEngine])
    def test_q6_trace_has_operator_spans(self, tpch_db, engine_cls):
        engine = engine_cls(tpch_db)
        result = engine.execute(QUERIES[6], trace=True)
        trace = result.trace
        assert trace is not None and trace.engine == engine.label
        assert trace.root.rows_out == len(result.rows) == 1
        assert trace.find("execute") is not None
        scan = trace.find("scan")
        assert scan is not None and scan.attributes["source"] == "lineitem"
        assert trace.find("aggregate") is not None

    def test_untraced_execution_has_no_trace(self, tpch_db):
        result = ColumnEngine(tpch_db).execute(QUERIES[6])
        assert result.trace is None
        assert result.metrics is not None  # metrics are always on

    def test_scan_span_matches_zone_map_gate(self, clustered_db):
        engine = ColumnEngine(clustered_db)
        result = engine.execute("select count(*) from t where x > 25", trace=True)
        scan = result.trace.find("scan")
        scanned = scan.attributes["chunks_scanned"]
        skipped = scan.attributes["chunks_skipped"]
        assert skipped == 2 and scanned == 1
        # the span numbers are the zone-map gate numbers, not a parallel count
        assert scanned == result.metrics.get("scan.chunks_scanned")
        assert skipped == result.metrics.get("scan.chunks_skipped")
        assert result.metrics.scan_efficiency() == pytest.approx(2 / 3)

    def test_row_engine_scan_span_covers_all_chunks(self, clustered_db):
        engine = RowEngine(clustered_db)
        result = engine.execute("select count(*) from t where x > 25", trace=True)
        scan = result.trace.find("scan")
        assert scan.attributes["chunks_scanned"] == 3
        assert scan.attributes["chunks_skipped"] == 0


class TestPhases:
    def test_plan_cache_hit_skips_planning_work(self, clustered_db):
        engine = ColumnEngine(clustered_db)
        sql = "select count(*) from t where x > 5"
        cold = engine.execute(sql)
        warm = engine.execute(sql)
        assert set(cold.phases) == {"planning", "compile", "execute"}
        assert cold.phases["planning"] > 0
        assert not cold.profile()["plan_cache_hit"]
        assert warm.profile()["plan_cache_hit"]
        # a cache hit pays only the lookup -- no parse/plan, no compile
        assert warm.phases["planning"] < cold.phases["planning"]
        assert warm.phases["compile"] == 0.0

    def test_prepared_plan_did_not_consult_the_cache(self, clustered_db):
        engine = ColumnEngine(clustered_db)
        plan = engine.prepare("select count(*) from t")
        result = engine.execute(plan)
        # handed a plan, the execution cannot say what the cache would have
        # done: unknown, not a hit (engine.cache_stats() reads 0 hits here).
        assert result.profile()["plan_cache_hit"] is None
        assert engine.cache_stats()["hits"] == 0

    def test_profile_shape(self, clustered_db):
        engine = ColumnEngine(clustered_db)
        profile = engine.execute("select count(*) from t where x > 25").profile()
        assert profile["engine"] == engine.label
        assert profile["rows"] == 1
        assert profile["counters"]["scan.chunks_skipped"] == 2
        assert profile["scan_efficiency"] == pytest.approx(2 / 3)


class TestExplain:
    @pytest.mark.parametrize("engine_cls", [RowEngine, ColumnEngine])
    def test_explain_renders_plan_without_executing(self, tpch_db, engine_cls):
        engine = engine_cls(tpch_db)
        result = engine.execute("explain " + QUERIES[6])
        assert result.columns == ["plan"]
        text = "\n".join(line for (line,) in result.rows)
        assert "Aggregate" in text and "Scan lineitem" in text
        assert "pushdown" in text

    @pytest.mark.parametrize("engine_cls", [RowEngine, ColumnEngine])
    def test_explain_analyze_renders_span_tree(self, tpch_db, engine_cls):
        engine = engine_cls(tpch_db)
        result = engine.execute("EXPLAIN ANALYZE " + QUERIES[6])
        assert result.columns == ["plan"]
        assert result.trace is not None
        text = "\n".join(line for (line,) in result.rows)
        assert "execute" in text and "scan" in text
        assert "chunks_scanned=" in text
        assert "planning:" in text and "execute:" in text
        assert "metrics:" in text

    def test_explain_analyze_footer_reports_cache_hit(self, tpch_db):
        engine = ColumnEngine(tpch_db)
        engine.execute(QUERIES[6])
        result = engine.execute("explain analyze " + QUERIES[6])
        text = "\n".join(line for (line,) in result.rows)
        assert "plan cache hit" in text

    def test_explain_dict_carries_plan_tree(self, tpch_db):
        engine = ColumnEngine(tpch_db)
        description = engine.explain(QUERIES[6])
        assert any("Scan lineitem" in line for line in description["plan_tree"])


# ---------------------------------------------------------------------------
# join / grouping kernels: which path the rows took
# ---------------------------------------------------------------------------

#: bench/workloads.py's ``tpch-mix`` texts, plus the paper's running example.
TPCH_MIX = (3, 5, 6, 7, 8, 9, 10, 12, 14)


class TestKeyKernelCounters:
    @pytest.mark.parametrize("number", TPCH_MIX + (1,))
    def test_benchmark_queries_never_take_the_dict_fallback(self, tpch_db, number):
        """Integer join keys and dictionary-coded group keys stay in numpy on
        every query the platform benchmarks; a slide back onto the dict pass
        (a lost code vector, a key column decoded to objects) fails here
        rather than in a benchmark."""
        engine = ColumnEngine(tpch_db)
        select = engine.prepare(QUERIES[number]).select
        result = engine.execute(QUERIES[number])
        assert result.metrics.get("join.fallback_rows") == 0
        assert result.metrics.get("group.fallback_rows") == 0
        joins = len(select.from_items) > 1 or any(
            len(inner.from_items) > 1 for inner in select.subqueries())
        assert bool(result.metrics.get("join.kernel_rows")) == joins
        if select.group_by:
            assert result.metrics.get("group.kernel_rows") > 0

    def test_string_keys_without_a_dictionary_are_counted_as_fallback(self, tpch_db):
        engine = ColumnEngine(tpch_db, options=EngineOptions(dictionary_encoding=False))
        result = engine.execute(QUERIES[1])
        assert result.metrics.get("group.fallback_rows") > 0
        assert result.metrics.get("group.kernel_rows") == 0

    @pytest.mark.parametrize("workers", [1, 4])
    def test_worker_threads_report_their_rows(self, tpch_db, workers):
        engine = ColumnEngine(tpch_db, options=EngineOptions(workers=workers))
        scanned = engine.execute(
            "select count(*) from lineitem where l_shipdate <= date '1998-09-02'").scalar()
        result = engine.execute(QUERIES[1])
        assert result.metrics.get("group.kernel_rows") == scanned

    @pytest.mark.parametrize("engine_cls", [RowEngine, ColumnEngine])
    def test_join_span_reports_probe_build_and_output_rows(self, tpch_db, engine_cls):
        result = engine_cls(tpch_db).execute(
            "select count(*) from orders, lineitem where o_orderkey = l_orderkey",
            trace=True)
        span = result.trace.find("join")
        assert span.rows_in == tpch_db.row_count("orders")
        assert span.rows_out == tpch_db.row_count("lineitem") == result.scalar()
        # neither engine builds anything: both probe storage's lineitem(l_orderkey),
        # the column engine its key order, the row engine its key index
        assert span.attributes["build_rows"] == 0
        if engine_cls is ColumnEngine:
            assert result.metrics.get("join.order_probes") == 1
        else:
            probed = result.trace.find_all("scan")[1]
            assert probed.attributes["access"] == "index"
            assert probed.rows_in == probed.rows_out == tpch_db.row_count("lineitem")
            assert result.metrics.get("join.index_probes") == span.rows_in

    def test_explain_analyze_shows_kernel_rows(self, tpch_db):
        result = ColumnEngine(tpch_db).execute("explain analyze " + QUERIES[3])
        text = "\n".join(line for (line,) in result.rows)
        assert "build_rows=" in text
        assert "join.kernel_rows=" in text and "group.kernel_rows=" in text
        assert "fallback_rows" not in text


# ---------------------------------------------------------------------------
# platform + driver + analytics surfaces
# ---------------------------------------------------------------------------


class TestPlatformMetrics:
    def _service_with_results(self):
        from repro.platform import PlatformService

        service = PlatformService()
        owner = service.register_user("owner", "owner@example.org")
        contributor = service.register_user("contrib", "contrib@example.org")
        dbms = service.register_dbms("columnstore", "1.0")
        host = service.register_host("laptop", cpu="x86", memory_gb=8, os="linux")
        project = service.create_project(owner, "tpch", synopsis="demo")
        service.invite_contributor(owner, project, contributor)
        experiment = service.add_experiment(owner, project, "q6", QUERIES[6],
                                            dbms=dbms, host=host, repeats=2,
                                            timeout_seconds=30)
        pool = service.build_pool(experiment)
        pool.seed_baseline()
        service.enqueue_pool(owner, experiment, pool, "columnstore-1.0", "laptop")
        return service, contributor, experiment

    def test_service_counts_queue_and_result_traffic(self):
        service, contributor, experiment = self._service_with_results()
        task = service.next_task(contributor, experiment)
        service.submit_result(contributor, task, times=[0.05, 0.04])
        snapshot = service.metrics.snapshot()
        assert snapshot["counters"]["tasks.enqueued"] == 1
        assert snapshot["counters"]["tasks.dispatched"] == 1
        assert snapshot["counters"]["results.accepted"] == 1
        best = snapshot["histograms"]["results.best_seconds"]
        assert best["count"] == 1 and best["min"] == pytest.approx(0.04)

    def test_service_sums_the_engines_kernel_rows(self):
        """``/api/metrics`` shows which join / grouping path contributors'
        engines took, from the profiles riding on accepted results."""
        service, contributor, experiment = self._service_with_results()
        task = service.next_task(contributor, experiment)
        counters = {"join.kernel_rows": 120, "group.fallback_rows": 7,
                    "scan.chunks_scanned": 3, "join.fallback_rows": "many",
                    "join.index_probes": 40, "join.index_builds": 2, "join.build_rows": 9,
                    "join.order_probes": 5, "join.order_builds": 1}
        service.submit_result(contributor, task, times=[0.05],
                              extras={"profile": {"counters": counters}})
        snapshot = service.metrics.snapshot()["counters"]
        assert snapshot["engine.join.kernel_rows"] == 120
        assert snapshot["engine.group.fallback_rows"] == 7
        assert (snapshot["engine.join.index_probes"], snapshot["engine.join.index_builds"],
                snapshot["engine.join.build_rows"]) == (40, 2, 9)
        assert (snapshot["engine.join.order_probes"],
                snapshot["engine.join.order_builds"]) == (5, 1)
        assert not any(name.startswith("engine.scan") or name == "engine.join.fallback_rows"
                       for name in snapshot)

    def test_metrics_endpoint(self):
        from repro.platform import PlatformServer

        service, contributor, experiment = self._service_with_results()
        with PlatformServer(service) as server:
            with urllib.request.urlopen(server.url + "/api/metrics") as response:
                payload = json.loads(response.read().decode("utf-8"))
        assert payload["counters"]["tasks.enqueued"] == 1


class TestDriverProfiles:
    def test_measure_query_attaches_profile(self, clustered_db):
        from repro.driver.runner import measure_query

        engine = ColumnEngine(clustered_db)
        outcome = measure_query(engine, "select count(*) from t where x > 25",
                                repeats=2)
        profile = outcome.extras["profile"]
        assert profile["engine"] == engine.label
        assert profile["counters"]["scan.chunks_skipped"] == 2
        assert profile["plan_cache_hit"] is None  # repetitions run the prepared plan

    def test_failed_query_has_no_profile(self, clustered_db):
        from repro.driver.runner import measure_query

        outcome = measure_query(ColumnEngine(clustered_db),
                                "select nope from t", repeats=1)
        assert outcome.failed
        assert "profile" not in outcome.extras


class TestProfileReport:
    def test_aggregates_profiles_per_system(self):
        records = [
            {"dbms_label": "columnstore-1.0", "extras": {"profile": {
                "engine": "columnstore-1.0", "rows": 1,
                "phases": {"planning": 0.001, "execute": 0.002},
                "counters": {"scan.chunks_scanned": 1, "scan.chunks_skipped": 3,
                             "frame.materialisations": 2},
                "plan_cache_hit": True}}},
            {"dbms_label": "columnstore-1.0", "extras": {"profile": {
                "engine": "columnstore-1.0", "rows": 1,
                "phases": {"planning": 0.0, "execute": 0.004},
                "counters": {"scan.chunks_scanned": 3, "scan.chunks_skipped": 1},
                "plan_cache_hit": False}}},
            # two runs on a prepared plan, the second as stores written before
            # "unknown" existed hold it: neither enters the hit rate
            {"dbms_label": "columnstore-1.0", "extras": {"profile": {
                "engine": "columnstore-1.0", "rows": 1, "phases": {},
                "counters": {"plan.prepared": 1}, "plan_cache_hit": None}}},
            {"dbms_label": "columnstore-1.0", "extras": {"profile": {
                "engine": "columnstore-1.0", "rows": 1, "phases": {},
                "counters": {"plan.prepared": 1}, "plan_cache_hit": True}}},
            {"dbms_label": "rowstore-1.0", "extras": {}},  # no profile submitted
        ]
        report = profile_report(records)
        column = report.engines["columnstore-1.0"]
        assert column.queries == 4 and column.profiled == 4
        assert column.plan_cache_lookups == 2
        assert column.scan_efficiency == pytest.approx(0.5)
        assert column.plan_cache_hit_rate == pytest.approx(0.5)
        assert column.phase_seconds["execute"] == pytest.approx(0.006)
        row = report.engines["rowstore-1.0"]
        assert row.queries == 1 and row.profiled == 0
        assert row.scan_efficiency is None and row.plan_cache_hit_rate is None
        assert "columnstore-1.0" in report.describe()
        assert any("scan_efficiency=50.0%" in line for line in report.lines())

    def test_accepts_result_record_objects(self, clustered_db):
        from repro.driver.runner import measure_query

        engine = ColumnEngine(clustered_db)
        outcome = measure_query(engine, "select count(*) from t where x > 25")

        class Record:
            dbms_label = engine.label
            extras = outcome.extras

        report = profile_report([Record()])
        assert report.engines[engine.label].scan_efficiency == pytest.approx(2 / 3)


class TestCLIExplain:
    def test_explain_tpch_prints_plan_and_cache_stats(self, capsys):
        from repro.cli.main import main

        assert main(["explain", "--tpch", "6", "--engine", "column"]) == 0
        out = capsys.readouterr().out
        assert "Scan lineitem" in out
        assert "plan cache:" in out

    def test_explain_analyze_prints_span_tree(self, capsys):
        from repro.cli.main import main

        assert main(["explain", "--tpch", "6", "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "scan" in out and "chunks_scanned=" in out

    def test_explain_without_input_fails(self, capsys):
        from repro.cli.main import main

        assert main(["explain"]) == 2
