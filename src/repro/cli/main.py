"""``repro-sqalpel`` command line tool.

Sub-commands:

* ``grammar <sql-file>``      -- extract and print the SQALPEL grammar of a query,
* ``space <sql-file>``        -- print tags / templates / space for a query,
* ``table1``                  -- print the Table 1 reproduction,
* ``table2 [--limit N] [--queries 1,6,14]`` -- print the Table 2 reproduction,
* ``demo``                    -- run the end-to-end demo scenario on a tiny
  TPC-H instance (grammar -> pool -> queue -> driver -> analytics),
* ``explain [sql-file] [--tpch N] [--analyze]`` -- print the plan tree (or,
  with ``--analyze``, the traced execution) of a query on a built-in engine,
* ``pipelines``               -- per TPC-H text, how many row-engine
  blocks run on a generated pipeline and how many on the interpreter, and what
  a warm execution's joins cost on either engine: rows put into per-execution
  builds, probes into storage key indexes (row) and key orders (column), the
  rows its base-table scans visit beside the rows of the tables they scan, how
  many aggregate arguments fold through a builtin or a comprehension and how
  many through a generated loop per group, how many base-table scans were
  NULL-free (generated without NULL tests), and the table each benchmarked
  text's joins drive from; exit code 1 when a text the benchmark runs is not
  fully generated, builds a hash table or sorts a build side over an
  unfiltered base table, builds an index or order when warm, carries a scan
  window yet visits the table (row engine) or starts a column scan from the
  whole table, or gathers a plain column's values in a loop; per text also the
  column engine's driving scans -- ``window <interval>`` or ``table`` and the
  rows each starts from, read from the plan-owned scan state -- and the folds
  its aggregated blocks compute per warm execution (one count of the groups'
  rows and one per fold of each distinct aggregate argument) and the Python
  calls of one warm column execution under ``src/repro`` (``calls/exec``: its
  fixed cost, which ``benchmarks/test_bench_kernels.py`` gates),
* ``metrics [--server URL | --store PATH]`` -- pretty-print a platform
  metrics snapshot (live ``/api/metrics`` fetch, or queue counts computed
  offline from a store file),
* ``timeline [--flight-log PATH] [--json PATH]`` -- stitch span records into
  per-task timelines: render a flight-recorder / span JSONL log, or run the
  demo scenario with telemetry enabled and show where each task's time went;
  ``timeline --slowest N [--flight-log PATH [--store PATH]]`` shows the N
  slowest flight-recorder entries, one screen per task: the entry, its
  stitched timeline and the engine profile its result carries under the same
  trace id.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(prog="repro-sqalpel",
                                     description="SQALPEL reproduction tooling")
    commands = parser.add_subparsers(dest="command", required=True)

    grammar_parser = commands.add_parser("grammar", help="extract a grammar from a query")
    grammar_parser.add_argument("sql_file", help="file containing the baseline SQL query")

    space_parser = commands.add_parser("space", help="query-space statistics of a query")
    space_parser.add_argument("sql_file", help="file containing the baseline SQL query")
    space_parser.add_argument("--limit", type=int, default=100_000,
                              help="hard cap on the number of templates")

    commands.add_parser("table1", help="print the Table 1 reproduction")

    table2_parser = commands.add_parser("table2", help="print the Table 2 reproduction")
    table2_parser.add_argument("--limit", type=int, default=20_000)
    table2_parser.add_argument("--queries", default="",
                               help="comma-separated TPC-H query numbers (default: all)")

    demo_parser = commands.add_parser("demo", help="run the end-to-end demo scenario")
    demo_parser.add_argument("--scale-factor", type=float, default=0.001)
    demo_parser.add_argument("--pool-size", type=int, default=12)
    demo_parser.add_argument("--metrics", action="store_true",
                             help="also print the platform metrics snapshot")

    metrics_parser = commands.add_parser(
        "metrics", help="pretty-print a platform metrics snapshot")
    metrics_parser.add_argument("--server", default=None, metavar="URL",
                                help="fetch /api/metrics from a running server")
    metrics_parser.add_argument("--store", default=None, metavar="PATH",
                                help="compute queue counts offline from a store file")
    metrics_parser.add_argument("--json", action="store_true",
                                help="print the raw snapshot as JSON")

    timeline_parser = commands.add_parser(
        "timeline", help="stitch span records into per-task timelines")
    timeline_parser.add_argument("--flight-log", default=None, metavar="PATH",
                                 help="flight-recorder / span JSONL log to render "
                                      "(default: run the telemetry demo)")
    timeline_parser.add_argument("--json", default=None, metavar="PATH",
                                 help="also write the stitched report as JSON")
    timeline_parser.add_argument("--limit", type=int, default=0,
                                 help="show at most N timelines (0 = all)")
    timeline_parser.add_argument("--slowest", type=int, default=0, metavar="N",
                                 help="show the N slowest flight-recorder entries, "
                                      "each with its engine profile")
    timeline_parser.add_argument("--store", default=None, metavar="PATH",
                                 help="with --flight-log and --slowest: the store "
                                      "file whose results carry the engine profiles")
    timeline_parser.add_argument("--scale-factor", type=float, default=0.001)
    timeline_parser.add_argument("--pool-size", type=int, default=6)

    explain_parser = commands.add_parser(
        "explain", help="print the plan (or traced execution) of a query")
    explain_parser.add_argument("sql_file", nargs="?",
                                help="file containing the SQL query")
    explain_parser.add_argument("--tpch", type=int, default=None, metavar="N",
                                help="use built-in TPC-H query N instead of a file")
    explain_parser.add_argument("--engine", choices=("row", "column"),
                                default="column")
    explain_parser.add_argument("--analyze", action="store_true",
                                help="execute the query and print the span tree")
    explain_parser.add_argument("--scale-factor", type=float, default=0.001)

    commands.add_parser(
        "pipelines", help="generated vs interpreted row-engine blocks and both engines' "
                          "join access paths per TPC-H text")

    arguments = parser.parse_args(argv)
    handler = {
        "grammar": _cmd_grammar,
        "space": _cmd_space,
        "table1": _cmd_table1,
        "table2": _cmd_table2,
        "demo": _cmd_demo,
        "explain": _cmd_explain,
        "pipelines": _cmd_pipelines,
        "metrics": _cmd_metrics,
        "timeline": _cmd_timeline,
    }[arguments.command]
    return handler(arguments)


def _read_sql(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _cmd_grammar(arguments) -> int:
    from repro.core import serialize_grammar
    from repro.sqlparser import extract_grammar

    grammar = extract_grammar(_read_sql(arguments.sql_file))
    sys.stdout.write(serialize_grammar(grammar))
    return 0


def _cmd_space(arguments) -> int:
    from repro.core import space_report
    from repro.sqlparser import extract_grammar

    grammar = extract_grammar(_read_sql(arguments.sql_file))
    report = space_report(grammar, limit=arguments.limit)
    print(f"tags={report.tags} templates={report.template_label()} "
          f"space={report.space_label()}")
    return 0


def _cmd_table1(_arguments) -> int:
    from repro.reports import table1_text

    print(table1_text())
    return 0


def _cmd_table2(arguments) -> int:
    from repro.reports import table2_text

    query_ids = None
    if arguments.queries:
        query_ids = [int(chunk) for chunk in arguments.queries.split(",") if chunk]
    print(table2_text(limit=arguments.limit, query_ids=query_ids))
    return 0


def _cmd_explain(arguments) -> int:
    from repro.tpch import QUERIES
    from repro.workflow import build_engines, build_tpch_database

    if arguments.tpch is not None:
        if arguments.tpch not in QUERIES:
            print(f"unknown TPC-H query {arguments.tpch} "
                  f"(available: {', '.join(str(i) for i in sorted(QUERIES))})",
                  file=sys.stderr)
            return 2
        sql = QUERIES[arguments.tpch]
    elif arguments.sql_file:
        sql = _read_sql(arguments.sql_file)
    else:
        print("explain needs a sql-file or --tpch N", file=sys.stderr)
        return 2

    database = build_tpch_database(scale_factor=arguments.scale_factor)
    row_engine, column_engine = build_engines(database)
    engine = row_engine if arguments.engine == "row" else column_engine

    prefix = "explain analyze " if arguments.analyze else "explain "
    result = engine.execute(prefix + sql)
    for (line,) in result.rows:
        print(line)
    stats = engine.cache_stats()
    print(f"plan cache: {stats['hits']} hits, {stats['misses']} misses, "
          f"{stats['size']}/{stats['maxsize']} plans cached")
    return 0


#: the texts ``bench/`` runs on the row engine: the paper's Q1 and ``tpch-mix``.
_BENCHMARKED = (1, 3, 5, 6, 7, 8, 9, 10, 12, 14)


def _builds_unfiltered(pipelines: list[dict]) -> bool:
    """A join side built per execution over an unfiltered base table: what
    storage's key index (row) / key order (column) exists to replace."""
    return any(side["built"] and side["table"] and not side["filtered"]
               for pipeline in pipelines for side in pipeline.get("joins", ()))


def _scanned_rows(database, plan, pipelines: list[dict]) -> int:
    """The rows of the base tables one run of every block scans: the table
    each block drives from, those of its explicit JOIN trees and the join
    sides it builds per execution -- what ``scan.rows_visited`` reads when no
    scan window narrows a driving scan."""
    from repro.sqlparser import ast

    def base_tables(item) -> list[str]:
        if isinstance(item, ast.Join):
            return base_tables(item.left) + base_tables(item.right)
        return [item.name] if isinstance(item, ast.TableRef) else []

    tables = []
    for block, pipeline in zip(plan.blocks.values(), pipelines):
        for level, step in enumerate(block.join_order):
            item = block.select.from_items[step.frame_index]
            if not level or isinstance(item, ast.Join):
                tables += base_tables(item)
        tables += [side["table"] for side in pipeline.get("joins", ())
                   if side["built"] and side["table"]]
    return sum(database.row_count(table) for table in tables)


def _cmd_pipelines(arguments) -> int:
    from functools import partial

    from repro.engine import ColumnEngine, RowEngine
    from repro.obs.metrics import python_calls
    from repro.sqlparser import ast
    from repro.tpch import QUERIES
    from repro.workflow import build_tpch_database

    # a tiny instance: the table counts blocks and rows, it does not time them
    database = build_tpch_database(scale_factor=0.0005)
    engine, column_engine = RowEngine(database), ColumnEngine(database)
    print("query  blocks  generated  interpreted  hooked-exprs  build rows/exec  index probes"
          "  rows scanned / table rows  folds builtin/loop  NULL-free scans"
          "  |  column: sorted rows/exec  order probes  folds/exec  calls/exec"
          "   (block executions; warm; calls: Python calls under src/repro)")
    unlowered, rebuilt, resorted, unwindowed, looped = [], [], [], [], []
    for number in sorted(QUERIES):
        plan = engine.prepare(QUERIES[number])
        pipelines = engine.pipelines(plan)
        engine.execute(plan)  # the first execution builds the indexes the next ones probe
        counters = engine.execute(plan).metrics
        column_plan = column_engine.prepare(QUERIES[number])
        column_engine.execute(column_plan)  # ... and the key orders
        column_counters = column_engine.execute(column_plan).metrics
        column_calls, _ = python_calls(partial(column_engine.execute, column_plan), "repro")
        # read from the plan-owned state the warm executions ran on
        starts = [(block, start) for block, start in zip(
            column_plan.blocks.values(), column_engine.driving_scans(column_plan)) if start]
        hooked = sum(len(pipeline.get("interpreted", ())) for pipeline in pipelines)
        visited = int(counters.get("scan.rows_visited"))
        table_rows = _scanned_rows(database, plan, pipelines)
        # read from the pipeline descriptions EXPLAIN prints (per block, not per execution)
        folds = [fold for pipeline in pipelines for fold in pipeline.get("folds", ())]
        loops = sum(fold["fold"] == "loop" for fold in folds)
        scans = sum(isinstance(block.select.from_items[step.frame_index], ast.TableRef)
                    for block in plan.blocks.values() for step in block.join_order)
        null_free = sum(len(pipeline.get("null_free", ())) for pipeline in pipelines)
        print(f"Q{number:<5} {len(pipelines):>6}  "
              f"{int(counters.get('row.pipeline.generated')):>9}  "
              f"{int(counters.get('row.pipeline.interpreted_blocks')):>11}  {hooked:>12}  "
              f"{int(counters.get('join.build_rows')):>15}  "
              f"{int(counters.get('join.index_probes')):>12}  "
              f"{f'{visited} / {table_rows}':>25}  "
              f"{f'{len(folds) - loops} / {loops}':>18}  {f'{null_free} / {scans}':>15}  |  "
              f"{int(column_counters.get('join.build_rows')):>24}  "
              f"{int(column_counters.get('join.order_probes')):>12}  "
              f"{int(column_counters.get('aggregate.folds')):>10}  {column_calls:>10}")
        for pipeline in pipelines:
            if not pipeline["generated"]:
                print(f"       interpreted block ({', '.join(pipeline['output'])}): "
                      f"{pipeline['fallback']}")
        print("       column scans start from: " + ("; ".join(
            f"{start['access']} {start['rows']} / {start['table_rows']}" for _, start in starts)
            or "no base table drives a block"))
        if number not in _BENCHMARKED:
            continue
        for block in plan.blocks.values():
            if len(block.join_order) > 1:  # the order both engines join in
                names = block.join_names()
                print(f"       drives from {names[0]}: {' -> '.join(names)}")
        if hooked or not all(pipeline["generated"] for pipeline in pipelines):
            unlowered.append(number)
        if any(fold["column"] and fold["fold"] == "loop" for fold in folds):
            looped.append(number)

        for block in plan.blocks.values():
            if block.window is not None:
                print(f"       window {block.window.interval()}, est. "
                      f"{round(block.window.estimated_rows)} of {block.window.table_rows} rows")
        if any(block.window for block in plan.blocks.values()) and visited >= table_rows \
                or any(block.window is not None and (start["access"] == "table"
                                                     or start["rows"] >= start["table_rows"])
                       for block, start in starts):
            unwindowed.append(number)
        if counters.get("join.index_builds") or counters.get("scan.order_builds") \
                or _builds_unfiltered(pipelines):
            rebuilt.append(number)
        if column_counters.get("join.order_builds") \
                or _builds_unfiltered(column_engine.pipelines(column_plan)):
            resorted.append(number)
    for numbers, complaint in (
            (unlowered, "not fully generated"),
            (rebuilt, "build a hash table over an unfiltered base table (or an index / "
                      "order when warm)"),
            (resorted, "sort an unfiltered base table on the column engine"),
            (unwindowed, "carry a scan window yet visit the table (row) or start the "
                         "driving scan from it (column)"),
            (looped, "gather a plain column's aggregate values in a loop per group")):
        if numbers:
            print(f"benchmarked texts {complaint}: "
                  + ", ".join(f"Q{number}" for number in numbers), file=sys.stderr)
    return 1 if unlowered or rebuilt or resorted or unwindowed or looped else 0


def _cmd_demo(arguments) -> int:
    from repro.workflow import run_demo_scenario

    summary = run_demo_scenario(scale_factor=arguments.scale_factor,
                                pool_size=arguments.pool_size)
    print(summary.describe())
    if arguments.metrics and summary.metrics:
        print()
        for line in _metrics_lines(summary.metrics):
            print(line)
    return 0


def _metrics_lines(snapshot: dict) -> list[str]:
    """Render a metrics snapshot as aligned text lines."""
    lines = []
    counters = snapshot.get("counters") or {}
    if counters:
        lines.append("counters:")
        lines.extend(f"  {name:<40} {value}"
                     for name, value in sorted(counters.items()))
    gauges = snapshot.get("gauges") or {}
    if gauges:
        lines.append("gauges:")
        lines.extend(f"  {name:<40} {value:.3f}"
                     for name, value in sorted(gauges.items()))
    histograms = snapshot.get("histograms") or {}
    if histograms:
        lines.append("histograms:")
        for name, summary in sorted(histograms.items()):
            count = summary.get("count", 0)
            if not count:
                continue
            quantiles = " ".join(
                f"{label}={summary[label] * 1000.0:.2f}ms"
                for label in ("p50", "p95", "p99")
                if summary.get(label) is not None)
            lines.append(f"  {name:<40} count={count} "
                         f"mean={(summary.get('mean') or 0.0) * 1000.0:.2f}ms "
                         f"{quantiles}")
    derived = snapshot.get("derived") or {}
    if derived:
        lines.append("derived:")
        lines.extend(f"  {name:<40} {value:.1%}"
                     for name, value in sorted(derived.items()))
    return lines or ["(no metrics recorded)"]


def _store_snapshot(path: str) -> dict:
    """Queue counts computed offline from a platform store file."""
    import time

    from repro.errors import VERDICT_KINDS
    from repro.platform.store import Store

    store = Store(path)
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    now = time.time()
    oldest_lease = None
    for task in store.tasks():
        counters[f"queue.{task.status}"] = counters.get(f"queue.{task.status}", 0) + 1
        if task.status == "running" and task.assigned_at is not None:
            age = now - task.assigned_at
            oldest_lease = age if oldest_lease is None else max(oldest_lease, age)
    results = store.results()
    counters["results.stored"] = len(results)
    # leases that ended in an error, and how many of those the engine refused
    # (dead-lettered on that lease; the others were retried or spent the budget)
    counters["results.failed"] = sum(record.failed for record in results)
    counters["tasks.refused"] = sum(
        record.failed and record.extras.get("error_kind") in VERDICT_KINDS
        for record in results)
    if oldest_lease is not None:
        gauges["queue.oldest_lease_seconds"] = oldest_lease
    return {"counters": counters, "gauges": gauges, "histograms": {}, "derived": {}}


def _cmd_metrics(arguments) -> int:
    import json

    if bool(arguments.server) == bool(arguments.store):
        print("metrics needs exactly one of --server URL or --store PATH",
              file=sys.stderr)
        return 2
    if arguments.server:
        import urllib.request

        url = arguments.server.rstrip("/") + "/api/metrics"
        try:
            with urllib.request.urlopen(url, timeout=10.0) as response:
                snapshot = json.loads(response.read().decode("utf-8"))
        except OSError as exc:
            print(f"cannot fetch {url}: {exc}", file=sys.stderr)
            return 1
    else:
        snapshot = _store_snapshot(arguments.store)
    if arguments.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        for line in _metrics_lines(snapshot):
            print(line)
    return 0


def _slowest_lines(entries: list[dict], profiles: dict[str, dict], count: int) -> list[str]:
    """One screen per task for the ``count`` slowest flight-recorder entries:
    the entry, its stitched timeline, and the engine profile that the task's
    result carries under the same trace id."""
    from repro.analytics import stitch_timelines
    from repro.analytics.profiles import plan_cache_hit

    slowest = sorted(entries, key=lambda entry: entry.get("duration") or 0.0,
                     reverse=True)[:count]
    lines: list[str] = []
    for rank, entry in enumerate(slowest, start=1):
        if lines:
            lines.append("")
        lines.append(f"#{rank} task={entry.get('task')} outcome={entry.get('outcome')} "
                     f"{(entry.get('duration') or 0.0) * 1000:.1f} ms "
                     f"attempts={entry.get('attempts')} dbms={entry.get('dbms')} "
                     f"query={str(entry.get('query_key'))[:60]}")
        if entry.get("outcome") != "done":
            lines.append(f"   reason={entry.get('reason')} "
                         f"last_error={entry.get('last_error')}")
        task = {"trace_id": entry.get("trace_id"), "id": entry.get("task"),
                "attempts": entry.get("attempts")}
        for timeline in stitch_timelines(tasks=[task],
                                         span_sources=[entry.get("spans") or []]):
            lines.extend(timeline.lines())
        profile = profiles.get(entry.get("trace_id"))
        if not profile:
            lines.append("  engine profile: none (the task's result carries no profile)")
            continue
        hit = plan_cache_hit(profile)
        lines.append(f"  engine profile: engine={profile.get('engine')} "
                     f"rows={profile.get('rows')} plan_cache="
                     f"{'not consulted' if hit is None else 'hit' if hit else 'miss'}")
        phases = " ".join(f"{name}={seconds * 1000:.3f}ms"
                          for name, seconds in (profile.get("phases") or {}).items())
        lines.append(f"    phases: {phases or 'n/a'}")
        counters = " ".join(f"{name}={value:g}" for name, value
                            in sorted((profile.get("counters") or {}).items()))
        lines.append(f"    counters: {counters or 'n/a'}")
    return lines


def _cmd_timeline(arguments) -> int:
    import json
    from pathlib import Path as _Path

    from repro.analytics import (profiles_by_trace, read_flight_log, read_span_log,
                                 stitch_timelines, timeline_lines, timeline_report)

    if arguments.flight_log:
        timelines = stitch_timelines(span_sources=[read_span_log(arguments.flight_log)])
        entries = read_flight_log(arguments.flight_log)
        results: list = []
        if arguments.store:
            from repro.platform import Store

            store = Store(arguments.store)
            results = store.results()
            store.close()
    else:
        from repro.obs import TelemetryConfig
        from repro.workflow import run_demo_scenario

        # every task makes the flight recorder when the slowest are asked for
        telemetry = TelemetryConfig(slow_task_seconds=0.0) if arguments.slowest \
            else TelemetryConfig()
        summary = run_demo_scenario(scale_factor=arguments.scale_factor,
                                    pool_size=arguments.pool_size,
                                    telemetry=telemetry)
        timelines = summary.timelines
        entries = summary.service.flight.entries()
        results = summary.service.store.results(summary.experiment.id)
    if arguments.slowest:
        for line in _slowest_lines(entries, profiles_by_trace(results),
                                   arguments.slowest):
            print(line)
    else:
        shown = timelines[:arguments.limit] if arguments.limit > 0 else timelines
        for line in timeline_lines(shown):
            print(line)
        if len(shown) < len(timelines):
            print(f"... {len(timelines) - len(shown)} more timelines "
                  f"(raise --limit to see them)")
    if arguments.json:
        report = timeline_report(timelines)
        _Path(arguments.json).write_text(
            json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")
        print(f"wrote {report['tasks']}-task timeline report to {arguments.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
