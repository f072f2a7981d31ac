"""Kernel-compilation benchmark: generated pipelines (row engine) and compiled
kernels (column engine) vs the recursive interpreters.

The driver executes every pool query five-plus times per target system over a
prepared plan; what is compiled hangs off that cached plan, so the repetition
loop pays near-zero per-tuple dispatch.  This benchmark quantifies the warm
speedup on the paper's running examples -- TPC-H Q1 (aggregation-heavy, the
row engine's worst case for per-row interpretation) and Q6 (scan-dominated)
-- for both engines in both modes, and acts as the CI perf-regression gate.
On the row engine both queries compare one generated function against the
interpreter and must stay 10x apart (see ``BENCH_kernels.json`` for the
recorded speedups).  On the column engine both modes run the one pipeline and
differ in ``compile_expressions`` alone: the ratios (Q1 ~1.3x, Q6 ~1.3-1.4x
of a 0.11 ms query) are recorded, not gated -- a threshold the toggle's whole
effect sits on measures the box -- and the column gate is the exact count of
frames a warm Q6 builds.

Both engines' join access paths are gated on counts, not on a ratio of
timings: a warm execution of Q9 probes storage key indexes (row) / key orders
(column) and neither builds one nor fills a hash table or sorts a build side
(``join.index_builds`` / ``join.order_builds`` / ``join.build_rows``), and a
warm pass over the nine ``tpch-mix`` texts stays under the build rows and index
probes the statistics-costed join orders brought it down to.  So is the scan
access path: the rows a warm pass's driving scans visit are exact counts, a
window's for Q6 / Q10 / Q12 / Q14, the table's for the rest and for Q1.

A run writes ``BENCH_kernels.json`` (into the shared ``artifact_dir``:
``BENCH_ARTIFACT_DIR``, else the git-ignored ``bench-artifacts/``) so CI can
track the perf trajectory.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.engine import ColumnEngine, EngineOptions, RowEngine
from repro.tpch import QUERIES
from repro.workflow import build_tpch_database

#: (query id, engine kind, repetitions per timing loop, gate or None)
MATRIX = [
    (1, "row", 6, 10.0),
    (6, "row", 6, 10.0),
    (1, "column", 25, None),
    (6, "column", 60, None),
]

INTERPRETED = EngineOptions(compile_expressions=False)
COMPILED = EngineOptions(compile_expressions=True)


@pytest.fixture(scope="module")
def tpch_db():
    return build_tpch_database(scale_factor=0.001)


def _make_engine(kind: str, database, options: EngineOptions):
    factory = RowEngine if kind == "row" else ColumnEngine
    return factory(database, options=options)


def _warm_seconds(engine, sql: str, repetitions: int, rounds: int = 3) -> float:
    """Best per-execution time over ``rounds`` timing loops of a prepared plan."""
    plan = engine.prepare(sql)
    engine.execute(plan)  # warm: kernels, columnar views, caches
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(repetitions):
            engine.execute(plan)
        best = min(best, time.perf_counter() - started)
    return best / repetitions


def _frames_per_execution(engine, sql: str) -> int:
    plan = engine.prepare(sql)
    engine.execute(plan)
    result = engine.execute(plan)
    return int(result.metrics.get("frame.materialisations"))


def test_warm_joins_probe_indexes_and_build_nothing(tpch_db):
    """Q9 joins five unfiltered base tables to a filtered ``part``: after the
    first execution every one of them is a probe into an index storage kept."""
    engine = _make_engine("row", tpch_db, COMPILED)
    plan = engine.prepare(QUERIES[9])
    engine.execute(plan)
    for _ in range(2):
        counters = engine.execute(plan).metrics
        assert counters.get("join.build_rows") == 0
        assert counters.get("join.index_builds") == 0
        assert counters.get("join.index_probes") > 0


#: bench/workloads.py's ``tpch-mix`` texts.
TPCH_MIX = (3, 5, 6, 7, 8, 9, 10, 12, 14)


@pytest.fixture(scope="module")
def warm_pass():
    """One warm pass over Q1 and the nine ``tpch-mix`` texts at the workload's
    scale factor on either engine, counted not timed: per (engine kind, text)
    the counters of the second execution, and the database."""
    database = build_tpch_database(scale_factor=0.004)
    counters = {}
    for kind in ("row", "column"):
        engine = _make_engine(kind, database, COMPILED)
        for number in (1, *TPCH_MIX):
            plan = engine.prepare(QUERIES[number])
            engine.execute(plan)
            counters[kind, number] = engine.execute(plan).metrics.snapshot()
    return counters, database


def test_costed_join_orders_keep_a_warm_tpch_mix_pass_off_the_builds(warm_pass):
    """The nine ``tpch-mix`` texts.  Joined in FROM order the row engine put 8 039
    rows into per-execution hash tables and made 30 288 index probes (Q7 alone
    dragged 6 835 ``lineitem`` rows through three joins), the column engine
    sorted 7 176 build-side rows; driving every block from its most selective
    table, the row engine builds nothing and probes a quarter as often."""
    warm, _ = warm_pass
    counters = {kind: {name: sum(int(warm[kind, number].get(name, 0)) for number in TPCH_MIX)
                       for name in ("join.build_rows", "join.index_probes",
                                    "join.index_builds", "join.order_builds")}
                for kind in ("row", "column")}
    print(f"warm tpch-mix pass: {counters}")
    assert counters["row"]["join.build_rows"] <= 1_000
    assert counters["row"]["join.index_probes"] <= 10_000
    assert counters["column"]["join.build_rows"] <= 7_176
    assert counters["row"]["join.index_builds"] == counters["column"]["join.order_builds"] == 0


def test_selective_driving_scans_visit_their_window_not_the_table(warm_pass):
    """The same warm pass, for what the row engine's driving scans read.  Q6 /
    Q10 / Q12 / Q14 bound one date column of their driving table to a year, a
    quarter, a year, a month: the scan visits the rows in that range of the
    column's storage key order (78 186 table rows before, 7 509 now) and
    builds no order when warm.  The other five texts visit what they visited,
    and Q1 -- whose ``l_shipdate <= 1998-09-02`` keeps 96 % of the span, the
    refused side of the rule -- every row of ``lineitem``."""
    warm, database = warm_pass
    lineitem, orders = database.row_count("lineitem"), database.row_count("orders")
    assert (lineitem, orders) == (24_062, 6_000)
    expected = {6: 3_499, 10: 237, 12: 3_517, 14: 256,  # the rows in the window
                1: lineitem,
                3: database.row_count("customer"), 5: database.row_count("region"),
                7: database.row_count("nation"), 8: database.row_count("part"),
                9: database.row_count("part")}
    visited = {number: warm["row", number].get("scan.rows_visited") for number in expected}
    print(f"driving rows visited, warm: {visited}")
    assert visited == expected
    assert 3 * lineitem + orders == 78_186
    assert sum(visited[number] for number in (6, 10, 12, 14)) == 7_509
    for number in expected:
        counters = warm["row", number]
        assert counters.get("scan.window_probes", 0) == (number in (6, 10, 12, 14)), number
        assert "scan.order_builds" not in counters and "join.order_builds" not in counters


def test_warm_column_joins_probe_orders_and_sort_nothing(tpch_db):
    """The same Q9 on the column engine: every join after the first execution
    probes a key order storage kept; no build side is sorted again."""
    engine = _make_engine("column", tpch_db, COMPILED)
    plan = engine.prepare(QUERIES[9])
    engine.execute(plan)
    for _ in range(2):
        counters = engine.execute(plan).metrics
        assert counters.get("join.build_rows") == 0
        assert counters.get("join.order_builds") == 0
        assert counters.get("join.order_probes") > 0


def test_compiled_kernels_beat_interpretation(tpch_db, benchmark, run_once, artifact_dir):
    """Compiled kernels must keep their warm speedup on the gated hot paths."""
    entries = []
    gated_failures = []
    for query_id, kind, repetitions, gate in MATRIX:
        sql = QUERIES[query_id]
        interpreted = _warm_seconds(_make_engine(kind, tpch_db, INTERPRETED), sql,
                                    repetitions)
        compiled_engine = _make_engine(kind, tpch_db, COMPILED)
        if (query_id, kind) == (1, "row"):
            # time one loop under pytest-benchmark for the harness report
            plan = compiled_engine.prepare(sql)
            compiled_engine.execute(plan)
            run_once(benchmark, lambda: [compiled_engine.execute(plan)
                                         for _ in range(repetitions)])
        compiled = _warm_seconds(compiled_engine, sql, repetitions)
        speedup = interpreted / compiled if compiled else float("inf")
        entries.append({
            "query": f"tpch-q{query_id}",
            "engine": kind,
            "repetitions": repetitions,
            "interpreted_seconds": interpreted,
            "compiled_seconds": compiled,
            "speedup": speedup,
            "gated": gate is not None,
            "min_speedup": gate,
        })
        print(f"Q{query_id} {kind}: interpreted={interpreted * 1000:.3f}ms "
              f"compiled={compiled * 1000:.3f}ms speedup={speedup:.2f}x")
        if gate is not None and speedup < gate:
            gated_failures.append(f"Q{query_id}/{kind}: {speedup:.2f}x < {gate}x")

    frames = _frames_per_execution(_make_engine("column", tpch_db, COMPILED), QUERIES[6])

    artifact = {
        "entries": entries,
        "q6_colframe_materialisations": frames,
    }
    target = artifact_dir / "BENCH_kernels.json"
    target.write_text(json.dumps(artifact, indent=2))

    # the column gate: no intermediate frame per predicate, and the scan's
    # frame is the plan's -- a warm Q6 costs exactly one result frame.
    assert frames == 1
    assert not gated_failures, "; ".join(gated_failures)
