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
differ in ``compile_expressions`` alone: the ratios (Q1 1.5-1.8x, Q6
1.6-2.4x of a 0.15 ms query, on a 2-CPU box) are recorded, not gated -- a
threshold the toggle's whole effect sits on measures the box -- and the
column gates are exact counts: the frames a warm Q6 builds, 1 (its result);
the folds a warm Q1 computes, 6 (one count of the groups' rows and one sum
per distinct argument; a fold per aggregate call made 15); and the rows an
ORDER BY over a dictionary-coded column sends through the Python dict, 0
(``q1-pool``'s ``l_linestatus`` text ranks its 5 607 codes).

Both engines' join access paths are gated on counts, not on a ratio of
timings: a warm execution of Q9 probes storage key indexes (row) / key orders
(column) and neither builds one nor fills a hash table or sorts a build side
(``join.index_builds`` / ``join.order_builds`` / ``join.build_rows``), and a
warm pass over the nine ``tpch-mix`` texts stays under the build rows and index
probes the statistics-costed join orders brought it down to.  So is the scan
access path: the rows a warm pass's driving scans visit are exact counts, a
window's for Q6 / Q10 / Q12 / Q14, the table's for the rest and for Q1.

The fixed cost of a warm execution is gated on a count as well: the Python
function calls a steady-state execution of each ``tpch-mix`` text makes at
SF 0.001 (``obs.metrics.python_calls``; of executions 3 to 6, the one with
the fewest calls under ``src/repro``), those of the code under ``src/repro``
and, separately, numpy's and the standard library's own Python frames (a
``.all()``, ``np.unique`` or ``np.full`` on the path shows there).  Counted
at each text's third execution, the column engine made 4 434 + 889 over the
nine texts before a join level became a row index per FROM item and kernels
over NULL-free scan columns lost the NULL dispatch, 1 487 + 341 before the
plan resolved the join tables, dictionary answers and group-row layout an
execution used to re-derive, and 1 189 + 90 after.  A one-off is no fixed cost: Q14's third
execution is the one whose rows matched add up to ``p_type``'s 119
dictionary entries, and it matches them then (213 calls, 86 from the fourth
on).  In a steady state the column engine makes 1 035 + 75 (row engine:
902 + 88).  Each gate is its count and 10 % of headroom.  Frame counts are
the interpreter's, so the gates hold on CPython 3.11, the CI version.

A run writes ``BENCH_kernels.json`` (into the shared ``artifact_dir``:
``BENCH_ARTIFACT_DIR``, else the git-ignored ``bench-artifacts/``) so CI can
track the perf trajectory.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import pytest

from repro.engine import ColumnEngine, EngineOptions, RowEngine
from repro.obs.metrics import python_calls
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


#: bench/workloads.py's ``tpch-mix`` texts.
TPCH_MIX = (3, 5, 6, 7, 8, 9, 10, 12, 14)

#: the column engine's ``src/repro`` calls of a steady-state execution of
#: each ``tpch-mix`` text at SF 0.001, summed: 1 035 measured, 10 % of
#: headroom (1 487 at the third execution before the plan resolved what it
#: re-derived, 4 434 before that; no more than 2 200 allowed).
COLUMN_CALLS_GATE = 1_139
#: the other Python calls of the same executions (numpy's, the standard
#: library's): 75 measured, 10 % of headroom (341 before).
COLUMN_OTHER_CALLS_GATE = 83
#: the third execution's calls on the commit before the plan resolved what a
#: warm column execution re-derived.
PARENT_CALLS = {"column": (1_487, 341), "row": (930, 88)}


@pytest.fixture(scope="module")
def warm_calls(tpch_db) -> dict[str, dict[int, tuple[int, int]]]:
    """Per engine kind and ``tpch-mix`` text, the ``(src/repro, other)``
    Python calls of a steady-state execution: of executions 3 to 6 after
    ``prepare``, the one with the fewest ``src/repro`` calls, so a one-off
    that lands in one of them (a dictionary matched once) is not counted as
    fixed cost, and both counts are that one execution's."""
    calls = {}
    for kind in ("column", "row"):
        engine = _make_engine(kind, tpch_db, COMPILED)
        calls[kind] = {}
        for number in TPCH_MIX:
            plan = engine.prepare(QUERIES[number])
            engine.execute(plan)
            engine.execute(plan)
            runs = [python_calls(functools.partial(engine.execute, plan), "repro")
                    for _ in range(4)]
            calls[kind][number] = min(runs)
    return calls


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="frame counts are CPython 3.11's (the CI version)")
def test_a_warm_column_execution_does_data_work_not_bookkeeping(warm_calls):
    """The column engine's Python calls over one warm pass of the nine texts
    stay at the count the plan-resolved join tables, dictionary answers and
    group rows brought them to -- its own and numpy's / the standard
    library's."""
    column = sum(own for own, _ in warm_calls["column"].values())
    other = sum(others for _, others in warm_calls["column"].values())
    row = sum(own for own, _ in warm_calls["row"].values())
    print(f"calls of a warm tpch-mix pass: column {column} + {other} "
          f"(before: {PARENT_CALLS['column'][0]} + {PARENT_CALLS['column'][1]}), "
          f"row {row} (before: {PARENT_CALLS['row'][0]})")
    assert COLUMN_CALLS_GATE <= 2_200
    assert column <= COLUMN_CALLS_GATE, {number: own for number, (own, _)
                                         in warm_calls["column"].items()}
    assert other <= COLUMN_OTHER_CALLS_GATE, {number: others for number, (_, others)
                                              in warm_calls["column"].items()}


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


#: the ``q1-pool`` text that ranks and delivers 5 607 strings at SF 0.001.
LINESTATUS_ORDER = ("SELECT l_linestatus FROM lineitem WHERE l_shipdate <= "
                    "(date '1998-12-01' - interval '90' day) ORDER BY l_linestatus")


def test_warm_column_aggregation_folds_each_argument_once(tpch_db):
    """Q1's eight aggregate calls read five distinct arguments, none with a
    NULL: a warm column execution counts the groups' rows once and sums each
    argument once -- 6 folds, where a fold per call (a group count and a sum
    per SUM / AVG, one more count for ``count(*)``) made 15."""
    engine = _make_engine("column", tpch_db, COMPILED)
    plan = engine.prepare(QUERIES[1])
    engine.execute(plan)
    counters = engine.execute(plan).metrics
    assert counters.get("aggregate.folds") == 6
    assert counters.get("group.kernel_rows") and not counters.get("group.fallback_rows")


def test_warm_column_order_by_ranks_dictionary_codes(tpch_db):
    """ORDER BY a dictionary-coded column ranks its codes through the
    dictionary's sorted strings: no row goes through the Python dict, and
    the rows are decoded from their codes when delivered."""
    engine = _make_engine("column", tpch_db, COMPILED)
    plan = engine.prepare(LINESTATUS_ORDER)
    engine.execute(plan)
    result = engine.execute(plan)
    counters = result.metrics
    assert counters.get("sort.fallback_rows", 0) == 0
    assert counters.get("sort.kernel_rows") == len(result.rows) == 5_607
    assert result.rows == RowEngine(tpch_db).execute(LINESTATUS_ORDER).rows


def test_compiled_kernels_beat_interpretation(tpch_db, benchmark, run_once, artifact_dir,
                                              warm_calls):
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
        # per engine and tpch-mix text: [src/repro calls, numpy / stdlib calls]
        "warm_calls": {kind: {f"tpch-q{number}": list(counts)
                              for number, counts in per_text.items()}
                       for kind, per_text in warm_calls.items()},
        "warm_calls_before": {kind: list(counts) for kind, counts in PARENT_CALLS.items()},
        "python": ".".join(map(str, sys.version_info[:3])),
    }
    target = artifact_dir / "BENCH_kernels.json"
    target.write_text(json.dumps(artifact, indent=2))

    # the column gate: no intermediate frame per predicate, and the scan's
    # frame is the plan's -- a warm Q6 costs exactly one result frame.
    assert frames == 1
    assert not gated_failures, "; ".join(gated_failures)
