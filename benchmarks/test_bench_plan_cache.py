"""Plan-cache benchmark: plan-once/execute-many vs. cold planning per repetition.

The driver executes every pool query five-plus times per target system; this
benchmark quantifies what the keyed plan cache buys on that loop for a TPC-H
pool query, and verifies that the row and column engines produce
byte-identical results through the shared plan IR for the tier-1 query set.

A smoke run writes ``BENCH_plan_cache.json`` (into the shared
``artifact_dir``: ``BENCH_ARTIFACT_DIR``, else the git-ignored
``bench-artifacts/``) so CI can track the perf trajectory.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.engine import ColumnEngine, RowEngine
from repro.tpch import QUERIES
from repro.workflow import build_tpch_database

from tests.conftest import normalise


@pytest.fixture(scope="module")
def tpch_db():
    return build_tpch_database(scale_factor=0.001)

#: the tier-1 agreement subset (mirrors tests/test_engine.py).
TPCH_SUBSET = [1, 3, 5, 6, 10, 12, 13, 14, 16]

REPETITIONS = 25


def _timed_loop(engine, sql: str, repetitions: int) -> float:
    started = time.perf_counter()
    for _ in range(repetitions):
        engine.execute(sql)
    return time.perf_counter() - started


def test_plan_cache_speeds_up_repeated_execution(tpch_db, benchmark, run_once,
                                                 artifact_dir):
    """Repeated execution with the plan cache beats cold planning every time."""
    sql = QUERIES[1]  # the paper's running example
    cold_engine = ColumnEngine(tpch_db, plan_cache_size=0)
    warm_engine = ColumnEngine(tpch_db)

    # warm-up both paths once (first-touch columnar views, imports, ...)
    cold_engine.execute(sql)
    warm_engine.execute(sql)

    cold = min(_timed_loop(cold_engine, sql, REPETITIONS) for _ in range(3))
    warm_first = run_once(benchmark, _timed_loop, warm_engine, sql, REPETITIONS)
    warm = min([warm_first] + [_timed_loop(warm_engine, sql, REPETITIONS)
                               for _ in range(2)])

    stats = warm_engine.cache_stats()
    speedup = cold / warm if warm else float("inf")
    print("\n=== Plan cache: TPC-H Q1, plan-once/execute-many ===")
    print(f"repetitions={REPETITIONS} cold={cold:.4f}s warm={warm:.4f}s "
          f"speedup={speedup:.2f}x cache={stats}")

    artifact = {
        "query": "tpch-q1",
        "repetitions": REPETITIONS,
        "cold_seconds": cold,
        "warm_seconds": warm,
        "speedup": speedup,
        "cache_stats": stats,
    }
    target = artifact_dir / "BENCH_plan_cache.json"
    target.write_text(json.dumps(artifact, indent=2))

    assert stats["hits"] >= REPETITIONS
    # the acceptance bar: caching must be measurably faster than cold planning.
    assert warm < cold, f"plan cache not faster: warm={warm:.4f}s cold={cold:.4f}s"


def _canonical_bytes(rows) -> bytes:
    """Serialise rows with numerics canonicalised (5 and 5.0 render alike)."""
    canonical = [
        tuple(round(float(value), 2) if isinstance(value, (int, float))
              and not isinstance(value, bool) else value
              for value in row)
        for row in normalise(rows)
    ]
    return repr(canonical).encode()


def test_row_and_column_byte_identical_through_plan_ir(tpch_db):
    """Both engines agree byte-for-byte through the shared plan IR (tier-1 set)."""
    row_engine = RowEngine(tpch_db)
    column_engine = ColumnEngine(tpch_db)
    for query_id in TPCH_SUBSET:
        sql = QUERIES[query_id]
        row_result = row_engine.execute(row_engine.prepare(sql))
        column_result = column_engine.execute(column_engine.prepare(sql))
        assert row_result.columns == column_result.columns, f"Q{query_id} columns differ"
        assert _canonical_bytes(row_result.rows) == _canonical_bytes(column_result.rows), \
            f"Q{query_id} rows differ through the plan IR"
