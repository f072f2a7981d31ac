"""Null-mask benchmark: typed (values, validity) scans vs object arrays.

Nullable columns used to decode to object arrays holding ``None`` -- correct,
but every kernel dropped from numpy bulk operations to Python-object loops.
With ``null_masks`` enabled the scan keeps nullable typed columns on their
native int64/float64 arrays plus a validity mask, so a NULL-riddled Q6-style
scan runs the same vectorised kernels as a NULL-free one.

This benchmark loads a lineitem variant with NULLs injected into the Q6
columns (discount, quantity, ship date), measures the warm per-execution
time with ``null_masks`` on vs off (same storage, different scan views), and
acts as the CI regression gate: the speedup must stay above
``NULL_BENCH_MIN_SPEEDUP`` (default 1.5x).

A run writes ``BENCH_null_masks.json`` (into the shared ``artifact_dir``:
``BENCH_ARTIFACT_DIR``, else the git-ignored ``bench-artifacts/``) with the
measured times and the null fractions measured from the table statistics.
"""

from __future__ import annotations

import json
import os
import random
import time

import pytest

from repro.data import populate_tpch
from repro.engine import ColumnEngine, Database, EngineOptions, RowEngine

#: committed regression threshold for the null-mask gate.
MIN_SPEEDUP = float(os.environ.get("NULL_BENCH_MIN_SPEEDUP", "1.5"))

SCALE_FACTOR = 0.02
CHUNK_ROWS = 2048
NULL_FRACTION = 0.08
SEED = 20260730

#: Q6 variant over the NULL-injected columns: every predicate and the
#: projected product run over nullable discount/quantity/shipdate.
Q6_NULLABLE = """
select sum(l_extendedprice * l_discount) as revenue
from lineitem
where l_shipdate >= date '1994-01-01'
  and l_shipdate < date '1995-01-01'
  and l_discount between 0.05 and 0.07
  and l_quantity < 24
"""


@pytest.fixture(scope="module")
def nullable_db() -> Database:
    """A lineitem copy with ~8% NULLs in the Q6 columns."""
    source = Database("tpch-source", chunk_rows=CHUNK_ROWS)
    populate_tpch(source, scale_factor=SCALE_FACTOR)
    schema = source.catalog.table("lineitem")
    positions = {column.name.lower(): index
                 for index, column in enumerate(schema.columns)}
    nullable = [positions["l_discount"], positions["l_quantity"],
                positions["l_shipdate"]]
    rng = random.Random(SEED)
    rows = []
    for row in source.rows("lineitem"):
        values = list(row)
        for position in nullable:
            if rng.random() < NULL_FRACTION:
                values[position] = None
        rows.append(tuple(values))

    database = Database("tpch-nullable", chunk_rows=CHUNK_ROWS)
    database.create_table(
        "lineitem", [(column.name, column.type_name) for column in schema.columns])
    database.insert_rows("lineitem", rows)
    return database


def _warm_seconds(engine, sql: str, repetitions: int = 30, rounds: int = 3) -> float:
    """Best per-execution time over ``rounds`` timing loops of a prepared plan."""
    plan = engine.prepare(sql)
    engine.execute(plan)  # warm: kernels, columnar views, zone index
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(repetitions):
            engine.execute(plan)
        best = min(best, time.perf_counter() - started)
    return best / repetitions


def test_null_mask_scan_beats_object_arrays(nullable_db, benchmark, run_once,
                                             artifact_dir):
    """Typed null-mask scans must keep their warm speedup on nullable Q6."""
    # workers pinned to 1: this gate measures the single-threaded scan paths.
    masked = ColumnEngine(nullable_db, options=EngineOptions(workers=1))
    legacy = ColumnEngine(nullable_db,
                          options=EngineOptions(null_masks=False, workers=1))
    row_reference = RowEngine(nullable_db)

    # representation must never change semantics: typed pairs, object
    # arrays and the row engine agree on the NULL-riddled scan.
    expected = row_reference.execute(Q6_NULLABLE).rows
    assert masked.execute(Q6_NULLABLE).rows == expected
    assert legacy.execute(Q6_NULLABLE).rows == expected

    plan = masked.prepare(Q6_NULLABLE)
    run_once(benchmark, lambda: masked.execute(plan))

    on_seconds = _warm_seconds(masked, Q6_NULLABLE)
    off_seconds = _warm_seconds(legacy, Q6_NULLABLE)
    speedup = off_seconds / on_seconds if on_seconds else float("inf")

    statistics = nullable_db.storage("lineitem").statistics()
    null_fractions = {
        name: statistics.column(name).null_count / statistics.row_count
        for name in ("l_discount", "l_quantity", "l_shipdate")
    }

    artifact = {
        "min_speedup": MIN_SPEEDUP,
        "scale_factor": SCALE_FACTOR,
        "chunk_rows": CHUNK_ROWS,
        "null_fraction": NULL_FRACTION,
        "entries": [
            {
                "query": "q6-nullable",
                "feature": "null_masks",
                "on_seconds": on_seconds,
                "off_seconds": off_seconds,
                "speedup": speedup,
                "gated": True,
                "null_fractions": null_fractions,
            },
        ],
    }
    target = artifact_dir / "BENCH_null_masks.json"
    target.write_text(json.dumps(artifact, indent=2))

    print(f"null masks: on={on_seconds * 1000:.3f}ms off={off_seconds * 1000:.3f}ms "
          f"speedup={speedup:.2f}x (nulls ~{NULL_FRACTION:.0%} in Q6 columns)")

    assert speedup >= MIN_SPEEDUP, (
        f"null-mask speedup {speedup:.2f}x < {MIN_SPEEDUP}x")
