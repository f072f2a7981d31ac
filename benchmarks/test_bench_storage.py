"""Storage-subsystem gate: zone-map chunk skipping + dictionary codes, as counts.

On date-clustered lineitem data (chunks cover disjoint ship-date ranges, the
layout a warehouse ingesting by arrival time produces) a selective TPC-H
Q6-style scan touches only a handful of chunks: the column executor refutes
the rest from per-chunk min/max statistics before the selection vector is
even built.  String predicates over a stored column run over its ``int32``
dictionary codes.  Both are what every column-engine scan does, so the gate
states them as exact counts of one warm execution rather than as a timing
against a switched-off variant:

* ``Q6_NARROW`` scans 3 of the 59 chunks and skips 56,
* the predicates evaluated over dictionary codes are 1 on ``SHIPMODE_IN``
  (its ``l_shipmode IN``) and 0 on ``Q6_NARROW`` (no string predicate),
* both answers equal the row engine's, which reads every chunk and decodes
  every string.

A run writes ``BENCH_storage.json`` (into the shared ``artifact_dir``:
``BENCH_ARTIFACT_DIR``, else the git-ignored ``bench-artifacts/``) with the
counts, a recorded (ungated) warm time per query and the per-table
compression summary, so CI can track the storage trajectory.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.data import populate_tpch
from repro.engine import ColumnEngine, Database, RowEngine

SCALE_FACTOR = 0.02
CHUNK_ROWS = 2048

#: Q6-style selective scan: a three-month ship-date window over seven years
#: of clustered data -- zone maps should refute the vast majority of chunks.
Q6_NARROW = """
select sum(l_extendedprice * l_discount) as revenue
from lineitem
where l_shipdate >= date '1994-01-01'
  and l_shipdate < date '1994-04-01'
  and l_discount between 0.05 and 0.07
  and l_quantity < 24
"""

#: dictionary showcase: an IN-scan over a 7-value string column.
SHIPMODE_IN = """
select count(*) as n
from lineitem
where l_shipmode in ('AIR', 'REG AIR')
  and l_quantity < 30
"""

#: per query: chunks scanned, chunks skipped, predicates over dictionary codes.
EXPECTED = {
    "q6-narrow": (Q6_NARROW, 3, 56, 0),
    "shipmode-in": (SHIPMODE_IN, 59, 0, 1),
}


@pytest.fixture(scope="module")
def clustered_db() -> Database:
    database = Database("tpch-clustered", chunk_rows=CHUNK_ROWS)
    populate_tpch(database, scale_factor=SCALE_FACTOR, clustered=True)
    return database


def _warm_seconds(engine, plan, repetitions: int = 40, rounds: int = 3) -> float:
    """Best per-execution time over ``rounds`` timing loops of a prepared plan."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(repetitions):
            engine.execute(plan)
        best = min(best, time.perf_counter() - started)
    return best / repetitions


def test_scans_skip_chunks_and_read_codes(clustered_db, benchmark, run_once, artifact_dir):
    """Exact chunk and dictionary counts of a warm execution, same answers."""
    engine = ColumnEngine(clustered_db)
    reference = RowEngine(clustered_db)
    entries = []
    for name, (sql, scanned, skipped, coded) in EXPECTED.items():
        plan = engine.prepare(sql)
        engine.execute(plan)  # warm: kernels, columnar views, zone index
        result = engine.execute(plan)
        counts = {
            "chunks_scanned": int(result.metrics.get("scan.chunks_scanned")),
            "chunks_skipped": int(result.metrics.get("scan.chunks_skipped")),
            "dictionary_predicates": int(result.metrics.get("scan.dictionary_predicates")),
        }
        if name == "q6-narrow":
            run_once(benchmark, lambda: engine.execute(plan))
        entries.append({"query": name, "warm_seconds": _warm_seconds(engine, plan),
                        "gated": False, **counts})
        print(f"{name}: {counts['chunks_scanned']} chunks scanned, "
              f"{counts['chunks_skipped']} skipped, "
              f"{counts['dictionary_predicates']} predicates over dictionary codes")

        assert result.rows == reference.execute(sql).rows, name
        assert counts == {"chunks_scanned": scanned, "chunks_skipped": skipped,
                          "dictionary_predicates": coded}, name
        assert scanned + skipped == len(clustered_db.storage("lineitem").chunks)

    artifact = {
        "scale_factor": SCALE_FACTOR,
        "chunk_rows": CHUNK_ROWS,
        "entries": entries,
        "lineitem": clustered_db.storage("lineitem").statistics().describe(),
    }
    (artifact_dir / "BENCH_storage.json").write_text(json.dumps(artifact, indent=2))
