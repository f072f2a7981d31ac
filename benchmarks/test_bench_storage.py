"""Storage-subsystem benchmark: zone-map chunk skipping + dictionary codes.

On date-clustered lineitem data (chunks cover disjoint ship-date ranges, the
layout a warehouse ingesting by arrival time produces) a selective TPC-H
Q6-style scan touches only a handful of chunks; with ``zone_maps`` enabled
the column executor refutes the rest from per-chunk min/max statistics
before the selection vector is even built.  This benchmark quantifies that
warm speedup and acts as the CI storage-regression gate: zone maps on vs off
must stay above ``STORAGE_BENCH_MIN_SPEEDUP`` (default 2x).  A second,
ungated entry reports the dictionary-code evaluation speedup on a string
IN-scan.

A run writes ``BENCH_storage.json`` (into the shared ``artifact_dir``:
``BENCH_ARTIFACT_DIR``, else the git-ignored ``bench-artifacts/``) with the
measured times, the chunk scan/skip counts and the per-table compression
summary, so CI can track the storage trajectory.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.data import populate_tpch
from repro.engine import ColumnEngine, Database, EngineOptions

#: committed regression threshold for the zone-map gate.
MIN_SPEEDUP = float(os.environ.get("STORAGE_BENCH_MIN_SPEEDUP", "2.0"))

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


@pytest.fixture(scope="module")
def clustered_db() -> Database:
    database = Database("tpch-clustered", chunk_rows=CHUNK_ROWS)
    populate_tpch(database, scale_factor=SCALE_FACTOR, clustered=True)
    return database


def _warm_seconds(engine, sql: str, repetitions: int = 40, rounds: int = 3) -> float:
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


def _chunk_counts(engine, sql: str) -> dict[str, int]:
    """Chunk scan/skip counts of one warm execution."""
    plan = engine.prepare(sql)
    engine.execute(plan)
    result = engine.execute(plan)
    return {
        "chunks_scanned": int(result.metrics.get("scan.chunks_scanned")),
        "chunks_skipped": int(result.metrics.get("scan.chunks_skipped")),
    }


def test_zone_maps_skip_clustered_scan(clustered_db, benchmark, run_once, artifact_dir):
    """Zone-map chunk skipping must keep its warm speedup on the gated scan."""
    # workers pinned to 1: the zone-map gate measures single-threaded skipping.
    zone_on = ColumnEngine(clustered_db, options=EngineOptions(workers=1))
    zone_off = ColumnEngine(clustered_db,
                            options=EngineOptions(zone_maps=False, workers=1))
    dict_on = ColumnEngine(clustered_db, options=EngineOptions(workers=1))
    dict_off = ColumnEngine(clustered_db,
                            options=EngineOptions(dictionary_encoding=False,
                                                  workers=1))

    # identical results first: skipping must never change semantics.
    assert zone_on.execute(Q6_NARROW).rows == zone_off.execute(Q6_NARROW).rows
    assert dict_on.execute(SHIPMODE_IN).rows == dict_off.execute(SHIPMODE_IN).rows

    counts = _chunk_counts(zone_on, Q6_NARROW)
    plan = zone_on.prepare(Q6_NARROW)
    run_once(benchmark, lambda: zone_on.execute(plan))

    on_seconds = _warm_seconds(zone_on, Q6_NARROW)
    off_seconds = _warm_seconds(zone_off, Q6_NARROW)
    zone_speedup = off_seconds / on_seconds if on_seconds else float("inf")

    dict_on_seconds = _warm_seconds(dict_on, SHIPMODE_IN)
    dict_off_seconds = _warm_seconds(dict_off, SHIPMODE_IN)
    dict_speedup = dict_off_seconds / dict_on_seconds if dict_on_seconds \
        else float("inf")

    lineitem = clustered_db.storage("lineitem").statistics()
    artifact = {
        "min_speedup": MIN_SPEEDUP,
        "scale_factor": SCALE_FACTOR,
        "chunk_rows": CHUNK_ROWS,
        "entries": [
            {
                "query": "q6-narrow",
                "feature": "zone_maps",
                "on_seconds": on_seconds,
                "off_seconds": off_seconds,
                "speedup": zone_speedup,
                "gated": True,
                **counts,
            },
            {
                "query": "shipmode-in",
                "feature": "dictionary_encoding",
                "on_seconds": dict_on_seconds,
                "off_seconds": dict_off_seconds,
                "speedup": dict_speedup,
                "gated": False,
            },
        ],
        "lineitem": lineitem.describe(),
    }
    target = artifact_dir / "BENCH_storage.json"
    target.write_text(json.dumps(artifact, indent=2))

    total_chunks = counts["chunks_scanned"] + counts["chunks_skipped"]
    print(f"zone maps: on={on_seconds * 1000:.3f}ms off={off_seconds * 1000:.3f}ms "
          f"speedup={zone_speedup:.2f}x "
          f"({counts['chunks_skipped']}/{total_chunks} chunks skipped)")
    print(f"dictionary: on={dict_on_seconds * 1000:.3f}ms "
          f"off={dict_off_seconds * 1000:.3f}ms speedup={dict_speedup:.2f}x")

    # the clustered window really is skippable, and skipping really pays.
    assert counts["chunks_skipped"] > total_chunks // 2
    assert zone_speedup >= MIN_SPEEDUP, (
        f"zone-map speedup {zone_speedup:.2f}x < {MIN_SPEEDUP}x")
