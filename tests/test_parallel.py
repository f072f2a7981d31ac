"""Tests for the morsel-parallel execution subsystem.

Covers the shared worker pool (``engine/parallel.py``), morsel range
partitioning, serial-vs-parallel result parity on edge cases the fuzzer is
unlikely to hit (NULL group keys, empty inputs, distinct aggregates, HAVING
after the partial-state merge), worker trace lanes, the thread-safety of the
identity memos under concurrent execution, and the driver-side timing
fidelity flagging (``extras["concurrent_workers"]``).
"""

from __future__ import annotations

import random
import threading

import numpy as np
import pytest

from repro.analytics.profiles import profile_report
from repro.driver import BatchRunner, DriverConfig, InProcessClient
from repro.engine import ColumnEngine, Database, EngineOptions
from repro.engine.parallel import (
    THREAD_PREFIX,
    chunk_ranges,
    get_pool,
    pool_size,
    run_tasks,
    shutdown_pool,
)
from repro.engine.storage.memo import IdentityMemo
from repro.platform.service import PlatformService


def _column_engine(database: Database, workers: int) -> ColumnEngine:
    return ColumnEngine(database, options=EngineOptions(workers=workers))


@pytest.fixture(scope="module")
def parallel_db() -> Database:
    """Many small chunks, NULLs in both a group key and an aggregate input."""
    database = Database("parallel-unit", chunk_rows=32)
    database.create_table("sales", [("id", "int"), ("region", "str"),
                                    ("amount", "float"), ("qty", "int")])
    rng = random.Random(20260807)
    rows = []
    for index in range(1000):
        region = rng.choice(["north", "south", "east", "west", None])
        amount = None if index % 97 == 0 else round(rng.uniform(1, 500), 2)
        rows.append((index, region, amount, rng.randrange(1, 9)))
    database.insert_rows("sales", rows)
    return database


# ---------------------------------------------------------------------------
# the shared pool
# ---------------------------------------------------------------------------


class TestWorkerPool:
    def test_pool_grows_and_never_shrinks(self):
        shutdown_pool()
        assert pool_size() == 0
        get_pool(2)
        assert pool_size() == 2
        get_pool(4)
        assert pool_size() == 4
        get_pool(2)  # smaller request reuses the bigger pool
        assert pool_size() == 4
        shutdown_pool()
        assert pool_size() == 0

    def test_run_tasks_preserves_order(self):
        results = run_tasks(4, [lambda value=value: value * value
                                for value in range(16)])
        assert results == [value * value for value in range(16)]

    def test_run_tasks_single_task_runs_inline(self):
        names = run_tasks(8, [lambda: threading.current_thread().name])
        assert names == [threading.main_thread().name] or \
            not names[0].startswith(THREAD_PREFIX)

    def test_run_tasks_serial_workers_run_inline(self):
        names = run_tasks(1, [lambda: threading.current_thread().name
                              for _ in range(4)])
        assert all(not name.startswith(THREAD_PREFIX) for name in names)

    def test_run_tasks_on_worker_thread_runs_inline(self):
        """Nested fan-out from a pool thread must not starve the pool."""
        def outer():
            inner = run_tasks(4, [lambda: threading.current_thread().name
                                  for _ in range(3)])
            return threading.current_thread().name, inner

        outer_name, inner_names = get_pool(2).submit(outer).result()
        assert outer_name.startswith(THREAD_PREFIX)
        assert inner_names == [outer_name] * 3

    def test_run_tasks_propagates_exceptions(self):
        def boom():
            raise ValueError("morsel failure")

        with pytest.raises(ValueError, match="morsel failure"):
            run_tasks(4, [boom, lambda: 1])


# ---------------------------------------------------------------------------
# morsel range partitioning
# ---------------------------------------------------------------------------


class TestMorselRanges:
    def test_tiles_all_chunks_without_survivors(self):
        ranges = chunk_ranges(10, None, 4)
        assert ranges[0][0] == 0 and ranges[-1][1] == 10
        for (_, stop, _), (start, _, _) in zip(ranges, ranges[1:]):
            assert stop == start
        pieces = np.concatenate([piece for _, _, piece in ranges])
        assert pieces.tolist() == list(range(10))
        assert all(len(piece) > 0 for _, _, piece in ranges)

    def test_partitions_survivors_within_ranges(self):
        survivors = np.array([1, 2, 5, 8, 9], dtype=np.int64)
        ranges = chunk_ranges(10, survivors, 3)
        pieces = np.concatenate([piece for _, _, piece in ranges])
        assert pieces.tolist() == survivors.tolist()
        for start, stop, piece in ranges:
            assert len(piece) > 0
            assert piece.min() >= start and piece.max() < stop

    def test_more_workers_than_survivors(self):
        survivors = np.array([3, 7], dtype=np.int64)
        ranges = chunk_ranges(10, survivors, 8)
        assert len(ranges) == 2
        assert [piece.tolist() for _, _, piece in ranges] == [[3], [7]]

    def test_no_survivors_collapses_to_one_range(self):
        survivors = np.array([], dtype=np.int64)
        ranges = chunk_ranges(5, survivors, 4)
        assert len(ranges) == 1
        start, stop, piece = ranges[0]
        assert (start, stop) == (0, 5) and len(piece) == 0

    @pytest.fixture()
    def zones(self):
        """The zone index of a 42-row table in chunks of 17, 17 and 8 rows."""
        database = Database("zones", chunk_rows=17)
        database.create_table("t", [("id", "int")])
        database.insert_rows("t", [(index,) for index in range(42)])
        return database.storage("t").zone_index()

    def test_rows_of_concatenates_chunk_rows(self, zones):
        rows = zones.rows_of(np.array([0, 2], dtype=np.int64))
        assert rows.tolist() == list(range(17)) + list(range(34, 42))

    def test_rows_of_empty(self, zones):
        rows = zones.rows_of(np.array([], dtype=np.int64))
        assert rows.dtype == np.int64 and len(rows) == 0


# ---------------------------------------------------------------------------
# serial vs parallel parity on the hard edges
# ---------------------------------------------------------------------------

EDGE_QUERIES = [
    "select count(*) from sales where amount > 100",
    "select region, count(*) as n, sum(qty) as q from sales "
    "where amount > 50 group by region order by n desc, region",
    "select region, avg(amount) as a from sales group by region "
    "having count(*) > 150 order by region",
    "select count(*) as n, sum(amount) as s, min(amount) as lo, "
    "max(amount) as hi from sales where id < 0",
    "select count(distinct region) as r, count(distinct qty) as q from sales "
    "where amount > 10",
    "select qty, sum(distinct qty) as s, avg(distinct amount) as a "
    "from sales group by qty order by qty",
    "select min(region) as lo, max(region) as hi from sales where qty > 2",
    "select qty % 3 as bucket, count(*) as n from sales "
    "where id >= 13 group by qty % 3 order by bucket",
    # a CASE that is numbers in the first morsels and all NULL (an object
    # array) in the last: MIN / MAX partial states of two kinds combine
    "select max(case when id < 500 then qty end) as hi, "
    "min(case when id < 500 then qty end) as lo from sales",
    "select region, max(case when id < 500 then amount end) as hi from sales "
    "group by region order by region",
    "select sum(qty) + count(*) as both, max(amount) - min(amount) as spread, "
    "count(*) * 2 as twice from sales where qty > 1",
]


class TestParallelParity:
    @pytest.mark.parametrize("sql", EDGE_QUERIES)
    def test_parallel_matches_serial(self, sql, parallel_db):
        serial = _column_engine(parallel_db, workers=1).execute(sql)
        parallel = _column_engine(parallel_db, workers=4).execute(sql)
        assert parallel.columns == serial.columns
        assert len(parallel.rows) == len(serial.rows)
        for expected, got in zip(serial.rows, parallel.rows):
            for want, have in zip(expected, got):
                if isinstance(want, float) and isinstance(have, float):
                    assert have == pytest.approx(want, rel=1e-9, abs=1e-12)
                else:
                    assert have == want, f"{sql}: {have!r} != {want!r}"

    def test_worker_lanes_recorded_in_trace(self, parallel_db):
        sql = "select region, count(*) as n from sales where amount > 50 " \
              "group by region order by n desc"
        result = _column_engine(parallel_db, workers=4).execute(sql, trace=True)
        scans = result.trace.find_all("scan")
        assert scans, "no scan span recorded"
        scan = scans[0]
        lanes = [child for child in scan.children if child.name == "worker"]
        assert len(lanes) > 1, "parallel scan did not fan out"
        assert scan.attributes.get("workers") == len(lanes)
        assert sum(lane.attributes["chunks_scanned"] for lane in lanes) == \
            scan.attributes["chunks_scanned"]
        assert sum(lane.rows_out for lane in lanes) == scan.rows_out
        for lane in lanes:
            assert lane.ended is not None and lane.ended >= lane.started

    def test_serial_trace_has_no_worker_lanes(self, parallel_db):
        sql = "select count(*) from sales where amount > 50"
        result = _column_engine(parallel_db, workers=1).execute(sql, trace=True)
        for span in result.trace.spans():
            assert all(child.name != "worker" for child in span.children)

    def test_serial_is_one_morsel_of_the_same_pipeline(self):
        """A warm ``workers=1`` block counts nothing under ``parallel.*``,
        records no ``worker`` lane and builds the scan's frame and the
        result's; four workers split the same block into four morsels per
        stage and build no frame more."""
        from repro.data import populate_tpch
        from repro.tpch import QUERIES

        database = Database("tpch-morsels")
        populate_tpch(database, scale_factor=0.02)
        for query in (1, 6):
            counters = {}
            for workers in (1, 4):
                engine = _column_engine(database, workers)
                plan = engine.prepare(QUERIES[query])
                engine.execute(plan)
                warm = engine.execute(plan, trace=True)
                counters[workers] = {
                    name: value for name, value in warm.metrics.snapshot().items()
                    if name.startswith(("parallel.", "frame."))}
                lanes = [child for span in warm.trace.spans() for child in span.children
                         if child.name == "worker"]
                assert len(lanes) == (0 if workers == 1 else 8), f"Q{query} x{workers}"
            assert counters[1] == {"frame.materialisations": 2}, f"Q{query}"
            assert counters[4] == {
                "frame.materialisations": 2, "parallel.blocks": 1,
                "parallel.scan_tasks": 4, "parallel.aggregate_tasks": 4}, f"Q{query}"

    def test_parallel_counts_its_blocks(self, parallel_db):
        sql = "select count(*) from sales where amount > 50"
        result = _column_engine(parallel_db, workers=4).execute(sql, trace=True)
        counters = result.profile()["counters"]
        assert counters.get("parallel.blocks", 0) >= 1
        serial = _column_engine(parallel_db, workers=1).execute(sql, trace=True)
        assert serial.profile()["counters"].get("parallel.blocks", 0) == 0


# ---------------------------------------------------------------------------
# memo + storage thread-safety (concurrent queries on one engine)
# ---------------------------------------------------------------------------


class TestThreadSafety:
    def test_identity_memo_concurrent_hammer(self):
        memo = IdentityMemo(capacity=64)
        keys = [(object(), object()) for _ in range(128)]
        values = {id(key[0]): index for index, key in enumerate(keys)}
        errors: list[str] = []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(3000):
                key = keys[rng.randrange(len(keys))]
                hit, value = memo.get(key)
                if hit and value != values[id(key[0])]:
                    errors.append(f"stale value {value!r} for key {key!r}")
                elif not hit:
                    memo.put(key, values[id(key[0])])

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(memo) <= 64

    def test_concurrent_queries_one_engine(self, parallel_db):
        """Eight driver threads sharing one engine (locked memos, shared
        columnar views, zone maps) must all see the serial answer."""
        engine = _column_engine(parallel_db, workers=2)
        sql = "select region, count(*) as n, sum(qty) as q from sales " \
              "where amount > 25 group by region order by region"
        expected = engine.execute(sql).rows
        failures: list[str] = []

        def worker() -> None:
            for _ in range(5):
                rows = engine.execute(sql).rows
                if rows != expected:
                    failures.append(f"{rows!r} != {expected!r}")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures


# ---------------------------------------------------------------------------
# driver-side timing fidelity (satellite: concurrent_workers flagging)
# ---------------------------------------------------------------------------


@pytest.fixture()
def batch_platform():
    database = Database("fidelity-unit")
    database.create_table("t", [("id", "int"), ("price", "float")])
    database.insert_rows("t", [(index, float(index)) for index in range(64)])
    engine = ColumnEngine(database)

    service = PlatformService()
    owner = service.register_user("owner", "owner@example.org")
    contributor = service.register_user("driver", "driver@example.org")
    host = service.register_host("laptop")
    service.register_dbms(engine.name, engine.version)
    project = service.create_project(owner, "fidelity-demo")
    service.invite_contributor(owner, project, contributor)
    experiment = service.add_experiment(
        owner, project, "exp", "select sum(price) from t where id > 0",
        repeats=2, timeout_seconds=60.0)
    pool = service.build_pool(experiment, seed=5)
    pool.seed_baseline()
    pool.seed_random(4)
    service.enqueue_pool(owner, experiment, pool, dbms_label=engine.label,
                         host_name=host.name)
    return service, contributor, experiment, engine


class TestTimingFidelity:
    def _run(self, batch_platform, workers: int):
        service, contributor, experiment, engine = batch_platform
        config = DriverConfig(key=contributor.contributor_key, dbms=engine.label,
                              host="laptop", repeats=2, timeout=60.0,
                              batch_size=8, workers=workers)
        runner = BatchRunner(client=InProcessClient(service, contributor.contributor_key),
                             engine=engine, config=config)
        executed = runner.run_all(experiment.id)
        assert executed > 0
        return list(service.store.results(experiment.id))

    def test_concurrent_batches_are_stamped_and_flagged(self, batch_platform):
        records = self._run(batch_platform, workers=3)
        assert all(record.extras.get("concurrent_workers") == 3
                   for record in records)
        report = profile_report(records)
        summary = report.engines[records[0].dbms_label]
        assert summary.timing_compromised == len(records)
        # GIL-inflated wall clock stays out of the phase aggregates ...
        assert summary.phase_seconds == {}
        # ... while the exact counters are still aggregated.
        assert summary.profiled == len(records)
        assert any("timing_compromised=" in line for line in report.lines())

    def test_serial_batches_are_not_flagged(self, batch_platform):
        records = self._run(batch_platform, workers=1)
        assert all("concurrent_workers" not in record.extras
                   for record in records)
        report = profile_report(records)
        summary = report.engines[records[0].dbms_label]
        assert summary.timing_compromised == 0
        assert summary.phase_seconds
        assert not any("timing_compromised=" in line for line in report.lines())
