"""Observability overhead benchmark: tracing must be free when it's off.

The metrics context and the ``trace is None`` checks ride on every execution,
so this benchmark gates their cost: the warm per-execution time of the full
``Engine.execute`` path (metrics context, phase timings, null-span checks,
result assembly) must stay within ``OBS_BENCH_MAX_OVERHEAD`` (default 5%) of
executing the bare physical plan on the paper's running examples -- TPC-H Q1
on the row engine and Q6 on the column engine.  The overhead of actually
*enabling* span collection is recorded informationally alongside.

A second gate covers the *platform* telemetry added on top of the engine:
the warm claim -> execute -> submit loop with full tracing (spans, structured
logs, flight recorder) may cost at most ``PLATFORM_OBS_MAX_SECONDS`` per task
(default 0.2 ms) more than the same loop with ``TelemetryConfig.disabled()``.
The ceiling is on what telemetry costs, not on its share of the loop: the
share moves whenever an unrelated change makes the rest of the loop shorter or
longer (telemetry costs about 0.10 ms of a loop that has been 4.6 ms and
1.9 ms), and the cost is what a regression in ``obs/`` changes.  The share is
still recorded in the artifact.

A third gate is an exact count, not a timing: the span records one traced Q1
task ships in ``extras["spans"]`` (seven) and their bytes on the wire and in
the result store, so the stored cost of telemetry cannot drift back unnoticed.

A run writes ``BENCH_observability.json`` (engine + platform sections), a
sample EXPLAIN ANALYZE span tree (``BENCH_observability_trace.json``) and a
stitched end-to-end task timeline from a fault-forced retry
(``BENCH_task_timeline.json``) into the shared ``artifact_dir``
(``BENCH_ARTIFACT_DIR``, else the git-ignored ``bench-artifacts/``), so CI
archives a real cross-process trace next to the numbers.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import pytest

from repro.analytics import profiles_by_trace, stitch_timelines, timeline_report
from repro.driver import BatchRunner, DriverConfig, InProcessClient
from repro.engine import ColumnEngine, EngineOptions, RowEngine
from repro.engine.result import QueryResult
from repro.obs import JsonLogger, TelemetryConfig
from repro.platform import (
    FaultConfig,
    FaultInjector,
    FlakyEngine,
    PlatformService,
)
from repro.platform.models import Task
from repro.tpch import QUERIES
from repro.workflow import build_tpch_database

#: committed ceiling on the relative overhead of the tracing-disabled path.
MAX_OVERHEAD = float(os.environ.get("OBS_BENCH_MAX_OVERHEAD", "0.05"))

#: committed ceiling on what full platform telemetry may add to one lap of
#: the warm claim -> execute -> submit loop, in seconds per task.
PLATFORM_MAX_SECONDS = float(
    os.environ.get("PLATFORM_OBS_MAX_SECONDS", "0.0002"))

#: (query id, engine kind, samples per contestant)
MATRIX = [
    (1, "row", 60),  # a generated pipeline runs Q1 ~5x faster: same wall, 4x the samples
    (6, "column", 500),
]


@pytest.fixture(scope="module")
def tpch_db():
    # a slightly larger instance than the figure benchmarks: the shell cost
    # of ``Engine.execute`` is a fixed few microseconds, so against the
    # sub-0.15ms Q6 of SF 0.001 the gate would mostly measure scheduler
    # noise rather than instrumentation regressions.
    return build_tpch_database(scale_factor=0.005)


def _interleaved_seconds(functions: list, samples: int) -> list[float]:
    """Median per-call time of each function, sampled in strict alternation.

    Alternating single calls shares thermal / frequency / scheduler drift
    across the contestants instead of letting it bias whichever variant
    happens to run during a slow phase, and the median discards preemption
    spikes -- together these resolve the few-microsecond shell cost that a
    best-of-timing-loops protocol buries in machine noise.
    """
    collected: list[list[float]] = [[] for _ in functions]
    for _ in range(samples):
        for index, function in enumerate(functions):
            started = time.perf_counter()
            function()
            collected[index].append(time.perf_counter() - started)
    return [statistics.median(timings) for timings in collected]


def test_disabled_tracing_overhead_is_bounded(tpch_db, benchmark, run_once, artifact_dir):
    """``Engine.execute`` must cost within MAX_OVERHEAD of the bare plan."""
    entries = []
    failures = []
    for query_id, kind, samples in MATRIX:
        factory = RowEngine if kind == "row" else ColumnEngine
        # workers pinned to 1: the overhead gate times the serial hot path.
        engine = factory(tpch_db, options=EngineOptions(workers=1))
        plan = engine.prepare(QUERIES[query_id])
        engine.execute(plan)  # warm: kernels, columnar views, caches

        if (query_id, kind) == (6, "column"):
            run_once(benchmark, lambda: [engine.execute(plan)
                                         for _ in range(samples)])

        label = engine.label

        def seed_execute():
            # the pre-observability execute path: time the physical plan and
            # wrap it in a result -- no metrics context, phases or spans.
            started = time.perf_counter()
            columns, rows = engine._execute_plan(plan)
            elapsed = time.perf_counter() - started
            return QueryResult(columns=columns, rows=rows, elapsed=elapsed,
                               engine=label)

        bare, untraced, traced = _interleaved_seconds(
            [seed_execute,
             lambda: engine.execute(plan),
             lambda: engine.execute(plan, trace=True)],
            samples)

        overhead = (untraced - bare) / bare if bare else 0.0
        traced_overhead = (traced - bare) / bare if bare else 0.0
        entries.append({
            "query": f"tpch-q{query_id}",
            "engine": kind,
            "samples": samples,
            "baseline_seconds": bare,
            "untraced_seconds": untraced,
            "traced_seconds": traced,
            "untraced_overhead": overhead,
            "traced_overhead": traced_overhead,
        })
        print(f"Q{query_id} {kind}: baseline={bare * 1000:.3f}ms "
              f"untraced={untraced * 1000:.3f}ms ({overhead:+.1%}) "
              f"traced={traced * 1000:.3f}ms ({traced_overhead:+.1%})")
        if overhead > MAX_OVERHEAD:
            failures.append(f"Q{query_id}/{kind}: {overhead:.1%} > {MAX_OVERHEAD:.0%}")

    sample = ColumnEngine(tpch_db).execute("explain analyze " + QUERIES[6])
    _merge_artifact(artifact_dir / "BENCH_observability.json", {
        "max_overhead": MAX_OVERHEAD,
        "entries": entries,
    })
    (artifact_dir / "BENCH_observability_trace.json").write_text(
        json.dumps(sample.trace.to_dict(), indent=2))

    assert not failures, "; ".join(failures)


def _merge_artifact(path: Path, update: dict) -> None:
    """Read-modify-write one section of a shared JSON artifact."""
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    data.update(update)
    path.write_text(json.dumps(data, indent=2))


# ---------------------------------------------------------------------------
# platform telemetry overhead
# ---------------------------------------------------------------------------

#: tasks pre-enqueued per contestant: each sample consumes one task from
#: each queue, keeping the loop warm and the queues equal in depth.
PLATFORM_SAMPLES = 150

PLATFORM_SQL = QUERIES[6]


def _platform_loop(tpch_db, telemetry: TelemetryConfig, tasks: int):
    """A warm claim -> execute -> submit pipeline consuming one task per call."""
    service = PlatformService(
        telemetry=telemetry,
        logger=JsonLogger() if telemetry.enabled else None)
    owner = service.register_user("owner", "owner@example.org")
    contributor = service.register_user("worker", "worker@example.org")
    service.register_dbms("columnstore", "1.0")
    service.register_host("bench")
    project = service.create_project(owner, "bench")
    service.invite_contributor(owner, project, contributor)
    experiment = service.add_experiment(owner, project, "bench-exp",
                                        PLATFORM_SQL, repeats=1,
                                        timeout_seconds=60.0)
    for index in range(tasks):
        service.store.insert("tasks", Task(
            experiment_id=experiment.id, query_sql=PLATFORM_SQL,
            query_key=f"bench-{index}", dbms_label="columnstore-1.0",
            host_name="bench", timeout_seconds=60.0))
    engine = ColumnEngine(tpch_db, options=EngineOptions(workers=1))
    engine.execute(engine.prepare(PLATFORM_SQL))  # warm kernels + plan cache
    # repeats=5 is the paper's default protocol ("each experiment is run
    # five times"); only the first repetition is traced (by design, see
    # ``measure_query``), so the loop also exercises the amortisation a
    # real driver run gets.
    config = DriverConfig(key=contributor.contributor_key,
                          dbms="columnstore-1.0", host="bench",
                          repeats=5, retries=0, batch_size=1,
                          trace_tasks=telemetry.enabled, telemetry=telemetry)
    runner = BatchRunner(
        client=InProcessClient(service, contributor.contributor_key),
        engine=engine, config=config,
        logger=service.log if telemetry.enabled else None)

    def step():
        assert runner.run_batch(experiment.id, count=1) == 1

    return step


def test_platform_telemetry_overhead_is_bounded(tpch_db, artifact_dir):
    """Full tracing must cost < PLATFORM_OBS_MAX_SECONDS per task on the warm loop."""
    telemetry_on = _platform_loop(tpch_db, TelemetryConfig(),
                                  tasks=PLATFORM_SAMPLES + 1)
    telemetry_off = _platform_loop(tpch_db, TelemetryConfig.disabled(),
                                   tasks=PLATFORM_SAMPLES + 1)
    # one unmeasured warm-up lap each (store pages, logger stream, caches).
    telemetry_on()
    telemetry_off()
    on_samples: list[float] = []
    off_samples: list[float] = []
    for _ in range(PLATFORM_SAMPLES):
        started = time.perf_counter()
        telemetry_on()
        on_samples.append(time.perf_counter() - started)
        started = time.perf_counter()
        telemetry_off()
        off_samples.append(time.perf_counter() - started)
    enabled = statistics.median(on_samples)
    disabled = statistics.median(off_samples)
    # adjacent calls share scheduler/frequency conditions, so the median of
    # the *paired* differences isolates the telemetry cost from drift that
    # per-contestant medians taken over the whole run would fold in.
    marginal = statistics.median(on - off for on, off
                                 in zip(on_samples, off_samples))
    overhead = marginal / disabled if disabled else 0.0
    print(f"platform loop: telemetry-off={disabled * 1000:.3f}ms "
          f"telemetry-on={enabled * 1000:.3f}ms "
          f"paired marginal={marginal * 1000:.3f}ms ({overhead:+.1%})")

    _merge_artifact(artifact_dir / "BENCH_observability.json", {
        "platform": {
            "max_seconds": PLATFORM_MAX_SECONDS,
            "samples": PLATFORM_SAMPLES,
            "telemetry_off_seconds": disabled,
            "telemetry_on_seconds": enabled,
            "marginal_seconds": marginal,
            "overhead": overhead,
        },
    })
    assert marginal <= PLATFORM_MAX_SECONDS, (
        f"platform telemetry costs {marginal * 1000:.3f} ms per task "
        f"> {PLATFORM_MAX_SECONDS * 1000:.3f} ms")


#: what one traced Q1 task may put on the wire and in the result store under
#: ``extras["spans"]``: driver.execute + engine.query / execute / scan /
#: pipeline / aggregate / order.  Exact counts, not timings: the list-of-dicts
#: form this envelope replaced read 2 193 bytes for the same seven records.
SHIPPED_RECORDS_PER_Q1_TASK = 7
SHIPPED_BYTES_PER_Q1_TASK = 900


def test_shipped_span_budget_per_task(tpch_db, artifact_dir):
    """The telemetry budget as exact counts: records and bytes shipped per task."""
    telemetry = TelemetryConfig(slow_task_seconds=0.0)  # every task ships its spans
    service = PlatformService(telemetry=telemetry)
    owner = service.register_user("owner", "owner@example.org")
    contributor = service.register_user("worker", "worker@example.org")
    service.register_dbms("rowstore", "1.0")
    service.register_host("bench")
    project = service.create_project(owner, "budget")
    service.invite_contributor(owner, project, contributor)
    experiment = service.add_experiment(owner, project, "budget-exp", QUERIES[1],
                                        repeats=5, timeout_seconds=60.0)
    service.store.insert("tasks", Task(
        experiment_id=experiment.id, query_sql=QUERIES[1], query_key="budget-0",
        dbms_label="rowstore-1.0", host_name="bench", timeout_seconds=60.0))
    config = DriverConfig(key=contributor.contributor_key, dbms="rowstore-1.0",
                          host="bench", repeats=5, retries=0, batch_size=1,
                          trace_tasks=True, telemetry=telemetry)
    runner = BatchRunner(client=InProcessClient(service, contributor.contributor_key),
                         engine=RowEngine(tpch_db, options=EngineOptions(workers=1)),
                         config=config)
    assert runner.run_batch(experiment.id, count=1) == 1
    shipped = service.store.results(experiment.id)[0].extras["spans"]
    names = [record[0] for record in shipped["records"]]
    shipped_bytes = len(json.dumps(shipped))
    print(f"shipped per traced Q1 task: {len(names)} records, {shipped_bytes} bytes")
    _merge_artifact(artifact_dir / "BENCH_observability.json", {
        "shipped": {"records": names, "bytes": shipped_bytes,
                    "max_records": SHIPPED_RECORDS_PER_Q1_TASK,
                    "max_bytes": SHIPPED_BYTES_PER_Q1_TASK},
    })
    assert len(names) == SHIPPED_RECORDS_PER_Q1_TASK, names
    assert shipped_bytes <= SHIPPED_BYTES_PER_Q1_TASK, (
        f"{shipped_bytes} bytes of spans shipped for one Q1 task "
        f"> {SHIPPED_BYTES_PER_Q1_TASK}: {json.dumps(shipped)}")


def test_task_timeline_artifact(tpch_db, artifact_dir):
    """Emit a stitched end-to-end timeline crossing a fault-injected retry."""
    telemetry = TelemetryConfig()
    service = PlatformService(telemetry=telemetry, logger=JsonLogger())
    owner = service.register_user("owner", "owner@example.org")
    contributor = service.register_user("worker", "worker@example.org")
    service.register_dbms("columnstore", "1.0")
    service.register_host("bench")
    project = service.create_project(owner, "timeline")
    service.invite_contributor(owner, project, contributor)
    experiment = service.add_experiment(owner, project, "timeline-exp",
                                        PLATFORM_SQL, repeats=1,
                                        timeout_seconds=60.0)
    service.store.insert("tasks", Task(
        experiment_id=experiment.id, query_sql=PLATFORM_SQL,
        query_key="timeline-0", dbms_label="columnstore-1.0",
        host_name="bench", timeout_seconds=60.0))
    engine = ColumnEngine(tpch_db, options=EngineOptions(workers=1))
    config = DriverConfig(key=contributor.contributor_key,
                          dbms="columnstore-1.0", host="bench",
                          repeats=1, retries=0, batch_size=1, trace_tasks=True,
                          telemetry=telemetry)
    client = InProcessClient(service, contributor.contributor_key)
    # attempt 1 fails via an injected engine fault, attempt 2 succeeds: the
    # archived timeline shows a retry crossing under a single trace id.
    flaky = FlakyEngine(engine, FaultInjector(FaultConfig(fail_task=1.0), seed=9))
    assert BatchRunner(client=client, engine=flaky,
                       config=config).run_batch(experiment.id, count=1) == 1
    assert BatchRunner(client=client, engine=engine,
                       config=config).run_batch(experiment.id, count=1) == 1

    results = service.store.results(experiment.id)
    timelines = stitch_timelines(tasks=service.store.tasks(experiment.id),
                                 results=results,
                                 span_sources=[service.spans],
                                 profiles=profiles_by_trace(results))
    assert len(timelines) == 1
    assert timelines[0].attempts == 2 and timelines[0].outcome == "done"
    (artifact_dir / "BENCH_task_timeline.json").write_text(
        json.dumps(timeline_report(timelines), indent=2))
