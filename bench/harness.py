"""The shared loop every workload runs, its output checks and its metrics.

A run builds the engines (set-up, sampled ``Size.setups`` times) and then repeats
*rounds* of the paper's loop over the real HTTP webapp -- a fixed number of
them for a given ``--seconds`` (``Size.rounds``), at least one::

    set-up   populate TPC-H, build the engines, one warm execution per engine
             and query text (lazy row/columnar views exist; plan caches are
             cleared again before every round), boot the platform
    boot     file-backed Store in a scratch directory (the store's own WAL +
             synchronous=NORMAL), users, project, PlatformServer on 127.0.0.1
    publish  owner path: add_experiment (grammar extraction), build and grow
             the pool, every enqueue_pool -- or insert_many for fixed texts
    drain    closed loop: BatchRunner + HTTPClient, batch 8, one client per
             runner, never more runner threads than CPUs
    analytics  results + speedup + components + history + profiles
             [+ stitched timelines], fifteen passes

Steadiness.  The sandbox this was built on is quiet (a fixed piece of work
repeats within 1 %) or, a third of the time and for seconds to minutes, not:
it then runs everything 15-50 % slower, in bursts, CPU time included.  That
noise only ever adds time.  Every round of a run does exactly the same work in
the same order (same seed, fresh store), so the k-th sample of one round
measures what the k-th sample of another does.  A run therefore reports its
times on its *quiet round*: the element-wise minimum over its rounds of every
sample -- each batch's share of the drain wall, each claim and submit round
trip, each repetition of each task, each analytics pass (:func:`quiet_round`;
the passes of a round being alike, a part's time is then its quietest pass).
Counts, bytes and shares are the plain median over rounds; they repeat exactly.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import subprocess
import tempfile
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy

from repro.analytics import (
    component_report,
    experiment_history,
    profile_report,
    profiles_by_trace,
    speedup_report,
    stitch_timelines,
)
from repro.data import populate_tpch
from repro.driver.client import HTTPClient
from repro.driver.config import DriverConfig
from repro.driver.runner import BatchRunner
from repro.engine import ColumnEngine, Database, RowEngine
from repro.obs import JsonLogger, MetricsRegistry, TelemetryConfig
from repro.platform.models import Task
from repro.platform.service import PlatformService
from repro.platform.store import Store
from repro.platform.webapp import PlatformServer, create_wsgi_app
from repro.pool.morph import Morpher
from repro.sqlparser import extract_grammar
from repro.tpch import QUERIES

from bench import checks, layers
from bench.workloads import (
    BATCH_SIZE,
    POOL_SEED,
    RUN_SECONDS,
    WORKLOADS,
    Size,
    Workload,
    host_names,
    queue_order,
    workload_digest,
)

ENGINES = {"row": RowEngine, "column": ColumnEngine}

#: lease / per-query timeout; long enough that no lease expires mid-run.
LEASE_SECONDS = 120.0

ANALYTICS_REPEATS = 15
ANALYTICS_PARTS = ("analytics.results_load_s", "analytics.speedup_s",
                   "analytics.components_s", "analytics.history_s",
                   "analytics.profiles_s", "analytics.timeline_s")


@dataclass
class Engines:
    """What set-up builds once per run: the data and the engines over it."""

    engines: list
    populate_s: float
    encoded_bytes: int


@dataclass
class Platform:
    """One round's platform (closed by :meth:`close`) and the engines it serves."""

    spec: Workload
    size: Size
    seed: int
    tracer: layers.Tracer | None
    engines: list
    store: Store
    service: PlatformService
    server: PlatformServer
    owner: object
    contributors: list
    project: object
    telemetry: TelemetryConfig | None
    logger: JsonLogger | None
    registry: MetricsRegistry
    _stack: ExitStack = field(repr=False, default_factory=ExitStack)

    def close(self) -> threading.Thread:
        """Close the store and logs now; returns the thread stopping the server.

        ``PlatformServer.stop`` waits out ``serve_forever``'s half-second poll,
        which a run would otherwise pay once per round; the caller joins the
        thread before the run ends.
        """
        stopper = threading.Thread(target=self.server.stop)
        stopper.start()
        self._stack.close()
        return stopper


def build_engines(spec: Workload, size: Size) -> Engines:
    started = time.perf_counter()
    database = Database(f"tpch-sf{size.scale_factor}")
    populate_tpch(database, scale_factor=size.scale_factor)
    populate_s = time.perf_counter() - started
    engines = [ENGINES[kind](database) for kind in spec.engines]
    for engine in engines:
        for number in spec.queries or (spec.baseline,):
            engine.execute(QUERIES[number])
    summary = database.size_summary()
    return Engines(engines, populate_s,
                   sum(entry["encoded_bytes"] for entry in summary.values()))


def boot(spec: Workload, size: Size, seed: int, workdir: Path,
         tracer: layers.Tracer | None, engines: list) -> Platform:
    workdir.mkdir(parents=True)
    stack = ExitStack()
    telemetry = logger = None
    if spec.telemetry:
        telemetry = TelemetryConfig(slow_task_seconds=0.0,
                                    flight_log=str(workdir / "flight.jsonl"),
                                    span_log=str(workdir / "driver-spans.jsonl"))
        logger = JsonLogger(stack.enter_context(open(workdir / "log.jsonl", "w")))
    path = str(workdir / "platform.sqlite")
    store = layers.TimedStore(tracer, path) if tracer else Store(path)
    stack.callback(store.close)
    wiring = {"store": store, "logger": logger, "telemetry": telemetry}
    service = (layers.TimedService(tracer, **wiring) if tracer
               else PlatformService(**wiring))
    owner = service.register_user("owner", "owner@example.org")
    contributors = [service.register_user(f"contributor{index}",
                                          f"contributor{index}@example.org")
                    for index in range(spec.contributors)]
    for engine in engines:
        service.register_dbms(engine.name, engine.version, dialect=engine.name,
                              description=engine.strategy())
    project = service.create_project(owner, spec.name,
                                     synopsis="contributor-loop benchmark")
    for contributor in contributors:
        service.invite_contributor(owner, project, contributor)
    application = (layers.traced_application(create_wsgi_app(service, logger), tracer)
                   if tracer else None)
    server = PlatformServer(service, application=application, logger=logger).start()
    return Platform(
        spec=spec, size=size, seed=seed, tracer=tracer, engines=engines, store=store,
        service=service, server=server, owner=owner, contributors=contributors,
        project=project, telemetry=telemetry, logger=logger,
        registry=MetricsRegistry(), _stack=stack)


def publish(p: Platform) -> tuple[object, object, float, dict]:
    """Owner path; returns ``(experiment, pool or None, seconds, pool facts)``."""
    spec, size, service = p.spec, p.size, p.service
    labels = [engine.label for engine in p.engines]
    combos = queue_order(p.seed, [(label, host)
                                  for host in host_names(p.seed, size.hosts)
                                  for label in labels])
    facts: dict[str, float] = {}
    started = time.perf_counter()
    baseline_sql = QUERIES[spec.baseline or spec.queries[0]]
    experiment = service.add_experiment(p.owner, p.project, spec.name, baseline_sql,
                                        repeats=spec.repeats,
                                        timeout_seconds=LEASE_SECONDS)
    if spec.baseline is None:
        pool = None
        tasks = [Task(experiment_id=experiment.id, query_sql=QUERIES[number],
                      query_key=f"Q{number}", dbms_label=label, host_name=host,
                      timeout_seconds=LEASE_SECONDS,
                      max_attempts=experiment.max_attempts)
                 for number in spec.queries for label, host in combos]
        p.store.insert_many("tasks", queue_order(p.seed, tasks))
    else:
        built = time.perf_counter()
        pool = service.build_pool(experiment, seed=POOL_SEED)
        facts["pool.build_s"] = time.perf_counter() - built
        grown = time.perf_counter()
        pool.seed_baseline()
        pool.seed_random(size.pool_random)
        morpher = (layers.CountingMorpher if p.tracer else Morpher)(pool, seed=POOL_SEED)
        morpher.grow_to(size.pool_size)
        facts["pool.grow_s"] = time.perf_counter() - grown
        facts["pool.entries"] = len(pool)
        if p.tracer and morpher.steps:
            facts["pool.morph_accept_ratio"] = len(morpher.actions) / morpher.steps
        for label, host in combos:
            service.enqueue_pool(p.owner, experiment, pool, dbms_label=label,
                                 host_name=host)
    return experiment, pool, time.perf_counter() - started, facts


def drain(p: Platform, experiment) -> tuple[list, list[layers.TimedClient], list[float],
                                            float, float]:
    """Closed loop; returns ``(runners, clients, per-runner wall, start, end)``."""
    spec = p.spec
    concurrent = min(spec.contributors, os.cpu_count() or 1)
    runners, clients = [], []
    for contributor in p.contributors[:concurrent]:
        for engine in p.engines:
            client = layers.TimedClient(
                HTTPClient(p.server.url, contributor.contributor_key,
                           metrics=p.registry, logger=p.logger),
                engine.strategy(), p.tracer)
            config = DriverConfig(
                key=contributor.contributor_key, dbms=engine.label,
                host=host_names(p.seed, 1)[0], repeats=spec.repeats,
                timeout=LEASE_SECONDS, batch_size=BATCH_SIZE,
                trace_tasks=spec.telemetry,
                span_log=p.telemetry.span_log if p.telemetry else None,
                telemetry=p.telemetry or TelemetryConfig())
            if p.tracer:
                runner = layers.TimedRunner(
                    client=client, engine=layers.TimedEngine(engine, p.tracer),
                    config=config, metrics=p.registry, logger=p.logger)
                runner.tracer = p.tracer
            else:
                runner = BatchRunner(client=client, engine=engine, config=config,
                                     metrics=p.registry, logger=p.logger)
            runners.append(runner)
            clients.append(client)

    walls = [0.0] * len(runners)

    def work(index: int) -> None:
        started = time.perf_counter()
        runners[index].run_all(experiment.id)
        walls[index] = time.perf_counter() - started

    started = time.perf_counter()
    if concurrent > 1:
        with ThreadPoolExecutor(max_workers=len(runners),
                                thread_name_prefix="runner") as pool:
            for future in [pool.submit(work, index) for index in range(len(runners))]:
                future.result()
    else:
        for index in range(len(runners)):
            work(index)
    return runners, clients, walls, started, time.perf_counter()


def analytics(p: Platform, experiment, pool, runners) -> dict[str, list[float]]:
    """The owner's reads, several passes; returns each part's seconds per pass."""
    labels = [engine.label for engine in p.engines]
    passes: list[dict[str, float]] = []
    for _ in range(ANALYTICS_REPEATS):
        parts: dict[str, float] = {}
        clock = time.perf_counter()

        def lap(name: str) -> None:
            nonlocal clock
            now = time.perf_counter()
            parts[name] = now - clock
            clock = now

        records = p.service.results(experiment, viewer=p.owner)
        if pool is not None:
            by_sql = {entry.sql: entry for entry in pool.entries()}
            for entry in by_sql.values():
                entry.observations.clear()
            for record in records:
                pool.record(by_sql[record.query_sql], record.dbms_label,
                            record.best or 0.0, error=record.error,
                            repeats=record.times, metadata=record.extras)
        lap("analytics.results_load_s")
        if pool is not None:
            speedup_report(pool, baseline=labels[-1], comparison=labels[0])
            lap("analytics.speedup_s")
            component_report(pool, system=labels[0])
            lap("analytics.components_s")
            experiment_history(pool, system=labels[0])
            lap("analytics.history_s")
        profile_report(records)
        lap("analytics.profiles_s")
        if p.spec.telemetry:
            stitch_timelines(
                tasks=p.store.tasks(experiment.id), results=records,
                span_sources=[p.service.spans,
                              *(runner.spans for runner in runners
                                if runner.spans is not None)],
                profiles=profiles_by_trace(records))
            lap("analytics.timeline_s")
        passes.append(parts)
    samples = {name: [parts.get(name, 0.0) for parts in passes]
               for name in ANALYTICS_PARTS}
    samples["analytics_s"] = [sum(parts.values()) for parts in passes]
    return samples


def drain_windows(clients: list[layers.TimedClient], started: float, ended: float,
                  count: int | None) -> tuple[list[float], list[int]]:
    """Cut one drain into consecutive windows bounded by batch deliveries.

    The submits of every client are put in time order and dealt out to
    ``count`` windows by how many results had been delivered before them
    (``None``: one window per submit).  Returns, per window, its wall seconds
    per delivered result and how many results it delivered; the drain's tail
    (the last, empty claim) belongs to the last window.
    """
    submits = sorted((ended_at, results) for client in clients
                     for ended_at, _, results in client.submits)
    # a numbered window holds several deliveries, so that none comes out empty
    count = max(1, min(count, len(submits) // 4)) if count else len(submits)
    total = sum(results for _, results in submits)
    delivered_by = [0] * count
    closes = [started] * count
    delivered = 0
    for ended_at, results in submits:
        window = min(count - 1, delivered * count // total)
        delivered += results
        delivered_by[window] += results
        closes[window] = ended_at
    closes[-1] = ended
    seconds, opened = [], started
    for close, results in zip(closes, delivered_by):
        if results:
            seconds.append((close - opened) / results)
            opened = close
        else:  # never the quiet round's pick
            seconds.append(math.inf)
    return seconds, delivered_by


@dataclass
class Round:
    digest: str
    tasks: int
    failed_operations: int
    #: counts, bytes, shares and -- traced -- per-layer totals of this round.
    values: dict[str, float]
    #: position-aligned time samples of this round, see :func:`quiet_round`.
    samples: dict[str, list[float]]
    #: results delivered per drain window.
    delivered: list[int]
    #: ``(engine, sql, task id)`` -> reported seconds of each repetition.
    executions: dict[tuple[str, str, int], list[float]]
    problems: list[str]
    notes: list[str]
    spans: list[dict]


def run_round(spec: Workload, size: Size, seed: int, workdir: Path, traced: bool,
              parity: bool, built: Engines, stoppers: list) -> Round:
    tracer = layers.Tracer() if traced else None
    for engine in built.engines:
        # the views are built; plans are this round's contributors' to make.
        engine.clear_plan_cache()
    p = boot(spec, size, seed, workdir, tracer, built.engines)
    try:
        experiment, pool, publish_s, values = publish(p)
        digest = workload_digest(p.store.tasks(experiment.id))
        runners, clients, walls, started, ended = drain(p, experiment)
        samples = analytics(p, experiment, pool, runners)
        facts, problems, records = checks.check_outputs(p, experiment, clients)
        notes: list[str] = []
        if parity:
            parity_problems, notes = checks.check_parity(p, records)
            problems += parity_problems
        plan_cache = [engine.cache_stats() for engine in p.engines]
        lookups = sum(stats["hits"] + stats["misses"] for stats in plan_cache)
        values.update({
            "done_share": facts["done"] / facts["tasks"],
            "engine.plan_cache_hit_rate":
                sum(stats["hits"] for stats in plan_cache) / max(lookups, 1),
            "client.retries": p.registry.counter("client.retries").value,
            "client.gave_up": p.registry.counter("client.gave_up").value,
            "obs.server_spans": len(p.service.spans),
            "obs.driver_spans": sum(len(runner.spans) for runner in runners
                                    if runner.spans is not None),
            "obs.flight_entries": len(p.service.flight),
            **{name: value for name, value in facts.items() if "." in name},
        })
        if traced:
            extracted = time.perf_counter()
            extract_grammar(QUERIES[spec.baseline or spec.queries[0]])
            values["sqlparser.extract_s"] = time.perf_counter() - extracted
    finally:
        stoppers.append(p.close())
    # closing the last connection checkpoints the WAL into the database file.
    stored = sum(path.stat().st_size for path in workdir.glob("platform.sqlite*"))
    values["store_bytes_per_task"] = stored / facts["tasks"]
    log = workdir / "log.jsonl"
    values["obs.log_records"] = len(log.read_text().splitlines()) if log.exists() else 0
    values["bench.drain_s"] = ended - started
    if traced:
        values.update(layers.layer_metrics(tracer.spans, walls, facts["claimed"]))

    samples["publish_s"] = [publish_s]
    samples["drain_s_per_result"], delivered = drain_windows(
        clients, started, ended, spec.windows)
    for index, client in enumerate(clients):
        samples[f"claim_ms.{index}"] = [ms for _, ms in client.claims]
        samples[f"submit_ms.{index}"] = [ms for _, ms, _ in client.submits]
    # every repetition of every task, keyed by engine, SQL text and task id:
    # ids repeat across rounds, every round publishing the same list into a
    # fresh store.
    executions = {(client.strategy, client.sql[task], task): times
                  for client in clients for task, times in client.times.items()}
    return Round(executions=executions, digest=digest, tasks=facts["tasks"],
                 failed_operations=facts["failed_operations"], values=values,
                 samples=samples, delivered=delivered, problems=problems, notes=notes,
                 spans=tracer.spans if traced else [])


def quiet_round(rounds: list[dict[str, list[float]]]) -> dict[str, list[float]]:
    """Element-wise minimum over rounds of every position-aligned sample list.

    Lists of one key are cut to the shortest (two racing contributors do not
    make exactly the same number of claims every round).
    """
    return {key: [min(column) for column in zip(*(round_[key] for round_ in rounds))]
            for key in rounds[0]}


def quiet_execution_seconds(rounds: list[dict]) -> tuple[dict[str, float], int]:
    """Engine seconds of the quiet round by engine, and how many samples fed it.

    Each repetition of each task takes its minimum over rounds.  Tasks that
    share engine and SQL text (deep-queue: one per host) are then each counted
    at the quietest of them: with two contributors' threads and the server's
    taking turns at the interpreter lock, a 0.15 ms execution that hands the
    lock over inside numpy waits milliseconds to get it back, and their sum or
    median reads 0.3 s one hour and 0.6 s the next on the same code.  That wait
    is the drain's (``tasks_per_s``), not the engine's.  With one task per text
    this is the plain sum.
    """
    alike: dict[tuple[str, str], list[float]] = defaultdict(list)
    samples = 0
    for key in rounds[0]:
        repetitions = list(zip(*(round_[key] for round_ in rounds if key in round_)))
        samples += sum(map(len, repetitions))
        alike[key[:2]].append(sum(map(min, repetitions)))
    seconds = dict.fromkeys(ENGINES, 0.0)
    for (strategy, _), tasks in alike.items():
        seconds[strategy] += min(tasks) * len(tasks)
    return seconds, samples


def percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def fingerprint() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=Path(__file__).parent,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "sqlite": sqlite3.sqlite_version,
            "commit": commit}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scale: str, scratch: Path) -> dict:
    """Run ``name`` for ``seconds`` and return its result document.

    ``scratch`` holds the store files while the run lasts and is left as it
    was found.  See the module docstring for how samples become ``values``.
    """
    spec = WORKLOADS[name]
    size = spec.size(scale)
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{name}-", dir=scratch))
    rounds: list[Round] = []
    setups: list[float] = []
    stoppers: list[threading.Thread] = []
    try:
        for _ in range(size.setups):
            gc.collect()
            started = time.perf_counter()
            built = build_engines(spec, size)
            booted = boot(spec, size, seed, workdir / f"setup-{len(setups)}", None,
                          built.engines)
            setups.append(time.perf_counter() - started)
            stoppers.append(booted.close())
        # a fixed count for a given --seconds, whatever the clock says today
        for _ in range(max(1, round(size.rounds * seconds / RUN_SECONDS))):
            gc.collect()
            rounds.append(run_round(spec, size, seed, workdir / f"round-{len(rounds)}",
                                    traced, parity=spec.baseline is None and not rounds,
                                    built=built, stoppers=stoppers))
    finally:
        for stopper in stoppers:
            stopper.join()
        shutil.rmtree(workdir, ignore_errors=True)

    # counts, bytes and shares: the median round; traced per-layer seconds:
    # the quietest round's total.
    values = {key: (min if key.endswith("_s") else statistics.median)(
                  round_.values[key] for round_ in rounds)
              for key in rounds[0].values}
    quiet = quiet_round([round_.samples for round_ in rounds])
    drain_s = sum(seconds * results for seconds, results
                  in zip(quiet["drain_s_per_result"], rounds[0].delivered) if results)
    exec_s, executions = quiet_execution_seconds([round_.executions for round_ in rounds])
    claim_ms = [ms for key in quiet if key.startswith("claim_ms.") for ms in quiet[key]]
    submit_ms = [ms for key in quiet if key.startswith("submit_ms.") for ms in quiet[key]]
    # the passes of one round are alike too, so a part's time is its quietest pass
    values.update({name: min(quiet[name]) for name in (*ANALYTICS_PARTS, "analytics_s")})
    values.update({
        "setup_s": statistics.median(setups),
        "data.populate_s": built.populate_s,
        "data.encoded_bytes": built.encoded_bytes,
        "owner.publish_s": quiet["publish_s"][0],
        "tasks_per_s": rounds[0].tasks / drain_s,
        "engine_exec_s": sum(exec_s.values()),
        "column_exec_s": exec_s["column"],
        "client.claim_ms_p50": statistics.median(claim_ms),
        "client.submit_ms_p50": statistics.median(submit_ms),
        "client.claim_ms_p95": percentile(claim_ms, 0.95),
        "client.submit_ms_p95": percentile(submit_ms, 0.95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    problems = [problem for round_ in rounds for problem in round_.problems]
    if len({round_.digest for round_ in rounds}) != 1:
        problems.append("rounds of one seed published different task lists")
    return {
        "workload": name, "seed": seed, "scale": scale, "seconds": seconds,
        "traced": traced,
        "workload_digest": rounds[0].digest, "sizes": asdict(size),
        "fingerprint": fingerprint(), "rounds": len(rounds),
        "samples": {"setup": len(setups), "rounds": len(rounds),
                    "drain_windows": len(quiet["drain_s_per_result"]),
                    "claims": len(claim_ms), "submits": len(submit_ms),
                    "executions": executions,
                    "analytics_passes": ANALYTICS_REPEATS},
        "correct": not problems,
        "attempted": sum(round_.tasks for round_ in rounds),
        "failed": sum(round_.failed_operations for round_ in rounds),
        "problems": problems, "notes": sorted(set(rounds[0].notes)),
        "values": values,
        "spans": [{"round": index, **span}
                  for index, round_ in enumerate(rounds) for span in round_.spans],
    }
