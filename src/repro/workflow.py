"""End-to-end workflow helpers.

The demo scenario of Section 5 walks through: define a project, convert a
baseline query into a grammar (Figure 5), build and grow the query pool
(Figure 6), queue the pool and let contributors run it with the driver,
inspect the experiment history (Figure 7) and the analytics pages
(Figures 2-4).  :func:`run_demo_scenario` performs exactly that loop on the
built-in engines and returns everything the figures need; examples, the CLI
``demo`` sub-command and the figure benchmarks all share it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analytics import (
    ComponentReport,
    ExperimentHistory,
    SpeedupReport,
    TaskTimeline,
    component_report,
    experiment_history,
    profiles_by_trace,
    speedup_report,
    stitch_timelines,
)
from repro.data import populate_tpch
from repro.driver.client import InProcessClient
from repro.driver.config import DriverConfig
from repro.driver.runner import BatchRunner
from repro.engine import ColumnEngine, Database, Engine, RowEngine
from repro.obs import TelemetryConfig
from repro.platform.models import Experiment, Project, User
from repro.platform.service import PlatformService
from repro.pool.morph import Morpher
from repro.pool.pool import QueryPool
from repro.tpch import QUERIES

#: default baseline query of the demo: TPC-H Q1 (the paper's running example).
DEFAULT_BASELINE = QUERIES[1]


def build_tpch_database(scale_factor: float = 0.001, seed: int = 20190113) -> Database:
    """Create and populate a TPC-H database instance at ``scale_factor``."""
    database = Database(name=f"tpch-sf{scale_factor}")
    populate_tpch(database, scale_factor=scale_factor, seed=seed)
    return database


def build_engines(database: Database) -> tuple[RowEngine, ColumnEngine]:
    """The two default target systems over one database instance."""
    return RowEngine(database), ColumnEngine(database)


@dataclass
class DemoSummary:
    """Everything :func:`run_demo_scenario` produces."""

    service: PlatformService
    owner: User
    contributor: User
    project: Project
    experiment: Experiment
    pool: QueryPool
    engines: list[Engine] = field(default_factory=list)
    executed_tasks: int = 0
    speedup: SpeedupReport | None = None
    components: ComponentReport | None = None
    history: ExperimentHistory | None = None
    #: the service's metrics snapshot taken after the drain.
    metrics: dict | None = None
    #: per-task end-to-end timelines (only when telemetry was enabled).
    timelines: list[TaskTimeline] = field(default_factory=list)

    def describe(self) -> str:
        """A terse, printable account of the run."""
        lines = [
            f"project          : {self.project.name} ({self.project.visibility.value})",
            f"experiment       : {self.experiment.name}",
            f"pool size        : {len(self.pool)} queries "
            f"({len(self.pool.templates)} templates)",
            f"executed tasks   : {self.executed_tasks}",
            f"systems          : {', '.join(engine.label for engine in self.engines)}",
        ]
        for engine in self.engines:
            stats = engine.cache_stats()
            lines.append(
                f"plan cache       : {engine.label}: {stats['hits']} hits, "
                f"{stats['misses']} misses, "
                f"{stats['size']}/{stats['maxsize']} plans cached"
            )
        if self.engines:
            summary = self.engines[0].database.size_summary()
            rows = sum(entry["rows"] for entry in summary.values())
            encoded = sum(entry["encoded_bytes"] for entry in summary.values())
            raw = sum(entry["raw_bytes"] for entry in summary.values())
            ratio = (raw / encoded) if encoded else 1.0
            lines.append(
                f"storage          : {len(summary)} tables, {rows} rows, "
                f"{encoded / 1024:.0f} KiB encoded ({ratio:.2f}x compression)"
            )
        if self.speedup and self.speedup.points:
            spread = self.speedup.spread()
            lines.append(
                f"speedup spread   : {spread[0]:.2f}x .. {spread[1]:.2f}x "
                f"({self.speedup.baseline} vs {self.speedup.comparison})"
            )
        if self.components and self.components.dominant_term():
            lines.append(f"dominant term    : {self.components.dominant_term()}")
        if self.history:
            lines.append(
                f"history          : {len(self.history.nodes)} nodes, "
                f"{len(self.history.edges)} morph edges, "
                f"{len(self.history.error_nodes())} errors"
            )
        if self.metrics:
            counters = self.metrics.get("counters", {})
            derived = self.metrics.get("derived", {})
            lines.append(
                f"queue metrics    : {counters.get('tasks.enqueued', 0)} enqueued, "
                f"{counters.get('tasks.dispatched', 0)} dispatched, "
                f"{counters.get('tasks.retried', 0)} retried, "
                f"{counters.get('tasks.refused', 0)} refused, "
                f"retry_rate={derived.get('tasks.retry_rate', 0.0):.1%}"
            )
        if self.timelines:
            phase_totals: dict[str, float] = {}
            for timeline in self.timelines:
                for phase, seconds in timeline.phases.items():
                    phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
            phases = " ".join(f"{name}={seconds:.3f}s"
                              for name, seconds in sorted(phase_totals.items()))
            lines.append(
                f"telemetry        : {len(self.timelines)} task timelines ({phases})")
        return "\n".join(lines)


def run_experiment_on_engines(pool: QueryPool, engines: list[Engine], repeats: int = 3
                              ) -> None:
    """Measure every pool entry on every engine, recording into the pool.

    Measurement goes through :meth:`QueryPool.measure`, which prepares each
    query once per engine (plan cache) and times executions of the prepared
    plan only.
    """
    for engine in engines:
        pool.measure(engine, repeats=repeats)


def run_demo_scenario(baseline_sql: str = DEFAULT_BASELINE, scale_factor: float = 0.001,
                      pool_size: int = 12, repeats: int = 3, seed: int = 7,
                      telemetry: TelemetryConfig | None = None) -> DemoSummary:
    """Run the full demo loop and return the collected artefacts.

    The loop mirrors Sections 5.3-5.6 of the paper: project + experiment
    definition, pool construction and morphing, queueing, driver-based result
    contribution for each registered DBMS, and the three analytics reports.

    ``telemetry`` (an enabled :class:`~repro.obs.TelemetryConfig`) switches
    on the end-to-end tracing pipeline: the service records server-side
    spans, the drivers trace each task's execution (engine ``QueryTrace``
    included) and the summary carries stitched per-task timelines plus a
    metrics snapshot.
    """
    database = build_tpch_database(scale_factor=scale_factor)
    row_engine, column_engine = build_engines(database)
    engines: list[Engine] = [row_engine, column_engine]
    tracing = telemetry is not None and telemetry.enabled

    service = PlatformService(telemetry=telemetry)
    owner = service.register_user("owner", "owner@example.org")
    contributor = service.register_user("contributor", "contributor@example.org")
    host = service.register_host("laptop", cpu="generic-x86", memory_gb=16, os="linux")
    dbms_entries = [
        service.register_dbms(engine.name, engine.version, dialect=engine.name,
                              description=engine.strategy())
        for engine in engines
    ]
    project = service.create_project(owner, "tpch-demo",
                                     synopsis="Discriminative benchmarking demo on TPC-H Q1",
                                     attribution="TPC-H (Transaction Processing Council)")
    service.invite_contributor(owner, project, contributor)
    experiment = service.add_experiment(owner, project, "q1-variants", baseline_sql,
                                        dbms=dbms_entries[0], host=host,
                                        repeats=repeats, timeout_seconds=120.0)

    pool = service.build_pool(experiment, seed=seed)
    pool.seed_baseline()
    pool.seed_random(max(pool_size // 3, 2))
    Morpher(pool, seed=seed).grow_to(pool_size)

    executed = 0
    runners: list[BatchRunner] = []
    for engine in engines:
        service.enqueue_pool(owner, experiment, pool, dbms_label=engine.label,
                             host_name=host.name)
    for engine in engines:
        config = DriverConfig(key=contributor.contributor_key, dbms=engine.label,
                              host=host.name, repeats=repeats, timeout=120.0,
                              batch_size=8, trace_tasks=tracing,
                              telemetry=telemetry or TelemetryConfig())
        runner = BatchRunner(
            client=InProcessClient(service, contributor.contributor_key),
            engine=engine, config=config)
        runners.append(runner)
        executed += runner.run_all(experiment.id)
    _replay_results_into_pool(service, experiment, pool)

    summary = DemoSummary(service=service, owner=owner, contributor=contributor,
                          project=project, experiment=experiment, pool=pool,
                          engines=engines, executed_tasks=executed)
    summary.speedup = speedup_report(pool, baseline=column_engine.label,
                                     comparison=row_engine.label)
    summary.components = component_report(pool, system=row_engine.label)
    summary.history = experiment_history(pool, system=row_engine.label)
    summary.metrics = service.metrics.snapshot()
    if tracing:
        results = service.store.results(experiment.id)
        summary.timelines = stitch_timelines(
            tasks=service.store.tasks(experiment.id),
            results=results,
            span_sources=[service.spans,
                          *(runner.spans for runner in runners
                            if runner.spans is not None)],
            profiles=profiles_by_trace(results))
    return summary


def _replay_results_into_pool(service: PlatformService, experiment, pool: QueryPool) -> None:
    """Copy the platform's stored results back onto the in-memory pool entries."""
    by_sql = {entry.sql: entry for entry in pool.entries()}
    for record in service.store.results(experiment.id):
        entry = by_sql.get(record.query_sql)
        if entry is None:
            continue
        pool.record(entry, record.dbms_label, record.best or 0.0, error=record.error,
                    repeats=record.times, metadata=record.extras)
