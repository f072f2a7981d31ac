#!/usr/bin/env python3
"""A shared performance project, end to end (Sections 4 and 5 of the paper).

The script plays three roles:

* the **project owner** registers the DBMS/host catalogs, creates a private
  project, converts a baseline query into a grammar, grows the query pool and
  queues it,
* a **contributor** runs the queued queries with the experiment driver over
  HTTP against the platform server, one task per round trip (exactly the
  ``sqalpel.py`` loop), and reports wall-clock times plus load averages,
* a **reader** finally inspects the shared results: queue status, CSV export
  and the experiment history.

Run with ``python examples/shared_project.py``.
"""

from repro.analytics import experiment_history, speedup_report
from repro.driver import BatchRunner, DriverConfig, HTTPClient
from repro.platform import PlatformServer, PlatformService, Visibility
from repro.pool import Morpher
from repro.tpch import QUERIES
from repro.workflow import build_engines, build_tpch_database


def main() -> None:
    service = PlatformService()

    # --- the owner sets the project up -------------------------------------
    owner = service.register_user("mk", "owner@example.org")
    contributor = service.register_user("pk", "contributor@example.org")
    host = service.register_host("laptop", cpu="x86-64", memory_gb=16, os="linux")
    database = build_tpch_database(scale_factor=0.001)
    row_engine, column_engine = build_engines(database)
    for engine in (row_engine, column_engine):
        service.register_dbms(engine.name, engine.version, dialect=engine.name)

    project = service.create_project(owner, "tpch-q6-private",
                                     synopsis="Selective-scan behaviour of Q6 variants",
                                     visibility=Visibility.PRIVATE,
                                     attribution="TPC-H")
    service.invite_contributor(owner, project, contributor)
    experiment = service.add_experiment(owner, project, "q6", QUERIES[6],
                                        repeats=3, timeout_seconds=60)

    pool = service.build_pool(experiment, seed=1)
    pool.seed_baseline()
    pool.seed_random(3)
    Morpher(pool, seed=1).grow_to(8)
    for engine in (row_engine, column_engine):
        service.enqueue_pool(owner, experiment, pool, dbms_label=engine.label,
                             host_name=host.name)
    print(f"project '{project.name}' ({project.visibility.value}), "
          f"pool of {len(pool)} queries queued for two systems")

    # --- a contributor drains the queue over HTTP ---------------------------
    with PlatformServer(service) as server:
        for engine in (row_engine, column_engine):
            config = DriverConfig(key=contributor.contributor_key, dbms=engine.label,
                                  host=host.name, repeats=3, timeout=60,
                                  batch_size=1, server=server.url)
            driver = BatchRunner(client=HTTPClient(server.url,
                                                   contributor.contributor_key),
                                 engine=engine, config=config)
            executed = driver.run_all(experiment.id)
            print(f"contributor executed {executed} tasks on {engine.label}")

    # --- everyone with access inspects the shared results -------------------
    print("queue status:", service.queue_status(experiment))
    csv_export = service.export_results_csv(experiment, viewer=owner)
    print(f"CSV export: {len(csv_export.splitlines()) - 1} result rows")

    for record in service.results(experiment, viewer=contributor):
        pool_entry = next((entry for entry in pool.entries()
                           if entry.sql == record.query_sql), None)
        if pool_entry is not None:
            pool.record(pool_entry, record.dbms_label, record.best or 0.0,
                        error=record.error, repeats=record.times)

    report = speedup_report(pool, baseline=column_engine.label, comparison=row_engine.label)
    if report.points:
        low, high = report.spread()
        print(f"row-store slowdown relative to the column store: "
              f"{low:.1f}x .. {high:.1f}x over {len(report.points)} variants")
    history = experiment_history(pool, system=row_engine.label)
    print(f"experiment history: {len(history.nodes)} nodes, {len(history.edges)} morph edges, "
          f"{len(history.error_nodes())} errors")


if __name__ == "__main__":
    main()
