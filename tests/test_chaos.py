"""Chaos tests: the platform's exactly-once accounting under injected faults.

The tentpole scenario runs a small fleet of ``BatchRunner`` workers against a
platform whose transport, engine and store all misbehave on purpose (seeded
:class:`FaultInjector`), then audits the books: every task must end ``done``
(with exactly one successful result) or dead-lettered after exhausting its
retry budget, and no submission may ever be recorded twice.

Knobs (environment):

* ``CHAOS_SEED``  -- base seed for all injectors (default 1234),
* ``CHAOS_TASKS`` -- queue size of the chaos experiment (default 12).

A run writes ``CHAOS_summary.json`` (into the shared ``artifact_dir``:
``BENCH_ARTIFACT_DIR``, else the git-ignored ``bench-artifacts/``) with the
fault counts and the final accounting, so CI keeps the evidence of what the
run survived.
"""

import json
import os
import sys
import threading
import time

from repro.driver import BatchRunner, DriverConfig, HTTPClient, InProcessClient
from repro.engine import ColumnEngine, Database
from repro.obs import MetricsRegistry
from repro.platform import (
    FaultConfig,
    FaultInjector,
    FlakyEngine,
    PlatformServer,
    PlatformService,
    SimulatedCrash,
    Store,
    TaskStatus,
    UnreliableClient,
)
from repro.platform.models import Task

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "1234"))
CHAOS_TASKS = int(os.environ.get("CHAOS_TASKS", "12"))

TERMINAL = {TaskStatus.DONE.value, TaskStatus.FAILED.value, TaskStatus.KILLED.value}


def _tiny_database(name: str) -> Database:
    database = Database(name)
    database.create_table("t", [("id", "int"), ("price", "float")])
    database.insert_rows("t", [(1, 10.0), (2, 20.0), (3, 30.0)])
    return database


def _platform(store: Store, n_tasks: int, n_workers: int,
              lease_seconds: float, max_attempts: int = 3):
    """A service with ``n_tasks`` hand-queued tasks and ``n_workers`` members."""
    service = PlatformService(store)
    owner = service.register_user("owner", "owner@example.org")
    workers = [service.register_user(f"worker{i}", f"worker{i}@example.org")
               for i in range(n_workers)]
    dbms = service.register_dbms("columnstore", "1.0")
    service.register_host("laptop")
    project = service.create_project(owner, "chaos")
    for worker in workers:
        service.invite_contributor(owner, project, worker)
    experiment = service.add_experiment(
        owner, project, "chaos", "select sum(price) from t where id > 0",
        dbms=dbms, repeats=1, timeout_seconds=lease_seconds,
        max_attempts=max_attempts)
    # hand-crafted tasks (not a grown pool) so the queue size is exact.
    for i in range(n_tasks):
        store.insert("tasks", Task(
            experiment_id=experiment.id,
            query_sql=f"select sum(price) from t where id > {i % 3}",
            query_key=f"chaos-{i}",
            dbms_label="columnstore-1.0",
            host_name="laptop",
            timeout_seconds=lease_seconds,
            max_attempts=max_attempts,
        ))
    return service, owner, workers, experiment


# ---------------------------------------------------------------------------
# concurrent claiming partitions the queue
# ---------------------------------------------------------------------------


def _race_to_empty(services, workers, experiment) -> list[int]:
    """Every worker claims batches of 3 until the queue is empty, all at once
    (worker ``i`` through ``services[i % len(services)]``, the interpreter
    switching threads as often as it can); returns every task id handed out."""
    barrier = threading.Barrier(len(workers))
    claims: list[int] = []
    failures: list[BaseException] = []

    def claim(service, worker):
        try:
            barrier.wait(timeout=30)
            while batch := service.next_tasks(worker, experiment, limit=3):
                claims.extend(task.id for task in batch)
        except BaseException as exc:  # noqa: BLE001 - asserted below
            failures.append(exc)

    threads = [threading.Thread(target=claim,
                                args=(services[index % len(services)], worker))
               for index, worker in enumerate(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not failures and not any(thread.is_alive() for thread in threads)
    return claims


class TestConcurrentClaiming:
    def test_threads_partition_the_queue(self, tmp_path):
        """N racing claimers: every task leased exactly once, none lost."""
        store = Store(str(tmp_path / "claims.db"))
        service, _owner, workers, experiment = _platform(
            store, n_tasks=20, n_workers=4, lease_seconds=60.0)
        all_claims = _race_to_empty([service], workers, experiment)
        assert len(all_claims) == 20  # none lost
        assert len(set(all_claims)) == 20  # none double-assigned
        leased = service.store.tasks(experiment.id)
        assert all(task.status == TaskStatus.RUNNING.value for task in leased)
        store.close()

    def test_two_services_on_one_file_partition_the_queue(self, tmp_path):
        """Two server processes' worth of state -- two connections, two
        services -- share one store file: the store transaction, not a
        per-process lock, is what keeps a task from being leased twice."""
        path = str(tmp_path / "shared.db")
        stores = [Store(path)]
        service, _owner, workers, experiment = _platform(
            stores[0], n_tasks=60, n_workers=4, lease_seconds=60.0)
        stores.append(Store(path))
        all_claims = _race_to_empty([service, PlatformService(stores[1])],
                                    workers, experiment)
        assert len(all_claims) == 60  # none lost
        assert len(set(all_claims)) == 60  # none leased through both services
        assert service.queue_status(experiment) == {"running": 60}
        for store in stores:
            store.close()

    def test_http_claims_partition_through_threaded_server(self, tmp_path):
        """Same partition property end-to-end over the threading WSGI server."""
        store = Store(str(tmp_path / "http-claims.db"))
        service, _owner, workers, experiment = _platform(
            store, n_tasks=12, n_workers=3, lease_seconds=60.0)
        claims: dict[str, list[int]] = {}
        barrier = threading.Barrier(len(workers))

        with PlatformServer(service) as server:
            def claim(worker):
                client = HTTPClient(server.url, worker.contributor_key)
                barrier.wait()
                got = []
                while True:
                    batch = client.next_tasks(experiment.id, count=2)
                    if not batch:
                        break
                    got.extend(task["id"] for task in batch)
                claims[worker.nickname] = got

            threads = [threading.Thread(target=claim, args=(worker,))
                       for worker in workers]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        all_claims = [task_id for got in claims.values() for task_id in got]
        assert len(all_claims) == 12 and len(set(all_claims)) == 12
        store.close()


# ---------------------------------------------------------------------------
# the chaos run
# ---------------------------------------------------------------------------


class TestChaosAccounting:
    def test_fleet_survives_faults_with_exact_accounting(self, tmp_path, artifact_dir):
        n_workers = 4
        max_attempts = 3
        lease = 0.25
        store = Store(str(tmp_path / "chaos.db"))
        service, _owner, workers, experiment = _platform(
            store, n_tasks=CHAOS_TASKS, n_workers=n_workers,
            lease_seconds=lease, max_attempts=max_attempts)

        # the store itself crashes mid-transaction now and then.
        store_faults = FaultInjector(FaultConfig(store_crash=0.03),
                                     seed=CHAOS_SEED)
        store.fault_hook = store_faults.store_hook

        transport_config = FaultConfig(drop_request=0.10, drop_response=0.10,
                                       duplicate=0.15, delay=0.15,
                                       max_delay_seconds=0.005, fail_task=0.15)
        client_metrics = MetricsRegistry()
        injectors, runners = [], []
        for i, worker in enumerate(workers):
            injector = FaultInjector(transport_config, seed=CHAOS_SEED + 1 + i)
            injectors.append(injector)
            client = UnreliableClient(
                InProcessClient(service, worker.contributor_key), injector)
            engine = FlakyEngine(ColumnEngine(_tiny_database(f"chaos-{i}")),
                                 injector)
            config = DriverConfig(key=worker.contributor_key,
                                  dbms="columnstore-1.0", host="laptop",
                                  repeats=1, batch_size=3,
                                  retries=6, retry_delay=0.001)
            runners.append(BatchRunner(client=client, engine=engine,
                                       config=config, metrics=client_metrics))

        crashes: list[BaseException] = []

        def drive(runner):
            try:
                runner.run_all(experiment.id)
            except BaseException as exc:  # noqa: BLE001 - audited below
                crashes.append(exc)

        rounds = 0
        for rounds in range(1, 41):
            statuses = [task.status for task in store.tasks(experiment.id)]
            if all(status in TERMINAL for status in statuses):
                break
            threads = [threading.Thread(target=drive, args=(runner,))
                       for runner in runners]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # let in-flight leases (lost responses, slow workers) lapse, then
            # heal the queue exactly as a claim would.
            if any(task.status == TaskStatus.RUNNING.value
                   for task in store.tasks(experiment.id)):
                time.sleep(lease + 0.05)
            try:
                service.expire_stuck_tasks(experiment)
            except SimulatedCrash:
                # the injected store crash can land on this thread's sweep as
                # well: it rolled back, and the next round's claim or sweep heals
                pass

        assert not crashes, f"worker threads must absorb faults: {crashes!r}"

        # -- the audit ---------------------------------------------------------
        tasks = store.tasks(experiment.id)
        records = store.results(experiment.id)
        assert all(task.status in TERMINAL for task in tasks), \
            f"queue did not settle in {rounds} rounds: " \
            f"{[(task.id, task.status) for task in tasks]}"

        successes_by_task: dict[int, int] = {}
        for record in records:
            if record.error is None:
                successes_by_task[record.task_id] = \
                    successes_by_task.get(record.task_id, 0) + 1

        done = [task for task in tasks if task.status == TaskStatus.DONE.value]
        dead = [task for task in tasks if task.status == TaskStatus.FAILED.value]
        assert len(done) + len(dead) == CHAOS_TASKS
        # exactly-once: each completed task has exactly one successful record.
        for task in done:
            assert successes_by_task.get(task.id, 0) == 1, \
                f"task {task.id} completed {successes_by_task.get(task.id, 0)} times"
        # dead-lettered tasks burned their whole budget and never succeeded.
        for task in dead:
            assert task.attempts == max_attempts
            assert task.last_error is not None
            assert task.id not in successes_by_task
        # no submission was recorded twice: keys are unique and every stored
        # record is covered by exactly one remembered key.
        keys = [record.idempotency_key for record in records]
        assert all(keys) and len(set(keys)) == len(keys)
        assert store.idempotency_size() == len(records)
        # the run must actually have been chaotic.
        injected = sum(injector.total() for injector in injectors)
        assert injected > 0

        # deterministic replay probe: resubmitting a stored record's key
        # yields the original record, not a new row.
        probe = records[0]
        worker = next(w for w in workers
                      if w.contributor_key == probe.contributor_key)
        before = service.metrics.counter("results.deduplicated").value
        replared = service.submit_result(
            worker, store.task(probe.task_id), times=[99.9],
            idempotency_key=probe.idempotency_key, attempt=None)
        assert replared.id == probe.id
        assert service.metrics.counter("results.deduplicated").value == before + 1
        assert len(store.results(experiment.id)) == len(records)

        summary = {
            "seed": CHAOS_SEED,
            "tasks": CHAOS_TASKS,
            "workers": n_workers,
            "rounds": rounds,
            "done": len(done),
            "dead_lettered": len(dead),
            "results_recorded": len(records),
            "faults_injected": {
                "transport": {kind: sum(injector.counts[kind]
                                        for injector in injectors)
                              for kind in injectors[0].counts},
                "store_crashes": store_faults.counts["store_crash"],
            },
            "platform_metrics": {
                name: value
                for name, value in service.metrics.snapshot()["counters"].items()
                if name.startswith(("tasks.", "results.", "queue."))
            },
            "client_metrics": client_metrics.snapshot()["counters"],
        }
        target = artifact_dir / "CHAOS_summary.json"
        target.write_text(json.dumps(summary, indent=2))
        store.close()
