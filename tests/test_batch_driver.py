"""Tests for the batched driver pipeline and the measure_query semantics."""

import pytest

from repro.driver import BatchRunner, DriverConfig, HTTPClient, InProcessClient, measure_query
from repro.engine import ColumnEngine, Database, EngineOptions, RowEngine
from repro.errors import ConfigError, ValidationError
from repro.platform.models import TaskStatus
from repro.platform.service import PlatformService
from repro.platform.webapp import PlatformServer


@pytest.fixture()
def tiny_db() -> Database:
    database = Database("batch-unit")
    database.create_table("t", [("id", "int"), ("price", "float")])
    database.insert_rows("t", [(1, 10.0), (2, 20.0), (3, 30.0)])
    return database


@pytest.fixture()
def platform(tiny_db):
    """A service with one experiment whose pool is queued for one engine."""
    service = PlatformService()
    owner = service.register_user("owner", "owner@example.org")
    contributor = service.register_user("driver", "driver@example.org")
    host = service.register_host("laptop")
    engine = ColumnEngine(tiny_db)
    service.register_dbms(engine.name, engine.version)
    project = service.create_project(owner, "batch-demo")
    service.invite_contributor(owner, project, contributor)
    experiment = service.add_experiment(
        owner, project, "exp", "select sum(price) from t where id > 0",
        repeats=2, timeout_seconds=60.0)
    pool = service.build_pool(experiment, seed=5)
    pool.seed_baseline()
    pool.seed_random(4)
    service.enqueue_pool(owner, experiment, pool, dbms_label=engine.label,
                        host_name=host.name)
    return service, owner, contributor, experiment, engine


# ---------------------------------------------------------------------------
# service-level batching
# ---------------------------------------------------------------------------


class TestServiceBatching:
    def test_next_tasks_claims_up_to_limit(self, platform):
        service, _owner, contributor, experiment, engine = platform
        claimed = service.next_tasks(contributor, experiment, limit=3,
                                     dbms_label=engine.label)
        assert 1 <= len(claimed) <= 3
        assert all(task.status == TaskStatus.RUNNING.value for task in claimed)
        assert all(task.assigned_to == contributor.contributor_key for task in claimed)

    def test_next_tasks_respects_dbms_filter(self, platform):
        service, _owner, contributor, experiment, _engine = platform
        assert service.next_tasks(contributor, experiment, limit=5,
                                  dbms_label="no-such-dbms") == []

    def test_next_tasks_rejects_non_positive_limit(self, platform):
        service, _owner, contributor, experiment, _engine = platform
        with pytest.raises(ValidationError):
            service.next_tasks(contributor, experiment, limit=0)

    def test_submit_results_batch_records_and_flips_status(self, platform):
        service, _owner, contributor, experiment, engine = platform
        claimed = service.next_tasks(contributor, experiment, limit=2,
                                     dbms_label=engine.label)
        records = service.submit_results(contributor, [
            {"task": claimed[0], "times": [0.01, 0.02]},
            {"task": claimed[1], "times": [], "error": "ExecutionError: boom"},
        ])
        assert len(records) == 2
        assert claimed[0].status == TaskStatus.DONE.value
        # a first error re-pends the task for another attempt instead of
        # failing it outright (retry budget: experiment.max_attempts).
        assert claimed[1].status == TaskStatus.PENDING.value
        assert claimed[1].attempts == 1
        assert claimed[1].last_error == "ExecutionError: boom"
        assert records[1].error == "ExecutionError: boom"

    def test_submit_results_batch_validates_before_writing(self, platform):
        service, _owner, contributor, experiment, engine = platform
        claimed = service.next_tasks(contributor, experiment, limit=2,
                                     dbms_label=engine.label)
        with pytest.raises(ValidationError):
            service.submit_results(contributor, [
                {"task": claimed[0], "times": [0.01]},
                {"task": claimed[1], "times": []},  # no timings and no error
            ])
        # the invalid batch must not have recorded anything
        assert service.store.results(experiment.id) == []

    def test_submit_results_batch_is_atomic_on_missing_task(self, platform):
        from repro.errors import NotFound

        service, _owner, contributor, experiment, engine = platform
        claimed = service.next_tasks(contributor, experiment, limit=1,
                                     dbms_label=engine.label)
        ghost = claimed[0]
        service.store.delete("tasks", ghost.id)
        with pytest.raises(NotFound):
            service.submit_results(contributor, [
                {"task": ghost, "times": [0.01]},
            ])
        # the result insert must have been rolled back with the failed update
        assert service.store.results(experiment.id) == []


# ---------------------------------------------------------------------------
# batch runner (in-process and HTTP transports)
# ---------------------------------------------------------------------------


def _config(contributor, engine, **overrides) -> DriverConfig:
    settings = dict(key=contributor.contributor_key, dbms=engine.label, host="laptop",
                    repeats=2, timeout=60.0, batch_size=3)
    settings.update(overrides)
    return DriverConfig(**settings)


class TestBatchRunner:
    def test_drains_queue_in_batches(self, platform):
        service, _owner, contributor, experiment, engine = platform
        runner = BatchRunner(client=InProcessClient(service, contributor.contributor_key),
                             engine=engine, config=_config(contributor, engine))
        executed = runner.run_all(experiment.id)
        tasks = service.store.tasks(experiment.id)
        pending = [task for task in tasks if task.status == TaskStatus.PENDING.value]
        assert executed == len(tasks) >= 1 and pending == []
        assert len(service.store.results(experiment.id)) == executed
        # every distinct query was planned exactly once: misses == distinct SQL
        stats = engine.cache_stats()
        distinct = len({task.query_sql for task in service.store.tasks(experiment.id)})
        assert stats["misses"] == distinct

    def test_max_tasks_clamps_batches(self, platform):
        service, _owner, contributor, experiment, engine = platform
        runner = BatchRunner(client=InProcessClient(service, contributor.contributor_key),
                             engine=engine, config=_config(contributor, engine))
        executed = runner.run_all(experiment.id, max_tasks=2)
        assert executed == 2

    def test_worker_pool_produces_complete_results(self, platform):
        service, _owner, contributor, experiment, engine = platform
        runner = BatchRunner(client=InProcessClient(service, contributor.contributor_key),
                             engine=engine,
                             config=_config(contributor, engine, workers=3, batch_size=5))
        executed = runner.run_all(experiment.id)
        records = service.store.results(experiment.id)
        assert len(records) == executed
        assert all(record.error is None and len(record.times) == 2
                   for record in records)

    def test_http_round_trip(self, platform):
        service, _owner, contributor, experiment, engine = platform
        with PlatformServer(service) as server:
            client = HTTPClient(server.url, contributor.contributor_key)
            tasks = client.next_tasks(experiment.id, count=2, dbms=engine.label)
            assert len(tasks) == 2
            submitted = client.submit_results([
                {"task": task["id"], "times": [0.01], "error": None,
                 "load_averages": {}, "extras": {"engine": engine.label}}
                for task in tasks
            ])
            assert len(submitted) == 2
            assert {record["task_id"] for record in submitted} \
                == {task["id"] for task in tasks}

    def test_config_parses_batch_options(self, tmp_path):
        config_path = tmp_path / "driver.ini"
        config_path.write_text(
            "[sqalpel]\nkey = abc\n\n[target]\ndbms = columnstore-1.0\nhost = laptop\n"
            "batch_size = 16\nworkers = 4\n")
        from repro.driver import load_config

        config = load_config(config_path)
        assert config.batch_size == 16 and config.workers == 4
        with pytest.raises(ConfigError):
            DriverConfig(key="k", dbms="d", host="h", batch_size=0)
        with pytest.raises(ConfigError):
            DriverConfig(key="k", dbms="d", host="h", workers=0)


# ---------------------------------------------------------------------------
# measure_query semantics
# ---------------------------------------------------------------------------


class _StubResult:
    def __init__(self, elapsed: float, rows: int):
        self.elapsed = elapsed
        self.rows = [()] * rows

    def profile(self) -> dict:
        return {"engine": "stub-1.0", "rows": len(self.rows), "phases": {},
                "counters": {}, "plan_cache_hit": True}


class _StubEngine:
    """Engine double with scripted per-repetition behaviour."""

    label = "stub-1.0"
    options = EngineOptions()

    def __init__(self, script):
        #: each entry is either (elapsed, rows) or an Exception to raise.
        self.script = list(script)
        self.executions = 0

    def strategy(self) -> str:
        return "stub"

    def prepare(self, query):
        return query

    def execute(self, _query):
        step = self.script[min(self.executions, len(self.script) - 1)]
        self.executions += 1
        if isinstance(step, Exception):
            raise step
        elapsed, rows = step
        return _StubResult(elapsed, rows)


class TestMeasureQuery:
    def test_times_come_from_result_elapsed(self, tiny_db):
        engine = RowEngine(tiny_db)
        outcome = measure_query(engine, "select count(*) from t", repeats=3)
        assert len(outcome.times) == 3 and not outcome.failed
        assert outcome.rows == 1
        # the engine reports execution-only elapsed times; the outcome must
        # carry exactly those, not a re-measured wall clock around them.
        assert all(value >= 0.0 for value in outcome.times)

    def test_rows_survive_a_later_failed_repetition(self):
        engine = _StubEngine([(0.01, 7), RuntimeError("flaky")])
        outcome = measure_query(engine, "select 1", repeats=3)
        assert outcome.failed and "flaky" in outcome.error
        assert outcome.times == [0.01]
        assert outcome.rows == 7
        assert outcome.extras["rows"] == 7

    def test_over_budget_repetition_is_recorded_and_flagged(self):
        engine = _StubEngine([(5.0, 3)])
        outcome = measure_query(engine, "select 1", repeats=5, timeout=1.0)
        # the over-budget repetition is recorded, flagged, and stops the loop.
        assert outcome.times == [5.0]
        assert outcome.timed_out and outcome.extras["timed_out"] is True
        assert engine.executions == 1

    def test_within_budget_runs_all_repetitions(self):
        engine = _StubEngine([(0.1, 3)])
        outcome = measure_query(engine, "select 1", repeats=4, timeout=1.0)
        assert len(outcome.times) == 4
        assert not outcome.timed_out and "timed_out" not in outcome.extras

    def test_prepare_failure_is_a_first_class_outcome(self, tiny_db):
        engine = RowEngine(tiny_db)
        outcome = measure_query(engine, "selectt broken", repeats=3)
        assert outcome.failed and outcome.times == []
        assert outcome.extras["engine"] == engine.label

    @pytest.mark.parametrize("sql, error, kind", [
        ("selectt broken", "SQLSyntaxError", "syntax"),
        ("select id from t order by price + 1", "PlanError", "plan"),
        ("select id from nowhere", "CatalogError", "plan"),
        ("select nothing from t", "ExecutionError", "execution"),
        ("select id from t", None, None),
    ])
    def test_error_kind_names_the_failure(self, tiny_db, sql, error, kind):
        """``syntax`` / ``plan``: ``prepare`` refused the text (no execution
        was tried); ``execution``: a repetition failed; None: nothing did."""
        for engine in (RowEngine(tiny_db), ColumnEngine(tiny_db)):
            outcome = measure_query(engine, sql, repeats=2)
            assert outcome.error_kind == kind
            assert (outcome.error or "").split(":")[0] == (error or "")
            assert "error_kind" not in outcome.extras

    def test_error_kind_of_engines_that_know_nothing_of_it(self):
        """The kind is read off the exception, wherever it was raised: a
        foreign exception is an ``execution`` fault, and an engine that only
        finds a ``PlanError`` while executing still reports a ``plan`` error."""
        from repro.errors import PlanError

        flaky = measure_query(_StubEngine([(0.01, 7), RuntimeError("flaky")]), "select 1")
        assert (flaky.error_kind, flaky.times) == ("execution", [0.01])
        late = measure_query(_StubEngine([PlanError("found late")]), "select 1")
        assert (late.error_kind, late.error) == ("plan", "PlanError: found late")
        timed_out = measure_query(_StubEngine([(5.0, 3)]), "select 1", timeout=1.0)
        assert timed_out.timed_out and timed_out.error_kind is None

    def test_a_refusal_handed_in_is_not_prepared_again(self, tiny_db):
        engine = RowEngine(tiny_db)
        sql = "select id from t order by price + 1"
        with pytest.raises(Exception) as refused:
            engine.prepare(sql)
        misses = engine.cache_stats()["misses"]
        outcome = measure_query(engine, sql, refusal=refused.value)
        assert outcome.error == f"PlanError: {refused.value}"
        assert outcome.error_kind == "plan" and outcome.times == []
        assert engine.cache_stats()["misses"] == misses


class TestRefusedTexts:
    """A text ``prepare`` refuses costs the batch one prepare and the
    platform one lease."""

    REFUSED = "select id from t order by price + 1"
    GOOD = "select id from t order by id"

    def _publish(self, platform, texts):
        from repro.platform.models import Task

        service, _owner, _contributor, experiment, engine = platform
        for task in service.store.tasks(experiment.id):
            service.store.delete("tasks", task.id)
        service.store.insert_many("tasks", [
            Task(experiment_id=experiment.id, query_sql=sql, query_key=f"k{index}",
                 dbms_label=engine.label, host_name=f"host{index}")
            for index, sql in enumerate(texts)])

    def test_a_batch_prepares_a_refused_text_once(self, platform, monkeypatch):
        """One refused text on two tasks and one good text: two distinct
        texts, two parses, two plan-cache misses -- the refusal reaches
        ``measure_query`` as the exception, not as SQL to fail on again."""
        from repro.engine import engine as engine_module

        service, _owner, contributor, experiment, engine = platform
        self._publish(platform, [self.REFUSED, self.GOOD, self.REFUSED])
        parsed = []
        original = engine_module.parse_select
        monkeypatch.setattr(engine_module, "parse_select",
                            lambda sql: parsed.append(sql) or original(sql))
        runner = BatchRunner(client=InProcessClient(service, contributor.contributor_key),
                             engine=engine, config=_config(contributor, engine))
        assert runner.run_batch(experiment.id) == 3
        assert sorted(parsed) == sorted([self.REFUSED, self.GOOD])
        stats = engine.cache_stats()
        assert (stats["misses"], stats["hits"], stats["size"]) == (2, 0, 1)
        records = service.store.results(experiment.id)
        assert [record.error for record in records] == [
            "PlanError: ORDER BY expression 'price + 1' is not part of the select list",
            None, records[0].error]

    def test_the_one_task_driver_sends_the_kind_with_errors_only(self, platform):
        """``ExperimentDriver`` reports the kind like the batch runner does --
        and passes no ``error_kind`` at all with a success, so a transport
        double that predates the keyword still delivers those."""
        from repro.driver import ExperimentDriver

        service, _owner, contributor, experiment, engine = platform
        self._publish(platform, [self.GOOD, self.REFUSED])
        sent = []

        class Recording(InProcessClient):
            def submit_result(self, task_id, **fields):
                sent.append(fields)
                return super().submit_result(task_id, **fields)

        driver = ExperimentDriver(Recording(service, contributor.contributor_key),
                                  engine, _config(contributor, engine))
        assert driver.run_all(experiment.id) == 2
        assert "error_kind" not in sent[0] and sent[1]["error_kind"] == "plan"
        assert [(task.status, task.attempts) for task in service.store.tasks(experiment.id)] \
            == [("done", 1), ("failed", 1)]

    def test_a_refused_task_takes_one_lease(self, platform):
        service, _owner, contributor, experiment, engine = platform
        self._publish(platform, [self.REFUSED, self.GOOD, "selectt broken"])
        runner = BatchRunner(client=InProcessClient(service, contributor.contributor_key),
                             engine=engine, config=_config(contributor, engine))
        assert runner.run_all(experiment.id) == 3  # no task came back for more
        tasks = service.store.tasks(experiment.id)
        assert [(task.status, task.attempts) for task in tasks] \
            == [("failed", 1), ("done", 1), ("failed", 1)]
        records = service.store.results(experiment.id)
        assert [record.extras.get("error_kind") for record in records] \
            == ["plan", None, "syntax"]
        counters = service.metrics.snapshot()["counters"]
        assert (counters["tasks.dispatched"], counters["tasks.refused"],
                counters["tasks.dead_lettered"]) == (3, 2, 2)
        assert "tasks.retried" not in counters
