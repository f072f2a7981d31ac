"""Tests for the platform: store, access control, queue, results, web API."""

import sqlite3
from collections import Counter

import pytest

from repro.errors import AccessDenied, ConflictError, NotFound, ValidationError
from repro.obs import JsonLogger, parse_log_lines
from repro.platform import PlatformServer, PlatformService, Store, Visibility
from repro.platform.models import Task, new_submission
from repro.tpch import QUERIES


@pytest.fixture()
def service() -> PlatformService:
    return PlatformService(Store(":memory:"))


@pytest.fixture()
def populated(service):
    """Service with an owner, a contributor, an outsider and one experiment."""
    owner = service.register_user("owner", "owner@example.org")
    contributor = service.register_user("contrib", "contrib@example.org")
    outsider = service.register_user("outsider", "outsider@example.org")
    dbms = service.register_dbms("columnstore", "1.0", dialect="columnstore")
    host = service.register_host("laptop", cpu="x86", memory_gb=8, os="linux")
    project = service.create_project(owner, "tpch", synopsis="demo",
                                     visibility=Visibility.PRIVATE)
    service.invite_contributor(owner, project, contributor)
    experiment = service.add_experiment(owner, project, "q6", QUERIES[6],
                                        dbms=dbms, host=host, repeats=2,
                                        timeout_seconds=30)
    return service, owner, contributor, outsider, project, experiment


def _queue_of(count: int):
    """A service with one contributor and ``count`` pending tasks."""
    service = PlatformService()
    owner = service.register_user("owner", "owner@example.org")
    contributor = service.register_user("contrib", "contrib@example.org")
    project = service.create_project(owner, "keys")
    service.invite_contributor(owner, project, contributor)
    experiment = service.add_experiment(owner, project, "q6", QUERIES[6], repeats=1)
    service.store.insert_many("tasks", [
        Task(experiment_id=experiment.id, query_sql=QUERIES[6], query_key=f"q{number}",
             dbms_label="columnstore-1.0", host_name="laptop",
             max_attempts=experiment.max_attempts)
        for number in range(count)])
    return service, contributor, experiment


class TestUsersAndCatalogs:
    def test_register_user_generates_key(self, service):
        user = service.register_user("alice", "alice@example.org")
        assert user.id is not None and len(user.contributor_key) == 32

    def test_duplicate_nickname_rejected(self, service):
        service.register_user("bob", "bob@example.org")
        with pytest.raises(ConflictError):
            service.register_user("bob", "other@example.org")

    def test_invalid_email_rejected(self, service):
        with pytest.raises(ValidationError):
            service.register_user("carol", "not-an-email")

    def test_public_view_hides_email(self, service):
        service.register_user("dave", "dave@example.org")
        views = service.list_users()
        assert views and all("email" not in view for view in views)

    def test_authenticate_by_key(self, service):
        user = service.register_user("erin", "erin@example.org")
        assert service.authenticate(user.contributor_key).id == user.id
        with pytest.raises(AccessDenied):
            service.authenticate("bogus")

    def test_catalogs(self, service):
        service.register_dbms("rowstore", "1.0")
        service.register_host("pi", cpu="arm", memory_gb=1)
        assert service.dbms_catalog()[0].label() == "rowstore-1.0"
        assert service.host_catalog()[0].name == "pi"


class TestAccessControl:
    def test_private_project_hidden_from_outsiders(self, populated):
        service, owner, contributor, outsider, project, _ = populated
        assert project in service.list_projects(owner)
        assert project in service.list_projects(contributor)
        assert project not in service.list_projects(outsider)
        assert project not in service.list_projects(None)

    def test_private_project_read_denied(self, populated):
        service, _, _, outsider, project, _ = populated
        with pytest.raises(AccessDenied):
            service.get_project(project.id, outsider)

    def test_public_project_readable_by_anyone(self, populated):
        service, owner, _, outsider, project, _ = populated
        service.set_visibility(owner, project, Visibility.PUBLIC)
        assert service.get_project(project.id, outsider).name == "tpch"

    def test_only_owner_may_invite(self, populated):
        service, _, contributor, outsider, project, _ = populated
        with pytest.raises(AccessDenied):
            service.invite_contributor(contributor, project, outsider)

    def test_only_owner_may_add_experiment(self, populated):
        service, _, contributor, _, project, _ = populated
        with pytest.raises(AccessDenied):
            service.add_experiment(contributor, project, "rogue", QUERIES[6])

    def test_only_members_get_tasks(self, populated):
        service, owner, _, outsider, _, experiment = populated
        pool = service.build_pool(experiment)
        pool.seed_baseline()
        service.enqueue_pool(owner, experiment, pool, "columnstore-1.0", "laptop")
        with pytest.raises(AccessDenied):
            service.next_tasks(outsider, experiment)

    def test_comments_require_read_access(self, populated):
        service, owner, _, outsider, project, _ = populated
        comment = service.add_comment(owner, project, "nice spread")
        assert comment.id is not None
        with pytest.raises(AccessDenied):
            service.add_comment(outsider, project, "let me in")

    def test_invalid_grammar_rejected(self, populated):
        service, owner, _, _, project, _ = populated
        with pytest.raises(ValidationError):
            service.add_experiment(owner, project, "broken", QUERIES[6],
                                   grammar_text="query:\n    ${missing}\n")


class TestQueueAndResults:
    def _queue(self, populated):
        service, owner, contributor, _, _, experiment = populated
        pool = service.build_pool(experiment)
        pool.seed_baseline()
        pool.seed_random(2)
        tasks = service.enqueue_pool(owner, experiment, pool, "columnstore-1.0", "laptop")
        return service, owner, contributor, experiment, tasks

    def test_enqueue_creates_one_task_per_entry(self, populated):
        service, owner, contributor, experiment, tasks = self._queue(populated)
        assert len(tasks) >= 1
        assert service.queue_status(experiment)["pending"] == len(tasks)

    def test_enqueue_is_idempotent(self, populated):
        service, owner, contributor, experiment, tasks = self._queue(populated)
        pool = service.build_pool(experiment)
        pool.seed_baseline()
        again = service.enqueue_pool(owner, experiment, pool, "columnstore-1.0", "laptop")
        assert again == []

    def test_task_assignment_and_result_submission(self, populated):
        service, owner, contributor, experiment, tasks = self._queue(populated)
        task, = service.next_tasks(contributor, experiment)
        assert task.status == "running"
        result = service.submit_results(contributor, [new_submission(
            task, times=[0.1, 0.09], load_averages={"before": {"load1": 0.5}},
            extras={"rows": 1})])[0]
        assert result.best == pytest.approx(0.09)
        assert service.queue_status(experiment)["done"] == 1

    def test_failed_result_requeues_until_budget_then_dead_letters(self, populated):
        service, owner, contributor, experiment, tasks = self._queue(populated)
        task, = service.next_tasks(contributor, experiment)
        # an error burns the lease but the task returns to the pending pool
        # while it still has retry budget (max_attempts defaults to 3).
        service.submit_results(contributor, [new_submission(
            task, times=[], error="syntax error")])
        assert task.status == "pending" and task.attempts == 1
        assert task.last_error == "syntax error"
        # burn the remaining budget: same task, two more failing leases.
        for attempt in (2, 3):
            claimed = service.next_tasks(contributor, experiment, limit=len(tasks))
            failing = next(entry for entry in claimed if entry.id == task.id)
            assert failing.attempts == attempt
            service.submit_results(contributor, [new_submission(
                failing, times=[], error="syntax error")])
        assert failing.status == "failed"
        assert service.queue_status(experiment)["failed"] == 1
        assert service.metrics.counter("tasks.retried").value == 2
        assert service.metrics.counter("tasks.dead_lettered").value == 1
        # dead-lettered means terminal: the task is never handed out again.
        again = service.next_tasks(contributor, experiment, limit=len(tasks) + 1)
        assert task.id not in {entry.id for entry in again}

    @pytest.mark.parametrize("kind", ["syntax", "plan"])
    def test_refused_text_dead_letters_on_its_first_lease(self, populated, kind):
        """The engine's verdict on the text is terminal on attempt 1 of 3: the
        next lease would be refused the same way, so none is spent on it."""
        service, owner, contributor, experiment, tasks = self._queue(populated)
        task, = service.next_tasks(contributor, experiment)
        record = service.submit_results(contributor, [new_submission(
            task, times=[], error="PlanError: no", error_kind=kind,
            idempotency_key="refusal", attempt=task.attempts)])[0]
        assert (task.status, task.attempts, task.max_attempts) == ("failed", 1, 3)
        assert task.last_error == "PlanError: no"
        assert record.extras["error_kind"] == kind
        counters = service.metrics.snapshot()["counters"]
        assert counters["tasks.dead_lettered"] == counters["tasks.refused"] == 1
        assert "tasks.retried" not in counters
        # terminal: never handed out again, and a replay of the accepted key
        # returns the record without reviving the task.
        again = service.next_tasks(contributor, experiment, limit=len(tasks) + 1)
        assert task.id not in {entry.id for entry in again}
        replayed = service.submit_results(contributor, [new_submission(
            task, times=[0.1], idempotency_key="refusal", attempt=1)])[0]
        assert replayed.id == record.id and replayed.error == "PlanError: no"
        assert service.store.task(task.id).status == "failed"

    @pytest.mark.parametrize("kind", [None, "execution", "cosmic-ray"])
    def test_other_errors_keep_the_retry_budget(self, populated, kind):
        """No kind (an older driver, another DBMS's), ``execution`` and a kind
        this platform does not know all retry twice more, as before."""
        service, owner, contributor, experiment, tasks = self._queue(populated)
        task, = service.next_tasks(contributor, experiment)
        statuses = []
        for attempt in (1, 2, 3):
            assert task.attempts == attempt
            record = service.submit_results(contributor, [new_submission(
                task, times=[], error="boom", error_kind=kind, attempt=attempt)])[0]
            assert record.extras["error_kind"] == "execution"
            statuses.append(task.status)
            if task.status == "pending":  # lease it again
                task = next(entry for entry in service.next_tasks(
                    contributor, experiment, limit=len(tasks)) if entry.id == task.id)
        assert statuses == ["pending", "pending", "failed"]
        counters = service.metrics.snapshot()["counters"]
        assert (counters["tasks.retried"], counters["tasks.dead_lettered"]) == (2, 1)
        assert "tasks.refused" not in counters

    def test_successful_results_and_tasks_carry_no_kind(self, populated):
        """The kind is kept on failed results only: not a byte more per
        successful result row or task row."""
        service, owner, contributor, experiment, tasks = self._queue(populated)
        task, = service.next_tasks(contributor, experiment)
        record = service.submit_results(contributor, [new_submission(
            task, times=[0.1], extras={"rows": 1}, error_kind="plan")])[0]
        assert record.extras == {"rows": 1}
        assert "error_kind" not in record.to_dict()
        assert "error_kind" not in service.store.task(task.id).to_dict()

    def test_empty_success_rejected(self, populated):
        service, owner, contributor, experiment, tasks = self._queue(populated)
        task, = service.next_tasks(contributor, experiment)
        with pytest.raises(ValidationError):
            service.submit_results(contributor, [new_submission(task, times=[])])

    def test_kill_task_owner_only(self, populated):
        service, owner, contributor, experiment, tasks = self._queue(populated)
        task, = service.next_tasks(contributor, experiment)
        with pytest.raises(AccessDenied):
            service.kill_task(contributor, task)
        assert service.kill_task(owner, task).status == "killed"

    def test_kill_acts_on_the_stored_task_not_the_callers_copy(self, populated):
        """A copy fetched before the claim must not reset the lease's books."""
        service, owner, contributor, experiment, tasks = self._queue(populated)
        stale = service.store.task(tasks[0].id)  # pending, attempts 0
        claimed, = service.next_tasks(contributor, experiment)
        assert claimed.id == stale.id
        killed = service.kill_task(owner, stale)
        assert killed.status == "killed"
        stored = service.store.task(stale.id)
        assert (stored.status, stored.attempts) == ("killed", 1)
        assert stored.assigned_to == contributor.contributor_key
        # the lease's result now arrives for a task that is no longer running.
        assert service.submit_results(contributor, [new_submission(
            claimed, times=[0.1], attempt=claimed.attempts)])[0] is None

    def test_kill_leaves_a_finished_task_done(self, populated):
        service, owner, contributor, experiment, tasks = self._queue(populated)
        task, = service.next_tasks(contributor, experiment)
        running = service.store.task(task.id)  # the copy the owner looks at
        service.submit_results(contributor, [new_submission(task, times=[0.1])])
        assert service.kill_task(owner, running).status == "done"
        assert service.store.task(task.id).status == "done"
        assert service.metrics.counter("tasks.killed").value == 0

    def test_stuck_tasks_expire(self, populated):
        service, owner, contributor, experiment, tasks = self._queue(populated)
        task, = service.next_tasks(contributor, experiment)
        task.assigned_at -= 10_000  # pretend it started hours ago
        service.store.update("tasks", task)
        expired = service.expire_stuck_tasks(experiment)
        assert [entry.id for entry in expired] == [task.id]
        # an expired lease with budget left goes back to the pending pool
        # with its assignment cleared, ready to be claimed again.
        swept = service.store.task(task.id)
        assert swept.status == "pending"
        assert swept.assigned_to is None and swept.assigned_at is None
        assert service.metrics.counter("tasks.retried").value == 1

    def test_expired_lease_without_budget_dead_letters(self, populated):
        service, owner, contributor, experiment, tasks = self._queue(populated)
        task, = service.next_tasks(contributor, experiment)
        task.assigned_at -= 10_000
        task.attempts = task.max_attempts  # budget already spent
        service.store.update("tasks", task)
        service.expire_stuck_tasks(experiment)
        dead = service.store.task(task.id)
        assert dead.status == "failed"
        assert "lease expired" in (dead.last_error or "")
        assert service.metrics.counter("tasks.dead_lettered").value == 1

    def test_claiming_sweeps_overdue_leases(self, populated):
        """A fresh claim may hand out a task whose previous lease expired."""
        service, owner, contributor, experiment, tasks = self._queue(populated)
        claimed = service.next_tasks(contributor, experiment, limit=len(tasks))
        assert len(claimed) == len(tasks)  # queue fully leased out
        stuck = claimed[0]
        stuck.assigned_at -= 10_000
        service.store.update("tasks", stuck)
        # no explicit expiry call: next_tasks runs the sweep itself.
        reclaimed = service.next_tasks(contributor, experiment, limit=len(tasks))
        assert [entry.id for entry in reclaimed] == [stuck.id]
        assert reclaimed[0].attempts == 2

    def test_a_claim_that_fails_after_its_sweep_counts_no_sweep(self, populated,
                                                                monkeypatch):
        """The sweep is part of the claim's transaction: a claim that fails
        after it rolls the sweep back, and none of the sweep's telemetry is
        recorded."""
        service, owner, contributor, experiment, tasks = self._queue(populated)
        logger = JsonLogger()
        service.log = logger.bind("service")
        claimed = service.next_tasks(contributor, experiment, limit=len(tasks))
        for task in claimed:
            task.assigned_at -= 10_000
        service.store.update_many("tasks", claimed)

        def failing(*_args, **_kwargs):
            raise RuntimeError("the claim fails after its sweep")

        monkeypatch.setattr(service.store, "pending_tasks", failing)
        with pytest.raises(RuntimeError):
            service.next_tasks(contributor, experiment, limit=1)
        assert {service.store.task(task.id).status for task in claimed} == {"running"}
        assert not [span for task in claimed
                    for span in service.spans.spans(task.trace_id)
                    if span["name"] == "sweep"]
        events = [record["event"] for record in parse_log_lines(logger.stream.getvalue())]
        assert "task.retried" not in events
        assert service.metrics.counter("tasks.retried").value == 0
        assert service.metrics.counter("queue.timeouts").value == 0

        monkeypatch.undo()
        reclaimed = service.next_tasks(contributor, experiment, limit=1)
        assert len(reclaimed) == 1 and reclaimed[0].attempts == 2
        assert service.metrics.counter("tasks.retried").value == len(claimed)

    def test_late_result_for_reclaimed_lease_is_dropped(self, populated):
        """Attempt fencing: a slow worker cannot overwrite a re-leased task."""
        service, owner, contributor, experiment, tasks = self._queue(populated)
        first, = service.next_tasks(contributor, experiment)
        stale_attempt = first.attempts
        first.assigned_at -= 10_000
        service.store.update("tasks", first)
        service.expire_stuck_tasks(experiment)
        reclaimed = service.next_tasks(contributor, experiment, limit=len(tasks))
        assert first.id in {entry.id for entry in reclaimed}
        # the slow first worker finally reports, echoing its old attempt.
        late = service.submit_results(contributor, [new_submission(
            service.store.task(first.id), times=[0.5], attempt=stale_attempt)])[0]
        assert late is None  # acknowledged but dropped
        assert service.store.task(first.id).status == "running"  # lease intact
        assert service.metrics.counter("results.stale").value == 1

    def test_idempotent_resubmission_replays_original(self, populated):
        service, owner, contributor, experiment, tasks = self._queue(populated)
        task, = service.next_tasks(contributor, experiment)
        key = "deadbeef" * 4
        first = service.submit_results(contributor, [new_submission(
            task, times=[0.2, 0.1], idempotency_key=key, attempt=task.attempts)])[0]
        again = service.submit_results(contributor, [new_submission(
            task, times=[9.9], idempotency_key=key, attempt=task.attempts)])[0]
        assert again.id == first.id and again.times == [0.2, 0.1]
        assert len(service.store.results(experiment.id)) == 1
        assert service.metrics.counter("results.deduplicated").value == 1

    def test_a_batch_replays_exactly_its_accepted_keys(self):
        service, contributor, experiment = _queue_of(8)
        tasks = service.next_tasks(contributor, experiment, limit=8)
        keys = [f"key-{task.id}" for task in tasks]
        earlier = service.submit_results(contributor, [
            new_submission(task.id, times=[0.1], idempotency_key=key, attempt=task.attempts)
            for task, key in zip(tasks[:3], keys)])
        batch = service.submit_results(contributor, [
            new_submission(task.id, times=[0.2], idempotency_key=key, attempt=task.attempts)
            for task, key in zip(tasks, keys)])
        assert [record.id for record in batch[:3]] == [record.id for record in earlier]
        assert [record.times for record in batch] == [[0.1]] * 3 + [[0.2]] * 5
        assert service.metrics.counter("results.deduplicated").value == 3
        assert len(service.store.results(experiment.id)) == 8

    def test_a_key_repeated_within_a_batch(self):
        """The second entry of a key repeated for one task is stale; a key
        repeated for two tasks is refused by the idempotency table, and the
        batch records nothing."""
        service, contributor, experiment = _queue_of(3)
        first, second, third = service.next_tasks(contributor, experiment, limit=3)
        twice = [new_submission(first.id, times=[0.1], idempotency_key="same",
                                attempt=first.attempts)] * 2
        accepted, stale = service.submit_results(contributor, twice)
        assert accepted is not None and stale is None
        assert service.metrics.counter("results.stale").value == 1
        replayed = service.submit_results(contributor, twice)
        assert [record.id for record in replayed] == [accepted.id] * 2
        with pytest.raises(sqlite3.IntegrityError):
            service.submit_results(contributor, [
                new_submission(second.id, times=[0.1], idempotency_key="other",
                               attempt=second.attempts),
                new_submission(third.id, times=[0.1], idempotency_key="other",
                               attempt=third.attempts)])
        assert len(service.store.results(experiment.id)) == 1
        assert {service.store.task(task.id).status for task in (second, third)} \
            == {"running"}

    def test_max_attempts_must_be_positive(self, populated):
        service, owner, _, _, project, _ = populated
        with pytest.raises(ValidationError):
            service.add_experiment(owner, project, "bad", QUERIES[6],
                                   max_attempts=0)

    def test_hidden_results_only_visible_to_members(self, populated):
        service, owner, contributor, experiment, tasks = self._queue(populated)
        task, = service.next_tasks(contributor, experiment)
        result = service.submit_results(contributor, [new_submission(task, times=[0.2])])[0]
        service.set_result_hidden(owner, result, True)
        assert service.results(experiment, viewer=contributor) == []
        visible = service.results(experiment, viewer=owner, include_hidden=True)
        assert len(visible) == 1

    def test_csv_export(self, populated):
        service, owner, contributor, experiment, tasks = self._queue(populated)
        task, = service.next_tasks(contributor, experiment)
        service.submit_results(contributor, [new_submission(task, times=[0.3])])
        csv_text = service.export_results_csv(experiment, viewer=owner)
        assert "best_seconds" in csv_text.splitlines()[0]
        assert len(csv_text.splitlines()) == 2

    def test_grow_pool_uses_guidance(self, populated):
        service, owner, contributor, outsider, project, experiment = populated
        pool = service.build_pool(experiment, seed=5)
        pool.seed_baseline()
        grown = service.grow_pool(experiment, pool, steps=20, seed=5)
        assert len(pool) == 1 + grown


class TestStore:
    def test_update_requires_existing_entity(self, service):
        user = service.register_user("zoe", "zoe@example.org")
        user.nickname = "zoe2"
        service.store.update("users", user)
        assert service.store.user(user.id).nickname == "zoe2"

    def test_missing_entity_raises(self, service):
        with pytest.raises(NotFound):
            service.store.user(999)

    def test_delete(self, service):
        user = service.register_user("tmp", "tmp@example.org")
        service.store.delete("users", user.id)
        with pytest.raises(NotFound):
            service.store.user(user.id)

    def test_tasks_of_an_experiment_come_back_in_id_order(self, service):
        """The composite index groups an experiment's tasks by status; readers
        (analytics, the pool replay, ``workload_digest``) rely on id order."""
        statuses = ["done", "pending", "running", "failed", "pending", "done",
                    "killed", "running", "pending", "done"]
        tasks = [Task(experiment_id=1 + index % 2, query_sql="select 1",
                      query_key=f"k{index}", dbms_label="x-1", host_name="h",
                      status=status)
                 for index, status in enumerate(statuses * 3)]
        service.store.insert_many("tasks", tasks)
        for experiment_id in (1, 2):
            ids = [task.id for task in service.store.tasks(experiment_id)]
            assert ids == sorted(task.id for task in tasks
                                 if task.experiment_id == experiment_id)
        assert [task.id for task in service.store.tasks()] == [t.id for t in tasks]

    def test_persistence_to_disk(self, tmp_path):
        path = str(tmp_path / "platform.db")
        first = PlatformService(Store(path))
        owner = first.register_user("owner", "o@example.org")
        first.create_project(owner, "persisted")
        first.store.close()
        second = PlatformService(Store(path))
        assert [project.name for project in second.store.projects()] == ["persisted"]


class TestWebAPI:
    def test_http_round_trip(self, populated):
        service, owner, contributor, _, project, experiment = populated
        pool = service.build_pool(experiment)
        pool.seed_baseline()
        service.enqueue_pool(owner, experiment, pool, "columnstore-1.0", "laptop")

        from repro.driver import HTTPClient

        with PlatformServer(service) as server:
            client = HTTPClient(server.url, contributor.contributor_key)
            assert client.ping()["status"] == "ok"
            task, = client.next_tasks(experiment.id)
            submitted = client.submit_results([new_submission(
                task["id"], times=[0.05, 0.04], extras={"rows": 1})])[0]
            assert submitted["times"] == [0.05, 0.04]
            results = client.results(experiment.id)
            assert len(results) == 1
            assert client.next_tasks(experiment.id) == []

    def test_a_failing_submission_reads_the_same_over_every_transport(self, populated):
        """In-process, ``HTTPClient.submit_results`` and a raw
        ``/api/results/batch`` entry share one definition of a submission's
        fields: the same refusal leaves the same task state and the same
        stored record whichever way it travels."""
        from repro.driver import HTTPClient, InProcessClient

        service, owner, contributor, _, project, experiment = populated
        pool = service.build_pool(experiment)
        pool.seed_baseline()
        pool.seed_random(2)
        service.enqueue_pool(owner, experiment, pool, "columnstore-1.0", "laptop")
        failure = dict(times=[], error="PlanError: no", error_kind="plan",
                       load_averages={"before": {"load1": 0.5}, "after": {}},
                       extras={"engine": "columnstore-1.0", "rows": 0})

        with PlatformServer(service) as server:
            http = HTTPClient(server.url, contributor.contributor_key)
            local = InProcessClient(service, contributor.contributor_key)
            tasks = local.next_tasks(experiment.id, count=3)
            assert len(tasks) == 3
            submit = [
                lambda task: local.submit_results([new_submission(
                    task["id"], **failure, attempt=task["attempts"])])[0],
                lambda task: http.submit_results([new_submission(
                    task["id"], **failure, attempt=task["attempts"])])[0],
                lambda task: http.submit_results([
                    {"task": task["id"], **failure, "attempt": task["attempts"]}])[0],
            ]
            returned = [send(task) for send, task in zip(submit, tasks)]

        def shape(payload: dict) -> dict:
            return {key: value for key, value in payload.items()
                    if key not in ("id", "task_id", "created_at", "query_sql")}

        stored = [shape(record.to_dict()) for record in service.store.results(experiment.id)]
        assert stored[0] == stored[1] == stored[2] == shape(returned[0])
        assert [shape(record) for record in returned] == stored
        assert stored[0]["extras"] == {**failure["extras"], "error_kind": "plan"}
        assert [(task.status, task.attempts, task.last_error)
                for task in service.store.tasks(experiment.id)] \
            == [("failed", 1, "PlanError: no")] * 3

    def test_http_access_denied_for_bad_key(self, populated):
        service, owner, contributor, _, project, experiment = populated
        from repro.driver import HTTPClient
        from repro.errors import TransportError

        with PlatformServer(service) as server:
            client = HTTPClient(server.url, "wrong-key")
            with pytest.raises(TransportError):
                client.next_tasks(experiment.id)

    @pytest.mark.parametrize("body", [b"{not json", b"\xff\xfe garbage", b'["a list"]'])
    def test_http_malformed_body_is_a_400(self, populated, body):
        """A broken request body is the client's fault (400), never a 500."""
        import urllib.error
        import urllib.request

        service, _, contributor, _, _, experiment = populated
        with PlatformServer(service) as server:
            request = urllib.request.Request(
                f"{server.url}/api/tasks", data=body, method="POST")
            request.add_header("Content-Type", "application/json")
            request.add_header("X-Sqalpel-Key", contributor.contributor_key)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400

    @pytest.mark.parametrize("path", ["/api/task", "/api/result"])
    def test_the_one_task_routes_answer_404(self, populated, path):
        """A batch of one is the one-task exchange: the singular routes are
        unknown paths, and claim or record nothing."""
        import json
        import urllib.error
        import urllib.request

        service, owner, contributor, _, _, experiment = populated
        pool = service.build_pool(experiment)
        pool.seed_baseline()
        service.enqueue_pool(owner, experiment, pool, "columnstore-1.0", "laptop")
        body = json.dumps({"experiment": experiment.id, "task": 1, "times": [0.1]})
        with PlatformServer(service) as server:
            request = urllib.request.Request(
                f"{server.url}{path}", data=body.encode("utf-8"), method="POST")
            request.add_header("Content-Type", "application/json")
            request.add_header("X-Sqalpel-Key", contributor.contributor_key)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 404
        assert service.queue_status(experiment) == {"pending": 1}


class TestIndexedLookups:
    def test_user_lookups_round_trip(self, service):
        users = [service.register_user(f"user{i}", f"user{i}@example.org")
                 for i in range(10)]
        probe = users[7]
        assert service.store.user_by_key(probe.contributor_key).id == probe.id
        assert service.store.user_by_nickname("user3").id == users[3].id
        assert service.store.user_by_key("no-such-key") is None
        assert service.store.user_by_nickname("nobody") is None

    def test_lookup_sees_updates(self, service):
        user = service.register_user("old-name", "u@example.org")
        user.nickname = "new-name"
        service.store.update("users", user)
        assert service.store.user_by_nickname("old-name") is None
        assert service.store.user_by_nickname("new-name").id == user.id

    def test_lookup_uses_the_expression_index(self, service):
        """The query plan must hit the json_extract index, not scan the table."""
        plan = service.store._connection.execute(
            "EXPLAIN QUERY PLAN SELECT id, body FROM users "
            "WHERE json_extract(body, '$.contributor_key') = ?", ("x",)
        ).fetchall()
        detail = " ".join(str(row) for row in plan)
        assert "users_by_contributor_key" in detail


class CountingStore(Store):
    """A store that counts the rows it decodes, per entity class."""

    def __init__(self, *args, **kwargs):
        self.decoded = Counter()
        super().__init__(*args, **kwargs)

    def _build(self, row, factory):
        self.decoded[factory.__self__.__name__] += 1
        return Store._build(row, factory)


class TestQueueCost:
    """A queue transition reads its rows through the (experiment, status)
    index and decodes only those -- at any queue depth."""

    def _deep_queue(self, depth):
        service = PlatformService(CountingStore())
        owner = service.register_user("owner", "owner@example.org")
        contributor = service.register_user("contrib", "contrib@example.org")
        project = service.create_project(owner, "deep")
        service.invite_contributor(owner, project, contributor)
        experiment = service.add_experiment(owner, project, "q6", QUERIES[6],
                                            timeout_seconds=30)
        service.store.insert_many("tasks", [
            Task(experiment_id=experiment.id, query_sql=QUERIES[6],
                 query_key=f"k{index}", dbms_label="columnstore-1.0",
                 host_name="laptop", timeout_seconds=30)
            for index in range(depth)])
        return service, contributor, experiment

    def _task_rows_decoded(self, service, call):
        service.store.decoded.clear()
        result = call()
        return service.store.decoded["Task"], result

    @pytest.mark.parametrize("depth", [100, 5000])
    def test_claim_and_submit_decode_only_their_batch(self, depth):
        service, contributor, experiment = self._deep_queue(depth)

        def claim():
            return service.next_tasks(contributor, experiment, limit=8,
                                      dbms_label="columnstore-1.0")

        decoded, first = self._task_rows_decoded(service, claim)
        assert len(first) == 8 and decoded == 8
        # three of the leases lapse: the next claim decodes them (the sweep)
        # and its own batch, nothing else.
        for task in first[:3]:
            task.assigned_at -= 10_000
        service.store.update_many("tasks", first[:3])
        decoded, second = self._task_rows_decoded(service, claim)
        assert [task.id for task in second[:3]] == [task.id for task in first[:3]]
        assert len(second) == 8 and decoded == 8 + 3

        decoded, records = self._task_rows_decoded(
            service, lambda: service.submit_results(contributor, [
                {"task": task.id, "times": [0.1], "attempt": task.attempts,
                 "idempotency_key": f"key-{task.id}"} for task in second]))
        assert all(records) and decoded == 8
        assert service.queue_status(experiment) == {
            "pending": depth - 13, "running": 5, "done": 8}

    def test_queue_statements_use_the_composite_index(self, populated):
        """Claim, overdue-lease and count statements are index searches."""
        service, owner, contributor, _, _, experiment = populated
        pool = service.build_pool(experiment)
        pool.seed_baseline()
        service.enqueue_pool(owner, experiment, pool, "columnstore-1.0", "laptop")
        connection = service.store._connection
        statements = []
        connection.set_trace_callback(statements.append)
        try:
            service.next_tasks(contributor, experiment, limit=4)
            service.next_tasks(contributor, experiment, limit=4,
                               dbms_label="columnstore-1.0")
            service.queue_status(experiment)
        finally:
            connection.set_trace_callback(None)
        reads = {sql for sql in statements
                 if sql.startswith("SELECT") and "FROM tasks" in sql}
        # pending (with and without label), overdue, oldest lease, two counts
        assert len(reads) >= 6
        for sql in reads:
            plan = " ".join(str(row) for row in
                            connection.execute(f"EXPLAIN QUERY PLAN {sql}"))
            assert "tasks_by_experiment_status" in plan, (sql, plan)
            assert "SCAN" not in plan, (sql, plan)
