"""Model-based test of the task queue's lease / retry / idempotency machine.

A Hypothesis ``RuleBasedStateMachine`` drives one ``PlatformService`` through
enqueue, claim, clock ticks, lease sweeps, successful / failing / refused /
stale / duplicated submissions and kills -- in any order Hypothesis cares to try --
and compares the store with a small in-memory model after every step.  The
model is one dict per task (``status``, ``attempts``, ``holder``, ``since``)
and the rules of ``TaskStatus``'s docstring; the invariants are the platform's
accounting promises:

* no ``(task, attempt)`` lease is handed out twice,
* ``attempts`` never exceeds ``max_attempts``,
* an error the engine's verdict on the text (``syntax`` / ``plan``) fails the
  task on the lease it came in under; any other error burns the retry budget,
* every accepted idempotency key has exactly one result row,
* terminal states (done / failed / killed) are absorbing.
"""

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import VERDICT_KINDS
from repro.platform import PlatformService, Store

LABEL = "columnstore-1.0"
HOSTS = ("alpha", "beta", "gamma")
LEASE_SECONDS = 10.0
MAX_ATTEMPTS = 2
TERMINAL = {"done", "failed", "killed"}

picks = st.integers(min_value=0, max_value=10**6)


class Clock:
    """The service's wall clock, moved by the test."""

    now = 1_000.0

    def __call__(self) -> float:
        return self.now


class QueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = Clock()
        self.service = PlatformService(Store(), clock=self.clock)
        self.owner = self.service.register_user("owner", "owner@example.org")
        self.workers = [self.service.register_user(f"w{i}", f"w{i}@example.org")
                        for i in range(2)]
        project = self.service.create_project(self.owner, "model")
        for worker in self.workers:
            self.service.invite_contributor(self.owner, project, worker)
        self.experiment = self.service.add_experiment(
            self.owner, project, "exp", "select sum(price) from t where id > 0",
            timeout_seconds=LEASE_SECONDS, max_attempts=MAX_ATTEMPTS)
        self.pool = self.service.build_pool(self.experiment, seed=3)
        self.pool.seed_baseline()
        self.pool.seed_random(2)

        #: the model: task id -> status / attempts / holder / lease start.
        self.model: dict[int, dict] = {}
        self.hosts: set[str] = set()
        #: every lease ever handed out, live or not: (task, attempt, worker).
        self.leases: list[tuple[int, int, int]] = []
        #: accepted idempotency key -> id of its result row.
        self.accepted: dict[str, int] = {}
        self.keys = 0
        #: task id -> the status it was in after the previous step.
        self.final: dict[int, str] = {}

    # -- the model's transitions ----------------------------------------------

    def _model_sweep(self) -> list[int]:
        swept = []
        for task_id, task in sorted(self.model.items()):
            if task["status"] == "running" \
                    and task["since"] + LEASE_SECONDS < self.clock.now:
                spent = task["attempts"] >= MAX_ATTEMPTS
                task.update(status="failed" if spent else "pending")
                swept.append(task_id)
        return swept

    def _holds(self, lease: tuple[int, int, int]) -> bool:
        task_id, attempt, worker = lease
        task = self.model[task_id]
        return (task["status"] == "running" and task["holder"] == worker
                and task["attempts"] == attempt)

    def _submit(self, lease, error, kind=None):
        task_id, attempt, worker = lease
        self.keys += 1
        key = f"key-{self.keys}"
        submission = {"task": task_id, "times": [] if error else [0.25], "error": error,
                      "idempotency_key": key, "attempt": attempt}
        if kind is not None:
            submission["error_kind"] = kind
        record = self.service.submit_results(self.workers[worker], [submission])[0]
        return key, record

    # -- rules --------------------------------------------------------------------

    @initialize(host=st.sampled_from(HOSTS))
    def publish(self, host):
        self.enqueue(host)  # every run starts with a queue

    @rule(host=st.sampled_from(HOSTS))
    def enqueue(self, host):
        created = self.service.enqueue_pool(self.owner, self.experiment, self.pool,
                                            LABEL, host)
        if host in self.hosts:
            assert created == []  # already queued for this DBMS + host
        else:
            assert len(created) == len(self.pool)
        self.hosts.add(host)
        for task in created:
            self.model[task.id] = {"status": "pending", "attempts": 0,
                                   "holder": None, "since": None}

    @rule(worker=st.sampled_from((0, 1)), limit=st.integers(1, 4))
    def claim(self, worker, limit):
        claimed = self.service.next_tasks(self.workers[worker], self.experiment,
                                         limit=limit, dbms_label=LABEL)
        self._model_sweep()  # every claim sweeps first
        expected = [task_id for task_id, task in sorted(self.model.items())
                    if task["status"] == "pending"][:limit]
        assert [task.id for task in claimed] == expected
        for task in claimed:
            entry = self.model[task.id]
            entry.update(status="running", attempts=entry["attempts"] + 1,
                         holder=worker, since=self.clock.now)
            lease = (task.id, task.attempts, worker)
            assert task.attempts == entry["attempts"]
            assert lease[:2] not in {held[:2] for held in self.leases}, \
                f"lease {lease[:2]} handed out twice"
            self.leases.append(lease)

    @rule(seconds=st.sampled_from((1.0, 6.0, 11.0)))
    def tick(self, seconds):
        self.clock.now += seconds

    @rule()
    def expire(self):
        swept = self.service.expire_stuck_tasks(self.experiment)
        assert [task.id for task in swept] == self._model_sweep()

    @precondition(lambda self: self.leases)
    @rule(pick=picks, impostor=st.booleans())
    def submit_ok(self, pick, impostor):
        """A success for any lease ever granted, live or not, from its holder
        or from the other worker; all but the live holder's must be dropped."""
        task_id, attempt, worker = self.leases[pick % len(self.leases)]
        lease = (task_id, attempt, 1 - worker if impostor else worker)
        fresh = self._holds(lease)
        key, record = self._submit(lease, error=None)
        if fresh:
            assert record is not None and record.task_id == lease[0]
            self.model[lease[0]]["status"] = "done"
            self.accepted[key] = record.id
        else:
            assert record is None

    @precondition(lambda self: self.leases)
    @rule(pick=picks, kind=st.sampled_from((None, "execution", "cosmic-ray")))
    def submit_error(self, pick, kind):
        """An error that is no verdict on the text -- no kind (an older
        driver), ``execution``, a kind this platform has never heard of --
        burns the budget: pending again until ``MAX_ATTEMPTS`` leases are spent."""
        lease = self.leases[pick % len(self.leases)]
        fresh = self._holds(lease)
        key, record = self._submit(lease, error="boom", kind=kind)
        if fresh:
            assert record is not None and record.error == "boom"
            assert record.extras["error_kind"] == "execution"
            task = self.model[lease[0]]
            task["status"] = "failed" if task["attempts"] >= MAX_ATTEMPTS else "pending"
            self.accepted[key] = record.id
        else:
            assert record is None

    @precondition(lambda self: self.leases)
    @rule(pick=picks, kind=st.sampled_from(sorted(VERDICT_KINDS)))
    def submit_refused(self, pick, kind):
        """The engine refused the text, reported for any lease ever granted:
        a live one fails the task there and then, whatever ``attempts`` is
        (``failed`` is terminal, so the lease is never handed out again and
        ``duplicate`` replays the record); any other is dropped like every
        stale submission."""
        lease = self.leases[pick % len(self.leases)]
        fresh = self._holds(lease)
        key, record = self._submit(lease, error="PlanError: no", kind=kind)
        if fresh:
            assert record is not None and record.error == "PlanError: no"
            assert record.extras["error_kind"] == kind
            self.model[lease[0]]["status"] = "failed"  # attempts stay as they are
            self.accepted[key] = record.id
        else:
            assert record is None

    @precondition(lambda self: self.accepted)
    @rule(pick=picks)
    def duplicate(self, pick):
        """Resubmitting an accepted key replays its record, whatever happened since."""
        key = sorted(self.accepted)[pick % len(self.accepted)]
        original = self.service.store.result(self.accepted[key])
        worker = next(w for w in self.workers
                      if w.contributor_key == original.contributor_key)
        replayed = self.service.submit_results(worker, [{
            "task": original.task_id, "times": [9.9], "error": None,
            "idempotency_key": key, "attempt": 1}])[0]
        assert replayed.id == original.id and replayed.times == original.times

    @precondition(lambda self: self.model)
    @rule(pick=picks)
    def kill(self, pick):
        task_id = sorted(self.model)[pick % len(self.model)]
        # a copy as stale as they come: only the ids are right.
        stale = self.service.store.task(task_id)
        stale.status, stale.attempts, stale.assigned_to = "pending", 0, None
        before = self.model[task_id]["status"]
        killed = self.service.kill_task(self.owner, stale)
        if before in ("pending", "running"):
            self.model[task_id]["status"] = "killed"
        assert killed.status == self.model[task_id]["status"]

    # -- invariants -----------------------------------------------------------------

    @invariant()
    def store_matches_model(self):
        stored = self.service.store.tasks(self.experiment.id)
        assert [task.id for task in stored] == sorted(self.model)
        for task in stored:
            entry = self.model[task.id]
            assert (task.status, task.attempts) == (entry["status"], entry["attempts"])
            assert task.attempts <= MAX_ATTEMPTS
            if task.status == "running":
                assert task.assigned_to == self.workers[entry["holder"]].contributor_key
                assert task.assigned_at == entry["since"]
            seen = self.final.get(task.id)
            assert seen not in TERMINAL or seen == task.status, \
                f"task {task.id} left terminal state {seen}"
            self.final[task.id] = task.status
        assert self.service.queue_status(self.experiment) == \
            Counter(entry["status"] for entry in self.model.values())

    @invariant()
    def one_result_per_accepted_key(self):
        records = self.service.store.results(self.experiment.id)
        assert {record.idempotency_key: record.id for record in records} == self.accepted
        assert len(records) == len(self.accepted)
        assert self.service.store.idempotency_size() == len(self.accepted)
        successes = Counter(record.task_id for record in records if record.error is None)
        done = {task_id for task_id, entry in self.model.items()
                if entry["status"] == "done"}
        assert set(successes) == done and set(successes.values()) <= {1}


TestQueueModel = QueueMachine.TestCase
TestQueueModel.settings = settings(max_examples=200, stateful_step_count=50,
                                   deadline=None)
