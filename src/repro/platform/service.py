"""Application service: the operations the SQALPEL web GUI and driver rely on.

The service enforces the access-control model of Section 4.2:

* anyone may read **public** projects (description and results) but only
  contributors may submit results,
* **private** projects are invisible to non-members; "for contributors the
  information shielding is lifted",
* the **project owner** is the moderator: they manage the grammar, expand the
  query pool, manage result visibility, and invite contributors,
* "A project declared public may not contain references to private DBMS and
  host settings" -- enforced when an experiment is attached to a project.

It also owns the execution queue ("The execution status is tracked in a
queue, which enables killing queries that got stuck or when the results of an
experiment are not delivered within a specified timeout interval").  Queue
entries are *leases*: claiming a task starts a lease of the experiment's
timeout, an overdue lease is swept back to pending (or dead-lettered once the
task's retry budget is exhausted) on the next claim, and result submission is
idempotent -- a client-generated key makes retried submissions replay the
original record, and the lease's attempt number fences out submissions from
contributors whose lease has already been reassigned.

Every state transition of the queue -- enqueue, claim, lease sweep, submit
(fence, then write), kill -- is one store write transaction
(:meth:`Store.transaction`): it reads the rows it is about to change and
writes them back before anyone else can write.  That transaction is the only
lock the queue has, and it holds at three boundaries: between the request
threads of one server, between several server *processes* sharing one store
file, and across a crash (a transition is either entirely on disk or not at
all).  Claim, sweep, submit and kill read through the ``(experiment,
status)`` index and decode only the tasks they touch, so what a claim or a
submission costs follows its batch, not the queue's depth or history; a
claim and its sweep are one transaction, and ``queue.claim_seconds`` records
the time inside it, the sweep included.  Two
reads still grow with the queue: the pending count behind the ``queue.depth``
gauge (an index walk, sampled by the sweep before each claim) and the
de-duplication pass of ``enqueue_pool``, which reads a field out of every
task row of the experiment.
"""

from __future__ import annotations

import secrets
import time
from typing import Callable

from repro.core import parse_grammar, serialize_grammar, validate
from repro.core.templates import DEFAULT_TEMPLATE_LIMIT
from repro.errors import (
    VERDICT_KINDS,
    AccessDenied,
    ConflictError,
    NotFound,
    ValidationError,
)
from repro.platform.models import (
    Comment,
    DBMSEntry,
    Experiment,
    HostEntry,
    Project,
    ResultRecord,
    Task,
    TaskStatus,
    User,
    Visibility,
)
from repro.obs import (
    NULL_LOGGER,
    FlightRecorder,
    JsonLogger,
    MetricsRegistry,
    SpanRecorder,
    TelemetryConfig,
    decode_spans,
    new_trace_id,
)
from repro.platform.store import Store
from repro.pool.guidance import Guidance
from repro.pool.morph import Morpher, Strategy
from repro.pool.pool import QueryPool
from repro.sqlparser import extract_grammar
from repro.sqlparser.extract import ExtractionOptions

#: engine counters of submitted profiles that ``/api/metrics`` sums up as
#: ``engine.<name>``: rows through the column engine's join / grouping kernels
#: and through their dict fallback (see :mod:`repro.engine.keys`), and both
#: engines' join access paths -- probes into storage key indexes (row) and key
#: orders (column), indexes / orders built (the first execution after a
#: mutation), rows put into per-execution builds.
ENGINE_KERNEL_COUNTERS = ("join.kernel_rows", "join.fallback_rows",
                          "group.kernel_rows", "group.fallback_rows",
                          "join.index_probes", "join.index_builds",
                          "join.order_probes", "join.order_builds", "join.build_rows")


class PlatformService:
    """Facade over the store implementing the platform's use cases."""

    def __init__(self, store: Store | None = None,
                 metrics: MetricsRegistry | None = None,
                 logger: JsonLogger | None = None,
                 telemetry: TelemetryConfig | None = None,
                 clock: Callable[[], float] = time.time):
        self.store = store or Store()
        #: the wall clock leases are granted and expire by (tests substitute
        #: one they can move).
        self._clock = clock
        #: service-level counters/histograms (tasks dispatched, results
        #: accepted, queue timeouts); the webapp serves its snapshot at
        #: ``/api/metrics``.
        self.metrics = metrics or MetricsRegistry()
        #: telemetry knobs shared by the span recorder and flight recorder;
        #: ``TelemetryConfig.disabled()`` turns both into cheap no-ops.
        self.telemetry = telemetry or TelemetryConfig()
        #: structured JSON-lines logger (``NULL_LOGGER`` by default: the
        #: service stays silent unless a sink is attached).
        self.log = (logger or NULL_LOGGER).bind("service")
        #: server-side span records (claim / sweep / submit / dedup), keyed
        #: by each task's stable trace id so ``analytics/timeline.py`` can
        #: stitch them against the driver's spans.
        self.spans = SpanRecorder(
            self.telemetry.span_capacity if self.telemetry.enabled else 0)
        #: ring buffer of the slowest / failed task traces.
        self.flight = FlightRecorder(
            self.telemetry.flight_capacity if self.telemetry.enabled else 0,
            slow_task_seconds=self.telemetry.slow_task_seconds,
            sink_path=self.telemetry.flight_log)

    # ------------------------------------------------------------------ users

    def register_user(self, nickname: str, email: str) -> User:
        """Register a user; nicknames are unique, the contributor key is generated."""
        if not nickname or not email or "@" not in email:
            raise ValidationError("a nickname and a valid email address are required")
        if self.store.user_by_nickname(nickname) is not None:
            raise ConflictError(f"nickname '{nickname}' is already registered")
        user = User(nickname=nickname, email=email,
                    contributor_key=secrets.token_hex(16))
        self.store.insert("users", user)
        return user

    def authenticate(self, contributor_key: str) -> User:
        """Resolve a contributor key to its user (the driver's credential)."""
        user = self.store.user_by_key(contributor_key)
        if user is None:
            raise AccessDenied("unknown contributor key")
        return user

    def list_users(self) -> list[dict]:
        """Public views of all users (no email addresses, per Section 5.2)."""
        return [user.public_view() for user in self.store.users()]

    # ------------------------------------------------------------- catalogs

    def register_dbms(self, name: str, version: str, dialect: str = "generic",
                      description: str = "", settings: dict | None = None) -> DBMSEntry:
        """Add a DBMS (+ configuration) to the global catalog."""
        entry = DBMSEntry(name=name, version=version, dialect=dialect,
                          description=description, settings=settings or {})
        self.store.insert("dbms_catalog", entry)
        return entry

    def register_host(self, name: str, cpu: str = "", memory_gb: float = 0.0,
                      os: str = "", description: str = "") -> HostEntry:
        """Add a hardware platform to the catalog."""
        entry = HostEntry(name=name, cpu=cpu, memory_gb=memory_gb, os=os,
                          description=description)
        self.store.insert("host_catalog", entry)
        return entry

    def dbms_catalog(self) -> list[DBMSEntry]:
        return self.store.dbms_catalog()

    def host_catalog(self) -> list[HostEntry]:
        return self.store.host_catalog()

    # ------------------------------------------------------------- projects

    def create_project(self, owner: User, name: str, synopsis: str = "",
                       visibility: Visibility | str = Visibility.PUBLIC,
                       attribution: str = "") -> Project:
        """Create a project owned (and moderated) by ``owner``."""
        if isinstance(visibility, str):
            visibility = Visibility(visibility)
        if any(project.name == name for project in self.store.projects()):
            raise ConflictError(f"a project named '{name}' already exists")
        project = Project(name=name, owner_id=owner.id, synopsis=synopsis,
                          visibility=visibility, attribution=attribution)
        self.store.insert("projects", project)
        return project

    def invite_contributor(self, acting: User, project: Project, invitee: User) -> Project:
        """Owner-only: add ``invitee`` to the project's contributors."""
        self._require_owner(acting, project)
        if invitee.id not in project.contributor_ids:
            project.contributor_ids.append(invitee.id)
            self.store.update("projects", project)
        return project

    def set_visibility(self, acting: User, project: Project,
                       visibility: Visibility | str) -> Project:
        """Owner-only: flip a project between public and private."""
        self._require_owner(acting, project)
        project.visibility = Visibility(visibility) if isinstance(visibility, str) else visibility
        self.store.update("projects", project)
        return project

    def list_projects(self, viewer: User | None = None) -> list[Project]:
        """Projects visible to ``viewer`` (public ones plus their memberships)."""
        return [project for project in self.store.projects()
                if self._can_read(viewer, project)]

    def get_project(self, project_id: int, viewer: User | None = None) -> Project:
        project = self.store.project(project_id)
        if not self._can_read(viewer, project):
            raise AccessDenied("this project is private")
        return project

    def add_comment(self, user: User, project: Project, text: str) -> Comment:
        """Registered users can comment on projects they can read."""
        if not self._can_read(user, project):
            raise AccessDenied("this project is private")
        if not text.strip():
            raise ValidationError("a comment needs a non-empty text")
        comment = Comment(project_id=project.id, user_id=user.id, text=text)
        self.store.insert("comments", comment)
        return comment

    def comments(self, project: Project, viewer: User | None = None) -> list[Comment]:
        if not self._can_read(viewer, project):
            raise AccessDenied("this project is private")
        return self.store.comments(project.id)

    # -------------------------------------------------------------- experiments

    def add_experiment(self, acting: User, project: Project, name: str,
                       baseline_sql: str, dbms: DBMSEntry | None = None,
                       host: HostEntry | None = None,
                       grammar_text: str | None = None,
                       template_limit: int = DEFAULT_TEMPLATE_LIMIT,
                       repeats: int = 5, timeout_seconds: float = 60.0,
                       max_attempts: int = 3,
                       guidance: Guidance | None = None) -> Experiment:
        """Attach an experiment to a project.

        The baseline query is converted into a SQALPEL grammar (unless an
        explicit, e.g. manually edited, grammar text is supplied), validated,
        and stored in its textual form so the owner can keep editing it.
        """
        self._require_owner(acting, project)
        if project.is_public() and dbms is not None and dbms.settings.get("private"):
            raise ValidationError(
                "a public project may not reference private DBMS settings")
        if grammar_text is None:
            grammar = extract_grammar(baseline_sql, ExtractionOptions(name=name))
            grammar_text = serialize_grammar(grammar)
        else:
            grammar = parse_grammar(grammar_text, name=name)
        report = validate(grammar)
        if not report.ok:
            raise ValidationError(f"grammar is invalid: {report.summary()}")
        if max_attempts <= 0:
            raise ValidationError("max_attempts must be a positive integer")
        experiment = Experiment(
            project_id=project.id,
            name=name,
            baseline_sql=baseline_sql,
            grammar_text=grammar_text,
            dbms_id=dbms.id if dbms else None,
            host_id=host.id if host else None,
            guidance=(guidance or Guidance()).describe(),
            template_limit=template_limit,
            repeats=repeats,
            timeout_seconds=timeout_seconds,
            max_attempts=max_attempts,
        )
        self.store.insert("experiments", experiment)
        return experiment

    def update_grammar(self, acting: User, experiment: Experiment,
                       grammar_text: str) -> Experiment:
        """Owner-only manual grammar edit (e.g. fusing rules to shrink the space)."""
        project = self.store.project(experiment.project_id)
        self._require_owner(acting, project)
        report = validate(parse_grammar(grammar_text, name=experiment.name))
        if not report.ok:
            raise ValidationError(f"grammar is invalid: {report.summary()}")
        experiment.grammar_text = grammar_text
        self.store.update("experiments", experiment)
        return experiment

    def experiments(self, project: Project, viewer: User | None = None) -> list[Experiment]:
        if not self._can_read(viewer, project):
            raise AccessDenied("this project is private")
        return self.store.experiments(project.id)

    def build_pool(self, experiment: Experiment, seed: int = 0) -> QueryPool:
        """Instantiate the query pool of an experiment from its stored grammar."""
        grammar = parse_grammar(experiment.grammar_text, name=experiment.name)
        return QueryPool(grammar, template_limit=experiment.template_limit, seed=seed)

    # ------------------------------------------------------------------ queue

    def enqueue_pool(self, acting: User, experiment: Experiment, pool: QueryPool,
                     dbms_label: str, host_name: str) -> list[Task]:
        """Owner-only: queue every pool entry for one DBMS + host combination.

        Entries already queued for the combination are skipped; the check
        (one SQL pass over the experiment's task rows) and the insert of the
        new tasks are one transaction.
        """
        project = self.store.project(experiment.project_id)
        self._require_owner(acting, project)
        with self.store.transaction("enqueue"):
            queued = self.store.task_query_keys(experiment.id, dbms_label, host_name)
            created = [
                Task(
                    experiment_id=experiment.id,
                    query_sql=entry.sql,
                    query_key=repr(entry.key),
                    dbms_label=dbms_label,
                    host_name=host_name,
                    origin=entry.origin,
                    parent_key=repr(entry.parent_key) if entry.parent_key else None,
                    size=entry.query.size(),
                    timeout_seconds=experiment.timeout_seconds,
                    max_attempts=experiment.max_attempts,
                    trace_id=new_trace_id(),
                )
                for entry in pool.entries() if repr(entry.key) not in queued
            ]
            self.store.insert_many("tasks", created)
        if self.spans.enabled:
            for task in created:
                self.spans.record("enqueue", task.trace_id, task=task.id,
                                  experiment=experiment.id,
                                  dbms=task.dbms_label, host=task.host_name)
        if created:
            self.log.info("tasks.enqueued", experiment=experiment.id,
                          count=len(created), dbms=dbms_label, host=host_name)
        self.metrics.counter("tasks.enqueued").inc(len(created))
        return created

    def next_tasks(self, contributor: User, experiment: Experiment, limit: int = 1,
                   dbms_label: str | None = None) -> list[Task]:
        """Claim a lease on up to ``limit`` pending tasks in one atomic batch.

        This is the batched-driver entry point: one indexed read of the
        ``limit`` oldest pending tasks and one batched write claim the whole
        batch, in one store transaction, so concurrent claims -- from other
        threads or other processes on the same store file -- partition the
        queue: no task is ever assigned twice.  The same transaction first
        sweeps overdue leases back into the pending pool (or into the
        dead-letter state), so lease expiry needs no background thread: the
        queue heals whenever somebody asks for work; a rolled-back claim
        counts no sweep.

        Claiming burns one unit of the task's retry budget and stamps the
        attempt number that a later submission must echo to be accepted.
        ``queue.claim_seconds`` records the time inside the claim
        transaction, the sweep and the gauges it samples included.
        """
        project = self.store.project(experiment.project_id)
        self._require_contributor(contributor, project)
        if limit <= 0:
            raise ValidationError("the batch size must be a positive integer")
        started = time.perf_counter()
        with self.store.transaction("claim"):
            _, sweep_committed = self._sweep(experiment)
            now = self._clock()
            claimed = self.store.pending_tasks(experiment.id, limit, dbms_label)
            for task in claimed:
                task.status = TaskStatus.RUNNING.value
                task.assigned_to = contributor.contributor_key
                task.assigned_at = now
                task.attempts += 1
                if task.trace_id is None:
                    # tasks inserted directly into the store (older data,
                    # test harnesses) get their trace id at first claim.
                    task.trace_id = new_trace_id()
            self.store.update_many("tasks", claimed)
        self.metrics.histogram("queue.claim_seconds").observe(
            time.perf_counter() - started)
        sweep_committed()
        if self.spans.enabled:
            for task in claimed:
                self.spans.record("claim", task.trace_id, start=now,
                                  task=task.id, attempt=task.attempts,
                                  contributor=contributor.nickname,
                                  experiment=experiment.id)
        if claimed:
            self.log.info("tasks.dispatched", experiment=experiment.id,
                          count=len(claimed), contributor=contributor.nickname)
        self.metrics.counter("tasks.dispatched").inc(len(claimed))
        return claimed

    def kill_task(self, acting: User, task: Task) -> Task:
        """Owner-only: kill a task that is still queued or running.

        The transition is made on the *stored* task, not on the caller's copy
        (which may predate a claim, a retry or the result): ``pending`` and
        ``running`` become ``killed``, a terminal task stays what it is.
        Returns the stored task as it is afterwards.
        """
        experiment = self.store.experiment(task.experiment_id)
        project = self.store.project(experiment.project_id)
        self._require_owner(acting, project)
        with self.store.transaction("kill"):
            current = self.store.task(task.id)
            killed = current.status in (TaskStatus.PENDING.value,
                                        TaskStatus.RUNNING.value)
            if killed:
                current.status = TaskStatus.KILLED.value
                self.store.update("tasks", current)
        if killed:
            self.log.warning("task.killed", task=current.id,
                             trace_id=current.trace_id, killed_by=acting.nickname)
            self.metrics.counter("tasks.killed").inc()
        return current

    def expire_stuck_tasks(self, experiment: Experiment) -> list[Task]:
        """Sweep running tasks whose results were not delivered within the
        timeout, in one transaction; returns the swept tasks.

        An overdue lease returns its task to the pending pool for another
        contributor (counted as ``tasks.retried``) while the task still has
        retry budget, and dead-letters it otherwise (``tasks.dead_lettered``).
        Every claim sweeps first, in the claim's transaction; owners and test
        harnesses call this to heal the queue without claiming work.  Only
        running tasks whose lease has ended are decoded (the SQL filter looks
        at every running task).  The sweep is also the sampling point of the
        queue gauges: pending depth and the age of the oldest live lease
        (both post-sweep).  Its telemetry waits for its commit.
        """
        with self.store.transaction("sweep"):
            swept, committed = self._sweep(experiment)
        committed()
        return swept

    def _sweep(self, experiment: Experiment) -> tuple[list[Task], Callable[[], None]]:
        """The sweep's reads and writes, in the caller's transaction; returns
        the swept tasks and the telemetry to apply once that commits."""
        now = self._clock()
        swept = self.store.overdue_leases(experiment.id, now)
        for task in swept:
            if task.attempts >= task.max_attempts:
                task.status = TaskStatus.DEAD_LETTER.value
                task.last_error = (
                    f"lease expired after {task.timeout_seconds:.1f}s on attempt "
                    f"{task.attempts}/{task.max_attempts} (was assigned to "
                    f"{task.assigned_to})")
            else:
                task.status = TaskStatus.PENDING.value
                task.assigned_to = None
                task.assigned_at = None
        self.store.update_many("tasks", swept)
        oldest_lease = self.store.oldest_lease(experiment.id)
        depth = self.store.count_tasks(experiment.id, TaskStatus.PENDING.value)

        def committed() -> None:
            dead_lettered = 0
            for task in swept:
                dead = task.status == TaskStatus.DEAD_LETTER.value
                dead_lettered += dead
                if self.spans.enabled and task.trace_id:
                    self.spans.record("sweep", task.trace_id, start=now, task=task.id,
                                      outcome="dead_letter" if dead else "retried",
                                      attempt=task.attempts)
                self.log.warning("task.dead_lettered" if dead else "task.retried",
                                 task=task.id, trace_id=task.trace_id,
                                 attempt=task.attempts, reason="lease_expired")
                if dead:
                    self._record_flight(task, "dead_letter", now, "lease_expired")
            self.metrics.gauge("queue.depth").set(depth)
            self.metrics.gauge("queue.oldest_lease_seconds").set(
                max(0.0, now - oldest_lease) if oldest_lease else 0.0)
            self.metrics.counter("queue.timeouts").inc(len(swept))
            if len(swept) > dead_lettered:
                self.metrics.counter("tasks.retried").inc(len(swept) - dead_lettered)
            if dead_lettered:
                self.metrics.counter("tasks.dead_lettered").inc(dead_lettered)

        return swept, committed

    def _record_flight(self, task: Task, outcome: str, now: float,
                       reason: str | None = None) -> None:
        """Offer a terminal task to the flight recorder (with its spans and,
        for a dead letter, the ``reason`` its log event carries).

        Slowness is measured over the final attempt's *processing* time
        (lease grant to terminal outcome), not the task's queue age: a
        task that sat in a deep queue but executed in milliseconds is a
        capacity signal -- visible in the queue gauges -- not a slow
        task worth a flight entry.
        """
        if not self.flight.enabled or not task.trace_id:
            return
        duration = now - (task.assigned_at or task.created_at)
        if outcome == "done" and duration < self.flight.slow_task_seconds:
            # a fast success can never be retained: skip gathering its spans.
            return
        self.flight.record(
            task_id=task.id, trace_id=task.trace_id, outcome=outcome,
            duration=duration,
            spans=self.spans.spans(task.trace_id),
            attempts=task.attempts, last_error=task.last_error, reason=reason,
            query_key=task.query_key, dbms=task.dbms_label)

    def queue_status(self, experiment: Experiment) -> dict[str, int]:
        """Counts per task status for one experiment."""
        return self.store.task_counts(experiment.id)

    # ----------------------------------------------------------------- results

    def submit_results(self, contributor: User,
                       submissions: list[dict]) -> list[ResultRecord | None]:
        """Record a batch of task outcomes in one transaction, exactly once.

        Each submission is a dict of :data:`~repro.platform.models.SUBMISSION_FIELDS`
        (build it with :func:`~repro.platform.models.new_submission`): ``task`` (a
        :class:`Task` or its id), ``times``, and optional ``error`` /
        ``error_kind`` / ``load_averages`` / ``extras`` / ``idempotency_key`` /
        ``attempt``.  The whole batch is
        one store transaction: its tasks are loaded in one read, every
        submission is fenced against that stored state, and all fresh writes
        commit together -- an invalid submission rejects the batch without
        recording anything, and no claim, sweep or other submission can slip
        in between the fence and the write.

        Fault tolerance (per submission, position-aligned with the returned
        list):

        * a submission whose ``idempotency_key`` was already accepted
          **replays** the original :class:`ResultRecord` instead of inserting
          a duplicate (``results.deduplicated``) -- retrying a batch whose
          response was lost is therefore always safe,
        * a **stale** submission -- its task is no longer running, is leased
          to another contributor, or carries an ``attempt`` number that does
          not match the task's current lease -- is acknowledged but dropped
          (``None`` in the returned list, ``results.stale``), so a slow
          contributor cannot overwrite the outcome of a re-assigned task,
        * a fresh *successful* submission completes the task; a fresh *error*
          submission returns the task to the pending pool (``tasks.retried``)
          until its retry budget is exhausted, then dead-letters it
          (``tasks.dead_lettered``),
        * unless the error is the engine's verdict on the text: an
          ``error_kind`` among :data:`repro.errors.VERDICT_KINDS` (``syntax``,
          ``plan`` -- ``prepare`` refused the query) dead-letters the task on
          the lease it was measured under, ``attempts`` left where it is
          (``tasks.dead_lettered`` and ``tasks.refused``): another lease would
          be refused the same way.  A submission without a kind, or with one
          this platform does not know, is an ``execution`` error and keeps the
          budget rule, so a driver for another DBMS loses nothing.  The kind
          is kept on the failed result (``extras["error_kind"]``), nowhere
          else.
        """
        prepared: list[dict] = []
        for submission in submissions:
            task = submission.get("task")
            times = list(submission.get("times") or [])
            if submission.get("error") is None and not times:
                raise ValidationError("a successful run must report at least one timing")
            prepared.append({
                **submission, "times": times,
                "task_id": task.id if isinstance(task, Task) else int(task)})

        # buffered metric increments / span records / log events / flight
        # entries, applied only after the batch commits: a crashed
        # (rolled-back) batch is retried by the client and must not count,
        # trace, or log its effects twice.
        counters: dict[str, int] = {}
        best_seconds: list[float] = []
        span_buffer: list[dict] = []
        ingest_buffer: list[tuple[str, object]] = []
        log_buffer: list[tuple[str, str, dict]] = []
        flight_buffer: list[tuple[Task, str, str | None]] = []
        batch_started = self._clock()

        with self.store.transaction("submit"):
            stored = self.store.tasks_by_id(
                submission["task_id"] for submission in prepared)
            self._require_contributor_of(contributor, stored.values())
            records: list[ResultRecord | None] = []
            inserts: list[ResultRecord] = []
            task_updates: dict[int, Task] = {}
            idempotency: list[tuple[str, ResultRecord]] = []
            # a key repeated within the batch is stale or refused by the store
            replays = self.store.recall_submissions(
                submission["idempotency_key"] for submission in prepared
                if submission.get("idempotency_key"))
            for submission in prepared:
                key = submission.get("idempotency_key")
                if key:
                    replay_id = replays.get(key)
                    if replay_id is not None:
                        records.append(self.store.result(replay_id))
                        counters["results.deduplicated"] = \
                            counters.get("results.deduplicated", 0) + 1
                        replayed = stored[submission["task_id"]]
                        trace_id = replayed.trace_id
                        if trace_id:
                            span_buffer.append({
                                "name": "submit", "trace_id": trace_id,
                                "task": replayed.id, "outcome": "dedup",
                                "dedup": True, "idempotency_key": key,
                            })
                        log_buffer.append(("info", "result.deduplicated", {
                            "task": replayed.id, "trace_id": trace_id,
                            "idempotency_key": key,
                        }))
                        continue
                # fence against stale leases on the *stored* task state (as
                # left by earlier submissions of this batch), not the possibly
                # outdated copy the client sent along.
                current = stored[submission["task_id"]]
                attempt = submission.get("attempt")
                if (current.status != TaskStatus.RUNNING.value
                        or current.assigned_to != contributor.contributor_key
                        or (attempt is not None and int(attempt) != current.attempts)):
                    records.append(None)
                    counters["results.stale"] = counters.get("results.stale", 0) + 1
                    if current.trace_id:
                        span_buffer.append({
                            "name": "submit", "trace_id": current.trace_id,
                            "task": current.id, "outcome": "stale",
                            "attempt": attempt,
                        })
                    log_buffer.append(("warning", "result.stale", {
                        "task": current.id, "trace_id": current.trace_id,
                        "attempt": attempt, "task_status": current.status,
                    }))
                    continue
                error = submission.get("error")
                extras = submission.get("extras") or {}
                refused = False
                if error is not None:
                    kind = submission.get("error_kind")
                    refused = kind in VERDICT_KINDS
                    extras = {**extras, "error_kind": kind if refused else "execution"}
                record = ResultRecord(
                    task_id=current.id,
                    experiment_id=current.experiment_id,
                    contributor_key=contributor.contributor_key,
                    dbms_label=current.dbms_label,
                    host_name=current.host_name,
                    query_sql=current.query_sql,
                    times=submission["times"],
                    error=error,
                    load_averages=submission.get("load_averages") or {},
                    extras=extras,
                    idempotency_key=key,
                )
                if current.trace_id is None:
                    current.trace_id = new_trace_id()
                reason = None
                if error is None:
                    current.status = TaskStatus.DONE.value
                    outcome = "done"
                elif refused or current.attempts >= current.max_attempts:
                    current.status = TaskStatus.DEAD_LETTER.value
                    current.last_error = error
                    counters["tasks.dead_lettered"] = \
                        counters.get("tasks.dead_lettered", 0) + 1
                    if refused:
                        counters["tasks.refused"] = counters.get("tasks.refused", 0) + 1
                    outcome = "dead_letter"
                    reason = "refused" if refused else "budget_exhausted"
                else:
                    current.status = TaskStatus.PENDING.value
                    current.assigned_to = None
                    current.assigned_at = None
                    current.last_error = error
                    counters["tasks.retried"] = counters.get("tasks.retried", 0) + 1
                    outcome = "retried"
                profile = record.extras.get("profile") \
                    if isinstance(record.extras, dict) else None
                if isinstance(profile, dict) and isinstance(profile.get("counters"), dict):
                    # which join/group kernel the contributor's engine ran,
                    # summed over every accepted result
                    for name in ENGINE_KERNEL_COUNTERS:
                        amount = profile["counters"].get(name)
                        if isinstance(amount, (int, float)) and amount:
                            counters[f"engine.{name}"] = \
                                counters.get(f"engine.{name}", 0) + amount
                if isinstance(record.extras, dict) and record.extras.get("spans"):
                    # driver-side span records ride along in the extras,
                    # stored as they arrived; ingesting them (under the
                    # task's own trace id) gives the server's recorder, and
                    # the flight entries built from it, the full
                    # cross-process timeline of this task.
                    ingest_buffer.append((current.trace_id, record.extras["spans"]))
                span_buffer.append({
                    "name": "submit", "trace_id": current.trace_id,
                    "task": current.id, "attempt": current.attempts,
                    "outcome": outcome, "dedup": False,
                    "rows": (profile or {}).get("rows"),
                    "error": error, "reason": reason,
                })
                log_buffer.append(("info", "result.accepted", {
                    "task": current.id, "trace_id": current.trace_id,
                    "attempt": current.attempts, "outcome": outcome,
                    "contributor": contributor.nickname,
                }))
                if outcome == "retried":
                    log_buffer.append(("warning", "task.retried", {
                        "task": current.id, "trace_id": current.trace_id,
                        "attempt": current.attempts, "reason": "error_result",
                        "error": error,
                    }))
                elif outcome == "dead_letter":
                    log_buffer.append(("error", "task.dead_lettered", {
                        "task": current.id, "trace_id": current.trace_id,
                        "attempt": current.attempts, "reason": reason,
                        "error": error,
                    }))
                if outcome in ("done", "dead_letter"):
                    flight_buffer.append((current, outcome, reason))
                records.append(record)
                inserts.append(record)
                task_updates[current.id] = current
                if key:
                    idempotency.append((key, record))
                counters["results.accepted"] = counters.get("results.accepted", 0) + 1
                if error is not None:
                    counters["results.failed"] = counters.get("results.failed", 0) + 1
                elif record.times:
                    best_seconds.append(min(record.times))
            self.store.apply_batch(
                inserts=[("results", record) for record in inserts],
                updates=[("tasks", task) for task in task_updates.values()],
                idempotency=idempotency,
            )
        # keep the caller's Task copies in sync with the persisted state
        # (older call sites read task.status off the object they passed).
        for submission in prepared:
            submitted = submission.get("task")
            if isinstance(submitted, Task) and submitted.id in task_updates:
                submitted.__dict__.update(task_updates[submitted.id].__dict__)

        # the batch committed: flush the buffered telemetry.  Submit spans
        # share the batch's window (arrival -> commit) on the timeline.
        if self.spans.enabled:
            # a retried submission re-ships every span the driver recorded
            # for the task so far; ingest each span record exactly once
            # (checking only against the same trace keeps this off the
            # O(capacity) path).
            seen: dict[str, set] = {}
            for trace_id, shipped in ingest_buffer:
                ids = seen.get(trace_id)
                if ids is None:
                    ids = seen[trace_id] = {
                        span.get("span_id")
                        for span in self.spans.spans(trace_id)}
                fresh = decode_spans(shipped, trace_id, skip=ids)
                ids.update(span["span_id"] for span in fresh)
                self.spans.extend(fresh)
            for buffered in span_buffer:
                name = buffered.pop("name")
                trace_id = buffered.pop("trace_id")
                self.spans.record(name, trace_id, start=batch_started,
                                  **buffered)
        for level, event, fields in log_buffer:
            self.log.log(level, event, **fields)
        now = self._clock()
        for task, outcome, reason in flight_buffer:
            self._record_flight(task, outcome, now, reason)
        for name, amount in counters.items():
            self.metrics.counter(name).inc(amount)
        timings = self.metrics.histogram("results.best_seconds")
        for value in best_seconds:
            timings.observe(value)
        return records

    def set_result_hidden(self, acting: User, result: ResultRecord, hidden: bool) -> ResultRecord:
        """Owner-only: hide a result pending clarification ("keep these results private")."""
        experiment = self.store.experiment(result.experiment_id)
        project = self.store.project(experiment.project_id)
        self._require_owner(acting, project)
        result.hidden = hidden
        self.store.update("results", result)
        return result

    def results(self, experiment: Experiment, viewer: User | None = None,
                include_hidden: bool = False) -> list[ResultRecord]:
        """Results of an experiment, respecting visibility rules."""
        project = self.store.project(experiment.project_id)
        if not self._can_read(viewer, project):
            raise AccessDenied("this project is private")
        records = self.store.results(experiment.id)
        if include_hidden and viewer is not None and self._is_member(viewer, project):
            return records
        return [record for record in records if not record.hidden]

    def export_results_csv(self, experiment: Experiment, viewer: User | None = None) -> str:
        """CSV export of an experiment's results ("exported in CSV for post-processing")."""
        import csv
        import io

        records = self.results(experiment, viewer=viewer)
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["result_id", "task_id", "dbms", "host", "query",
                         "best_seconds", "times", "error"])
        for record in records:
            writer.writerow([
                record.id, record.task_id, record.dbms_label, record.host_name,
                record.query_sql, record.best,
                ";".join(f"{value:.6f}" for value in record.times), record.error or "",
            ])
        return buffer.getvalue()

    # ----------------------------------------------------- pool morphing helper

    def grow_pool(self, experiment: Experiment, pool: QueryPool, steps: int,
                  strategy: str | None = None, seed: int | None = None) -> int:
        """Morph the pool ``steps`` times using the experiment's stored guidance."""
        guidance = Guidance.from_dict(experiment.guidance)
        morpher = Morpher(pool, guidance=guidance, seed=seed)
        chosen = Strategy(strategy) if strategy else None
        return len(morpher.run(steps, strategy=chosen))

    # ------------------------------------------------------------ access control

    def _require_owner(self, user: User, project: Project) -> None:
        if user is None or user.id != project.owner_id:
            raise AccessDenied("only the project owner may perform this operation")

    def _require_contributor(self, user: User, project: Project) -> None:
        if user is None or not self._is_member(user, project):
            raise AccessDenied("only project contributors may perform this operation")

    def _require_contributor_of(self, user: User, tasks) -> None:
        """``user`` contributes to the project of every one of ``tasks``
        (each experiment and project is read once)."""
        for experiment_id in {task.experiment_id for task in tasks}:
            experiment = self.store.experiment(experiment_id)
            self._require_contributor(user, self.store.project(experiment.project_id))

    def _is_member(self, user: User, project: Project) -> bool:
        return user is not None and (
            user.id == project.owner_id or user.id in project.contributor_ids
        )

    def _can_read(self, user: User | None, project: Project) -> bool:
        if project.is_public():
            return True
        return user is not None and self._is_member(user, project)
