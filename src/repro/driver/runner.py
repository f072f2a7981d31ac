"""The driver's execution loop.

"Its basic interaction is to call the sqalpel webserver for a task from a
project/experiment pool, execute it, and report the findings. [...] By default
each experiment is run five times and the wall clock time for each step is
reported.  When available, the system load at the beginning and end of the
experimental run is kept around. [...] An open-ended key-value list structure
can be returned to keep system specific performance indicators for post
inspection."

:class:`BatchRunner` is that loop, batched: it claims N tasks per round
trip, prepares each distinct query's plan exactly once (plan-once/
execute-many), measures the tasks one after the other with
:func:`measure_query`, and delivers the whole batch of results in a single
submission.  With ``batch_size = 1`` it is the paper's one-task loop: one
claim round trip, one execution, one submit round trip.
"""

from __future__ import annotations

import os
import random
import time
import uuid
from dataclasses import dataclass, field

from repro.driver.client import PlatformClient, RetryPolicy
from repro.driver.config import DriverConfig
from repro.engine.engine import Engine
from repro.engine.plan import QueryPlan
from repro.errors import TransportError, error_kind
from repro.obs import (
    NULL_LOGGER,
    JsonLogger,
    MetricsRegistry,
    QueryTrace,
    SpanContext,
    SpanRecorder,
    encode_spans,
    export_query_trace,
    new_span_id,
    use_context,
    write_span_log,
)
from repro.platform.models import new_submission
from repro.sqlparser import ast
from repro.sqlparser.printer import to_sql


def read_load_averages() -> dict:
    """Return the 1/5/15-minute CPU load averages (empty when unavailable)."""
    try:
        one, five, fifteen = os.getloadavg()
    except (AttributeError, OSError):  # pragma: no cover - non-POSIX platforms
        return {}
    return {"load1": one, "load5": five, "load15": fifteen}


@dataclass
class RunOutcome:
    """Measurements of one query executed by the driver."""

    sql: str
    times: list[float] = field(default_factory=list)
    error: str | None = None
    #: :func:`repro.errors.error_kind` of the exception behind ``error`` (None
    #: on success): whether the engine refused the text or an execution failed.
    error_kind: str | None = None
    rows: int = 0
    load_before: dict = field(default_factory=dict)
    load_after: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    timed_out: bool = False
    #: engine span tree of the first repetition when tracing was requested.
    trace: QueryTrace | None = None

    @property
    def best(self) -> float | None:
        return min(self.times) if self.times else None

    @property
    def failed(self) -> bool:
        return self.error is not None


def measure_query(engine: Engine, query: "str | ast.Select | QueryPlan",
                  repeats: int = 5, timeout: float | None = None,
                  trace: bool = False, refusal: Exception | None = None) -> RunOutcome:
    """Run ``query`` ``repeats`` times on ``engine`` and collect execution times.

    The query is prepared (parsed, planned and compiled) exactly once -- a
    :class:`QueryPlan` the caller prepared is used as it is; every
    repetition executes the prepared plan and reports
    :attr:`QueryResult.elapsed`, i.e. pure execution time -- planning is not
    double-counted into the timings, and neither is what ``prepare`` builds
    for a fresh plan: generated pipelines, column kernels and the scan
    kernels storage keeps per table version (dictionary-code kernels,
    zone-map survivor sets).  What the *data* owes the first execution after
    a table changed -- row and columnar views, key indexes, key orders -- is
    inside that execution's time.

    Errors are captured, not raised: a failing query is a first-class outcome
    in SQALPEL (it shows up as a yellow node in the experiment history).
    ``error`` is the formatted exception and ``error_kind`` says which failure
    it was (:func:`repro.errors.error_kind`): ``syntax`` / ``plan`` when
    ``prepare`` refused the text -- the engine's verdict, the same on every
    lease -- and ``execution`` for anything an execution raised.  A caller
    that already prepared the text and was refused passes the exception as
    ``refusal``; it is recorded as the outcome and the text is not lexed,
    parsed and planned a second time to fail again.

    Timeout semantics: the budget is checked after each repetition, so one
    over-budget repetition is still *recorded* but flagged
    (``extras["timed_out"] = True``) and the remaining repetitions are
    skipped.  ``rows`` keeps the count of the last successful repetition even
    when a later repetition fails.

    ``trace=True`` records the engine's span tree (``QueryTrace``) for the
    *first* repetition only and attaches it as :attr:`RunOutcome.trace` --
    one traced repetition gives the timeline its operator breakdown while
    the remaining repetitions keep their timing fidelity.
    """
    if isinstance(query, str):
        sql = query
    elif isinstance(query, QueryPlan):
        sql = query.sql
    else:
        sql = to_sql(query)
    outcome = RunOutcome(sql=sql, load_before=read_load_averages())

    def failed(exc: Exception) -> None:
        outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.error_kind = error_kind(exc)

    plan: QueryPlan | None = None
    if refusal is not None:
        failed(refusal)
    elif isinstance(query, QueryPlan):
        plan = query
    else:
        try:
            plan = engine.prepare(query)
        except Exception as exc:
            failed(exc)

    profile: dict | None = None
    if plan is not None:
        for repetition in range(repeats):
            try:
                # pass ``trace`` only when tracing this repetition: stub
                # engines in tests (and any duck-typed engine) need not know
                # the keyword unless tracing is actually requested.
                if trace and repetition == 0:
                    result = engine.execute(plan, trace=True)
                else:
                    result = engine.execute(plan)
            except Exception as exc:
                failed(exc)
                break
            outcome.times.append(result.elapsed)
            outcome.rows = len(result.rows)
            profile = result.profile()
            if repetition == 0 and trace:
                outcome.trace = getattr(result, "trace", None)
            if timeout is not None and result.elapsed > timeout:
                outcome.timed_out = True
                break

    outcome.load_after = read_load_averages()
    outcome.extras = {
        "engine": engine.label,
        "strategy": engine.strategy(),
        "rows": outcome.rows,
        "options": engine.options.describe(),
    }
    if profile is not None:
        # compact per-query profile of the last repetition: phase timings,
        # scan efficiency and cache behaviour ride along with the submitted
        # result, so the platform's analytics can aggregate them.
        outcome.extras["profile"] = profile
    if outcome.timed_out:
        outcome.extras["timed_out"] = True
    return outcome


@dataclass
class BatchRunner:
    """The batched driver pipeline: claim N tasks, plan once, execute many.

    Per batch the runner

    1. claims up to ``config.batch_size`` tasks in one round trip,
    2. groups them by query text and prepares each distinct query's plan
       exactly once through the engine's plan cache,
    3. measures every task in turn (``config.repeats`` repetitions of the
       prepared plan), so no measurement contends with another,
    4. submits the whole batch of results in one round trip.

    Fault tolerance: every platform round trip is retried up to
    ``config.retries`` times with decorrelated-jitter backoff
    (``config.retry_delay`` base).  Each measured outcome gets a fresh
    idempotency key *before* the first submission attempt and keeps it across
    retries, so a batch whose response was lost can be resubmitted blindly --
    the platform replays already-accepted entries instead of duplicating
    them.  When the whole batch keeps failing, the runner degrades to
    per-result submission so one poison entry (or an unlucky fault) cannot
    strand its batch-mates; results it ultimately cannot deliver are left to
    the platform's lease expiry to reschedule.  ``metrics`` (optional) counts
    ``client.retries``, ``client.batch_splits`` and ``client.gave_up``.

    Telemetry: with ``config.trace_tasks`` on, every task execution records
    driver-side spans into ``spans`` under the task's platform-minted trace
    id -- ``driver.execute`` (nesting the engine's ``QueryTrace`` from the
    first repetition), ``driver.submit``, and ``driver.backoff`` around
    retry sleeps.  The submitted extras always carry the trace id; the span
    records themselves ride along when the execution is worth server-side
    stitching (failed, retried, or slow -- see ``_ship_spans``), so the
    server can flight-record a complete timeline without every clean fast
    submission paying the shipping cost.
    ``logger`` (optional) makes retry/degradation decisions structured log
    events.
    """

    client: PlatformClient
    engine: Engine
    config: DriverConfig
    metrics: MetricsRegistry | None = None
    rng: random.Random = field(default_factory=random.Random)
    logger: JsonLogger | None = None
    spans: SpanRecorder | None = None

    def __post_init__(self) -> None:
        self.log = (self.logger or NULL_LOGGER).bind("driver")
        if self.spans is None and self.config.trace_tasks:
            self.spans = SpanRecorder(self.config.telemetry.span_capacity or 2048)

    def _count(self, name: str, amount: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _with_retries(self, call, operation: str = "",
                      trace_ids: tuple | list = ()):
        """Run ``call`` retrying ``TransportError`` with decorrelated jitter.

        Retry sleeps are recorded as ``driver.backoff`` spans on every trace
        id in ``trace_ids`` (the tasks whose delivery is waiting on the
        backoff), so stitched timelines show backoff waits as their own
        phase.
        """
        policy = RetryPolicy(attempts=self.config.retries,
                             base_delay=self.config.retry_delay)
        delay = policy.base_delay
        for attempt in range(policy.attempts + 1):
            try:
                return call()
            except TransportError as exc:
                if attempt == policy.attempts:
                    raise
                self._count("client.retries")
                delay = policy.next_delay(delay, self.rng)
                self.log.warning("client.retry", operation=operation or None,
                                 attempt=attempt + 1, delay=delay,
                                 error=str(exc))
                slept_at = time.time()
                time.sleep(delay)
                if self.spans is not None:
                    for trace_id in trace_ids:
                        self.spans.record("driver.backoff", trace_id,
                                          start=slept_at,
                                          operation=operation or None,
                                          attempt=attempt + 1, delay=delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def run_batch(self, experiment_id: int, count: int | None = None) -> int:
        """Claim and execute one batch; return how many tasks were executed."""
        batch_size = count if count is not None else self.config.batch_size
        tasks = self._with_retries(
            lambda: self.client.next_tasks(experiment_id, count=batch_size,
                                           dbms=self.config.dbms),
            operation="claim")
        if not tasks:
            return 0

        # per distinct text its plan, or the exception ``prepare`` refused it
        # with: measure_query records that as the failed outcome of every
        # task holding the text, without preparing it again.
        plans: dict[str, QueryPlan] = {}
        refusals: dict[str, Exception] = {}
        for task in tasks:
            sql = task["query_sql"]
            if sql not in plans and sql not in refusals:
                try:
                    plans[sql] = self.engine.prepare(sql)
                except Exception as exc:
                    refusals[sql] = exc

        def run(task: dict) -> RunOutcome:
            sql = task["query_sql"]
            started = time.time()
            outcome = measure_query(self.engine, plans.get(sql, sql),
                                    repeats=self.config.repeats,
                                    timeout=self.config.timeout,
                                    trace=self.spans is not None,
                                    refusal=refusals.get(sql))
            if self.spans is not None and task.get("trace_id"):
                execute_span = self.spans.record(
                    "driver.execute", task["trace_id"],
                    start=started, end=time.time(),
                    task=task.get("id"), attempt=task.get("attempts"),
                    rows=outcome.rows, repeats=len(outcome.times),
                    error=outcome.error)
                if outcome.trace is not None:
                    # the engine's whole span tree nests under this task's
                    # execute span: one trace id covers SQL parse -> engine
                    # operators -> HTTP submit.
                    self.spans.extend(export_query_trace(
                        outcome.trace, task["trace_id"],
                        parent_span_id=execute_span["span_id"]))
            return outcome

        outcomes = [run(task) for task in tasks]

        for task, outcome in zip(tasks, outcomes):
            trace_id = task.get("trace_id")
            if not trace_id:
                continue
            # the submitted extras (and the engine profile inside them)
            # carry the task's trace id so platform-side analytics can join
            # engine stats to the stitched timeline; with tracing on, the
            # driver's span records for this task ride along too.
            outcome.extras["trace_id"] = trace_id
            profile = outcome.extras.get("profile")
            if isinstance(profile, dict):
                profile["trace_id"] = trace_id
            if self.spans is not None and self._ship_spans(task, outcome):
                outcome.extras["spans"] = encode_spans(self.spans.spans(trace_id))

        submissions = [
            new_submission(
                task["id"], outcome.times, outcome.error,
                error_kind=outcome.error_kind,
                load_averages={"before": outcome.load_before,
                               "after": outcome.load_after},
                extras=outcome.extras,
                # one key per task *execution*, minted before the first
                # submission attempt and reused across retries.
                idempotency_key=uuid.uuid4().hex,
                # echo the lease's attempt number so the platform can fence
                # out this submission if the lease was reassigned meanwhile.
                attempt=task.get("attempts"))
            for task, outcome in zip(tasks, outcomes)
        ]
        self._submit(submissions)
        return len(tasks)

    def _ship_spans(self, task: dict, outcome: RunOutcome) -> bool:
        """Whether this submission carries the driver's span records.

        Spans ride along when the task's story is worth server-side
        stitching -- a failure, a retried task, or an execution that
        cleared the slow-task threshold (the same cases the server's
        flight recorder retains).  The uneventful fast path keeps its
        spans client-side (still exportable via ``span_log``), so clean
        submissions stay lean on the wire and in the result store.
        """
        if outcome.error is not None:
            return True
        if (task.get("attempts") or 0) > 1:
            return True
        return sum(outcome.times) >= self.config.telemetry.slow_task_seconds

    def _trace_ids(self, submissions: list[dict]) -> list[str]:
        return [trace_id for trace_id in
                ((submission.get("extras") or {}).get("trace_id")
                 for submission in submissions) if trace_id]

    def _record_submit(self, submissions: list[dict], started: float,
                       mode: str) -> None:
        if self.spans is None:
            return
        ended = time.time()
        for submission in submissions:
            trace_id = (submission.get("extras") or {}).get("trace_id")
            if trace_id:
                self.spans.record("driver.submit", trace_id,
                                  start=started, end=ended,
                                  task=submission.get("task"),
                                  attempt=submission.get("attempt"), mode=mode)

    def _submit_context(self, submissions: list[dict]):
        """Ambient span context for a submission round trip.

        A single-task submission inherits its task's trace id, so the
        ``traceparent`` the HTTP client stamps makes the server-side
        ``http`` span part of the task's own timeline; a multi-task batch
        gets request-level correlation only (the client mints a fresh id).
        """
        trace_ids = self._trace_ids(submissions)
        if len(submissions) == 1 and len(trace_ids) == 1:
            return use_context(SpanContext(trace_ids[0], new_span_id()))
        return use_context(None)

    def _submit(self, submissions: list[dict]) -> None:
        """Deliver ``submissions``, degrading from batch to per-result mode."""
        trace_ids = self._trace_ids(submissions)
        started = time.time()
        try:
            with self._submit_context(submissions):
                self._with_retries(
                    lambda: self.client.submit_results(submissions),
                    operation="submit", trace_ids=trace_ids)
            self._record_submit(submissions, started, "batch")
            return
        except TransportError:
            self._count("client.batch_splits")
            self.log.warning("client.batch_split", batch=len(submissions))
        # the batch round trip kept failing; isolate each result so the
        # deliverable ones land.  Keys stay the same, so entries that were
        # accepted by a processed-but-unacknowledged batch attempt are
        # replayed, not duplicated.
        for submission in submissions:
            started = time.time()
            try:
                with self._submit_context([submission]):
                    self._with_retries(
                        lambda entry=submission: self.client.submit_results([entry]),
                        operation="submit",
                        trace_ids=self._trace_ids([submission]))
                self._record_submit([submission], started, "single")
            except TransportError as exc:
                # undeliverable: the platform's lease expiry will reschedule
                # the task; losing the measurement is the contract here.
                self._count("client.gave_up")
                self.log.error("client.gave_up", task=submission.get("task"),
                               error=str(exc))

    def run_all(self, experiment_id: int, max_tasks: int | None = None) -> int:
        """Drain the experiment's queue batch by batch; return the task count.

        A batch whose *claim* round trip keeps failing ends the drain (the
        queue is unreachable, not empty); submission failures are absorbed
        per batch by :meth:`_submit`.
        """
        executed = 0
        while max_tasks is None or executed < max_tasks:
            remaining = None if max_tasks is None else max_tasks - executed
            count = (self.config.batch_size if remaining is None
                     else min(self.config.batch_size, remaining))
            try:
                ran = self.run_batch(experiment_id, count=count)
            except TransportError:
                self._count("client.claim_failures")
                self.log.error("client.claim_failed", experiment=experiment_id)
                break
            if ran == 0:
                break
            executed += ran
        self.export_spans()
        return executed

    def export_spans(self, path: str | None = None) -> int:
        """Append the recorded driver spans to a JSONL file.

        ``path`` defaults to ``config.span_log``; returns how many records
        were written (0 when tracing is off or no sink is configured).
        """
        sink = path or self.config.span_log
        if self.spans is None or not sink:
            return 0
        return write_span_log(sink, self.spans.spans())
