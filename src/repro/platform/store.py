"""sqlite3-backed persistence for the platform.

Every entity is stored as a JSON document in a two-column table
(``id INTEGER PRIMARY KEY, body TEXT``).  The document approach keeps the
store schema-stable while the entity dataclasses evolve, and an in-memory
database (``path=":memory:"``) makes tests and the in-process driver cheap.

Durability and concurrency:

* file-backed databases open in **WAL mode** with a ``busy_timeout`` --
  readers never block the writer, a second process can open the same file,
  and a crash mid-transaction rolls back to the last commit on reopen,
* every write runs inside :meth:`Store.transaction` -- ``BEGIN IMMEDIATE`` ...
  ``COMMIT`` under the connection lock.  The multi-row writes
  (:meth:`insert_many`, :meth:`update_many`, :meth:`apply_batch`) are one
  transaction each: either every row of the batch is visible after reopen or
  none is.  A caller that opens the transaction itself makes its reads and
  the writes that depend on them one atomic step -- between the threads
  sharing this connection (the lock) *and* between processes sharing the
  file (sqlite's write lock, taken by ``BEGIN IMMEDIATE`` before the first
  read).  The service runs every task-state transition (claim, lease sweep,
  submit, kill, enqueue) that way; the store is the only lock the queue has,
* the **idempotency table** maps client-generated submission keys to result
  ids inside the same transaction that inserts the result, so a retried
  submission can replay the original record instead of inserting a duplicate,
* hot lookups go through ``json_extract`` expression indexes instead of
  deserialising the table: users by key / nickname, results by experiment,
  and tasks by ``(experiment, status)``.  The queue reads walk the index
  range of one status, in id order, and decode (JSON -> entity) only the rows
  they return.  Which of them sqlite also has to fetch row bodies for:
  :meth:`count_tasks` and :meth:`task_counts` read index entries only;
  :meth:`pending_tasks` reads the rows it returns (plus, with a
  ``dbms_label`` filter, the pending rows of other labels it passes over);
  :meth:`overdue_leases` and :meth:`oldest_lease` ``json_extract`` the lease
  fields out of every *running* row -- bounded by the leases in flight, not
  by the queue's depth or history; :meth:`task_query_keys` (enqueue
  de-duplication) extracts three fields from every task row of the
  experiment, so it is the one read that still grows with everything ever
  enqueued.

``fault_hook`` is the seam for the fault-injection harness
(:mod:`repro.platform.faults`): when set, it is invoked with a fault-point
label before every write inside a batch and before the final commit, and may
raise to simulate a crash at exactly that point.  The batch is rolled back so
the connection stays usable -- the on-disk state is the same one a process
kill at that point would leave behind after sqlite's recovery.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, TypeVar

from repro.errors import NotFound
from repro.obs import NULL_LOGGER, JsonLogger
from repro.platform import models


#: ``json.dumps(..., separators=(",", ":"))`` without a new encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _encode(payload: dict) -> str:
    """Serialise a row body; compact separators, since nobody reads raw rows
    and result rows can carry dozens of shipped span records in ``extras``."""
    return _ENCODER.encode(payload)


_TABLES = (
    "users",
    "dbms_catalog",
    "host_catalog",
    "projects",
    "experiments",
    "tasks",
    "results",
    "comments",
)


def _field(name: str) -> str:
    """The SQL expression for one body field, spelled the way the indexes are.

    sqlite uses an expression index only for a query that repeats the indexed
    expression *verbatim* (a bound parameter in the path would not match), so
    every statement below builds its expressions here.
    """
    return f"json_extract(body, '$.{name}')"


#: ``json_extract`` expression indexes created at startup: (name, table, body
#: fields).  Tasks have one composite index: equality on its first column
#: serves "the tasks of an experiment", equality on both serves the queue
#: reads, whose rows then come out in id order with no sort (an index entry
#: ends in the rowid).
_INDEXES = (
    ("users_by_contributor_key", "users", ("contributor_key",)),
    ("users_by_nickname", "users", ("nickname",)),
    ("tasks_by_experiment_status", "tasks", ("experiment_id", "status")),
    ("results_by_experiment", "results", ("experiment_id",)),
)

_TASKS_OF_EXPERIMENT_IN_STATUS = (
    f"FROM tasks WHERE {_field('experiment_id')} = ? AND {_field('status')} = ?")

T = TypeVar("T")


class Store:
    """Thread-safe JSON-document store over sqlite3 (WAL for file databases)."""

    def __init__(self, path: str = ":memory:",
                 fault_hook: Callable[[str], None] | None = None,
                 logger: JsonLogger | None = None):
        self.path = path
        #: optional fault-injection seam; see the module docstring.
        self.fault_hook = fault_hook
        #: structured logger for the fault paths (rolled-back batches);
        #: silent by default.
        self.log = (logger or NULL_LOGGER).bind("store")
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._lock = threading.RLock()
        # WAL keeps readers and the writer concurrent and makes crash
        # recovery a journal replay; a :memory: database reports "memory"
        # here and simply ignores the request.
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA busy_timeout=5000")
        self._connection.execute("PRAGMA synchronous=NORMAL")
        self._create_tables()

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def _create_tables(self) -> None:
        with self._lock:
            for table in _TABLES:
                self._connection.execute(
                    f"CREATE TABLE IF NOT EXISTS {table} "
                    "(id INTEGER PRIMARY KEY AUTOINCREMENT, body TEXT NOT NULL)"
                )
            # one row per accepted submission key; the PRIMARY KEY makes a
            # double-insert of the same key impossible even if two racing
            # submissions pass the service-level replay check.
            self._connection.execute(
                "CREATE TABLE IF NOT EXISTS idempotency "
                "(key TEXT PRIMARY KEY, result_id INTEGER NOT NULL) WITHOUT ROWID"
            )
            # files written before the composite task index carry this one.
            self._connection.execute("DROP INDEX IF EXISTS tasks_by_experiment")
            for name, table, fields in _INDEXES:
                self._connection.execute(
                    f"CREATE INDEX IF NOT EXISTS {name} "
                    f"ON {table} ({', '.join(map(_field, fields))})"
                )
            self._connection.commit()

    def _maybe_fault(self, point: str) -> None:
        hook = self.fault_hook
        if hook is not None:
            hook(point)

    # -- transactions -----------------------------------------------------------

    @contextmanager
    def transaction(self, operation: str = "transaction") -> Iterator[None]:
        """One write transaction around the block: all of it commits or none.

        ``BEGIN IMMEDIATE`` takes sqlite's write lock *before* the block's
        first read, and the connection lock is held throughout, so what the
        block reads cannot change before it writes -- neither through another
        thread of this process nor through another process on the same file
        (which waits out ``busy_timeout``).  Any exception rolls the
        transaction back and propagates; ``operation`` names it in the
        ``store.rollback`` log record.

        Blocks nest: every write method of the store opens a transaction of
        its own, and joins the caller's when there is one -- the outermost
        block commits or rolls back.  Keep the block short: every other store
        call of the process waits for it.
        """
        with self._lock:
            if self._connection.in_transaction:
                yield
                return
            self._connection.execute("BEGIN IMMEDIATE")
            try:
                yield
                self._connection.commit()
            except BaseException as exc:
                self._rollback(operation, exc)
                raise

    def _rollback(self, operation: str, cause: BaseException) -> None:
        self.log.error("store.rollback", operation=operation, error=str(cause),
                       error_type=type(cause).__name__)
        try:
            self._connection.rollback()
        except sqlite3.Error:  # pragma: no cover - connection already gone
            pass

    # -- generic operations ------------------------------------------------------

    def _insert_row(self, table: str, entity) -> None:
        payload = entity.to_dict()
        payload.pop("id", None)
        cursor = self._connection.execute(
            f"INSERT INTO {table} (body) VALUES (?)", (_encode(payload),))
        entity.id = int(cursor.lastrowid)

    def _update_row(self, table: str, entity) -> None:
        if entity.id is None:
            raise NotFound(f"cannot update an unsaved entity in '{table}'")
        payload = entity.to_dict()
        payload.pop("id", None)
        cursor = self._connection.execute(
            f"UPDATE {table} SET body = ? WHERE id = ?",
            (_encode(payload), entity.id))
        if cursor.rowcount == 0:
            raise NotFound(f"no entity with id {entity.id} in '{table}'")

    def insert(self, table: str, entity) -> int:
        """Insert ``entity`` (anything with to_dict) and return its new id."""
        with self.transaction("insert"):
            self._insert_row(table, entity)
        return entity.id

    def insert_many(self, table: str, entities: list) -> list[int]:
        """Insert a batch of entities in one transaction; return their new ids."""
        if not entities:
            return []
        try:
            with self.transaction("insert_many"):
                for entity in entities:
                    self._maybe_fault("insert_many.write")
                    self._insert_row(table, entity)
                self._maybe_fault("insert_many.commit")
        except BaseException:
            for entity in entities:
                entity.id = None
            raise
        return [entity.id for entity in entities]

    def update_many(self, table: str, entities: list) -> None:
        """Persist a batch of entities in one transaction (all or nothing)."""
        if not entities:
            return
        with self.transaction("update_many"):
            for entity in entities:
                self._maybe_fault("update_many.write")
                self._update_row(table, entity)
            self._maybe_fault("update_many.commit")

    def apply_batch(self, inserts: list[tuple[str, object]],
                    updates: list[tuple[str, object]],
                    idempotency: list[tuple[str, object]] = ()) -> None:
        """Apply inserts, updates and idempotency rows atomically.

        ``inserts`` and ``updates`` are ``(table, entity)`` pairs;
        ``idempotency`` is ``(key, entity)`` pairs whose entity must be among
        the inserts -- its assigned id is recorded under the key in the same
        transaction, so a result and its replay marker become visible
        together or not at all.  When any write fails (missing row, injected
        crash, duplicate key) the whole batch rolls back and insert ids are
        reset, so callers never observe a half-applied batch.
        """
        try:
            with self.transaction("apply_batch"):
                for table, entity in inserts:
                    self._maybe_fault("apply_batch.insert")
                    self._insert_row(table, entity)
                for table, entity in updates:
                    self._maybe_fault("apply_batch.update")
                    self._update_row(table, entity)
                for key, entity in idempotency:
                    self._connection.execute(
                        "INSERT INTO idempotency (key, result_id) VALUES (?, ?)",
                        (key, entity.id),
                    )
                self._maybe_fault("apply_batch.commit")
        except BaseException:
            for _table, entity in inserts:
                entity.id = None
            raise

    def update(self, table: str, entity) -> None:
        """Persist the current state of ``entity`` (must already have an id)."""
        with self.transaction("update"):
            self._update_row(table, entity)

    def delete(self, table: str, entity_id: int) -> None:
        with self.transaction("delete"):
            cursor = self._connection.execute(
                f"DELETE FROM {table} WHERE id = ?", (entity_id,)
            )
            if cursor.rowcount == 0:
                raise NotFound(f"no entity with id {entity_id} in '{table}'")

    def get(self, table: str, entity_id: int, factory: Callable[[dict], T]) -> T:
        with self._lock:
            row = self._connection.execute(
                f"SELECT id, body FROM {table} WHERE id = ?", (entity_id,)
            ).fetchone()
        if row is None:
            raise NotFound(f"no entity with id {entity_id} in '{table}'")
        return self._build(row, factory)

    def all(self, table: str, factory: Callable[[dict], T]) -> list[T]:
        return self._select(f"SELECT id, body FROM {table} ORDER BY id", (), factory)

    def find(self, table: str, factory: Callable[[dict], T],
             predicate: Callable[[T], bool]) -> list[T]:
        return [entity for entity in self.all(table, factory) if predicate(entity)]

    def _find_indexed(self, table: str, field: str, value,
                      factory: Callable[[dict], T]) -> list[T]:
        """Rows whose body ``field`` equals ``value``, in ascending id order.

        ``field`` must lead one of :data:`_INDEXES` so sqlite can satisfy the
        lookup from the index (O(log n)) instead of a full deserialising
        scan.  The order is part of the contract and therefore spelled out:
        behind the composite task index the rows of one experiment come out
        grouped by status, and sqlite sorts them back by id.
        """
        assert any(table == t and fields[0] == field for _n, t, fields in _INDEXES)
        return self._select(
            f"SELECT id, body FROM {table} WHERE {_field(field)} = ? ORDER BY id",
            (value,), factory)

    def _rows(self, sql: str, parameters: tuple) -> list[tuple]:
        with self._lock:
            return self._connection.execute(sql, parameters).fetchall()

    def _select(self, sql: str, parameters: tuple,
                factory: Callable[[dict], T]) -> list[T]:
        return [self._build(row, factory) for row in self._rows(sql, parameters)]

    @staticmethod
    def _build(row: Iterable, factory: Callable[[dict], T]) -> T:
        entity_id, body = row
        payload = json.loads(body)
        payload["id"] = int(entity_id)
        return factory(payload)

    # -- idempotent submissions ---------------------------------------------------

    def recall_submission(self, key: str) -> int | None:
        """The result id recorded under ``key``, or None for a fresh key."""
        with self._lock:
            row = self._connection.execute(
                "SELECT result_id FROM idempotency WHERE key = ?", (key,)
            ).fetchone()
        return int(row[0]) if row else None

    def recall_submissions(self, keys: Iterable[str]) -> dict[str, int]:
        """Key -> result id of those of ``keys`` already recorded, in one read."""
        keys = tuple(set(keys))
        rows = self._rows("SELECT key, result_id FROM idempotency WHERE key IN "
                          f"({', '.join('?' * len(keys))})", keys)
        return {key: int(result_id) for key, result_id in rows}

    def idempotency_size(self) -> int:
        """Number of remembered submission keys (chaos-test accounting)."""
        with self._lock:
            row = self._connection.execute(
                "SELECT COUNT(*) FROM idempotency").fetchone()
        return int(row[0])

    # -- typed convenience accessors ----------------------------------------------

    def users(self) -> list[models.User]:
        return self.all("users", models.User.from_dict)

    def user(self, user_id: int) -> models.User:
        return self.get("users", user_id, models.User.from_dict)

    def user_by_nickname(self, nickname: str) -> models.User | None:
        matches = self._find_indexed("users", "nickname", nickname,
                                     models.User.from_dict)
        return matches[0] if matches else None

    def user_by_key(self, contributor_key: str) -> models.User | None:
        matches = self._find_indexed("users", "contributor_key", contributor_key,
                                     models.User.from_dict)
        return matches[0] if matches else None

    def projects(self) -> list[models.Project]:
        return self.all("projects", models.Project.from_dict)

    def project(self, project_id: int) -> models.Project:
        return self.get("projects", project_id, models.Project.from_dict)

    def dbms_catalog(self) -> list[models.DBMSEntry]:
        return self.all("dbms_catalog", models.DBMSEntry.from_dict)

    def dbms(self, dbms_id: int) -> models.DBMSEntry:
        return self.get("dbms_catalog", dbms_id, models.DBMSEntry.from_dict)

    def host_catalog(self) -> list[models.HostEntry]:
        return self.all("host_catalog", models.HostEntry.from_dict)

    def host(self, host_id: int) -> models.HostEntry:
        return self.get("host_catalog", host_id, models.HostEntry.from_dict)

    def experiments(self, project_id: int | None = None) -> list[models.Experiment]:
        experiments = self.all("experiments", models.Experiment.from_dict)
        if project_id is None:
            return experiments
        return [experiment for experiment in experiments
                if experiment.project_id == project_id]

    def experiment(self, experiment_id: int) -> models.Experiment:
        return self.get("experiments", experiment_id, models.Experiment.from_dict)

    def tasks(self, experiment_id: int | None = None) -> list[models.Task]:
        """Every task (of one experiment), decoded, in ascending id order."""
        if experiment_id is None:
            return self.all("tasks", models.Task.from_dict)
        return self._find_indexed("tasks", "experiment_id", experiment_id,
                                  models.Task.from_dict)

    def task(self, task_id: int) -> models.Task:
        return self.get("tasks", task_id, models.Task.from_dict)

    def tasks_by_id(self, task_ids: Iterable[int]) -> dict[int, models.Task]:
        """The tasks with these ids in one read, keyed by id."""
        ids = set(task_ids)
        tasks = self._select(
            f"SELECT id, body FROM tasks WHERE id IN ({', '.join('?' * len(ids))})",
            tuple(ids), models.Task.from_dict)
        found = {task.id: task for task in tasks}
        if len(found) != len(ids):
            raise NotFound(f"no entity with id {min(ids - found.keys())} in 'tasks'")
        return found

    # -- the task queue -------------------------------------------------------------
    #
    # Each read below enters through ``tasks_by_experiment_status`` (one
    # status's range, or the whole experiment's for ``task_counts`` and
    # ``task_query_keys``).  They are reads; a state transition calls them
    # inside ``transaction()`` and writes what it decides through
    # ``update_many``.

    def pending_tasks(self, experiment_id: int, limit: int,
                      dbms_label: str | None = None) -> list[models.Task]:
        """The ``limit`` lowest-id pending tasks of an experiment.

        With ``dbms_label`` only tasks published for that DBMS count; the
        walk then also passes over the pending tasks of other labels that
        come first (sqlite reads their bodies for the filter; they are not
        decoded).
        """
        sql = f"SELECT id, body {_TASKS_OF_EXPERIMENT_IN_STATUS}"
        parameters: tuple = (experiment_id, models.TaskStatus.PENDING.value)
        if dbms_label is not None:
            sql += f" AND {_field('dbms_label')} = ?"
            parameters += (dbms_label,)
        return self._select(f"{sql} ORDER BY id LIMIT ?", parameters + (limit,),
                            models.Task.from_dict)

    def overdue_leases(self, experiment_id: int, now: float) -> list[models.Task]:
        """Running tasks whose lease (``assigned_at + timeout_seconds``) ended
        before ``now``, in id order.  sqlite reads the body of every running
        row of the experiment for the filter; only the overdue ones are
        decoded."""
        return self._select(
            f"SELECT id, body {_TASKS_OF_EXPERIMENT_IN_STATUS} "
            f"AND {_field('assigned_at')} + {_field('timeout_seconds')} < ? "
            "ORDER BY id",
            (experiment_id, models.TaskStatus.RUNNING.value, now), models.Task.from_dict)

    def oldest_lease(self, experiment_id: int) -> float | None:
        """When the longest-held live lease was granted (None: nothing runs);
        reads ``assigned_at`` out of every running row of the experiment."""
        return self._rows(
            f"SELECT MIN({_field('assigned_at')}) {_TASKS_OF_EXPERIMENT_IN_STATUS}",
            (experiment_id, models.TaskStatus.RUNNING.value))[0][0]

    def count_tasks(self, experiment_id: int, status: str) -> int:
        """How many tasks of an experiment are in ``status``: a walk over that
        status's index entries, linear in the count; no row is read."""
        return self._rows(f"SELECT COUNT(*) {_TASKS_OF_EXPERIMENT_IN_STATUS}",
                          (experiment_id, status))[0][0]

    def task_counts(self, experiment_id: int) -> dict[str, int]:
        """Tasks of an experiment per status (every index entry of the
        experiment is visited once; nothing is decoded)."""
        return dict(self._rows(
            f"SELECT {_field('status')}, COUNT(*) FROM tasks "
            f"WHERE {_field('experiment_id')} = ? GROUP BY {_field('status')}",
            (experiment_id,)))

    def task_query_keys(self, experiment_id: int, dbms_label: str,
                        host_name: str) -> set[str]:
        """Query keys already queued in an experiment for one DBMS + host.

        Projected in SQL, so no task is decoded, but sqlite still reads the
        body of every task row of the experiment: publishing N tasks in pools
        of k costs N/k such passes (far cheaper than decoding the rows, still
        quadratic in N).
        """
        return {key for (key,) in self._rows(
            f"SELECT {_field('query_key')} FROM tasks "
            f"WHERE {_field('experiment_id')} = ? "
            f"AND {_field('dbms_label')} = ? AND {_field('host_name')} = ?",
            (experiment_id, dbms_label, host_name))}

    def results(self, experiment_id: int | None = None) -> list[models.ResultRecord]:
        if experiment_id is None:
            return self.all("results", models.ResultRecord.from_dict)
        return self._find_indexed("results", "experiment_id", experiment_id,
                                  models.ResultRecord.from_dict)

    def result(self, result_id: int) -> models.ResultRecord:
        return self.get("results", result_id, models.ResultRecord.from_dict)

    def comments(self, project_id: int) -> list[models.Comment]:
        return self.find("comments", models.Comment.from_dict,
                         lambda comment: comment.project_id == project_id)
