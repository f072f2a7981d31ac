"""Platform entities.

Every entity is a plain dataclass with a ``to_dict`` / ``from_dict`` pair so
the sqlite store and the JSON API can exchange them without extra mapping
code.  Identifiers are integers assigned by the store.
"""

from __future__ import annotations

import enum
import inspect
import time
from dataclasses import asdict, dataclass, field

from repro.errors import ValidationError


class Visibility(str, enum.Enum):
    """Project visibility, mirroring the public/private split of Section 4.2."""

    PUBLIC = "public"
    PRIVATE = "private"


class TaskStatus(str, enum.Enum):
    """Lifecycle of one queued query execution.

    A task moves ``pending -> running`` when a contributor claims a lease on
    it, and from ``running`` either to ``done`` (a successful result arrived),
    back to ``pending`` (an execution failed, or the lease expired, and the
    retry budget is not exhausted), or to the terminal ``failed`` state: once
    ``max_attempts`` leases have been burned, or at once -- on its first lease,
    whatever the budget -- when the engine refused the query text (an error
    of a kind in :data:`repro.errors.VERDICT_KINDS`: the next lease would be
    refused the same way).  ``failed`` doubles as the
    dead-letter queue -- :data:`DEAD_LETTER` is an alias for it -- so operators
    find every task that needs human attention under one status.  ``killed``
    is the owner-initiated terminal state.  ``expired`` is retained for
    databases written before leases retried automatically; the service no
    longer assigns it.
    """

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    DEAD_LETTER = "failed"  # alias: the terminal failed state is the dead-letter queue
    KILLED = "killed"
    EXPIRED = "expired"


@dataclass
class User:
    """A registered platform user.

    The paper: "A straightforward user administration is provided based on a
    unique nickname and a valid email to reach out to its owner.  Email
    addresses are never exposed in the interface."  ``contributor_key`` is the
    "separately supplied key to identify the source of the results without
    disclosing the contributor's identity".
    """

    nickname: str
    email: str
    id: int | None = None
    contributor_key: str = ""
    created_at: float = field(default_factory=time.time)

    def public_view(self) -> dict:
        """The user as shown in the interface: no email, no key."""
        return {"id": self.id, "nickname": self.nickname}

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "User":
        return cls(**payload)


@dataclass
class DBMSEntry:
    """One entry of the global DBMS catalog."""

    name: str
    version: str
    dialect: str = "generic"
    description: str = ""
    settings: dict = field(default_factory=dict)
    id: int | None = None

    def label(self) -> str:
        return f"{self.name}-{self.version}"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "DBMSEntry":
        return cls(**payload)


@dataclass
class HostEntry:
    """One entry of the hardware platform catalog.

    The demo spans "platforms ranging from a Raspberry Pi up to Intel Xeon
    E5-4657L servers with 1TB RAM"; entries carry enough metadata to document
    the measurement context.
    """

    name: str
    cpu: str = ""
    memory_gb: float = 0.0
    os: str = ""
    description: str = ""
    id: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "HostEntry":
        return cls(**payload)


@dataclass
class Project:
    """A performance project: the unit of ownership, sharing and moderation."""

    name: str
    owner_id: int
    synopsis: str = ""
    visibility: Visibility = Visibility.PUBLIC
    attribution: str = ""
    contributor_ids: list[int] = field(default_factory=list)
    created_at: float = field(default_factory=time.time)
    id: int | None = None

    def is_public(self) -> bool:
        return self.visibility is Visibility.PUBLIC

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["visibility"] = self.visibility.value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Project":
        payload = dict(payload)
        payload["visibility"] = Visibility(payload.get("visibility", "public"))
        return cls(**payload)


@dataclass
class Experiment:
    """One experiment of a project: a baseline query and its grammar/pool state."""

    project_id: int
    name: str
    baseline_sql: str
    grammar_text: str
    dbms_id: int | None = None
    host_id: int | None = None
    guidance: dict = field(default_factory=dict)
    template_limit: int = 100_000
    repeats: int = 5
    timeout_seconds: float = 60.0
    #: retry budget copied onto every task at enqueue time: how many leases a
    #: task may burn (execution errors or expired leases) before it is
    #: dead-lettered instead of re-queued.  A query text the engine refuses
    #: (a ``syntax`` / ``plan`` error) is dead-lettered on its first lease and
    #: burns none of it.
    max_attempts: int = 3
    created_at: float = field(default_factory=time.time)
    id: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Experiment":
        return cls(**payload)


@dataclass
class Task:
    """One queued query execution: a pool query waiting for / undergoing a run.

    "Each query is ran against a single DBMS + host combination.  The
    execution status is tracked in a queue, which enables killing queries that
    got stuck or when the results of an experiment are not delivered within a
    specified timeout interval."
    """

    experiment_id: int
    query_sql: str
    query_key: str
    dbms_label: str
    host_name: str
    origin: str = "seed"
    parent_key: str | None = None
    size: int = 0
    status: str = TaskStatus.PENDING.value
    assigned_to: str | None = None
    assigned_at: float | None = None
    timeout_seconds: float = 60.0
    #: how many leases this task has burned so far.  Claiming a task
    #: increments the counter, so ``attempts`` also fences stale submissions:
    #: a result is only accepted for the lease (attempt number) it was
    #: measured under.
    attempts: int = 0
    #: retry budget (copied from the experiment at enqueue time).
    max_attempts: int = 3
    #: the most recent failure (the engine's refusal, an execution error or
    #: a lease-expiry note); preserved on the dead-lettered task for post-mortems.
    last_error: str | None = None
    #: the W3C trace id this task's whole journey is recorded under -- minted
    #: once (at enqueue, or lazily at first claim for tasks inserted directly
    #: into the store) and stable across retries, so driver- and server-side
    #: spans of every attempt stitch into one timeline.
    trace_id: str | None = None
    created_at: float = field(default_factory=time.time)
    id: int | None = None

    def to_dict(self) -> dict:
        # shallow on purpose: every field is a scalar, and tasks are
        # serialised on every claim/sweep scan -- asdict's recursive
        # deep-copy machinery is measurable on that hot path.
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, payload: dict) -> "Task":
        return cls(**payload)


@dataclass
class ResultRecord:
    """One contributed measurement for a task.

    "By default each experiment is run five times and the wall clock time for
    each step is reported. [...] An open-ended key-value list structure can be
    returned to keep system specific performance indicators for post
    inspection."
    """

    task_id: int
    experiment_id: int
    contributor_key: str
    dbms_label: str
    host_name: str
    query_sql: str
    times: list[float] = field(default_factory=list)
    error: str | None = None
    load_averages: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    hidden: bool = False
    #: client-generated key identifying one task execution.  A retried
    #: submission carrying the same key replays this record instead of
    #: inserting a duplicate (see ``PlatformService.submit_results``).
    idempotency_key: str | None = None
    created_at: float = field(default_factory=time.time)
    id: int | None = None

    @property
    def best(self) -> float | None:
        """Fastest of the repeated runs (None for failed runs)."""
        return min(self.times) if self.times else None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def to_dict(self) -> dict:
        # shallow on purpose: ``extras`` may carry dozens of shipped span
        # records, and every consumer JSON-encodes the payload immediately
        # (store row, HTTP response) -- asdict would deep-copy the whole
        # span list first, which dominated the submit path under profile.
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, payload: dict) -> "ResultRecord":
        return cls(**payload)


def new_submission(task, times=(), error: str | None = None,
                   error_kind: str | None = None, load_averages: dict | None = None,
                   extras: dict | None = None, idempotency_key: str | None = None,
                   attempt: int | None = None) -> dict:
    """One entry of ``PlatformService.submit_results``: the measurements (or
    the error) of ``task`` (a :class:`Task` or its id) under lease ``attempt``.

    ``error_kind`` (:func:`repro.errors.error_kind`) rides beside ``error``
    only: a successful submission has no such key, and one from a driver that
    knows no kinds is an ``execution`` error to the platform.
    """
    entry = {"task": task, "times": list(times or ()), "error": error,
             "load_averages": load_averages or {}, "extras": extras or {},
             "idempotency_key": idempotency_key, "attempt": attempt}
    if error is not None and error_kind is not None:
        entry["error_kind"] = error_kind
    return entry


#: what one result submission may carry: the parameters of
#: :func:`new_submission`.  The driver builds it there, both transports and
#: the batch endpoint hand it on through it, ``PlatformService.submit_results``
#: reads it -- so a field added to that signature reaches the service over
#: every path, and a key it does not name over none.
SUBMISSION_FIELDS = tuple(inspect.signature(new_submission).parameters)


def wire_integer(fields: dict, name: str, default: int | None = None) -> int:
    """Field ``name`` of a request as an integer (``default`` when missing);
    a missing or mistyped one is a :class:`ValidationError` (400)."""
    if name not in fields and default is not None:
        return default
    try:
        return int(fields[name])
    except KeyError:
        raise ValidationError(f"the request has no '{name}'") from None
    except (TypeError, ValueError):
        raise ValidationError(f"'{name}' must be an integer, not {fields[name]!r}") from None


def submission_from_wire(payload: dict) -> dict:
    """The :func:`new_submission` one entry of a JSON batch describes: its
    known fields, the task as an id."""
    if not isinstance(payload, dict):
        raise ValidationError(f"a result must be a JSON object, not {payload!r}")
    fields = {name: payload[name] for name in SUBMISSION_FIELDS if name in payload}
    return new_submission(**{**fields, "task": wire_integer(payload, "task")})


@dataclass
class Comment:
    """A registered user's comment on a project."""

    project_id: int
    user_id: int
    text: str
    created_at: float = field(default_factory=time.time)
    id: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Comment":
        return cls(**payload)
