"""Cross-process trace propagation: traceparent ids and span records.

:mod:`repro.obs.trace` stops at the engine boundary -- a
:class:`~repro.obs.trace.QueryTrace` is one process's view of one
execution.  The platform needs the *other* half of the story: a task is
minted on the service, claimed over HTTP by a driver, executed, and its
result submitted (possibly several times, across retries and workers).
This module carries one trace id across those hops, W3C Trace Context
style:

* a ``traceparent`` header ``00-<32 hex trace id>-<16 hex span id>-01``
  travels on every HTTP request (:func:`parse_traceparent` /
  :meth:`SpanContext.to_traceparent`);
* the ambient :func:`current_context` context variable lets the HTTP
  client stamp outgoing requests without plumbing arguments through
  every call site (same pattern as ``MetricsContext``);
* a :class:`SpanRecorder` collects finished :func:`span_record` dicts on
  both sides of the wire.  Driver- and server-side records for the same
  task share its trace id, so ``analytics/timeline.py`` can stitch them
  into one end-to-end timeline; :func:`export_query_trace` rebases an
  engine trace onto the same axis under a driver span, so one trace id
  covers SQL parse down to morsel workers and back up through the submit;
* :func:`encode_spans` / :func:`decode_spans` are the one wire and stored
  form of a task's records: the envelope under ``extras["spans"]`` of a
  submitted result and under ``"spans"`` of a flight-log line.
"""

from __future__ import annotations

import json
import random
import re
import secrets
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.obs.trace import QueryTrace

# ids need uniqueness, not unpredictability: a cryptographically seeded
# Mersenne Twister avoids the per-id ``os.urandom`` syscall that
# ``secrets.token_hex`` pays (several ids are minted per task on the
# claim -> submit hot path).  ``| 1`` keeps ids non-zero, which the W3C
# spec (and ``parse_traceparent``) treats as invalid.
_ids = random.Random(secrets.randbits(128))


def new_trace_id() -> str:
    """A fresh 32-hex-digit trace id."""
    return f"{_ids.getrandbits(128) | 1:032x}"


def new_span_id() -> str:
    """A fresh 16-hex-digit span id."""
    return f"{_ids.getrandbits(64) | 1:016x}"


@dataclass(frozen=True)
class SpanContext:
    """The (trace id, span id) pair that crosses a process boundary."""

    trace_id: str
    span_id: str

    def to_traceparent(self) -> str:
        """Serialise as a W3C ``traceparent`` header value."""
        # version 00; flags 01, always sampled: recording is opt-in upstream
        return f"00-{self.trace_id}-{self.span_id}-01"

    def child(self) -> "SpanContext":
        """A context for a child span: same trace, fresh span id."""
        return SpanContext(self.trace_id, new_span_id())


_TRACEPARENT = re.compile(r"[0-9a-f]{2}-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}")
_SPAN_ID = re.compile(r"[0-9a-fA-F]{16}")


def parse_traceparent(header: str | None) -> SpanContext | None:
    """Parse a ``traceparent`` header; None on anything malformed.

    Strict on shape (version-trace-span-flags, correct widths, hex, and
    non-zero ids per the W3C spec) but tolerant of unknown versions and
    flags: a bad header degrades to "no incoming context" rather than an
    error, because telemetry must never fail a request.
    """
    if not isinstance(header, str):
        return None
    match = _TRACEPARENT.fullmatch(header.strip().lower())
    if match is None or not int(match[1], 16) or not int(match[2], 16):
        return None
    return SpanContext(match[1], match[2])


_CURRENT: ContextVar[SpanContext | None] = ContextVar(
    "repro_trace_context", default=None)


def current_context() -> SpanContext | None:
    """The span context ambient on this thread/task, if any."""
    return _CURRENT.get()


@contextmanager
def use_context(context: SpanContext | None) -> Iterator[SpanContext | None]:
    """Install ``context`` as the ambient span context of a ``with`` block."""
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)


# ---------------------------------------------------------------------------
# span records
# ---------------------------------------------------------------------------


def _sanitize(value: Any) -> Any:
    """Coerce an attribute value to something json.dumps accepts.

    Engine traces carry numpy scalars (chunk counts, row totals); span
    records travel through JSON sinks (HTTP extras, the flight-recorder
    log), so everything non-primitive is folded to a primitive here.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    item = getattr(value, "item", None)  # numpy scalar -> python scalar
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return str(value)


def sanitize_attributes(attributes: dict) -> dict[str, Any]:
    """JSON-ready attributes; a None value says nothing and is left out."""
    return {str(key): _sanitize(value) for key, value in attributes.items()
            if value is not None}


def span_record(name: str, trace_id: str, span_id: str, parent_span_id: str | None,
                start: float, end: float, attributes: dict) -> dict:
    """The span record: a flat dict with epoch-second timestamps, so records
    from the driver and the service (different processes, different
    ``perf_counter`` clocks) merge on one timeline."""
    return {"name": name, "trace_id": trace_id, "span_id": span_id,
            "parent_span_id": parent_span_id, "start": start, "end": end,
            "attributes": attributes}


class SpanRecorder:
    """A bounded, thread-safe sink of finished :func:`span_record` dicts.

    The deque bound keeps a long-running service at a fixed memory
    footprint; ``capacity=0`` disables recording entirely (every call stays
    a cheap no-op), which is how telemetry-off paths avoid paying for span
    bookkeeping.
    """

    def __init__(self, capacity: int = 2048):
        self.capacity = capacity
        self._lock = threading.Lock()
        # eviction is manual (not deque maxlen) so the per-trace index stays
        # in sync; the index makes spans(trace_id) O(spans of that trace)
        # instead of O(capacity), which the claim->submit hot loop relies on.
        self._spans: deque[dict] = deque()
        self._by_trace: dict[str, list[dict]] = {}

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def extend(self, records: Iterable[dict]) -> None:
        """Append many records under one lock acquisition (hot-path batches)."""
        if self.capacity <= 0:
            return
        with self._lock:
            for record in records:
                if len(self._spans) >= self.capacity:
                    # FIFO: the globally oldest record is its trace's oldest
                    oldest = self._spans.popleft()
                    bucket = self._by_trace[oldest.get("trace_id")]
                    del bucket[0]
                    if not bucket:
                        del self._by_trace[oldest.get("trace_id")]
                self._spans.append(record)
                self._by_trace.setdefault(record.get("trace_id"), []).append(record)

    def record(self, name: str, trace_id: str,
               parent_span_id: str | None = None,
               span_id: str | None = None,
               start: float | None = None, end: float | None = None,
               **attributes) -> dict:
        """Store (and return) an already-finished span record.

        ``start``/``end`` default to "now", making point events (a dedup
        hit, a lease decision) zero-width spans on the timeline.
        """
        now = time.time()
        record = span_record(name, trace_id, span_id or new_span_id(), parent_span_id,
                             now if start is None else start,
                             now if end is None else end,
                             sanitize_attributes(attributes))
        self.extend((record,))
        return record

    def spans(self, trace_id: str | None = None) -> list[dict]:
        """Recorded spans, oldest first (optionally for one trace only)."""
        with self._lock:
            if trace_id is None:
                return list(self._spans)
            return list(self._by_trace.get(trace_id, ()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


def export_query_trace(trace: QueryTrace, trace_id: str,
                       parent_span_id: str | None = None) -> list[dict]:
    """Turn an engine :class:`QueryTrace` into cross-process records.

    One pass over ``trace.records``: the engine's spans are timed with
    ``perf_counter``; one clock offset (sampled here, at export) rebases
    them onto the epoch axis shared by every other record of the trace.
    Parent indices become ``parent_span_id`` references, with the root hung
    under ``parent_span_id`` -- typically the driver's ``driver.execute``
    span -- so the whole engine tree nests inside the task timeline.
    """
    now = time.perf_counter()
    offset = time.time() - now
    ids = [new_span_id() for _ in trace.records]
    records: list[dict] = []
    for span, span_id in zip(trace.records, ids):
        attributes = sanitize_attributes(span.attributes)
        if span.rows_in is not None:
            attributes["rows_in"] = _sanitize(span.rows_in)
        if span.rows_out is not None:
            attributes["rows_out"] = _sanitize(span.rows_out)
        records.append(span_record(
            f"engine.{span.name}", trace_id, span_id,
            parent_span_id if span.parent is None else ids[span.parent],
            span.started + offset,
            (span.ended if span.ended is not None else now) + offset, attributes))
    return records


# ---------------------------------------------------------------------------
# the wire / stored form of one task's records
# ---------------------------------------------------------------------------

def _is_number(value: Any) -> bool:
    return type(value) in (int, float)


def _is_span_id(value: Any) -> bool:
    return isinstance(value, str) and _SPAN_ID.fullmatch(value) is not None


def encode_spans(records: list[dict]) -> dict:
    """The envelope of one task's span records (all of one trace).

    ``{"epoch": seconds, "records": [[name, span id, parent, start, duration,
    attributes], ...]}``.  The trace id is the one the envelope travels beside
    (``extras["trace_id"]``, a flight entry's ``trace_id``); ``parent`` is the
    parent's index in the envelope, or its span id (or None) when it is not
    among the records; ``start`` is whole microseconds after ``epoch`` and
    ``duration`` whole microseconds.
    """
    epoch = round(records[0]["start"], 6) if records else 0.0
    index = {record["span_id"]: position for position, record in enumerate(records)}
    rows = []
    for record in records:
        start, end = record["start"], record.get("end")
        parent = record.get("parent_span_id")
        rows.append([record["name"], record["span_id"], index.get(parent, parent),
                     round((start - epoch) * 1e6),
                     round((end - start) * 1e6) if end is not None else 0,
                     record.get("attributes") or {}])
    return {"epoch": epoch, "records": rows}


def decode_spans(shipped: Any, trace_id: str | None = None,
                 skip: Any = ()) -> list[dict]:
    """Span records from their stored form, minus those whose id is in ``skip``.

    ``shipped`` is an :func:`encode_spans` envelope, read under ``trace_id``,
    or the list of record dicts that store files and flight logs written
    before the envelope hold (each names its own trace) -- this is the only
    place that knows the two shapes.  Shipped spans arrive from outside and
    telemetry must never fail the submission they rode in on: anything else
    (a wrong type, a short record, an id that is not 16 hex digits, a parent
    index outside the envelope) decodes to no records at all.
    """
    if isinstance(shipped, list):
        return [record for record in shipped
                if isinstance(record, dict) and isinstance(record.get("name"), str)
                and isinstance(record.get("trace_id"), str)
                and isinstance(record.get("span_id"), str)
                and _is_number(record.get("start"))
                and (record.get("end") is None or _is_number(record["end"]))
                and isinstance(record.get("attributes") or {}, dict)
                and record["span_id"] not in skip]
    epoch, rows = (shipped.get("epoch"), shipped.get("records")) \
        if isinstance(shipped, dict) else (None, None)
    if not (isinstance(trace_id, str) and _is_number(epoch) and isinstance(rows, list)):
        return []

    for row in rows:
        if not isinstance(row, list) or len(row) != 6:
            return []
        name, span_id, parent, start, duration, attributes = row
        if not (isinstance(name, str) and _is_span_id(span_id)
                and (parent is None or (0 <= parent < len(rows) if type(parent) is int
                                        else _is_span_id(parent)))
                and _is_number(start) and _is_number(duration)
                and isinstance(attributes, dict)):
            return []
    return [span_record(name, trace_id, span_id,
                        rows[parent][1] if type(parent) is int else parent,
                        epoch + start / 1e6, epoch + (start + duration) / 1e6,
                        attributes)
            for name, span_id, parent, start, duration, attributes in rows
            if span_id not in skip]


def write_span_log(path: str, spans: Iterable[dict]) -> int:
    """Append span records to a JSONL file; returns the number written."""
    lines = [json.dumps(record, sort_keys=True) + "\n" for record in spans]
    with open(path, "a", encoding="utf-8") as sink:
        sink.writelines(lines)
    return len(lines)
