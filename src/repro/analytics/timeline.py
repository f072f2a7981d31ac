"""Stitch driver- and server-side span records into per-task timelines.

The platform telemetry leaves span records in several places: the
service's :class:`~repro.obs.SpanRecorder` (enqueue / claim / sweep /
submit / http spans), the driver runner's recorder (driver.execute /
driver.backoff / driver.submit plus the engine's exported
``engine.*`` records), result ``extras["spans"]`` shipped with
submissions, flight-recorder entries, and JSONL span logs.  All of them
hold the same flat record with epoch-second timestamps (the stored ones
as :func:`~repro.obs.decode_spans` reads them) and share one trace id
per task, so this module can merge any combination of sources and
answer the operational question the raw spans cannot:
*where did the time of task N go* -- queue wait, execution, retry
backoff, or submission?
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analytics.profiles import _extras_of
from repro.obs import decode_spans, parse_log_lines

#: span names whose summed durations define each derived phase.
_PHASE_SPANS = {
    "execute": ("driver.execute",),
    "backoff": ("driver.backoff",),
    "submit": ("driver.submit",),
}


def _log_entries(path: str | Path) -> list[dict]:
    """The JSON objects of a JSONL file.  Blank and malformed lines are
    skipped -- a half-written line from a crashed process must not make the
    post-mortem tooling crash too."""
    return [entry for entry in parse_log_lines(Path(path).read_text(encoding="utf-8"))
            if isinstance(entry, dict)]


def _flight_spans(entry: dict) -> list[dict] | None:
    """The span records of a flight-recorder entry; None for any other line."""
    if "spans" not in entry or "span_id" in entry:
        return None
    return decode_spans(entry["spans"], entry.get("trace_id"))


def read_flight_log(path: str | Path) -> list[dict]:
    """The flight entries of a JSONL flight log, their spans decoded into
    span records (as :meth:`~repro.obs.FlightRecorder.entries` holds them)."""
    return [{**entry, "spans": spans} for entry in _log_entries(path)
            if (spans := _flight_spans(entry)) is not None]


def read_span_log(path: str | Path) -> list[dict]:
    """Load span records from a JSONL span log, or from a flight log (each
    entry's records flattened, so it feeds :func:`stitch_timelines` directly)."""
    records: list[dict] = []
    for entry in _log_entries(path):
        spans = _flight_spans(entry)
        records.extend([entry] if spans is None else spans)
    return records


@dataclass
class TaskTimeline:
    """One task's end-to-end story, stitched from its trace id."""

    trace_id: str
    task_id: int | None = None
    outcome: str | None = None
    attempts: int = 0
    spans: list[dict] = field(default_factory=list)
    phases: dict[str, float] = field(default_factory=dict)
    #: the engine execution profile joined via ``profiles_by_trace``.
    profile: dict | None = None

    @property
    def start(self) -> float | None:
        return self.spans[0]["start"] if self.spans else None

    @property
    def total_seconds(self) -> float:
        ends = [span["end"] for span in self.spans if span.get("end") is not None]
        return max(ends) - self.spans[0]["start"] if ends else 0.0

    def span_names(self) -> list[str]:
        return [span["name"] for span in self.spans]

    def describe(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "task": self.task_id,
            "outcome": self.outcome,
            "attempts": self.attempts,
            "total_seconds": self.total_seconds,
            "phases": dict(sorted(self.phases.items())),
            "spans": self.spans,
            "profile": self.profile,
        }

    def lines(self) -> list[str]:
        """Render the timeline as an indented span tree (for the CLI)."""
        phases = " ".join(f"{name}={seconds:.3f}s"
                          for name, seconds in sorted(self.phases.items()))
        header = f"trace {self.trace_id[:12]} task={self.task_id}"
        if self.outcome:
            header += f" outcome={self.outcome}"
        if self.attempts:
            header += f" attempts={self.attempts}"
        if phases:
            header += f" ({phases})"
        rendered = [header]
        if not self.spans:
            return rendered
        origin = self.spans[0]["start"]
        by_id = {span["span_id"]: span for span in self.spans}
        children: dict[str | None, list[dict]] = {}
        roots: list[dict] = []
        for span in self.spans:
            parent = span.get("parent_span_id")
            if parent in by_id:  # dangling parents (trimmed ring) -> roots
                children.setdefault(parent, []).append(span)
            else:
                roots.append(span)

        def render(span: dict, depth: int) -> None:
            end = span.get("end")
            width = ((end - span["start"]) * 1000.0) if end is not None else 0.0
            detail = " ".join(
                f"{key}={value}"
                for key, value in sorted((span.get("attributes") or {}).items())
                if key in ("attempt", "outcome", "reason", "error", "rows", "dedup",
                           "operation", "endpoint", "status"))
            line = (f"{'  ' * (depth + 1)}{span['name']:<18} "
                    f"+{span['start'] - origin:8.3f}s {width:8.1f}ms")
            if detail:
                line += f"  {detail}"
            rendered.append(line)
            for child in children.get(span["span_id"], []):
                render(child, depth + 1)

        for root in roots:
            render(root, 0)
        return rendered


def _collect_spans(results, span_sources) -> list[dict]:
    """Merge span records from every source, deduplicated by span id.

    A span can legitimately show up twice -- the driver records it, ships
    it in ``extras["spans"]``, and the service ingests the copy -- so the
    first occurrence wins.
    """
    merged: list[dict] = []
    seen: set[str] = set()

    def add(records) -> None:
        for record in records:
            if isinstance(record, dict) and "span_id" in record \
                    and record["span_id"] not in seen:
                seen.add(record["span_id"])
                merged.append(record)

    for source in span_sources:
        add(source.spans() if hasattr(source, "spans") else source)
    for result in results or ():
        extras = _extras_of(result)
        if extras.get("spans"):
            # only the records no recorder already supplied are built
            add(decode_spans(extras["spans"], extras.get("trace_id"), skip=seen))
    return merged


def _derive_phases(spans: list[dict], created_at: float | None) -> dict[str, float]:
    phases: dict[str, float] = {}
    for phase, names in _PHASE_SPANS.items():
        matching = [span for span in spans if span["name"] in names]
        if phase == "submit" and not matching:
            # no driver-side submit span (e.g. an in-process client, or a
            # flight log of server records only): the server's is close
            # enough -- it just excludes the wire time.
            matching = [span for span in spans if span["name"] == "submit"]
        total = sum((span["end"] or span["start"]) - span["start"]
                    for span in matching if span.get("end") is not None)
        if matching:
            phases[phase] = total
    claims = [span for span in spans if span["name"] == "claim"]
    if claims:
        first_claim = min(span["start"] for span in claims)
        enqueues = [span for span in spans if span["name"] == "enqueue"]
        queued_at = created_at
        if enqueues:
            queued_at = min(span["start"] for span in enqueues)
        if queued_at is not None:
            phases["queue_wait"] = max(0.0, first_claim - queued_at)
    return phases


def _field(record, name: str):
    value = getattr(record, name, None)
    if value is None and isinstance(record, dict):
        value = record.get(name)
    return value


def stitch_timelines(tasks=(), results=(), span_sources=(),
                     profiles: dict | None = None) -> list[TaskTimeline]:
    """Group span records by trace id into :class:`TaskTimeline` objects.

    ``tasks`` (Task objects or dicts) seed the per-trace metadata --
    task id, queue-entry time, status, attempts; traces with spans but no
    matching task still get a timeline (the spans may come from a flight
    log long after the queue is gone).  ``span_sources`` is any mix of
    :class:`~repro.obs.SpanRecorder` instances and plain record
    iterables; ``results`` contribute the records shipped in their
    ``extras["spans"]``.  ``profiles`` (from
    :func:`repro.analytics.profiles_by_trace`) attaches engine execution
    profiles to the matching timelines.  Timelines come back ordered by
    first span start.
    """
    spans = _collect_spans(results, span_sources)
    by_trace: dict[str, list[dict]] = {}
    for record in spans:
        trace_id = record.get("trace_id")
        if trace_id:
            by_trace.setdefault(trace_id, []).append(record)

    tasks_by_trace: dict[str, object] = {}
    for task in tasks or ():
        trace_id = _field(task, "trace_id")
        if trace_id:
            tasks_by_trace[trace_id] = task

    timelines: list[TaskTimeline] = []
    for trace_id in set(by_trace) | set(tasks_by_trace):
        records = sorted(by_trace.get(trace_id, ()),
                         key=lambda record: (record["start"],
                                             record.get("end") or record["start"]))
        task = tasks_by_trace.get(trace_id)
        created_at = _field(task, "created_at") if task is not None else None
        timeline = TaskTimeline(
            trace_id=trace_id,
            task_id=_field(task, "id") if task is not None else None,
            spans=records,
            phases=_derive_phases(records, created_at),
        )
        attempts = [span["attributes"].get("attempt")
                    for span in records
                    if isinstance(span.get("attributes"), dict)
                    and isinstance(span["attributes"].get("attempt"), int)]
        task_attempts = _field(task, "attempts") if task is not None else None
        timeline.attempts = max([*attempts, task_attempts or 0, 0])
        submits = [span for span in records if span["name"] == "submit"]
        if submits:
            timeline.outcome = (submits[-1].get("attributes") or {}).get("outcome")
        if timeline.outcome is None and task is not None:
            timeline.outcome = _field(task, "status")
        if profiles:
            timeline.profile = profiles.get(trace_id)
        timelines.append(timeline)
    timelines.sort(key=lambda timeline: (timeline.start is None,
                                         timeline.start or 0.0,
                                         timeline.trace_id))
    return timelines


def timeline_report(timelines: list[TaskTimeline]) -> dict:
    """A JSON-ready artifact: every timeline plus aggregate phase totals."""
    totals: dict[str, float] = {}
    for timeline in timelines:
        for phase, seconds in timeline.phases.items():
            totals[phase] = totals.get(phase, 0.0) + seconds
    return {
        "tasks": len(timelines),
        "phase_totals": dict(sorted(totals.items())),
        "timelines": [timeline.describe() for timeline in timelines],
    }


def timeline_lines(timelines: list[TaskTimeline]) -> list[str]:
    """Render every timeline, blank-line separated (CLI output)."""
    rendered: list[str] = []
    for index, timeline in enumerate(timelines):
        if index:
            rendered.append("")
        rendered.extend(timeline.lines())
    return rendered
