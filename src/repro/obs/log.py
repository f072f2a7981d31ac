"""Structured logging: one JSON object per line, trace-correlated.

Every platform component logs through a :class:`JsonLogger`.  A log record
is a single JSON line::

    {"ts": 1754550000.123, "level": "info", "event": "result.accepted",
     "component": "service", "trace_id": "...", "span_id": "...",
     "task": "...", "attempt": 2}

``trace_id``/``span_id`` are filled from the ambient
:func:`repro.obs.propagate.current_context` unless passed explicitly, so
code inside a span block gets correlation for free.  When a
:class:`~repro.obs.metrics.MetricsRegistry` is attached, every record
also bumps ``log.records.<level>`` and ``log.events.<event>`` counters
-- that is what feeds the registry's log-derived retry / dead-letter
rates without a separate accounting path.

:data:`NULL_LOGGER` is the disabled fast path: a shared singleton whose
methods return immediately, handed out wherever telemetry is off (the
same pattern as ``NULL_SPAN``).
"""

from __future__ import annotations

import io
import json
import threading
import time
from typing import Any, TextIO

from repro.obs.metrics import MetricsRegistry
from repro.obs.propagate import current_context, sanitize_attributes

LEVELS = ("debug", "info", "warning", "error")


class JsonLogger:
    """Thread-safe JSON-lines logger bound to one stream.

    ``component`` names the emitting subsystem (``webapp``, ``service``,
    ``driver``...) on every record; child loggers via :meth:`bind` share
    the stream/lock/registry but stamp their own component, so one sink
    serves the whole process.
    """

    __slots__ = ("stream", "component", "registry", "_lock")

    def __init__(self, stream: TextIO | None = None, component: str = "",
                 registry: MetricsRegistry | None = None,
                 _lock: threading.Lock | None = None):
        self.stream = stream if stream is not None else io.StringIO()
        self.component = component
        self.registry = registry
        self._lock = _lock or threading.Lock()

    def bind(self, component: str) -> "JsonLogger":
        """A logger for another component sharing this one's sink."""
        return JsonLogger(self.stream, component, self.registry, self._lock)

    def log(self, level: str, event: str, **fields: Any) -> dict:
        """Emit one record; returns the dict that was written."""
        record: dict[str, Any] = {
            "ts": time.time(),
            "level": level,
            "event": event,
        }
        if self.component:
            record["component"] = self.component
        context = current_context()
        if context is not None:
            record.setdefault("trace_id", context.trace_id)
            record.setdefault("span_id", context.span_id)
        if fields:
            record.update(sanitize_attributes(fields))
        line = json.dumps(record, sort_keys=True, default=str,
                          separators=(",", ":"))
        with self._lock:
            self.stream.write(line + "\n")
        if self.registry is not None:
            self.registry.counter(f"log.records.{level}").inc()
            self.registry.counter(f"log.events.{event}").inc()
        return record

    def debug(self, event: str, **fields: Any) -> dict:
        return self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> dict:
        return self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> dict:
        return self.log("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> dict:
        return self.log("error", event, **fields)


class _NullLogger:
    """Shared do-nothing logger: the telemetry-off fast path."""

    __slots__ = ()
    component = ""
    registry = None

    def bind(self, component: str) -> "_NullLogger":
        return self

    def log(self, level: str, event: str, **fields: Any) -> dict:
        return {}

    debug = info = warning = error = \
        lambda self, event, **fields: {}  # noqa: E731 -- same no-op, four names


#: singleton handed out wherever structured logging is off.
NULL_LOGGER = _NullLogger()


def parse_log_lines(text: str) -> list[dict]:
    """Parse JSONL logger output back into records (testing/analytics aid)."""
    records = []
    for line in text.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:  # a blank line, or a half-written one
            continue
    return records
