"""Telemetry configuration and the slow-task flight recorder.

:class:`TelemetryConfig` is the one knob bundle shared by the driver's
``[telemetry]`` config section and the service constructor: whether
spans are recorded at all, how many are retained, what counts as "slow",
and where (if anywhere) flight entries are persisted.

:class:`FlightRecorder` is the platform's black box: a bounded ring of
the *worst* task executions -- every failed/dead-lettered task, plus the
N slowest successful ones -- each entry bundling the task's identity,
outcome, duration and its full span set at the moment it went terminal.
Keeping whole traces only for outliers is what makes always-on tracing
affordable: the common case costs one comparison against the current
slow threshold, while the interesting cases (the p99, the retry storm,
the dead letter) keep enough context to be debugged after the fact.
Entries can additionally be appended to a JSONL sink for post-mortems
that outlive the process (their spans as one
:func:`~repro.obs.propagate.encode_spans` envelope per line).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Mapping

from repro.obs.propagate import encode_spans


def _get(mapping: Mapping, key: str, fallback: Any) -> Any:
    value = mapping.get(key)
    return fallback if value in (None, "") else value


class TelemetryConfig:
    """Knobs for platform telemetry (spans, flight recorder, sinks)."""

    __slots__ = ("enabled", "span_capacity", "flight_capacity",
                 "slow_task_seconds", "flight_log", "span_log")

    def __init__(self, enabled: bool = True, span_capacity: int = 2048,
                 flight_capacity: int = 32, slow_task_seconds: float = 1.0,
                 flight_log: str | None = None, span_log: str | None = None):
        self.enabled = enabled
        self.span_capacity = span_capacity
        self.flight_capacity = flight_capacity
        self.slow_task_seconds = slow_task_seconds
        self.flight_log = flight_log
        self.span_log = span_log

    @classmethod
    def disabled(cls) -> "TelemetryConfig":
        return cls(enabled=False, span_capacity=0, flight_capacity=0)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "TelemetryConfig":
        """Build from a config-file section (string values, all optional)."""
        enabled = str(_get(mapping, "enabled", "true")).strip().lower() \
            in ("1", "true", "yes", "on")
        config = cls(
            enabled=enabled,
            span_capacity=int(_get(mapping, "span_capacity", 2048)),
            flight_capacity=int(_get(mapping, "flight_capacity", 32)),
            slow_task_seconds=float(_get(mapping, "slow_task_seconds", 1.0)),
            flight_log=_get(mapping, "flight_log", None),
            span_log=_get(mapping, "span_log", None),
        )
        if not enabled:
            config.span_capacity = 0
            config.flight_capacity = 0
        return config


class FlightRecorder:
    """Bounded retention of the slowest and failed task traces.

    Failures always make the ring (bounded separately, oldest evicted);
    successes compete on duration for the ``capacity`` slowest slots and
    must additionally clear ``slow_task_seconds``.  Both sets are small
    by construction, so :meth:`record` is O(capacity) in the worst case
    and one float comparison in the common fast-task case.
    """

    def __init__(self, capacity: int = 32, slow_task_seconds: float = 1.0,
                 sink_path: str | None = None):
        self.capacity = capacity
        self.slow_task_seconds = slow_task_seconds
        self.sink_path = sink_path
        self._lock = threading.Lock()
        self._failed: deque[dict] = deque(maxlen=capacity if capacity > 0 else 1)
        self._slowest: list[dict] = []  # kept sorted, slowest first

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def record(self, task_id: str, trace_id: str, outcome: str,
               duration: float, spans: list[dict] | None = None,
               **details) -> dict | None:
        """Consider one terminal task for retention; returns the entry kept.

        ``outcome`` is the task's final disposition (``done``, ``failed``,
        ``dead_letter``...); anything other than ``done`` is treated as a
        failure and always retained.
        """
        if self.capacity <= 0:
            return None
        entry = {
            "task": task_id,
            "trace_id": trace_id,
            "outcome": outcome,
            "duration": duration,
            "spans": list(spans or ()),
            **details,
        }
        kept = False
        with self._lock:
            if outcome != "done":
                self._failed.append(entry)
                kept = True
            elif duration >= self.slow_task_seconds:
                self._slowest.append(entry)
                self._slowest.sort(key=lambda item: item["duration"], reverse=True)
                if len(self._slowest) > self.capacity:
                    self._slowest.pop()
                kept = entry in self._slowest
        if kept and self.sink_path:
            # the log holds a task's records in their stored form
            line = {**entry, "spans": encode_spans(entry["spans"])}
            with open(self.sink_path, "a", encoding="utf-8") as sink:
                sink.write(json.dumps(line, sort_keys=True, default=str) + "\n")
        return entry if kept else None

    def entries(self) -> list[dict]:
        """Everything retained: failures (oldest first), then slowest."""
        with self._lock:
            return list(self._failed) + list(self._slowest)

    def __len__(self) -> int:
        with self._lock:
            return len(self._failed) + len(self._slowest)
