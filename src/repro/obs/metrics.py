"""Per-query metrics contexts and the process-level metrics registry.

Two complementary pieces:

* :class:`MetricsContext` -- a query-scoped counter set.  The engine opens
  one context per execution and *activates* it on a :mod:`contextvars`
  variable; instrumentation points deep in the executors and the storage
  layer attribute their counts through :func:`count` without any plumbing.
  Because the active context is a context variable, concurrent executions
  (several runners in one process) never see each other's counters.
* :class:`MetricsRegistry` -- a small, lock-protected registry of named
  counters and histograms for *service-level* totals (tasks dispatched,
  results accepted, queue timeouts).  The platform service owns one and the
  webapp exposes its snapshot at ``/api/metrics``.

Metric names follow a dotted ``<subsystem>.<quantity>[.<outcome>]`` scheme,
e.g. ``scan.chunks_skipped``, ``join.order_probes``, ``plan_cache.misses``;
see the README's Observability section for the full list.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import deque
from collections.abc import Callable
from contextvars import ContextVar

_ACTIVE: ContextVar["MetricsContext | None"] = ContextVar(
    "repro_active_metrics", default=None)


class MetricsContext:
    """Counters attributed to one query execution.

    Cheap to allocate (one dict) -- the engine creates a fresh context per
    ``execute`` call and attaches it to the :class:`QueryResult`, so callers
    read per-query numbers off the result instead of diffing globals.
    """

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero on first use)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + amount

    def get(self, name: str, default: float = 0) -> float:
        return self.counters.get(name, default)

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy of every counter (JSON-friendly)."""
        return dict(self.counters)

    def activate(self) -> "_Activation":
        """Context manager installing this context as the ambient one."""
        return _Activation(self)

    def scan_efficiency(self) -> float | None:
        """Fraction of storage chunks skipped by zone maps (None = no scans)."""
        scanned = self.counters.get("scan.chunks_scanned", 0)
        skipped = self.counters.get("scan.chunks_skipped", 0)
        total = scanned + skipped
        if not total:
            return None
        return skipped / total


class _Activation:
    __slots__ = ("_context", "_token")

    def __init__(self, context: MetricsContext):
        self._context = context
        self._token = None

    def __enter__(self) -> MetricsContext:
        self._token = _ACTIVE.set(self._context)
        return self._context

    def __exit__(self, *_exc) -> bool:
        _ACTIVE.reset(self._token)
        return False


def current_metrics() -> MetricsContext | None:
    """The metrics context of the query executing on this thread, if any."""
    return _ACTIVE.get()


def count(name: str, amount: float = 1) -> None:
    """Attribute ``amount`` to the active query's context (no-op outside one)."""
    context = _ACTIVE.get()
    if context is not None:
        # inlined MetricsContext.count: this runs on scan/kernel hot paths,
        # so it skips the extra method call.
        counters = context.counters
        counters[name] = counters.get(name, 0) + amount


def count_all(amounts: dict[str, float]) -> None:
    """:func:`count` every ``name: amount`` of ``amounts`` in one call: what
    an operator tallied locally, added once."""
    context = _ACTIVE.get()
    if context is not None:
        counters = context.counters
        for name, amount in amounts.items():
            counters[name] = counters.get(name, 0) + amount


def python_calls(run: Callable[[], object], package: str) -> tuple[int, int]:
    """The Python function calls ``run()`` makes on this thread, as
    ``(calls of code under the directory of module `package`, all others)`` --
    numpy's and the standard library's own Python frames are the others; C
    functions are not counted.  A deterministic measure of an operator's
    fixed cost: the count does not move with the load of the machine (it
    does with the interpreter version)."""
    root = os.path.dirname(sys.modules[package].__file__) + os.sep
    counts = [0, 0]

    def profile(frame, event, _arg) -> None:
        if event == "call":
            counts[not frame.f_code.co_filename.startswith(root)] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return counts[0], counts[1]


# ---------------------------------------------------------------------------
# process-level registry (service counters / histograms)
# ---------------------------------------------------------------------------


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Streaming summary statistics plus percentile estimates.

    Keeps exact count/sum/min/max and a bounded sliding reservoir of the
    most recent observations for p50/p95/p99 -- recent-window quantiles
    are what latency dashboards want anyway, and the fixed-size deque
    keeps a long-running service at a constant footprint (no unbounded
    sample lists, no bucket configuration).
    """

    RESERVOIR = 512

    __slots__ = ("name", "count", "total", "minimum", "maximum",
                 "_samples", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self._samples: deque[float] = deque(maxlen=self.RESERVOIR)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            self.minimum = value if self.minimum is None else min(self.minimum, value)
            self.maximum = value if self.maximum is None else max(self.maximum, value)
            self._samples.append(value)

    def summary(self) -> dict:
        with self._lock:
            ordered = sorted(self._samples)
            count, total = self.count, self.total
            minimum, maximum = self.minimum, self.maximum

        def pct(fraction: float) -> float | None:
            if not ordered:
                return None
            rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
            return ordered[rank]

        return {
            "count": count,
            "sum": total,
            "min": minimum,
            "max": maximum,
            "mean": (total / count) if count else None,
            "p50": pct(0.50),
            "p95": pct(0.95),
            "p99": pct(0.99),
        }


class Gauge:
    """A named point-in-time value (queue depth, oldest lease age)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        return self._value


class MetricsRegistry:
    """Named counters and histograms behind one lock (service-level totals)."""

    #: derived rate -> (numerator counter, denominator counter).  The
    #: numerators prefer the structured logger's ``log.events.*`` counters
    #: when those exist (the "log-derived" rates: they count decisions as
    #: logged, surviving even if a service counter is bypassed) and fall
    #: back to the service's own accounting counters.
    DERIVED_RATES = {
        "tasks.retry_rate": (("log.events.task.retried", "tasks.retried"),
                             ("tasks.dispatched",)),
        "tasks.dead_letter_rate": (("log.events.task.dead_lettered",
                                    "tasks.dead_lettered"),
                                   ("tasks.enqueued",)),
    }

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            return counter

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name)
            return histogram

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge(name)
            return gauge

    def _derived(self, counters: dict[str, float]) -> dict[str, float]:
        derived: dict[str, float] = {}
        for name, (numerators, denominators) in self.DERIVED_RATES.items():
            numerator = next((counters[key] for key in numerators
                              if key in counters), 0.0)
            denominator = next((counters[key] for key in denominators
                                if key in counters), 0.0)
            if denominator:
                derived[name] = numerator / denominator
        return derived

    def snapshot(self) -> dict:
        """JSON-friendly view of every registered metric."""
        with self._lock:
            counters = {name: counter.value
                        for name, counter in sorted(self._counters.items())}
            histograms = {name: histogram.summary()
                          for name, histogram in sorted(self._histograms.items())}
            gauges = {name: gauge.value
                      for name, gauge in sorted(self._gauges.items())}
        return {
            "counters": counters,
            "histograms": histograms,
            "gauges": gauges,
            "derived": self._derived(counters),
        }
