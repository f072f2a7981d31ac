"""Query-scoped observability: tracing, per-query metrics, process registry.

The paper's platform exists to *measure* query execution; this package is
the reproduction's measuring layer.  It is deliberately free of engine
imports so every subsystem (engines, storage, driver, platform) can depend
on it without cycles:

* :mod:`repro.obs.trace` -- :class:`QueryTrace` span records emitted by both
  executors and rendered as a tree by ``EXPLAIN ANALYZE``,
* :mod:`repro.obs.metrics` -- the per-query :class:`MetricsContext`
  (replacing the old process-global instrumentation counters) and the
  :class:`MetricsRegistry` (counters / latency histograms with
  percentiles / gauges / derived rates) behind ``/api/metrics``,
* :mod:`repro.obs.propagate` -- W3C-style ``traceparent`` propagation,
  the ambient :class:`SpanContext`, and the cross-process
  :class:`SpanRecorder` whose records ``analytics/timeline.py`` stitches
  into end-to-end task timelines, and :func:`encode_spans` /
  :func:`decode_spans`, their one wire / stored form,
* :mod:`repro.obs.log` -- the structured JSON-lines :class:`JsonLogger`
  (trace-correlated, registry-counted) used across the platform,
* :mod:`repro.obs.flight` -- :class:`TelemetryConfig` knobs and the
  :class:`FlightRecorder` ring of slowest/failed task traces.
"""

from repro.obs.flight import (
    FlightRecorder,
    TelemetryConfig,
)
from repro.obs.log import (
    NULL_LOGGER,
    JsonLogger,
    parse_log_lines,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsContext,
    MetricsRegistry,
    count,
    current_metrics,
)
from repro.obs.propagate import (
    SpanContext,
    SpanRecorder,
    current_context,
    decode_spans,
    encode_spans,
    export_query_trace,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    use_context,
    write_span_log,
)
from repro.obs.trace import (
    NULL_SPAN,
    QueryTrace,
    Span,
    format_plan,
    format_trace,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonLogger",
    "MetricsContext",
    "MetricsRegistry",
    "NULL_LOGGER",
    "SpanContext",
    "SpanRecorder",
    "TelemetryConfig",
    "count",
    "current_context",
    "current_metrics",
    "decode_spans",
    "encode_spans",
    "export_query_trace",
    "new_span_id",
    "new_trace_id",
    "parse_log_lines",
    "parse_traceparent",
    "use_context",
    "write_span_log",
    "NULL_SPAN",
    "QueryTrace",
    "Span",
    "format_plan",
    "format_trace",
]
