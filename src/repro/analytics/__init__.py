"""Visual-analytics data series.

The demo's GUI pages (Figures 2-7) are Bokeh plots; this subpackage computes
the data series behind each of them so benchmarks and examples can regenerate
the figures as tables/CSV:

* :mod:`repro.analytics.speedup` -- relative speedup of query variants
  between two systems or two database instances (Figure 3),
* :mod:`repro.analytics.components` -- dominant lexical components: per-term
  cost attribution and a PCA over the term-presence matrix (Figure 2),
* :mod:`repro.analytics.differential` -- the query-differential page: the
  syntactic diff of two variants plus their per-system performance
  (Figure 4),
* :mod:`repro.analytics.history` -- the experiment history: execution time
  per pool query, node sizes, morph edges and error nodes (Figure 7),
* :mod:`repro.analytics.views` -- the grammar page and query-pool page
  summaries (Figures 5 and 6),
* :mod:`repro.analytics.profiles` -- scan-efficiency / plan-quality report
  aggregated from the execution profiles the driver submits with results,
* :mod:`repro.analytics.timeline` -- per-task end-to-end timelines stitched
  from driver- and server-side span records sharing one trace id.
"""

from repro.analytics.speedup import SpeedupPoint, SpeedupReport, speedup_report
from repro.analytics.components import ComponentReport, component_report
from repro.analytics.differential import Differential, differential
from repro.analytics.history import HistoryNode, HistoryEdge, ExperimentHistory, experiment_history
from repro.analytics.views import grammar_view, pool_view
from repro.analytics.profiles import (
    EngineProfileSummary,
    ProfileReport,
    profile_report,
    profiles_by_trace,
)
from repro.analytics.timeline import (
    TaskTimeline,
    read_flight_log,
    read_span_log,
    stitch_timelines,
    timeline_lines,
    timeline_report,
)

__all__ = [
    "SpeedupPoint",
    "SpeedupReport",
    "speedup_report",
    "ComponentReport",
    "component_report",
    "Differential",
    "differential",
    "HistoryNode",
    "HistoryEdge",
    "ExperimentHistory",
    "experiment_history",
    "grammar_view",
    "pool_view",
    "EngineProfileSummary",
    "ProfileReport",
    "profile_report",
    "profiles_by_trace",
    "TaskTimeline",
    "read_flight_log",
    "read_span_log",
    "stitch_timelines",
    "timeline_lines",
    "timeline_report",
]
