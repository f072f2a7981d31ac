"""Aggregate per-query execution profiles into a scan-efficiency report.

The driver attaches a compact profile dict (phase timings, metric counters,
plan-cache behaviour -- see :meth:`repro.engine.result.QueryResult.profile`)
to every submitted result's ``extras``.  This module rolls those profiles up
per target system so the platform can answer plan-quality questions the raw
timings cannot: how much of the data each system actually read (zone-map
scan efficiency), whether the plan cache amortised planning, and where the
per-phase time went.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EngineProfileSummary:
    """Aggregated execution profiles of one target system (dbms label)."""

    label: str
    queries: int = 0
    profiled: int = 0
    #: profiles whose execution looked its text up in the plan cache (one
    #: run on a prepared plan does not, and reports ``plan_cache_hit`` None).
    plan_cache_lookups: int = 0
    plan_cache_hits: int = 0
    #: results measured with concurrent driver workers: their wall-clock
    #: phase timings are GIL-inflated, so they are counted here and kept
    #: out of ``phase_seconds`` (the counter-based fields stay exact).
    timing_compromised: int = 0
    chunks_scanned: float = 0.0
    chunks_skipped: float = 0.0
    materialisations: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def scan_efficiency(self) -> float | None:
        """Fraction of storage chunks zone maps skipped (None = no scans)."""
        total = self.chunks_scanned + self.chunks_skipped
        if not total:
            return None
        return self.chunks_skipped / total

    @property
    def plan_cache_hit_rate(self) -> float | None:
        """Hits over the profiles that consulted the cache (None = none did)."""
        if not self.plan_cache_lookups:
            return None
        return self.plan_cache_hits / self.plan_cache_lookups

    def describe(self) -> dict:
        return {
            "label": self.label,
            "queries": self.queries,
            "profiled": self.profiled,
            "timing_compromised": self.timing_compromised,
            "scan_efficiency": self.scan_efficiency,
            "plan_cache_hit_rate": self.plan_cache_hit_rate,
            "chunks_scanned": self.chunks_scanned,
            "chunks_skipped": self.chunks_skipped,
            "materialisations": self.materialisations,
            "phase_seconds": dict(sorted(self.phase_seconds.items())),
        }


@dataclass
class ProfileReport:
    """Per-system profile summaries over one set of result records."""

    engines: dict[str, EngineProfileSummary] = field(default_factory=dict)

    def describe(self) -> dict:
        return {label: summary.describe()
                for label, summary in sorted(self.engines.items())}

    def lines(self) -> list[str]:
        """Render the report as aligned text lines (for the CLI / demo)."""
        rendered = []
        for label, summary in sorted(self.engines.items()):
            efficiency = summary.scan_efficiency
            hit_rate = summary.plan_cache_hit_rate
            line = (
                f"{label:<24} queries={summary.queries:<4} "
                f"scan_efficiency="
                f"{'n/a' if efficiency is None else f'{efficiency:.1%}'} "
                f"plan_cache="
                f"{'n/a' if hit_rate is None else f'{hit_rate:.0%} hits'}")
            if summary.timing_compromised:
                line += (f" timing_compromised={summary.timing_compromised}"
                         f" (concurrent driver workers)")
            rendered.append(line)
        return rendered


def _extras_of(record) -> dict:
    """The extras dict of a result record (object attribute or plain dict)."""
    extras = getattr(record, "extras", None)
    if extras is None and isinstance(record, dict):
        extras = record.get("extras")
    return extras or {}


def _label_of(record, profile: dict) -> str:
    label = getattr(record, "dbms_label", None)
    if label is None and isinstance(record, dict):
        label = record.get("dbms_label")
    return label or profile.get("engine") or "unknown"


def plan_cache_hit(profile: dict) -> bool | None:
    """Whether the profiled execution found its plan in the plan cache; None
    when it was handed a prepared plan and did not consult the cache
    (``plan.prepared``: stores written before "unknown" was reported hold
    such a run as a hit)."""
    if (profile.get("counters") or {}).get("plan.prepared"):
        return None
    return profile.get("plan_cache_hit")


def profiles_by_trace(records) -> dict[str, dict]:
    """Index the execution profiles carried by ``records`` by trace id.

    The driver stamps ``extras["trace_id"]`` (and mirrors it into the
    profile dict) on every traced submission, so this join lets
    ``analytics/timeline.py`` hang engine-side statistics -- phase
    timings, scan counters, plan-cache behaviour -- off the matching task
    timeline.  Records without a trace id are skipped; when a trace was
    submitted more than once (retries), the last profile wins, matching
    the platform's last-write-wins result semantics.
    """
    joined: dict[str, dict] = {}
    for record in records:
        extras = _extras_of(record)
        profile = extras.get("profile") or {}
        trace_id = profile.get("trace_id") or extras.get("trace_id")
        if trace_id:
            joined[str(trace_id)] = profile
    return joined


def profile_report(records) -> ProfileReport:
    """Aggregate the profiles carried by ``records`` into a report.

    ``records`` may be :class:`~repro.platform.models.ResultRecord` objects
    or plain dicts (e.g. parsed from the JSON API); records without a
    profile still count toward ``queries`` so coverage is visible.
    """
    report = ProfileReport()
    for record in records:
        extras = _extras_of(record)
        profile = extras.get("profile") or {}
        label = _label_of(record, profile)
        summary = report.engines.get(label)
        if summary is None:
            summary = report.engines[label] = EngineProfileSummary(label=label)
        summary.queries += 1
        if not profile:
            continue
        summary.profiled += 1
        hit = plan_cache_hit(profile)
        if hit is not None:
            summary.plan_cache_lookups += 1
            summary.plan_cache_hits += bool(hit)
        counters = profile.get("counters") or {}
        summary.chunks_scanned += counters.get("scan.chunks_scanned", 0)
        summary.chunks_skipped += counters.get("scan.chunks_skipped", 0)
        summary.materialisations += counters.get("frame.materialisations", 0)
        if int(extras.get("concurrent_workers") or 0) > 1:
            # GIL-inflated wall clock: flag it, keep it out of the phase
            # aggregates (the metric counters above are unaffected).
            summary.timing_compromised += 1
            continue
        for phase, seconds in (profile.get("phases") or {}).items():
            summary.phase_seconds[phase] = \
                summary.phase_seconds.get(phase, 0.0) + seconds
    return report
