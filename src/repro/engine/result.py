"""Query result container returned by both engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import MetricsContext, QueryTrace


@dataclass
class QueryResult:
    """Result of executing one query.

    Attributes
    ----------
    columns:
        Output column names, in projection order.
    rows:
        Result rows as tuples.
    elapsed:
        Wall-clock execution time in seconds (excludes parsing when the
        caller passes an already-parsed AST).
    engine:
        Name of the engine that produced the result.
    phases:
        Per-phase timings in seconds (``planning`` / ``compile`` /
        ``execute``); ``elapsed`` equals the ``execute`` phase, planning is
        amortised by the plan cache and reported separately so cache hits
        are visibly cheaper.
    metrics:
        The per-query :class:`~repro.obs.MetricsContext` the engine attached
        during execution (chunk scan/skip counts, frame materialisations,
        cache hits) -- always present for engine-executed queries.
    trace:
        The :class:`~repro.obs.QueryTrace` span tree when the caller asked
        for tracing (``Engine.execute(..., trace=True)`` or
        ``EXPLAIN ANALYZE``); None otherwise.
    """

    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    elapsed: float = 0.0
    engine: str = ""
    phases: dict = field(default_factory=dict)
    metrics: "MetricsContext | None" = None
    trace: "QueryTrace | None" = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self):
        """Return the single value of a 1x1 result (None when empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def column(self, name: str) -> list:
        """Return one output column as a list of values."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def as_dicts(self) -> list[dict]:
        """Return the rows as dictionaries keyed by output column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def profile(self) -> dict:
        """Compact, JSON-friendly execution profile of this result.

        This is what the driver forwards with submitted results, so
        ``ResultRecord.extras`` carries scan efficiency and cache behaviour
        to the platform.
        """
        counters = self.metrics.snapshot() if self.metrics is not None else {}
        profile = {
            "engine": self.engine,
            "rows": len(self.rows),
            "phases": dict(self.phases),
            "counters": counters,
            # None: the caller handed in a prepared plan (``plan.prepared``),
            # so the plan cache was not consulted by this execution
            "plan_cache_hit": None if counters.get("plan.prepared")
            else bool(counters.get("plan_cache.hits")),
        }
        if self.metrics is not None:
            efficiency = self.metrics.scan_efficiency()
            if efficiency is not None:
                profile["scan_efficiency"] = efficiency
        return profile
