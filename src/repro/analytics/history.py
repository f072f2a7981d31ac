"""Experiment history (Figure 7).

"Figure 7 shows the execution time of queries in a single experiment.  The
dashed lines illustrate the morphing action taken.  The color coding for
alter, expand, and prune morphing is purple, green, and blue, respectively.
Queries that result in an error are shown as yellow dots.  [...] The node size
illustrates the number of components in the query.  Hovering over a node shows
the details of the run."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pool.morph import STRATEGY_COLORS, Strategy
from repro.pool.pool import QueryPool

#: colour of error nodes in the history plot.
ERROR_COLOR = "yellow"
#: colour of ordinary measured nodes.
NODE_COLOR = "steelblue"


@dataclass
class HistoryNode:
    """One pool query in the experiment-history scatter plot."""

    sequence: int
    sql: str
    origin: str
    size: int
    elapsed: float | None
    error: bool
    color: str
    details: dict = field(default_factory=dict)


@dataclass
class HistoryEdge:
    """A dashed morph edge between a parent node and a child node."""

    parent_sequence: int
    child_sequence: int
    strategy: str
    color: str


@dataclass
class ExperimentHistory:
    """The full Figure 7 data set for one system."""

    system: str
    nodes: list[HistoryNode] = field(default_factory=list)
    edges: list[HistoryEdge] = field(default_factory=list)

    def error_nodes(self) -> list[HistoryNode]:
        return [node for node in self.nodes if node.error]

    def measured_nodes(self) -> list[HistoryNode]:
        return [node for node in self.nodes if node.elapsed is not None]

    def series(self) -> list[tuple]:
        """(sequence, elapsed, size, origin, error) rows: the plotted series."""
        return [
            (node.sequence, node.elapsed, node.size, node.origin, node.error)
            for node in self.nodes
        ]


def experiment_history(pool: QueryPool, system: str) -> ExperimentHistory:
    """Build the experiment-history data for ``system`` from a measured pool."""
    history = ExperimentHistory(system=system)
    sequence_by_key = {entry.key: entry.sequence for entry in pool.entries()}

    for entry in pool.entries():
        elapsed = entry.best_time(system)
        failures = [observation for observation in entry.observations
                    if observation.failed and observation.system == system]
        error = bool(failures)
        if error:
            color = ERROR_COLOR
        elif entry.origin in Strategy.names():
            color = STRATEGY_COLORS[Strategy(entry.origin)]
        else:
            color = NODE_COLOR
        details = {
            "origin": entry.origin,
            "observations": len(entry.observations),
            "systems": sorted(entry.observed_systems()),
        }
        if error:
            # why the node is yellow: the last failure on this system and its
            # kind (refused by the engine -- ``syntax`` / ``plan`` -- or an
            # ``execution`` fault), as the platform kept it on the result.
            details["error"] = failures[-1].error
            details["error_kind"] = failures[-1].metadata.get("error_kind")
        history.nodes.append(HistoryNode(
            sequence=entry.sequence,
            sql=entry.sql,
            origin=entry.origin,
            size=entry.query.size(),
            elapsed=elapsed,
            error=error,
            color=color,
            details=details,
        ))
        if entry.parent_key is not None and entry.parent_key in sequence_by_key:
            strategy = entry.origin if entry.origin in Strategy.names() else "alter"
            history.edges.append(HistoryEdge(
                parent_sequence=sequence_by_key[entry.parent_key],
                child_sequence=entry.sequence,
                strategy=strategy,
                color=STRATEGY_COLORS.get(Strategy(strategy), NODE_COLOR),
            ))
    return history
