"""Query-scoped execution tracing: flat span records and their tree view.

A :class:`QueryTrace` records one execution as a list of :class:`Span`
records in the order they were opened -- parse, plan, compile, then one span
per physical operator (scan / join / filter / aggregate / project / order).
Every span carries wall time, rows in/out, free-form attributes (chunks
scanned/skipped, selection-vector sizes, cache hits) and the index of its
parent in that list.  The tree -- :attr:`Span.children`, the pre-order walk
:meth:`QueryTrace.spans`, :meth:`QueryTrace.find`, :func:`format_trace` for
``EXPLAIN ANALYZE`` -- is a view computed from the parent indices, and
:func:`repro.obs.propagate.export_query_trace` turns the list into
cross-process span records in one pass.

Tracing is strictly opt-in: with no trace attached the executors touch a
shared :data:`NULL_SPAN` singleton whose operations are all no-ops, keeping
the overhead on the hot path to a predictable few attribute checks (gated
below 5% by ``benchmarks/test_bench_observability.py``).

The span *stack* and the record list belong to the executing thread.  An
operator that runs fused into the row engine's generated pipeline has no
span of its own while it runs: the executor builds a detached :class:`Span`
afterwards, stamps it via :meth:`Span.close` and files it under the pipeline
span (:meth:`QueryTrace.adopt`), so the tree still shows every operator.
"""

from __future__ import annotations

import time
from typing import Any, Iterator


class Span:
    """One timed record of a trace, and the context manager that closes it.

    ``index`` is its place in :attr:`QueryTrace.records`, ``parent`` its
    parent's (None for the root); both are None while the span is detached.
    """

    __slots__ = ("name", "index", "parent", "started", "ended", "rows_in",
                 "rows_out", "attributes", "_trace")

    def __init__(self, name: str):
        self.name = name
        self.index: int | None = None
        self.parent: int | None = None
        self.started = time.perf_counter()
        self.ended: float | None = None
        self.rows_in: int | None = None
        self.rows_out: int | None = None
        self.attributes: dict[str, Any] = {}
        self._trace: "QueryTrace | None" = None

    @property
    def elapsed(self) -> float:
        """Span wall time in seconds (up to now while still open)."""
        end = self.ended if self.ended is not None else time.perf_counter()
        return end - self.started

    @property
    def children(self) -> list["Span"]:
        """The spans filed under this one, in filing order."""
        if self._trace is None:
            return []
        return [span for span in self._trace.records if span.parent == self.index]

    def set(self, rows_in: int | None = None, rows_out: int | None = None,
            **attributes) -> "Span":
        """Record row counts and/or attributes on this span."""
        if rows_in is not None:
            self.rows_in = rows_in
        if rows_out is not None:
            self.rows_out = rows_out
        if attributes:
            self.attributes.update(attributes)
        return self

    def close(self) -> "Span":
        """Stamp the end time of a detached span (idempotent): it was never
        on the trace's stack to be closed by leaving it."""
        if self.ended is None:
            self.ended = time.perf_counter()
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *_exc) -> bool:
        self.ended = time.perf_counter()
        stack = self._trace._stack
        if stack and stack[-1] is self:
            stack.pop()
        return False


class _NullSpan:
    """Shared do-nothing span/context: the disabled-tracing fast path."""

    __slots__ = ()

    def set(self, rows_in=None, rows_out=None, **attributes) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


#: singleton handed out wherever tracing is off.
NULL_SPAN = _NullSpan()


class QueryTrace:
    """The span records of one query execution."""

    def __init__(self, sql: str = "", engine: str = ""):
        self.sql = sql
        self.engine = engine
        self.root = Span("query")
        self.root.index = 0
        self.root._trace = self
        #: every span in the order it was filed; a parent precedes its children.
        self.records: list[Span] = [self.root]
        self._stack: list[Span] = [self.root]

    def adopt(self, parent: Span, span: Span) -> Span:
        """File a detached ``span`` (an operator of a fused pipeline) under
        ``parent``, a span of this trace."""
        span.index = len(self.records)
        span.parent = parent.index
        span._trace = self
        self.records.append(span)
        return span

    def span(self, name: str, **attributes) -> Span:
        """Open a child span of the innermost open span (a context manager)."""
        span = self.adopt(self._stack[-1], Span(name))
        if attributes:
            span.attributes.update(attributes)
        self._stack.append(span)
        return span

    def finish(self) -> "QueryTrace":
        """Close the root span (idempotent)."""
        if self.root.ended is None:
            self.root.ended = time.perf_counter()
        del self._stack[1:]
        return self

    def tree(self) -> list[list[Span]]:
        """Per record index, the spans filed under it (one pass over the list)."""
        children: list[list[Span]] = [[] for _ in self.records]
        for span in self.records[1:]:
            children[span.parent].append(span)
        return children

    def spans(self) -> Iterator[Span]:
        """Every span, pre-order (the walk of the tree view)."""
        children = self.tree()
        stack = [self.root]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(children[span.index]))

    def find(self, name: str) -> Span | None:
        """First span named ``name`` in pre-order, or None."""
        return next((span for span in self.spans() if span.name == name), None)

    def find_all(self, name: str) -> list[Span]:
        return [span for span in self.spans() if span.name == name]

    def to_dict(self) -> dict:
        """JSON-friendly nested form (the EXPLAIN ANALYZE artifact)."""
        children = self.tree()

        def nested(span: Span) -> dict:
            return {"name": span.name, "elapsed": span.elapsed,
                    "rows_in": span.rows_in, "rows_out": span.rows_out,
                    "attributes": dict(span.attributes),
                    "children": [nested(child) for child in children[span.index]]}

        return {"sql": self.sql, "engine": self.engine, "root": nested(self.root)}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _draw_tree(label_of, children_of, node, prefix: str = "") -> list[str]:
    lines = [label_of(node)] if not prefix else []
    children = children_of(node)
    for index, child in enumerate(children):
        last = index == len(children) - 1
        connector = "└─ " if last else "├─ "
        lines.append(prefix + connector + label_of(child))
        extension = "   " if last else "│  "
        lines.extend(_draw_tree(label_of, children_of, child, prefix + extension))
    return lines


def _span_label(span: Span) -> str:
    parts = [f"{span.name} ({span.elapsed * 1000:.3f} ms"]
    if span.rows_in is not None and span.rows_out is not None:
        parts.append(f", rows {span.rows_in} -> {span.rows_out}")
    elif span.rows_out is not None:
        parts.append(f", rows={span.rows_out}")
    parts.append(")")
    if span.attributes:
        rendered = ", ".join(f"{key}={value}" for key, value in span.attributes.items())
        parts.append(f" [{rendered}]")
    return "".join(parts)


def _header(engine: str, sql: str) -> str:
    flattened = " ".join(sql.split())
    if engine and flattened:
        return f"{engine}: {flattened}"
    return engine or flattened


def format_trace(trace: QueryTrace) -> list[str]:
    """Render a finished trace as an indented span tree (one line per span)."""
    header = _header(trace.engine, trace.sql)
    lines = [header] if header else []
    children = trace.tree()
    lines.extend(_draw_tree(_span_label, lambda span: children[span.index], trace.root))
    return lines


def format_plan(plan, engine: str = "", windows: bool = False) -> list[str]:
    """Render a prepared :class:`QueryPlan` as a logical operator tree.

    Works off the plan's own structures (duck-typed, so :mod:`repro.obs`
    stays free of engine imports): the nesting is Limit / OrderBy /
    Distinct / Aggregate-or-Project over Filter over Join over Scans, with
    derived tables recursing into their sub-blocks.  With ``windows`` -- for
    an engine that reads them -- a driving scan the plan confined to a scan
    window names it, with the rows the planner expects in it.
    """
    tree = _plan_node(plan, plan.select, windows)
    header = _header(engine, plan.sql or "")
    lines = [header] if header else []
    lines.extend(_draw_tree(lambda node: node["label"],
                            lambda node: node["children"], tree))
    return lines


def _plan_node(plan, select, windows: bool = False) -> dict:
    block = plan.block(select)
    described = block.describe() if block is not None else {}
    pushdown = described.get("pushdown", {})
    # the scan window of the item the join order drives from
    window = described.get("window") if windows else None
    driving = block.join_order[0].frame_index if window else None

    scans: list[dict] = []
    for index, item in enumerate(select.from_items):
        scans.append(_from_item_node(plan, item, pushdown, windows,
                                     window if index == driving else None))

    if len(scans) > 1:
        # the order by binding name; where the planner costed it, the rows it
        # expects out of each level (EXPLAIN ANALYZE's join span has the actual)
        estimated = described.get("estimated_rows")
        join_label = (f"Join (order: {' -> '.join(described.get('join_order', []))}, "
                      + (f"estimated rows: {' -> '.join(f'{rows:g}' for rows in estimated)}, "
                         if estimated else "")
                      + f"equi={described.get('equi_joins', 0)})")
        body: list[dict] = [{"label": join_label, "children": scans}]
    else:
        body = scans

    residual = described.get("residual", 0)
    if residual:
        body = [{"label": f"Filter ({residual} residual predicate"
                          f"{'s' if residual != 1 else ''})",
                 "children": body}]

    output = ", ".join(described.get("output", []))
    top_label = f"Aggregate (output: {output})" if described.get("aggregated") \
        else f"Project (output: {output})"
    node = {"label": top_label, "children": body}

    if getattr(select, "distinct", False):
        node = {"label": "Distinct", "children": [node]}
    if getattr(select, "order_by", None):
        node = {"label": f"OrderBy ({len(select.order_by)} keys)", "children": [node]}
    if getattr(select, "limit", None) is not None:
        node = {"label": f"Limit {select.limit}", "children": [node]}
    return node


def _thousands(number: float) -> str:
    return f"{round(number):,}".replace(",", " ")


def _from_item_node(plan, item, pushdown: dict, windows: bool = False,
                    window: dict | None = None) -> dict:
    name = getattr(item, "name", None)
    if name is not None:  # TableRef
        binding = getattr(item, "binding", name)
        label = f"Scan {name}"
        if binding and binding.lower() != name.lower():
            label += f" as {binding}"
        predicates = pushdown.get(binding.lower() if binding else name.lower(), 0)
        if window:
            # Scan lineitem (window l_shipdate [1994-01-01, 1995-01-01), est.
            # 3 328 of 24 062 rows; pushdown: 2 more predicates)
            label += (f" (window {window['interval']}, "
                      f"est. {_thousands(window['estimated_rows'])} of "
                      f"{_thousands(window['table_rows'])} rows")
            predicates -= window["subsumed"]
            if predicates:
                label += (f"; pushdown: {predicates} more "
                          f"predicate{'s' if predicates != 1 else ''}")
            label += ")"
        elif predicates:
            label += f" (pushdown: {predicates} predicate{'s' if predicates != 1 else ''})"
        return {"label": label, "children": []}
    subquery = getattr(item, "subquery", None)
    if subquery is not None:  # SubqueryRef
        alias = getattr(item, "alias", "?")
        return {"label": f"Derived {alias}",
                "children": [_plan_node(plan, subquery, windows)]}
    left = getattr(item, "left", None)
    if left is not None:  # explicit Join item
        kind = getattr(item, "kind", "inner")
        return {"label": f"{kind.title()}Join",
                "children": [_from_item_node(plan, item.left, pushdown, windows),
                             _from_item_node(plan, item.right, pushdown, windows)]}
    return {"label": type(item).__name__, "children": []}
