"""Statistics-driven data skipping and predicate-selectivity estimation.

Two consumers sit on top of the chunk zone maps:

* :class:`ZoneIndex` -- a vectorised, per-table index of chunk min/max/null
  summaries.  The column executor's scan asks it which chunks a conjunction
  of push-down predicates can possibly touch and receives the surviving
  chunk indexes (or ``None`` when nothing could be skipped, keeping the
  no-selection fast path), then the rows of those chunks
  (:meth:`ZoneIndex.rows_of`).
  Refutation is *conservative*: a predicate shape the index does not
  understand simply keeps every chunk.
* :func:`estimate_selectivity` -- the planner's ordering heuristic: given
  table statistics it scores each push-down conjunct with an estimated
  selectivity in ``[0, 1]`` so the most selective predicate refines the
  selection vector first; :func:`estimate_conjunction` scores a whole scan's
  conjuncts together -- the filtered cardinality the join order is costed
  from.  Underneath, :func:`column_intervals` intersects the range conjuncts
  over each column into one interval: the estimate reads its share of the
  column's span, and the planner takes the narrowest int / date one as the
  block's scan window (``BlockPlan.window``).

Both work in the encoded value domain (dates as day ordinals), matching the
zone maps and column statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from repro.engine.types import add_interval, date_to_ordinal, ordinal_to_date
from repro.sqlparser import ast

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.storage.stats import ColumnStatistics, TableStatistics
    from repro.engine.storage.table import StorageTable

#: sentinel for "no usable constant on this side".
_MISSING = object()

_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}

#: comparison complement used to push NOT below the zone-map analysis.
#: Kleene-sound: ``NOT (a < b)`` and ``a >= b`` are *exactly* equivalent
#: under three-valued logic (both UNKNOWN on a NULL operand, and UNKNOWN
#: rows never pass a filter), so rewriting cannot mis-refute a chunk.
_NEGATED = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


# ---------------------------------------------------------------------------
# zone-map index
# ---------------------------------------------------------------------------


class ZoneIndex:
    """Vectorised chunk-level min/max/null arrays for one storage table.

    Float zone boundaries live in ``float64`` arrays with NaN marking
    all-NULL chunks -- NaN comparisons are False, so an all-NULL chunk is
    refuted by every ordinary predicate for free.  The bounds leave NaN
    values out (an all-NaN chunk has none either), so a chunk holding a NaN
    is kept by every ``<>`` and every comparison under ``NOT``, which a NaN
    passes.  Int / date / bool boundaries stay exact in ``int64`` arrays (a
    float64 conversion would round values beyond 2**53 and could wrongly
    refute a matching chunk) with an empty-range sentinel (min=int64.max,
    max=int64.min) for all-NULL chunks, which every keep-test rejects for
    the same reason.  String boundaries are object arrays with ``None`` for
    all-NULL chunks, compared through a small None-aware helper.
    """

    def __init__(self, table: "StorageTable"):
        chunks = table.chunks
        self.chunk_count = len(chunks)
        self.starts = np.array([chunk.start for chunk in chunks], dtype=np.int64)
        self.counts = np.array([chunk.row_count for chunk in chunks], dtype=np.int64)
        self._mins: dict[str, np.ndarray] = {}
        self._maxs: dict[str, np.ndarray] = {}
        self._null_counts: dict[str, np.ndarray] = {}
        self._types: dict[str, str] = {}
        #: per float column, the chunks holding a NaN value: more NaNs than
        #: NULLs, whose slots hold the NaN sentinel
        self._nans: dict[str, np.ndarray] = {}
        for index, column in enumerate(table.schema.columns):
            lowered = column.name.lower()
            zones = [chunk.segments[index].zone_map for chunk in chunks]
            self._types[lowered] = column.type_name
            self._null_counts[lowered] = np.array([zone.null_count for zone in zones],
                                                  dtype=np.int64)
            if column.type_name == "str":
                self._mins[lowered] = np.array([zone.min_value for zone in zones],
                                               dtype=object)
                self._maxs[lowered] = np.array([zone.max_value for zone in zones],
                                               dtype=object)
            elif column.type_name == "float":
                self._mins[lowered] = np.array(
                    [np.nan if zone.min_value is None else float(zone.min_value)
                     for zone in zones], dtype=np.float64)
                self._maxs[lowered] = np.array(
                    [np.nan if zone.max_value is None else float(zone.max_value)
                     for zone in zones], dtype=np.float64)
                self._nans[lowered] = np.array(
                    [np.count_nonzero(np.isnan(chunk.segments[index].values))
                     > zone.null_count for chunk, zone in zip(chunks, zones)], dtype=bool)
            else:  # int / date / bool: exact int64 bounds
                empty_min = np.iinfo(np.int64).max
                empty_max = np.iinfo(np.int64).min
                self._mins[lowered] = np.array(
                    [empty_min if zone.min_value is None else int(zone.min_value)
                     for zone in zones], dtype=np.int64)
                self._maxs[lowered] = np.array(
                    [empty_max if zone.max_value is None else int(zone.max_value)
                     for zone in zones], dtype=np.int64)

    # -- public -----------------------------------------------------------------

    def survivors(self, predicates: list[ast.Expression],
                  resolve: Callable[[ast.ColumnRef], tuple[str, str] | None]
                  ) -> tuple[np.ndarray | None, int, int]:
        """Chunk indexes a scan filtered by ``predicates`` must still read.

        Returns ``(survivors, scanned, skipped)``: ``survivors`` is None when
        no chunk could be refuted (scan everything, no gather overhead),
        otherwise the ascending int64 indexes of the surviving chunks.  ``scanned``
        counts the chunks actually read and ``skipped`` the refuted ones, so
        ``scanned + skipped`` is always the table's chunk total.  The column
        engine asks once per plan and table version and keeps the answer
        (``ColumnState``).
        """
        if not self.chunk_count:
            return None, 0, 0
        keep = np.ones(self.chunk_count, dtype=bool)
        for predicate in predicates:
            mask = self._keep_mask(predicate, resolve)
            if mask is not None:
                keep &= mask
        survivors = None if keep.all() else np.flatnonzero(keep)
        if survivors is None:
            return None, self.chunk_count, 0
        skipped = self.chunk_count - len(survivors)
        return survivors, self.chunk_count - skipped, skipped

    def rows_of(self, chunk_indexes: np.ndarray) -> np.ndarray | None:
        """The row indexes of the chunks at ``chunk_indexes`` (ascending).

        None when that is every chunk -- all rows, nothing to index them by --
        and one ``arange`` over a run of neighbouring chunks.
        """
        if len(chunk_indexes) == self.chunk_count:
            return None
        if len(chunk_indexes) == 0:
            return np.empty(0, dtype=np.int64)
        first, last = int(chunk_indexes[0]), int(chunk_indexes[-1])
        if last - first + 1 == len(chunk_indexes):
            return np.arange(self.starts[first], self.starts[last] + self.counts[last],
                             dtype=np.int64)
        return np.concatenate([
            np.arange(self.starts[index], self.starts[index] + self.counts[index],
                      dtype=np.int64)
            for index in chunk_indexes
        ])

    def within(self, chunk_indexes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The rows among ascending ``rows`` that lie in the chunks at
        ``chunk_indexes`` (the rows of a scan window the zone maps keep)."""
        keep = np.zeros(self.chunk_count, dtype=bool)
        keep[chunk_indexes] = True
        return rows[keep[np.searchsorted(self.starts, rows, side="right") - 1]]

    # -- refutation -------------------------------------------------------------

    def _keep_mask(self, predicate: ast.Expression,
                   resolve) -> np.ndarray | None:
        """Chunks predicate might accept rows in (None = cannot analyse)."""
        try:
            return self._keep(predicate, resolve)
        except Exception:
            return None

    def _keep(self, node: ast.Expression, resolve) -> np.ndarray | None:
        if isinstance(node, ast.BoolOp):
            masks = [self._keep(operand, resolve) for operand in node.operands]
            if node.operator == "and":
                known = [mask for mask in masks if mask is not None]
                if not known:
                    return None
                combined = known[0].copy()
                for mask in known[1:]:
                    combined &= mask
                return combined
            if any(mask is None for mask in masks):
                return None
            combined = masks[0].copy()
            for mask in masks[1:]:
                combined |= mask
            return combined
        if isinstance(node, ast.Comparison):
            return self._keep_comparison(node, resolve)
        if isinstance(node, ast.Between) and not node.negated:
            return self._keep_between(node, resolve)
        if isinstance(node, ast.InList) and not node.negated:
            return self._keep_in_list(node, resolve)
        if isinstance(node, ast.Like) and not node.negated:
            return self._keep_like(node, resolve)
        if isinstance(node, ast.IsNull):
            return self._keep_is_null(node, resolve)
        if isinstance(node, ast.UnaryOp) and node.operator == "not":
            return self._keep_not(node.operand, resolve)
        return None

    def _keep_not(self, node: ast.Expression, resolve) -> np.ndarray | None:
        """Push NOT below the analysis with Kleene-sound rewrites only.

        UNKNOWN rows never pass a filter, so ``NOT expr`` may refute a chunk
        exactly when the *complemented* expression would: comparisons flip to
        their complement (identical three-valued truth tables), AND/OR invert
        by De Morgan, IS NULL flips its negation, double NOT unwraps.  Any
        other shape -- including NOT over BETWEEN/IN/LIKE, whose UNKNOWN
        handling is subtler -- conservatively keeps every chunk.
        """
        if isinstance(node, ast.UnaryOp) and node.operator == "not":
            return self._keep(node.operand, resolve)
        if isinstance(node, ast.Comparison) and node.quantifier is None:
            negated = _NEGATED.get(node.operator)
            if negated is None:
                return None
            return self._keep_comparison(
                ast.Comparison(negated, node.left, node.right), resolve, negated=True)
        if isinstance(node, ast.IsNull):
            return self._keep_is_null(
                ast.IsNull(node.operand, negated=not node.negated), resolve)
        if isinstance(node, ast.BoolOp):
            inverted = ast.BoolOp(
                "or" if node.operator == "and" else "and",
                [ast.UnaryOp("not", operand) for operand in node.operands])
            return self._keep(inverted, resolve)
        return None

    def _column(self, node: ast.Expression, resolve) -> str | None:
        if not isinstance(node, ast.ColumnRef):
            return None
        resolved = resolve(node)
        if resolved is None:
            return None
        name, _type_name = resolved
        return name.lower()

    def _keep_comparison(self, node: ast.Comparison, resolve,
                         negated: bool = False) -> np.ndarray | None:
        """Chunks the comparison ``node`` might accept rows in; ``negated``
        when it stands for ``NOT`` of its complement (:meth:`_keep_not`)."""
        if node.quantifier is not None:
            return None
        column = self._column(node.left, resolve)
        operator = node.operator
        constant_node = node.right
        if column is None:
            column = self._column(node.right, resolve)
            operator = _FLIPPED.get(operator)
            constant_node = node.left
        if column is None or operator is None:
            return None
        constant = self._constant(constant_node, column)
        if constant is _MISSING:
            return None
        mins, maxs = self._mins[column], self._maxs[column]
        if self._types[column] == "str":
            if operator == "=":
                return _obj_cmp(mins, "<=", constant) & _obj_cmp(maxs, ">=", constant)
            if operator == "<>":
                all_equal = _obj_cmp(mins, "==", constant) & _obj_cmp(maxs, "==", constant)
                return ~all_equal & self._has_non_null(column)
            if operator in ("<", "<="):
                return _obj_cmp(mins, operator, constant)
            return _obj_cmp(maxs, operator, constant)
        if operator == "=":
            keep = (mins <= constant) & (maxs >= constant)
        elif operator == "<>":
            keep = ~((mins == constant) & (maxs == constant)) & self._has_non_null(column)
        elif operator == "<":
            keep = mins < constant
        elif operator == "<=":
            keep = mins <= constant
        elif operator == ">":
            keep = maxs > constant
        else:
            keep = maxs >= constant
        nans = self._nans.get(column)
        if nans is not None and (negated or operator == "<>"):
            # the bounds leave NaNs out: a NaN is <> every constant, and NOT
            # turns each of its (false) other comparisons true
            keep |= nans
        return keep

    def _keep_between(self, node: ast.Between, resolve) -> np.ndarray | None:
        column = self._column(node.operand, resolve)
        if column is None:
            return None
        low = self._constant(node.low, column)
        high = self._constant(node.high, column)
        if low is _MISSING or high is _MISSING:
            return None
        mins, maxs = self._mins[column], self._maxs[column]
        if self._types[column] == "str":
            return _obj_cmp(maxs, ">=", low) & _obj_cmp(mins, "<=", high)
        return (maxs >= low) & (mins <= high)

    def _keep_in_list(self, node: ast.InList, resolve) -> np.ndarray | None:
        column = self._column(node.operand, resolve)
        if column is None:
            return None
        keep = np.zeros(self.chunk_count, dtype=bool)
        mins, maxs = self._mins[column], self._maxs[column]
        is_str = self._types[column] == "str"
        for item in node.items:
            constant = self._constant(item, column)
            if constant is _MISSING:
                return None
            if is_str:
                keep |= _obj_cmp(mins, "<=", constant) & _obj_cmp(maxs, ">=", constant)
            else:
                keep |= (mins <= constant) & (maxs >= constant)
        return keep

    def _keep_like(self, node: ast.Like, resolve) -> np.ndarray | None:
        column = self._column(node.operand, resolve)
        if column is None or self._types[column] != "str":
            return None
        if not isinstance(node.pattern, ast.Literal) or not isinstance(
                node.pattern.value, str):
            return None
        prefix = _like_prefix(node.pattern.value)
        if not prefix:
            return None
        upper = _prefix_upper_bound(prefix)
        keep = _obj_cmp(self._maxs[column], ">=", prefix)
        if upper is not None:
            keep &= _obj_cmp(self._mins[column], "<", upper)
        return keep

    def _keep_is_null(self, node: ast.IsNull, resolve) -> np.ndarray | None:
        column = self._column(node.operand, resolve)
        if column is None:
            return None
        nulls = self._null_counts[column]
        if node.negated:
            return nulls < self.counts
        return nulls > 0

    def _has_non_null(self, column: str) -> np.ndarray:
        return self._null_counts[column] < self.counts

    def _constant(self, node: ast.Expression, column: str) -> Any:
        """Constant of ``node`` in the column's encoded domain, or _MISSING."""
        type_name = self._types[column]
        if isinstance(node, ast.DateLiteral):
            return date_to_ordinal(node.value) if type_name == "date" else _MISSING
        if isinstance(node, ast.Literal):
            value = node.value
            if type_name == "date":
                if isinstance(value, str):
                    try:
                        return date_to_ordinal(value)
                    except Exception:
                        return _MISSING
                return _MISSING
            if type_name == "str":
                return value if isinstance(value, str) else _MISSING
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return value
            if type_name == "bool" and isinstance(value, bool):
                return int(value)
            return _MISSING
        if type_name == "date":
            folded = _fold_date_interval(node)
            if folded is not None:
                return folded
        return _MISSING


def _fold_date_interval(node: ast.Expression) -> int | None:
    """Day ordinal of a constant ``date +/- interval`` expression, or None."""
    if (isinstance(node, ast.BinaryOp) and node.operator in ("+", "-")
            and isinstance(node.left, ast.DateLiteral)
            and isinstance(node.right, ast.IntervalLiteral)):
        interval = node.right
        amount = interval.value if node.operator == "+" else -interval.value
        base = ordinal_to_date(date_to_ordinal(node.left.value))
        return date_to_ordinal(add_interval(base, amount, interval.unit))
    return None


def _obj_cmp(bounds: np.ndarray, operator: str, constant: str) -> np.ndarray:
    """None-aware elementwise comparison over object (string) bound arrays."""
    ops = {
        "<": lambda value: value < constant,
        "<=": lambda value: value <= constant,
        ">": lambda value: value > constant,
        ">=": lambda value: value >= constant,
        "==": lambda value: value == constant,
    }
    compare = ops[operator]
    return np.fromiter(
        (value is not None and compare(value) for value in bounds),
        dtype=bool, count=len(bounds))


def _like_prefix(pattern: str) -> str:
    """Literal prefix of a LIKE pattern (up to the first wildcard)."""
    for index, char in enumerate(pattern):
        if char in ("%", "_"):
            return pattern[:index]
    return pattern


def _prefix_upper_bound(prefix: str) -> str | None:
    """Smallest string greater than every string starting with ``prefix``."""
    for index in range(len(prefix) - 1, -1, -1):
        code = ord(prefix[index])
        if code < 0x10FFFF:
            return prefix[:index] + chr(code + 1)
    return None


# ---------------------------------------------------------------------------
# selectivity estimation
# ---------------------------------------------------------------------------

#: default estimate for predicates the heuristic cannot analyse.
_DEFAULT_SELECTIVITY = 0.4


def estimate_selectivity(predicate: ast.Expression,
                         statistics: "TableStatistics") -> float:
    """Estimated fraction of rows ``predicate`` keeps, from table statistics.

    A coarse System-R style heuristic: equality costs ``1/NDV``, ranges cost
    their fraction of the column's [min, max] span, LIKE prefixes are assumed
    moderately selective.  Used only to *order* conjuncts, so absolute
    accuracy matters less than the ranking.
    """
    try:
        return max(0.0, min(1.0, _estimate(predicate, statistics)))
    except Exception:
        return _DEFAULT_SELECTIVITY


def estimate_conjunction(predicates: Iterable[ast.Expression],
                         statistics: "TableStatistics") -> float:
    """Estimated fraction of rows that pass every one of ``predicates``.

    The range conjuncts over one column are intersected into a single
    interval (:func:`column_intervals`) and estimated once: ``d >= a and d <
    b`` is the window ``[a, b)``, not two independent half-ranges whose
    product overstates a one-month window twenty-fold.  Everything else
    multiplies in as :func:`estimate_selectivity` scores it.
    """
    try:
        return max(0.0, min(1.0, _estimate_conjunction(predicates, statistics)))
    except Exception:
        return _DEFAULT_SELECTIVITY


def _estimate_conjunction(predicates, statistics) -> float:
    intervals, others = column_intervals(predicates, statistics)
    selectivity = 1.0
    for node in others:
        selectivity *= _estimate(node, statistics)
    for interval in intervals:
        selectivity *= interval.fraction(statistics)
    return selectivity


#: the column types whose values are integers on the encoded scale: an
#: interval over one is exact, inclusive and exclusive ends told apart, and
#: takes the column's equalities in -- the scan windows the planner hands the
#: row engine (``BlockPlan.window``) are intervals over these.
_INTEGER_TYPES = ("int", "date")


@dataclass
class ColumnInterval:
    """What the range conjuncts over one column, intersected, leave of it.

    ``low`` / ``high`` are constants on the column's encoded scale (None =
    open on that side), ``*_open`` says the end itself is excluded.  The
    estimate reads the bounds as points of a continuum; over an int / date
    column :meth:`window` rounds them to the half-open integer interval that
    holds exactly the values every one of the conjuncts accepts.
    """

    column: "ColumnStatistics"
    low: "int | float | None" = None
    high: "int | float | None" = None
    low_open: bool = False
    high_open: bool = False
    #: the predicates, as handed in, that consist of this column's range
    #: conjuncts alone: TRUE exactly on the non-NULL values inside the interval.
    decided: list[ast.Expression] = field(default_factory=list)

    def narrow(self, other: "ColumnInterval") -> None:
        """Intersect with another interval over the same column."""
        if other.low is not None and (
                self.low is None or (other.low, other.low_open) > (self.low, self.low_open)):
            self.low, self.low_open = other.low, other.low_open
        if other.high is not None and (
                self.high is None
                or (other.high, not other.high_open) < (self.high, not self.high_open)):
            self.high, self.high_open = other.high, other.high_open

    def window(self) -> "tuple[int | None, int | None] | None":
        """``(low, high)`` of the half-open integer interval ``[low, high)``
        (None = open on that side); None for a column that is not int / date."""
        if self.column.type_name not in _INTEGER_TYPES:
            return None
        low, high = self.low, self.high
        if low is not None:  # the first integer inside
            low = math.floor(low) + 1 if self.low_open else math.ceil(low)
        if high is not None:  # the first integer beyond
            high = math.ceil(high) if self.high_open else math.floor(high) + 1
        return low, high

    def fraction(self, statistics: "TableStatistics") -> float:
        """Estimated fraction of the table's rows inside the interval: its
        share of the column's [min, max] span -- an integer window one value
        wide keeps what an equality does, ``1 / NDV`` -- on the non-NULL rows:
        a range is TRUE on those only, once per column, not once per bound."""
        window = self.window()
        if window is not None and None not in window and window[1] - window[0] == 1:
            fraction = 1.0 / max(self.column.distinct_estimate, 1)
        else:
            fraction = _range_fraction(self.column, self.low, self.high)
        return _non_null_fraction(self.column, statistics) * fraction


def column_intervals(predicates: Iterable[ast.Expression], statistics: "TableStatistics"
                     ) -> tuple[list[ColumnInterval], list[ast.Expression]]:
    """The intervals a conjunction puts on single columns, and what is left.

    The range conjuncts -- ``<`` / ``<=`` / ``>`` / ``>=`` against a constant
    on either side, non-negated ``BETWEEN``, and over an int / date column
    ``=`` -- at any depth of ``AND`` are intersected per column, in the order
    the columns are first met; every other conjunct comes back as it is.  The
    one walk over these shapes: the selectivity estimate multiplies the
    intervals' fractions, the planner's scan window is the narrowest of them.
    """
    intervals: dict[str, ColumnInterval] = {}
    others: list[ast.Expression] = []
    for predicate in predicates:
        touched = set()
        for node in ast.conjuncts(predicate):
            found = _conjunct_interval(node, statistics)
            if found is None:
                others.append(node)
                touched.add(None)
                continue
            name = found.column.name.lower()
            if name in intervals:
                intervals[name].narrow(found)
            else:
                intervals[name] = found
            touched.add(name)
        if len(touched) == 1 and None not in touched:
            intervals[touched.pop()].decided.append(predicate)
    return list(intervals.values()), others


def _conjunct_interval(node: ast.Expression, statistics) -> ColumnInterval | None:
    """The interval of one range conjunct over a column against constants;
    None for any other shape."""
    if isinstance(node, ast.Between) and not node.negated:
        column = _stats_column(node.operand, statistics)
        low = _numeric_constant(node.low, column)
        high = _numeric_constant(node.high, column)
        return None if low is None or high is None else ColumnInterval(column, low, high)
    if not isinstance(node, ast.Comparison) or node.quantifier is not None:
        return None
    column, operator, constant_node = _stats_column(node.left, statistics), \
        node.operator, node.right
    if column is None:
        column, operator, constant_node = _stats_column(node.right, statistics), \
            _FLIPPED.get(node.operator), node.left
    constant = _numeric_constant(constant_node, column)
    if constant is None:
        return None
    if operator in ("<", "<="):
        return ColumnInterval(column, high=constant, high_open=operator == "<")
    if operator in (">", ">="):
        return ColumnInterval(column, low=constant, low_open=operator == ">")
    if operator == "=" and column.type_name in _INTEGER_TYPES:
        return ColumnInterval(column, constant, constant)
    return None


def _estimate(node: ast.Expression, statistics: "TableStatistics") -> float:
    if isinstance(node, ast.BoolOp):
        if node.operator == "and":
            return _estimate_conjunction(node.operands, statistics)
        return min(1.0, sum(_estimate(operand, statistics) for operand in node.operands))
    if isinstance(node, ast.UnaryOp) and node.operator == "not":
        # Kleene NOT keeps the FALSE fraction; UNKNOWN rows pass neither
        # the predicate nor its negation, so 1 - estimate is conservative.
        return max(0.0, 1.0 - _estimate(node.operand, statistics))
    interval = _conjunct_interval(node, statistics)
    if interval is not None:
        return interval.fraction(statistics)
    if isinstance(node, ast.Comparison):
        return _estimate_comparison(node, statistics)
    if isinstance(node, ast.Between):  # negated, or a bound that is no constant
        interval = _conjunct_interval(ast.Between(node.operand, node.low, node.high),
                                      statistics)
        if interval is None:
            return _DEFAULT_SELECTIVITY
        return _non_null_fraction(interval.column, statistics) \
            * (1.0 - _range_fraction(interval.column, interval.low, interval.high))
    if isinstance(node, ast.InList):
        column = _stats_column(node.operand, statistics)
        if column is None or not column.distinct_estimate:
            return _DEFAULT_SELECTIVITY
        fraction = min(1.0, len(node.items) / column.distinct_estimate)
        if node.negated:
            fraction = 1.0 - fraction
        return fraction * _non_null_fraction(column, statistics)
    if isinstance(node, ast.Like):
        prefix = _like_prefix(node.pattern.value) \
            if isinstance(node.pattern, ast.Literal) else ""
        fraction = 0.15 if prefix else 0.5
        if node.negated:
            fraction = 1.0 - fraction
        column = _stats_column(node.operand, statistics)
        return fraction * _non_null_fraction(column, statistics)
    if isinstance(node, ast.IsNull):
        column = _stats_column(node.operand, statistics)
        if column is None or not statistics.row_count:
            return _DEFAULT_SELECTIVITY
        fraction = column.null_count / statistics.row_count
        return (1.0 - fraction) if node.negated else fraction
    return _DEFAULT_SELECTIVITY


def _estimate_comparison(node: ast.Comparison, statistics) -> float:
    if node.quantifier is not None:
        return _DEFAULT_SELECTIVITY
    column = _stats_column(node.left, statistics)
    if column is None:
        column = _stats_column(node.right, statistics)
    if column is None:
        return _DEFAULT_SELECTIVITY
    # a comparison is TRUE only on non-NULL operand rows: the null fraction
    # scales every estimate below (it is a first-class statistic here).
    non_null = _non_null_fraction(column, statistics)
    if node.operator == "=":
        if column.type_name == "str" or column.distinct_estimate:
            return non_null / max(column.distinct_estimate, 1)
        return _DEFAULT_SELECTIVITY
    if node.operator == "<>":
        return non_null * (1.0 - 1.0 / max(column.distinct_estimate, 1))
    return _DEFAULT_SELECTIVITY  # a range against what is no constant


def _stats_column(node: ast.Expression, statistics):
    if isinstance(node, ast.ColumnRef) and statistics is not None:
        return statistics.column(node.name)
    return None


def _non_null_fraction(column, statistics) -> float:
    """Fraction of the column's rows that carry a value (1.0 when unknown)."""
    if column is None or statistics is None or not statistics.row_count \
            or not column.null_count:
        return 1.0
    return max(0.0, 1.0 - column.null_count / statistics.row_count)


def _numeric_constant(node: ast.Expression, column) -> int | float | None:
    """Constant of ``node`` on a numeric/date column's encoded scale, exactly:
    a day ordinal for a date column (against a date literal, an ISO string or
    ``date +/- interval``, nothing else compares with a date), the literal's
    own int or finite float for a numeric one."""
    if column is None or column.type_name == "str":
        return None
    if column.type_name == "date":
        if isinstance(node, ast.DateLiteral):
            return date_to_ordinal(node.value)
        if isinstance(node, ast.Literal) and isinstance(node.value, str):
            try:
                return date_to_ordinal(node.value)
            except Exception:
                return None
        return _fold_date_interval(node)
    if isinstance(node, ast.Literal):
        value = node.value
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and math.isfinite(value):
            return value
    return None


def _range_fraction(column, low: float | None, high: float | None) -> float:
    """Fraction of the column's [min, max] span covered by [low, high]."""
    if column.min_value is None or column.max_value is None:
        return _DEFAULT_SELECTIVITY
    span = float(column.max_value) - float(column.min_value)
    if span <= 0:
        return 1.0
    start = float(column.min_value) if low is None else max(low, float(column.min_value))
    stop = float(column.max_value) if high is None else min(high, float(column.max_value))
    if stop <= start:
        return 0.0
    return (stop - start) / span
