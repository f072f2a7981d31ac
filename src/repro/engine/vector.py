"""Column-at-a-time (vectorised) expression evaluation over numpy arrays.

The evaluator mirrors :mod:`repro.engine.expression` but operates on whole
columns at once.  Date columns are represented as ``int64`` day ordinals
(days since the Unix epoch); date literals are converted to the same
representation, so comparisons and day-granularity arithmetic stay in the
integer domain.

NULL handling follows :mod:`repro.engine.mask`: nullable typed columns
arrive from storage as :class:`~repro.engine.mask.Nullable` ``(values,
validity)`` pairs and stay typed through the operators (bulk compute over
the full array, validity combined separately); predicates evaluate to
Kleene three-valued results (:class:`~repro.engine.mask.Kleene`), so
``NOT`` / ``AND`` / ``OR`` over NULL operands match the row engine's
three-valued semantics exactly.  Nullable *string* columns still use object
arrays holding ``None`` -- string kernels iterate Python values anyway --
and every primitive below accepts both representations.

Expressions the vectorised evaluator cannot handle (nested subqueries,
correlated references) raise :class:`VectorFallback`; the column executor
catches it and evaluates that particular predicate row-by-row, which mirrors
how vectorised engines punt on non-vectorisable operators.
"""

from __future__ import annotations

import datetime
import operator as _operator
from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.expression import compare_values, in_members
from repro.engine.mask import (
    Kleene,
    Nullable,
    as_objects,
    combine_valid,
    data_of,
    is_array,
    kleene_and,
    kleene_not,
    kleene_or,
    none_positions,
    truth_mask,
    wrap_valid,
)
from repro.engine.planner import ColumnInfo, Layout
from repro.engine.types import (
    add_interval,
    date_to_ordinal,
    like_to_predicate,
    ordinal_to_date,
    to_date,
)
from repro.errors import ExecutionError
from repro.obs.metrics import count as count_metric
from repro.sqlparser import ast


#: in-band NULL of a plain int64 day-ordinal column.
_DATE_NULL = int(np.iinfo(np.int64).min)
_EPOCH_ORDINAL = ordinal_to_date(0).toordinal()


class VectorFallback(Exception):
    """Raised when an expression cannot be evaluated column-at-a-time."""


# ---------------------------------------------------------------------------
# NULL-aware vectorised primitives
#
# Shared by the vectorised interpreter below and the compiled column kernels
# (repro.engine.compile): one implementation of each operator's three-valued
# semantics.  Bulk operands arrive as plain typed arrays (no NULLs),
# Nullable (values, validity) pairs, or object arrays holding None (strings
# and fallback outputs); scalar NULL is Python None.
# ---------------------------------------------------------------------------

_NUMPY_CMP: dict[str, Callable] = {
    "=": _operator.eq,
    "<>": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}

_PY_ARITH: dict[str, Callable] = {
    "+": _operator.add,
    "-": _operator.sub,
    "*": _operator.mul,
    "/": _operator.truediv,
    "%": _operator.mod,
}


def compare_arrays(operator: str, left: Any, right: Any) -> Any:
    """Three-valued comparison over bulk operands.

    NULL-free typed inputs come back as plain boolean arrays (the numpy
    fast path); any nullability -- Nullable operands, object arrays with
    None, a scalar NULL comparand -- yields a :class:`Kleene` mask whose
    invalid rows are UNKNOWN.  Scalar-only input returns a scalar
    (None = UNKNOWN), matching the row engine's ``compare_values``.
    """
    if not is_array(left) and not is_array(right):
        return compare_values(operator, left, right)
    if left is None or right is None:
        return Kleene.unknown(len(left) if is_array(left) else len(right))
    compare = _NUMPY_CMP[operator]
    left_values, left_valid = data_of(left)
    right_values, right_valid = data_of(right)
    try:
        result = compare(left_values, right_values)
    except TypeError:
        return _compare_elementwise(operator, left, right)
    valid = combine_valid(left_valid, right_valid)
    if valid is None:
        return result
    if not isinstance(result, np.ndarray):  # pragma: no cover - defensive
        result = np.full(len(valid), bool(result), dtype=bool)
    return Kleene(result.astype(bool), valid)


def _compare_elementwise(operator: str, left: Any, right: Any) -> Any:
    """Python-loop comparison (mixed types numpy refuses to compare bulk).

    Iterating a Nullable or an object array yields ``None`` at NULL
    positions; those rows become UNKNOWN.
    """
    left_array = is_array(left)
    right_array = is_array(right)
    length = len(left) if left_array else len(right)
    left_values = left if left_array else [left] * length
    right_values = right if right_array else [right] * length
    truth = np.zeros(length, dtype=bool)
    valid = np.ones(length, dtype=bool)
    for index, (a, b) in enumerate(zip(left_values, right_values)):
        if a is None or b is None:
            valid[index] = False
        else:
            truth[index] = bool(compare_values(operator, a, b))
    if valid.all():
        return truth
    return Kleene(truth, valid)


def arith_arrays(operator: str, left: Any, right: Any) -> Any:
    """NULL-propagating arithmetic over any mix of operand representations.

    Typed Nullable operands stay typed: the operation runs over the full
    values array (divisors sanitised at invalid slots so sentinel zeroes
    cannot fault) and the validity masks AND together.  Object arrays fall
    back to an elementwise walk, as before.
    """
    operation = _PY_ARITH[operator]
    if not is_array(left) and not is_array(right):
        if left is None or right is None:
            return None
        try:
            return operation(left, right)
        except ZeroDivisionError:
            raise ExecutionError("division by zero") from None
    if left is None or right is None:
        length = len(left) if is_array(left) else len(right)
        return Nullable(np.zeros(length, dtype=np.float64),
                        np.zeros(length, dtype=bool))
    if isinstance(left, (Nullable, Kleene)) or isinstance(right, (Nullable, Kleene)):
        left_values, left_valid = data_of(left)
        right_values, right_valid = data_of(right)
        if getattr(left_values, "dtype", None) == object \
                or getattr(right_values, "dtype", None) == object:
            return _arith_elementwise(operation, left, right)
        valid = combine_valid(left_valid, right_valid)
        if operator in ("/", "%"):
            # a zero divisor must fault exactly where the row engine (and the
            # object-array path) would: on rows where both operands are
            # present.  Invalid-slot sentinels are sanitised to 1 instead.
            if isinstance(right_values, np.ndarray):
                zero = right_values == 0
                if (zero & valid).any() if valid is not None else zero.any():
                    raise ExecutionError("division by zero")
                if right_valid is not None:
                    right_values = np.where(right_valid, right_values, 1)
            elif right_values == 0 and (valid is None or valid.any()):
                raise ExecutionError("division by zero")
        with np.errstate(all="ignore"):
            result = operation(left_values, right_values)
        return wrap_valid(result, valid)
    try:
        return operation(left, right)
    except TypeError:
        pass
    except ZeroDivisionError:
        # object arrays run Python operators elementwise inside numpy
        raise ExecutionError("division by zero") from None
    return _arith_elementwise(operation, left, right)


def _arith_elementwise(operation: Callable, left: Any, right: Any) -> np.ndarray:
    length = len(left) if is_array(left) else len(right)
    left_values = left if is_array(left) else [left] * length
    right_values = right if is_array(right) else [right] * length
    out = np.empty(length, dtype=object)
    try:
        for index, (a, b) in enumerate(zip(left_values, right_values)):
            out[index] = None if a is None or b is None else operation(a, b)
    except ZeroDivisionError:
        raise ExecutionError("division by zero") from None
    return out


def map_object_values(values: np.ndarray, transform: Callable) -> np.ndarray:
    """Elementwise NULL-propagating map over an object array."""
    out = np.empty(len(values), dtype=object)
    for index, value in enumerate(values):
        out[index] = None if value is None else transform(value)
    return out


def negate_values(value: Any) -> Any:
    """Unary minus with NULL propagation (scalars and bulk operands)."""
    if isinstance(value, Nullable):
        return -value
    try:
        return -value
    except TypeError:
        if not isinstance(value, np.ndarray):
            return None
        out = np.empty(len(value), dtype=object)
        for index, item in enumerate(value):
            out[index] = None if item is None else -item
        return out


def cast_array(array: "np.ndarray | Nullable", convert: Callable) -> Any:
    """Apply a dtype cast, keeping NULL positions NULL.

    Nullable inputs cast their typed values in bulk and keep the validity
    mask.  For object arrays the NULL check must run *before* the bulk
    cast: numpy's object->float64 ``astype`` happily converts ``None`` to
    NaN without raising, which would silently turn NULL into a value the
    row engine does not produce.
    """
    if isinstance(array, Nullable):
        return Nullable(convert(array.values), array.valid)
    if array.dtype == object:
        nulls = none_positions(array)
        if nulls.any():
            out = np.empty(len(array), dtype=object)
            for index, value in enumerate(array):
                out[index] = None if value is None else convert(np.array([value]))[0]
            return out
    return convert(array)


# -- shared predicate kernels -------------------------------------------------


def isnull_mask(value: Any, length: int, negated: bool) -> np.ndarray:
    """IS [NOT] NULL over any operand representation (always two-valued)."""
    if isinstance(value, Nullable):
        mask = ~value.valid
        if value.values.dtype == np.float64:
            # NaN is the in-band NULL of plain float arrays; a concatenation
            # of the two representations (outer-join padding) can carry both.
            mask = mask | np.isnan(value.values)
    elif isinstance(value, Kleene):
        mask = ~value.valid
    elif isinstance(value, np.ndarray):
        if value.dtype == np.float64:
            mask = np.isnan(value)
        elif value.dtype == object:
            mask = none_positions(value)
        else:
            mask = np.zeros(len(value), dtype=bool)
    else:
        mask = np.full(length, value is None, dtype=bool)
    return ~mask if negated else mask


def like_mask(matcher: Callable[[Any], bool], operand: Any, negated: bool,
              length: int) -> Any:
    """Three-valued LIKE: NULL operands are UNKNOWN, negated or not."""
    if isinstance(operand, Nullable):
        valid = operand.valid
        matches = np.fromiter(
            (bool(ok) and matcher(value)
             for value, ok in zip(operand.values, valid)),
            dtype=bool, count=len(valid))
        result: Any = Kleene(matches, valid)
    elif isinstance(operand, np.ndarray):
        matches = np.fromiter((matcher(value) for value in operand), dtype=bool,
                              count=len(operand))
        if operand.dtype == object:
            nulls = none_positions(operand)
            result = Kleene(matches, ~nulls) if nulls.any() else matches
        else:
            result = matches
    elif operand is None:
        return None
    else:
        result = matcher(operand)
    return kleene_not(result) if negated else result


def in_list_mask(operand: Any, members: list, has_null_member: bool,
                 negated: bool, length: int,
                 member_cache: dict | None = None) -> Any:
    """Three-valued IN over a constant member list.

    ``members`` excludes NULL literals (``x = NULL`` can never be TRUE, and
    ``np.isin`` would match a NULL operand by identity); ``has_null_member``
    records that the original list contained one, which turns every
    non-match into UNKNOWN.  ``member_cache`` memoises the dtype-converted
    member array per operand dtype (compiled kernels reuse it per call).
    """
    if is_array(operand) and not isinstance(operand, Kleene):
        values, valid = data_of(operand)
        member_array = None if member_cache is None \
            else member_cache.get(values.dtype)
        if member_array is None:
            member_array = np.array(members, dtype=values.dtype)
            if member_cache is not None:
                member_cache[values.dtype] = member_array
        found = np.isin(values, member_array)
        truth = found if valid is None else (found & valid)
        if has_null_member:
            result: Any = Kleene(truth, truth)  # non-match is UNKNOWN
        elif valid is None:
            result = found
        else:
            result = Kleene(truth, valid)
        return kleene_not(result) if negated else result
    if operand is None:
        return None
    return in_members(operand,
                      members + [None] if has_null_member else members, negated)


def extract_date_field(value: Any, field_name: str) -> Any:
    """EXTRACT(year/month/day) over ordinals in any bulk representation."""
    if isinstance(value, Nullable):
        return Nullable(_extract_typed(value.values, field_name), value.valid)
    if not isinstance(value, np.ndarray):
        if value is None:
            return None
        date_value = ordinal_to_date(int(value))
        return {"year": date_value.year, "month": date_value.month,
                "day": date_value.day}[field_name]
    if value.dtype == object:
        return extract_object_date_field(value, field_name)
    return _extract_typed(value, field_name)


def _extract_typed(ordinals: np.ndarray, field_name: str) -> np.ndarray:
    dates = ordinals.astype("datetime64[D]")
    if field_name == "year":
        return dates.astype("datetime64[Y]").astype(np.int64) + 1970
    if field_name == "month":
        years = dates.astype("datetime64[Y]")
        return (dates.astype("datetime64[M]") - years.astype("datetime64[M]")).astype(
            np.int64) + 1
    if field_name == "day":
        months = dates.astype("datetime64[M]")
        return (dates - months.astype("datetime64[D]")).astype(np.int64) + 1
    raise ExecutionError(f"unsupported EXTRACT field '{field_name}'")


def extract_object_date_field(values: np.ndarray, field_name: str) -> np.ndarray:
    """NULL-propagating year/month/day extraction over object ordinal arrays."""
    out = np.empty(len(values), dtype=object)
    for index, value in enumerate(values):
        out[index] = None if value is None else getattr(
            ordinal_to_date(int(value)), field_name)
    return out


# -- shared scalar-function kernels -------------------------------------------


def abs_values(value: Any) -> Any:
    if isinstance(value, Nullable):
        return Nullable(np.abs(value.values), value.valid)
    if isinstance(value, np.ndarray) and value.dtype == object:
        return map_object_values(value, abs)
    return np.abs(value)


def round_values(value: Any, digits: int) -> Any:
    if isinstance(value, Nullable):
        return Nullable(np.round(value.values, digits), value.valid)
    if isinstance(value, np.ndarray) and value.dtype == object:
        return map_object_values(value, lambda item: round(item, digits))
    return np.round(value, digits)


def length_values(value: Any) -> Any:
    if is_array(value):
        lengths = [None if item is None else len(str(item))
                   for item in as_objects(value)]
        if any(item is None for item in lengths):
            return np.array(lengths, dtype=object)
        return np.array(lengths, dtype=np.int64)
    return len(str(value))


def map_string_values(value: Any, transform: Callable[[str], str]) -> Any:
    if is_array(value):
        return map_object_values(as_objects(value),
                                 lambda item: transform(str(item)))
    return transform(str(value))


def case_branch_values(value: Any) -> Any:
    """Normalise a CASE branch result for object-array scatter assignment."""
    if isinstance(value, (Nullable, Kleene)):
        return as_objects(value)
    return value


def collapse_case_result(result: np.ndarray) -> np.ndarray:
    """Collapse a CASE object result to a numeric array when (and only when) safe.

    All-integer results stay ``int64`` (so ``sum(case ... then 1 else 0 end)``
    is an integer, as on the row engine); anything else numeric is float64.
    The NULL check must run first: numpy's object->float64 conversion
    silently turns ``None`` into NaN, which the row engine never produces.
    """
    if none_positions(result).any():
        return result
    try:
        collapsed = np.array(result.tolist())
    except (TypeError, ValueError, OverflowError):
        return result
    if collapsed.dtype.kind == "i":
        return collapsed.astype(np.int64, copy=False)
    if collapsed.dtype.kind in "fb":
        return collapsed.astype(np.float64, copy=False)
    return result


class ColFrame:
    """An intermediate relation in column-major (numpy) form.

    Arrays may be plain ndarrays, :class:`Nullable` pairs, or object arrays;
    all three support the gather / scalar indexing the frame uses.
    ``arrays`` is any sequence: a join hands in one that gathers a column
    the first time it is read.  ``codes``, when present, runs parallel to
    ``arrays`` and holds the ``int32`` dictionary codes (-1 = NULL) of the
    columns that still are a dictionary-encoded base column (None for the
    others); grouping keys on those codes instead of the strings.
    """

    def __init__(self, columns: list[ColumnInfo], arrays: Sequence[np.ndarray],
                 length: int, codes: Sequence[np.ndarray | None] | None = None,
                 layout: Layout | None = None):
        # frame constructions are counted on the active query's metrics
        # context ("frame.materialisations"): the executor is asserted (in
        # tests) to allocate no intermediate frame per predicate, and
        # per-query attribution keeps the probe thread-safe under the
        # batched driver.
        count_metric("frame.materialisations")
        self.columns = columns
        self.arrays = arrays
        self.length = length
        self.codes = codes
        #: the position lookup over ``columns``' bindings and names.  Scans
        #: and joins are handed the one their block's plan owns; any other
        #: frame builds one the first time a reference is resolved in it.
        self._layout = layout

    @property
    def layout(self) -> Layout:
        if self._layout is None:
            self._layout = Layout(self.columns, ambiguous="raise")
        return self._layout

    def position(self, ref: ast.ColumnRef) -> int | None:
        """Column position of ``ref`` in this frame, or None when absent.

        An unqualified name matching several bindings is a user error a real
        engine reports rather than silently resolving to the first match.
        """
        return self.layout.position(ref)

    def array(self, position: int) -> np.ndarray:
        return self.arrays[position]

    def take(self, indexes: np.ndarray) -> "ColFrame":
        """Return a new frame with the rows selected by ``indexes``."""
        arrays = [array[indexes] for array in self.arrays]
        return ColFrame(columns=self.columns, arrays=arrays, length=len(indexes),
                        layout=self._layout)

    def row(self, index: int) -> tuple:
        """Materialise one row (dates converted back to :class:`datetime.date`)."""
        values = []
        for column, array in zip(self.columns, self.arrays):
            value = array[index]
            values.append(_to_python(value, column.type_name))
        return tuple(values)

    def rows(self, index: "np.ndarray | slice | None" = None) -> list[tuple]:
        """Materialise the rows (all, or those ``index`` picks, in its order).

        Result delivery: one ``tolist`` per column and a ``zip``, giving the
        values :meth:`row` gives cell by cell.
        """
        return list(zip(*[
            _python_values(array if index is None else array[index], column.type_name)
            for column, array in zip(self.columns, self.arrays)]))


def concat_values(left: Any, right: Any) -> Any:
    """SQL ``||`` over columns and/or scalars (shared with the kernel compiler).

    NULL propagates: a ``None`` on either side yields NULL, matching the row
    engine, instead of concatenating the string ``'None'``.
    """
    if isinstance(left, (Nullable, Kleene)):
        left = as_objects(left)
    if isinstance(right, (Nullable, Kleene)):
        right = as_objects(right)
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        length = len(left) if isinstance(left, np.ndarray) else len(right)
        left_values = left if isinstance(left, np.ndarray) else [left] * length
        right_values = right if isinstance(right, np.ndarray) else [right] * length
        return np.array(
            [None if a is None or b is None else str(a) + str(b)
             for a, b in zip(left_values, right_values)],
            dtype=object)
    if left is None or right is None:
        return None
    return str(left) + str(right)


def _python_values(array: Any, type_name: str) -> list:
    """One column as python values: what :func:`_to_python` gives per cell."""
    values, valid = (array.values, array.valid) if isinstance(array, Nullable) \
        else (array, None)
    if values.dtype == object:
        items = values.tolist()
        if type_name == "date" or any(issubclass(kind, np.generic)
                                      for kind in set(map(type, items))):
            items = [_to_python(item, type_name) for item in items]
    elif type_name == "date" and values.dtype.kind == "i":
        present = values != _DATE_NULL
        if valid is not None:
            present &= valid
        valid = present
        days = np.where(present, values, 0) + _EPOCH_ORDINAL
        items = list(map(datetime.date.fromordinal, days.tolist()))
    else:
        items = values.tolist()
    if valid is not None:
        for position in np.flatnonzero(~valid).tolist():
            items[position] = None
    return items


def _to_python(value: Any, type_name: str) -> Any:
    if type_name == "date":
        if isinstance(value, (int, np.integer)):
            if int(value) == np.iinfo(np.int64).min:
                return None
            return ordinal_to_date(int(value))
        return value
    if isinstance(value, np.generic):
        return value.item()
    return value


class VectorEvaluator:
    """Evaluates expressions to numpy arrays over one :class:`ColFrame`.

    ``overflow_guard`` reproduces the behaviour the paper attributes to
    MonetDB when evaluating Q1's ``sum_charge`` expression: every arithmetic
    intermediate is cast to a wider type and fully materialised to guard
    against overflow, which makes expression-heavy projections measurably
    more expensive.  It is exposed as an engine option so the platform can
    compare two "versions" of the column engine.
    """

    def __init__(self, frame: ColFrame, overflow_guard: bool = False):
        self.frame = frame
        self.overflow_guard = overflow_guard

    # -- helpers ---------------------------------------------------------------

    def _broadcast(self, value: Any) -> np.ndarray | Any:
        return value

    def evaluate(self, expression: ast.Expression) -> Any:
        """Evaluate ``expression``; returns an array, a mask, or a scalar."""
        if isinstance(expression, ast.Literal):
            return expression.value
        if isinstance(expression, ast.DateLiteral):
            return date_to_ordinal(expression.value)
        if isinstance(expression, ast.IntervalLiteral):
            return expression
        if isinstance(expression, ast.ColumnRef):
            position = self.frame.position(expression)
            if position is None:
                raise VectorFallback(f"column '{expression.qualified}' is not local")
            return self.frame.array(position)
        if isinstance(expression, ast.Star):
            return np.ones(self.frame.length, dtype=np.int64)
        if isinstance(expression, ast.UnaryOp):
            return self._unary(expression)
        if isinstance(expression, ast.BinaryOp):
            return self._binary(expression)
        if isinstance(expression, ast.BoolOp):
            return self._bool(expression)
        if isinstance(expression, ast.Comparison):
            return self._comparison(expression)
        if isinstance(expression, ast.IsNull):
            return self._isnull(expression)
        if isinstance(expression, ast.Between):
            return self._between(expression)
        if isinstance(expression, ast.Like):
            return self._like(expression)
        if isinstance(expression, ast.InList):
            return self._in_list(expression)
        if isinstance(expression, ast.CaseWhen):
            return self._case(expression)
        if isinstance(expression, ast.Cast):
            return self._cast(expression)
        if isinstance(expression, ast.Extract):
            return self._extract(expression)
        if isinstance(expression, ast.Substring):
            return self._substring(expression)
        if isinstance(expression, ast.FunctionCall):
            return self._function(expression)
        if isinstance(expression, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
            raise VectorFallback("subqueries require row-at-a-time evaluation")
        raise VectorFallback(f"unsupported expression node {type(expression).__name__}")

    def evaluate_predicate(self, expression: ast.Expression) -> np.ndarray:
        """Evaluate a predicate to its is-TRUE boolean mask over the frame.

        UNKNOWN collapses to False here -- the SQL filter/HAVING semantics.
        Interior boolean structure (NOT/AND/OR) keeps the full three-valued
        result until this final collapse.
        """
        return truth_mask(self.evaluate(expression), self.frame.length)

    # -- operators ----------------------------------------------------------------

    def _unary(self, node: ast.UnaryOp) -> Any:
        operand = self.evaluate(node.operand)
        if node.operator == "not":
            return kleene_not(operand)
        if node.operator != "-":
            return operand
        return negate_values(operand)

    def _binary(self, node: ast.BinaryOp) -> Any:
        left = self.evaluate(node.left)
        right = self.evaluate(node.right)
        operator = node.operator
        if isinstance(right, ast.IntervalLiteral) or isinstance(left, ast.IntervalLiteral):
            return self._interval_arithmetic(node, left, right)
        if self.overflow_guard and operator in ("+", "-", "*"):
            # widen and materialise every intermediate, as an overflow-guarded
            # engine version would.
            left = widen_guarded(left)
            right = widen_guarded(right)
        if operator == "||":
            return self._concat(left, right)
        if operator not in _PY_ARITH:
            raise ExecutionError(f"unsupported binary operator '{operator}'")
        return arith_arrays(operator, left, right)

    def _concat(self, left: Any, right: Any) -> Any:
        return concat_values(left, right)

    def _interval_arithmetic(self, node: ast.BinaryOp, left: Any, right: Any) -> Any:
        if isinstance(right, ast.IntervalLiteral) and isinstance(left, (int, np.integer)):
            # literal date +/- interval: compute exactly in the date domain.
            base = to_date(_ordinal_to_iso(int(left)))
            amount = right.value if node.operator == "+" else -right.value
            return date_to_ordinal(add_interval(base, amount, right.unit))
        if isinstance(right, ast.IntervalLiteral) and is_array(left):
            if right.unit in ("day", "week"):
                days = right.value * (7 if right.unit == "week" else 1)
                return left + (days if node.operator == "+" else -days)
            raise VectorFallback("month/year interval arithmetic on a column")
        raise VectorFallback("unsupported interval arithmetic form")

    def _bool(self, node: ast.BoolOp) -> Any:
        combine = kleene_and if node.operator == "and" else kleene_or
        combined = self.evaluate(node.operands[0])
        for operand in node.operands[1:]:
            combined = combine(combined, self.evaluate(operand))
        return combined

    def _comparison(self, node: ast.Comparison) -> Any:
        if node.quantifier is not None:
            raise VectorFallback("quantified comparisons require row-at-a-time evaluation")
        left = self.evaluate(node.left)
        right = self.evaluate(node.right)
        left, right = _align_date_operands(node.left, node.right, left, right, self.frame)
        operator = node.operator
        if operator not in _NUMPY_CMP:
            raise ExecutionError(f"unsupported comparison operator '{operator}'")
        return compare_arrays(operator, left, right)

    def _isnull(self, node: ast.IsNull) -> Any:
        operand = self.evaluate(node.operand)
        return isnull_mask(operand, self.frame.length, node.negated)

    def _between(self, node: ast.Between) -> Any:
        operand = self.evaluate(node.operand)
        low = self.evaluate(node.low)
        high = self.evaluate(node.high)
        operand, low = _align_date_operands(node.operand, node.low, operand, low, self.frame)
        operand, high = _align_date_operands(node.operand, node.high, operand, high, self.frame)
        inside = kleene_and(compare_arrays(">=", operand, low),
                            compare_arrays("<=", operand, high))
        # NOT BETWEEN over a NULL operand or bound stays UNKNOWN (Kleene NOT).
        return kleene_not(inside) if node.negated else inside

    def _like(self, node: ast.Like) -> Any:
        operand = self.evaluate(node.operand)
        pattern = self.evaluate(node.pattern)
        if pattern is None:
            return None  # NULL pattern: UNKNOWN everywhere
        predicate = like_to_predicate(str(pattern))
        return like_mask(predicate, operand, node.negated, self.frame.length)

    def _in_list(self, node: ast.InList) -> Any:
        operand = self.evaluate(node.operand)
        values = [self.evaluate(item) for item in node.items]
        if any(is_array(value) for value in values):
            raise VectorFallback("IN list with non-constant members")
        members = [value for value in values if value is not None]
        has_null_member = len(members) != len(values)
        return in_list_mask(operand, members, has_null_member, node.negated,
                            self.frame.length)

    def _case(self, node: ast.CaseWhen) -> Any:
        default = self.evaluate(node.default) if node.default is not None else None
        default = case_branch_values(default)
        result = np.full(self.frame.length, default, dtype=object) \
            if not isinstance(default, np.ndarray) else default.astype(object)
        decided = np.zeros(self.frame.length, dtype=bool)
        for condition, branch in node.branches:
            mask = self.evaluate_predicate(condition) & ~decided
            value = case_branch_values(self.evaluate(branch))
            if isinstance(value, np.ndarray):
                result[mask] = value[mask]
            else:
                result[mask] = value
            decided |= mask
        return collapse_case_result(result)

    def _cast(self, node: ast.Cast) -> Any:
        operand = self.evaluate(node.operand)
        target = node.type_name.lower()
        if isinstance(operand, (np.ndarray, Nullable)):
            if target.startswith(("int", "bigint", "smallint")):
                return cast_array(operand, lambda array: array.astype(np.int64))
            if target.startswith(("float", "double", "real", "decimal", "numeric")):
                return cast_array(operand, lambda array: array.astype(np.float64))
            # string targets need the row value domain (a date column is
            # int64 ordinals here; str() of those would not match the row
            # engine's '2020-01-01'), so they take the row-at-a-time path.
            raise VectorFallback(f"CAST to '{node.type_name}' requires row semantics")
        return operand

    def _extract(self, node: ast.Extract) -> Any:
        operand = self.evaluate(node.operand)
        if node.field_name not in ("year", "month", "day"):
            raise ExecutionError(f"unsupported EXTRACT field '{node.field_name}'")
        return extract_date_field(operand, node.field_name)

    def _substring(self, node: ast.Substring) -> Any:
        operand = self.evaluate(node.operand)
        start = int(self.evaluate(node.start))
        length = int(self.evaluate(node.length)) if node.length is not None else None
        begin = max(start - 1, 0)
        end = None if length is None else begin + length

        def slice_one(value: Any) -> str | None:
            if value is None:
                return None  # row semantics: SUBSTRING over NULL is NULL
            text = str(value)
            return text[begin:end] if end is not None else text[begin:]

        if is_array(operand):
            return np.array([slice_one(value) for value in as_objects(operand)],
                            dtype=object)
        return slice_one(operand)

    def _function(self, node: ast.FunctionCall) -> Any:
        name = node.name.lower()
        if node.is_aggregate:
            raise ExecutionError(
                f"aggregate function '{name}' used outside an aggregation context"
            )
        arguments = [self.evaluate(argument) for argument in node.arguments]
        if any(argument is None for argument in arguments):
            return None  # row semantics: any NULL argument yields NULL
        if name == "abs":
            return abs_values(arguments[0])
        if name == "round":
            digits = int(arguments[1]) if len(arguments) > 1 else 0
            return round_values(arguments[0], digits)
        if name == "length":
            return length_values(arguments[0])
        if name in ("lower", "upper"):
            transform = str.lower if name == "lower" else str.upper
            return map_string_values(arguments[0], transform)
        raise VectorFallback(f"function '{name}' has no vectorised implementation")


def widen_guarded(value: Any) -> Any:
    """Overflow-guard widening of one arithmetic operand (shared with the
    kernel compiler)."""
    if isinstance(value, Nullable):
        return value.astype(np.longdouble)
    if isinstance(value, np.ndarray) and value.dtype != object:
        return np.ascontiguousarray(value.astype(np.longdouble))
    return value


def _ordinal_to_iso(ordinal: int) -> str:
    from repro.engine.types import ordinal_to_date

    return ordinal_to_date(ordinal).isoformat()


def _align_date_operands(left_node: ast.Expression, right_node: ast.Expression,
                         left: Any, right: Any, frame: ColFrame) -> tuple[Any, Any]:
    """Make sure string dates compared against date-ordinal columns line up.

    When one side is a date column (int64 ordinals) and the other a string
    literal (e.g. a grammar-injected ``'1995-03-15'``), the string side is
    converted to an ordinal.
    """
    def is_date_column(node: ast.Expression) -> bool:
        if isinstance(node, ast.ColumnRef):
            position = frame.position(node)
            if position is not None:
                return frame.columns[position].type_name == "date"
        return False

    if is_date_column(left_node) and isinstance(right, str):
        right = date_to_ordinal(right)
    if is_date_column(right_node) and isinstance(left, str):
        left = date_to_ordinal(left)
    return left, right
