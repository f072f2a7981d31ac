"""NULL-aware column primitives and :class:`ColFrame`, the column engine's
intermediate relation.

The compiled column kernels of :mod:`repro.engine.compile` lower every
operator onto the functions here, so each operator's three-valued semantics
has one implementation.  Date columns are represented as ``int64`` day
ordinals (days since the Unix epoch); date literals are converted to the same
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
"""

from __future__ import annotations

import datetime
import operator as _operator
from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.expression import compare_values, in_members
from repro.engine.keys import Ranked
from repro.engine.mask import (
    Kleene,
    Nullable,
    as_objects,
    combine_valid,
    data_of,
    is_array,
    kleene_not,
    none_positions,
    wrap_valid,
)
from repro.engine.planner import ColumnInfo, Layout
from repro.engine.types import ordinal_to_date
from repro.errors import ExecutionError
from repro.obs.metrics import count as count_metric
from repro.sqlparser import ast


#: in-band NULL of a plain int64 day-ordinal column.
_DATE_NULL = int(np.iinfo(np.int64).min)
_EPOCH_ORDINAL = ordinal_to_date(0).toordinal()


# ---------------------------------------------------------------------------
# NULL-aware vectorised primitives
#
# Bulk operands arrive as plain typed arrays (no NULLs),
# Nullable (values, validity) pairs, or object arrays holding None (strings
# and fallback outputs); scalar NULL is Python None.
# ---------------------------------------------------------------------------

NUMPY_COMPARISONS: dict[str, Callable] = {
    "=": _operator.eq,
    "<>": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}

ARITHMETIC: dict[str, Callable] = {
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
    compare = NUMPY_COMPARISONS[operator]
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
    operation = ARITHMETIC[operator]
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
    if operator in ("/", "%") and zero_divisor(left, right):
        raise ExecutionError("division by zero")
    try:
        return operation(left, right)
    except TypeError:
        pass
    except ZeroDivisionError:
        # object arrays run Python operators elementwise inside numpy
        raise ExecutionError("division by zero") from None
    return _arith_elementwise(operation, left, right)


def zero_divisor(left: Any, right: Any) -> bool:
    """Whether a division of NULL-free (or object) operands meets a 0 divisor
    beside a dividend that holds a value -- where the row engine raises.  A
    plain float array's NaN is its NULL, and an object array's None."""
    zero = right == 0
    if not (zero.any() if isinstance(zero, np.ndarray) else zero):
        return False
    if not isinstance(left, np.ndarray):
        return True
    present = ~np.isnan(left) if left.dtype == np.float64 else ~none_positions(left) \
        if left.dtype == object else np.ones(len(left), dtype=bool)
    return bool((zero & present).any())


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


#: the float64 range int64 holds: ``[-2**63, 2**63)``.
_INT64_FLOATS = (-2.0 ** 63, 2.0 ** 63)


def cast_integers(values: np.ndarray) -> np.ndarray:
    """CAST AS INT of NULL-free ``values`` as the row engine's ``int()`` casts
    each: toward zero, ``int64`` where every value fits, else exact Python
    integers (an object array); a NaN or an infinity raises what ``int()``
    raises."""
    if values.dtype.kind in "iub":
        return values.astype(np.int64)
    if values.dtype.kind == "f":
        low, high = _INT64_FLOATS
        if ((values >= low) & (values < high)).all():  # NaN is in no range
            return values.astype(np.int64)
    integers = [int(value) for value in values.tolist()]
    try:
        return np.array(integers, dtype=np.int64)
    except OverflowError:
        out = np.empty(len(integers), dtype=object)
        out[:] = integers
        return out


def cast_array(array: "np.ndarray | Nullable", convert: Callable) -> Any:
    """Apply a dtype cast, keeping NULL positions NULL.

    Nullable inputs cast their typed values in bulk and keep the validity
    mask; only the valid entries are cast (a float NULL's NaN sentinel does
    not reach an integer cast), and a cast that had to leave the dtype
    (:func:`cast_integers` beyond ``int64``) comes back as objects with
    ``None`` at the NULLs.  For object arrays the NULL check must run
    *before* the bulk cast: numpy's object->float64 ``astype`` happily
    converts ``None`` to NaN without raising, which would silently turn
    NULL into a value the row engine does not produce.
    """
    if isinstance(array, Nullable):
        values, valid = array.values, array.valid
        converted = convert(np.where(valid, values, 0) if values.dtype.kind == "f"
                            else values)
        if converted.dtype == object:
            converted[~valid] = None
            return converted
        return Nullable(converted, valid)
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
        matches = np.fromiter(map(matcher, operand), dtype=bool, count=len(operand))
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
    """ROUND as the row engine's ``round``, which rounds correctly: numpy's
    scales by ``10 ** digits`` first and lands on the other side of a tie
    for about one value in 150 (``378.85``)."""
    if isinstance(value, Nullable):
        return Nullable(round_values(value.values, digits), value.valid)
    if not isinstance(value, np.ndarray):
        return round(value.item() if isinstance(value, np.generic) else value, digits)
    if value.dtype == object:
        return map_object_values(value, lambda item: round(item, digits))
    if value.dtype.kind == "f":
        return np.array([round(item, digits) for item in value.tolist()], dtype=np.float64)
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
    if np.logical_or.reduce(none_positions(result)):
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
    the first time it is read, a projection one that decodes a coded column
    the first time it is read (:class:`DecodedColumns`).  ``codes``, when
    present, runs parallel to ``arrays`` and holds the ``int32`` dictionary
    codes (-1 = NULL) of the columns that still are a dictionary-encoded
    base column (None for the others), and ``dictionaries`` what they decode
    to (a :class:`~repro.engine.database.ViewDictionary` each): grouping and
    DISTINCT key on those codes instead of the strings, ORDER BY ranks them
    (:meth:`sort_key`) and :meth:`rows` decodes only the rows it delivers.
    """

    def __init__(self, columns: list[ColumnInfo], arrays: Sequence[np.ndarray],
                 length: int, codes: Sequence[np.ndarray | None] | None = None,
                 layout: Layout | None = None, dictionaries: Sequence | None = None):
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
        self.dictionaries = dictionaries
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

    def take(self, indexes: np.ndarray) -> "ColFrame":
        """Return a new frame with the rows selected by ``indexes``; a coded
        column keeps its codes and is decoded when it is read."""
        codes = self.codes
        if codes is None:
            return ColFrame(columns=self.columns, arrays=[array[indexes] for array in self.arrays],
                            length=len(indexes), layout=self._layout)
        codes = [None if column is None else column[indexes] for column in codes]
        arrays = [self.arrays[position][indexes] if column is None else None
                  for position, column in enumerate(codes)]
        return ColFrame(columns=self.columns, length=len(indexes), layout=self._layout,
                        arrays=DecodedColumns(arrays, codes, self.dictionaries),
                        codes=codes, dictionaries=self.dictionaries)

    def sort_key(self, position: int) -> Any:
        """What ORDER BY ranks the column at ``position`` by: a coded column's
        ranks in its dictionary's string order, any other its values."""
        codes = None if self.codes is None else self.codes[position]
        if codes is None:
            return self.arrays[position]
        return Ranked(self.dictionaries[position].rank().take(codes))

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
        values :meth:`row` gives cell by cell.  A coded column is decoded
        here, from the codes of the rows delivered -- after ORDER BY and
        LIMIT picked them: one take from its decode table, then ``tolist``.
        """
        if self.codes is None:
            return list(zip(*[
                _python_values(array if index is None else array[index], column.type_name)
                for column, array in zip(self.columns, self.arrays)]))
        return list(zip(*[
            _python_values(self.arrays[position] if index is None
                           else self.arrays[position][index], column.type_name)
            if codes is None else self.dictionaries[position].array(
                codes if index is None else codes[index]).tolist()
            for position, (column, codes) in enumerate(zip(self.columns, self.codes))]))


class DecodedColumns(Sequence):
    """A frame's arrays where each coded column (None in ``arrays``) is
    decoded from its codes the first time something reads it."""

    __slots__ = ("_arrays", "_codes", "_dictionaries")

    def __init__(self, arrays: list, codes: Sequence, dictionaries: Sequence):
        self._arrays = arrays
        self._codes = codes
        self._dictionaries = dictionaries

    def __len__(self) -> int:
        return len(self._arrays)

    def __getitem__(self, position):
        if isinstance(position, slice):
            return [self[index] for index in range(*position.indices(len(self)))]
        array = self._arrays[position]  # an IndexError ends an iteration
        if array is None:
            array = self._arrays[position] = self._dictionaries[position].array(
                self._codes[position])
        return array


def concat_values(left: Any, right: Any) -> Any:
    """SQL ``||`` over columns and/or scalars.

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
        missing = values == _DATE_NULL
        if valid is not None:
            missing |= ~valid
        nulls = missing.nonzero()[0]
        days = (np.where(missing, 0, values) if len(nulls) else values) + _EPOCH_ORDINAL
        items = list(map(datetime.date.fromordinal, days.tolist()))
        for position in nulls.tolist():
            items[position] = None
        return items
    else:
        items = values.tolist()
    if valid is not None:
        for position in (~valid).nonzero()[0].tolist():
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


def widen_guarded(value: Any) -> Any:
    """Overflow-guard widening of one arithmetic operand.

    ``overflow_guard`` reproduces the behaviour the paper attributes to
    MonetDB when evaluating Q1's ``sum_charge`` expression: every arithmetic
    intermediate is cast to a wider type and fully materialised to guard
    against overflow, which makes expression-heavy projections measurably
    more expensive -- an engine option, so the platform can compare two
    "versions" of the column engine.
    """
    if isinstance(value, Nullable):
        return value.astype(np.longdouble)
    if isinstance(value, np.ndarray) and value.dtype != object:
        return np.ascontiguousarray(value.astype(np.longdouble))
    return value
