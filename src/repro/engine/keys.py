"""Key kernels: equi-joins, grouping and ORDER BY as array operations.

Every operator of the column engine that has to decide which rows carry
*equal* (or ordered) keys goes through this module.  Key columns are first
turned into ``int64`` codes, one column at a time, by the cheapest exact
method their dtype allows:

* bool / integer arrays (dictionary code vectors included) -- an offset,
  ``value - min``; no sort, no hash,
* float arrays -- ``np.unique`` ranks, every NaN its own code (NaN equals
  nothing, itself included, exactly as under Python hashing),
* everything numpy cannot compare natively -- object arrays (strings
  without a dictionary, legacy ``None``-carrying columns, mixed types) and
  the rare typed pair that has no exact common dtype -- one pass through a
  Python ``dict``, driven by ``dict.fromkeys`` / ``map`` rather than a
  bytecode loop.  This is the only place a dict sees rows; it keeps Python
  equality (``1 == 1.0 == True``) by construction, and every row it
  handles is counted as ``join.fallback_rows`` / ``group.fallback_rows``
  (all others as ``*.kernel_rows``).

Multi-column keys multiply their per-column codes together, re-ranking
first whenever the product would leave ``int64``, and a code space wider
than the row count is re-ranked too: joins and grouping then index small
tables by code (run starts, first rows) instead of searching or sorting
rows, with temporaries of the order of the key columns themselves.

A join is two halves.  :func:`build_order` sorts the build side's rows by
code, once, into a :class:`KeyOrder` that remembers how a key becomes a
code; :func:`probe_order` codes the probe side's keys the same way and reads
the matching runs.  The order of a whole base table is kept by storage and
probed by every execution; anything else is built where it is probed --
:func:`join_indexes` is the two calls in a row.

NULL follows SQL: a NULL join key matches nothing (its row lands in
``unmatched_left``), NULL group keys form one group, and NULLs sort after
every value.  Row order is part of the contract -- joins emit "probe-row
order, then build-row order", groups are numbered in first-seen order -- so
float sums and ``LIMIT`` without a total order see the rows in the order
the per-row loops these kernels replaced produced them.
"""

from __future__ import annotations

import numpy as np

from repro.engine.mask import Nullable, data_of
from repro.obs.metrics import count as count_metric

__all__ = ["KeyOrder", "build_order", "group_rows", "hash_codes", "integer_kind",
           "join_indexes", "order_index", "probe_order"]

_EMPTY = np.empty(0, dtype=np.int64)
#: combined code spaces are re-ranked before they reach this bound.
_CODE_SPACE = 2 ** 62
#: integers beyond this do not survive the trip through float64.
_EXACT_FLOAT = 2 ** 53
_INT64_MAX = 2 ** 63 - 1


def hash_codes(items: list, ranked: bool = False) -> tuple[np.ndarray, int]:
    """Dense codes of hashable ``items`` under Python equality.

    Codes number the distinct values in first-seen order or, ``ranked``, in
    sorted order (only the distinct values are sorted; a ``TypeError`` for
    values Python cannot order, as sorting the items would raise).
    """
    distinct = dict.fromkeys(items)
    lookup = {item: code
              for code, item in enumerate(sorted(distinct) if ranked else distinct)}
    codes = np.fromiter(map(lookup.__getitem__, items), dtype=np.int64,
                        count=len(items))
    return codes, len(lookup)


def _codes(values: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """``(codes, code space, went through the dict)`` of one values array.

    Codes are equal exactly where the values are; for typed arrays they
    also keep the values' order.
    """
    if len(values) == 0:
        return _EMPTY, 1, False
    kind = values.dtype.kind
    if kind in "bi":
        low, high = int(values.min()), int(values.max())
        if high - low < _CODE_SPACE:
            return values.astype(np.int64) - low, high - low + 1, False
    if kind in "bif":
        uniques, codes = np.unique(values, return_inverse=True, equal_nan=False)
        return codes.astype(np.int64, copy=False), len(uniques), False
    codes, space = hash_codes(values.tolist())
    return codes, space, True


def _joint(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Both sides of one join key in a dtype that compares them exactly."""
    if left.dtype.kind in "bif" and right.dtype.kind in "bif":
        joint = np.concatenate([left, right])
        if joint.dtype.kind != "f" or all(
                side.dtype.kind == "f" or len(side) == 0
                or (-_EXACT_FLOAT <= side.min() and side.max() <= _EXACT_FLOAT)
                for side in (left, right)):
            return joint
    return np.concatenate([left.astype(object), right.astype(object)])


def _rerank(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Equal codes, squeezed into ``[0, distinct codes)``."""
    uniques, ranks = np.unique(codes, return_inverse=True)
    return ranks.astype(np.int64, copy=False), len(uniques)


def _combine(columns: list[tuple[np.ndarray, np.ndarray | None]],
             null_is_a_key: bool) -> tuple[np.ndarray, int, int | None, bool]:
    """One code per row, in ``[0, space)``, over ``(values, validity)`` columns.

    Returns ``(codes, space, null code, went through the dict)`` with
    ``space`` no larger than the row count (or 1), so a table indexed by
    code costs what the key columns cost.  With ``null_is_a_key`` an invalid
    entry is one more value of its column (grouping); without, the rows with
    an invalid entry share the *null code*, which no other row has (joins;
    None when there is no such row).
    """
    combined, space, hashed, null_rows = _EMPTY, 1, False, None
    for position, (values, valid) in enumerate(columns):
        codes, size, via_dict = _codes(values)
        hashed |= via_dict
        if valid is not None:
            if null_is_a_key:
                codes = np.where(valid, codes, size)
                size += 1
            else:
                null_rows = ~valid if null_rows is None else null_rows | ~valid
        if position == 0:
            combined, space = codes, size
            continue
        if space * size >= _CODE_SPACE:
            combined, space = _rerank(combined)
            if space * size >= _CODE_SPACE:
                codes, size = _rerank(codes)
        combined = combined * size + codes
        space *= size
    null_code = None
    if null_rows is not None and null_rows.any():
        combined = np.where(null_rows, space, combined)
        null_code = space  # the largest code, so it still is after re-ranking
        space += 1
    if space > max(len(combined), 1):
        combined, space = _rerank(combined)
        null_code = None if null_code is None else space - 1
    return combined, space, null_code, hashed


def _count(operator: str, rows: int, hashed: bool) -> None:
    count_metric(f"{operator}.fallback_rows" if hashed else f"{operator}.kernel_rows",
                 rows)


class _Offset:
    """Codes of a key column whose values span no more than its row count:
    ``value - low``."""

    __slots__ = ("low", "high")

    def __init__(self, low: int, high: int):
        self.low, self.high = low, high

    def size(self) -> int:
        return self.high - self.low + 1

    def lookup(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, found)``; a code is only meaningful where found."""
        # the subtraction may wrap for a value outside [low, high]: not found
        return values - self.low, (values >= self.low) & (values <= self.high)

    def first_code(self, bound: int) -> int:
        """The code of the smallest value that is no less than ``bound``
        (``size()`` when there is none): codes keep the values' order."""
        return min(max(bound - self.low, 0), self.size())

    def nbytes(self) -> int:
        return 0


class _Distinct:
    """Codes of sparse keys: their rank among the sorted distinct values."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = values

    def size(self) -> int:
        return len(self.values)

    def lookup(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        distinct = self.values
        if not len(distinct):
            return np.zeros(len(values), dtype=np.int64), np.zeros(len(values), dtype=bool)
        low, high = int(distinct[0]), int(distinct[-1])
        # a binary search per probe against one pass over the span: when the
        # probes outweigh the span, rank them through a table built for them
        if len(values) * len(distinct).bit_length() > high - low:
            ranks = np.full(high - low + 1, -1, dtype=np.int64)
            ranks[distinct - low] = np.arange(len(distinct), dtype=np.int64)
            inside = (values >= low) & (values <= high)
            codes = ranks[np.where(inside, values - low, 0)]
            found = inside & (codes >= 0)
            return codes, found
        codes = np.minimum(np.searchsorted(distinct, values), len(distinct) - 1)
        return codes, distinct[codes] == values

    def first_code(self, bound: int) -> int:
        if bound > _INT64_MAX:
            return len(self.values)
        return int(np.searchsorted(self.values, max(bound, -_INT64_MAX - 1)))

    def nbytes(self) -> int:
        return self.values.nbytes


def _ranked(values: np.ndarray) -> tuple[_Distinct, np.ndarray]:
    """``values`` coded by their rank among their own distinct values."""
    distinct, codes = np.unique(values, return_inverse=True)
    return _Distinct(distinct), codes.astype(np.int64, copy=False)


def _coded(values: np.ndarray) -> "tuple[_Offset | _Distinct, np.ndarray]":
    """How one build-side key column (``int64``, NULL-free) is coded, and its
    codes: by offset while the values span no more than the rows -- the code
    tables then cost what the column costs -- by rank otherwise."""
    if len(values):
        low, high = int(values.min()), int(values.max())
        if high - low < len(values):
            return _Offset(low, high), values - low
    return _ranked(values)


def integer_kind(columns: list) -> bool:
    """True when every key column is a bool / integer array: date ordinals and
    dictionary codes included, floats, strings and ``None``-carrying object
    arrays not."""
    return all(data_of(column)[0].dtype.kind in "bi" for column in columns)


class KeyOrder:
    """The build side of an equi-join: its rows sorted by key, ready to probe.

    A pure function of the key columns, so one built over a whole base table
    serves every execution until the table changes (storage keeps it, see
    ``StorageTable.key_order``); the same structure is built per execution
    over a filtered or derived side.  ``steps`` say how a key becomes a code
    in ``[0, len(run_starts))``: per key column an offset or a rank among
    sorted distinct values, and, wherever the combined code space outgrows
    the row count, a rank among the sorted distinct combined codes.  ``order``
    lists the rows by code, a code's rows ascending; rows with a NULL in any
    key column are left out, they match nothing.
    """

    __slots__ = ("steps", "order", "run_starts", "run_lengths", "first", "rows",
                 "distinct", "unique")

    def __init__(self, steps, codes: np.ndarray, space: int, present: np.ndarray | None,
                 rows: int):
        self.steps = steps
        #: rows of the build side, NULL-keyed ones included.
        self.rows = rows
        keyed = len(codes)
        # the row number breaks ties, so any sort is a stable one
        order = np.argsort(codes * max(keyed, 1) + np.arange(keyed, dtype=np.int64))
        self.order = order if present is None else present[order]
        self.run_lengths = np.bincount(codes, minlength=max(space, 1))
        self.run_starts = np.cumsum(self.run_lengths) - self.run_lengths
        self.distinct = int(np.count_nonzero(self.run_lengths))
        #: no key twice (a primary key): a probe row has one match or none.
        self.unique = self.distinct == keyed
        #: unique keys only: the row of every code, -1 for a code without one.
        self.first = None
        if self.unique:
            self.first = np.full(len(self.run_lengths), -1, dtype=np.int64)
            self.first[codes] = np.arange(keyed, dtype=np.int64) if present is None \
                else present

    @property
    def indexed_rows(self) -> int:
        """Rows a probe can reach (those without a NULL key)."""
        return len(self.order)

    @property
    def nbytes(self) -> int:
        arrays = [self.order, self.run_starts, self.run_lengths, self.first]
        return sum(array.nbytes for array in arrays if array is not None) \
            + sum(coder.nbytes() + (0 if rerank is None else rerank.nbytes())
                  for coder, rerank in self.steps)

    def range_rows(self, low: int | None, high: int | None) -> np.ndarray:
        """The rows whose key lies in ``[low, high)``, ascending (None = open
        on that side), of an order over one column; NULL keys are in no range.

        Their codes are consecutive, so their rows are: one slice of
        ``order`` between two run starts, sorted back into row order.
        """
        (coder, _), = self.steps  # one column: never re-ranked
        first = 0 if low is None else coder.first_code(low)
        beyond = coder.size() if high is None else coder.first_code(high)
        if beyond <= first:
            return _EMPTY
        stop = self.run_starts[beyond] if beyond < coder.size() else len(self.order)
        return np.sort(self.order[self.run_starts[first]:stop])

    def codes(self, columns: list) -> tuple[np.ndarray, np.ndarray | None]:
        """``(codes, found)`` of probe-side key columns; ``found`` is None when
        every row has a code, else the code is 0 where it is False."""
        combined = found = None
        for (coder, rerank), column in zip(self.steps, columns):
            values, valid = data_of(column)
            codes, hit = coder.lookup(values.astype(np.int64, copy=False))
            if valid is not None:
                hit &= valid
            combined = codes if combined is None else combined * coder.size() + codes
            found = hit if found is None else found & hit
            if rerank is not None:
                combined, hit = rerank.lookup(combined)
                found &= hit
        if found.all():
            return combined, None
        return np.where(found, combined, 0), found


def build_order(columns: list, operator: str = "join") -> KeyOrder | None:
    """Sort the rows of a join's build side by its key columns, once.

    None when a key column is not of integer kind (see :func:`join_indexes`).
    The rows count as ``<operator>.kernel_rows``: a scan window's order is
    not a join's work.
    """
    pairs = [data_of(column) for column in columns]
    if not all(values.dtype.kind in "bi" for values, _ in pairs):
        return None
    rows = len(columns[0])
    present = None
    masks = [valid for _, valid in pairs if valid is not None]
    if masks:
        valid = masks[0] if len(masks) == 1 else np.logical_and.reduce(masks)
        if not valid.all():
            present = np.flatnonzero(valid)
    count_metric(f"{operator}.kernel_rows", rows)
    steps, combined, space = [], None, 1
    for values, _ in pairs:
        values = values.astype(np.int64, copy=False)
        if present is not None:
            values = values[present]
        coder, codes = _coded(values)
        combined = codes if combined is None else combined * coder.size() + codes
        space *= coder.size()
        rerank = None
        if space > max(len(combined), 1):
            # no wider than the rows again, so the next product stays in int64
            rerank, combined = _ranked(combined)
            space = rerank.size()
        steps.append((coder, rerank))
    return KeyOrder(steps, combined, space, present, rows)


def probe_order(order: KeyOrder, columns: list
                ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Probe a build side with integer-kind key columns.

    Returns what :func:`join_indexes` returns; ``left_idx`` is None for
    "every probe row, once, in order" (a unique build key all of them find).
    """
    codes, found = order.codes(columns)
    rows = len(codes)
    count_metric("join.kernel_rows", rows)
    if order.unique:
        right_idx = order.first[codes]
        matched = right_idx >= 0 if found is None else found & (right_idx >= 0)
        if matched.all():
            return None, right_idx, _EMPTY
        left_idx = np.flatnonzero(matched)
        return left_idx, right_idx[left_idx], np.flatnonzero(~matched)
    counts = order.run_lengths[codes]
    if found is not None:
        counts[~found] = 0
    left_idx = np.repeat(np.arange(rows, dtype=np.int64), counts)
    # a left row's matches are consecutive in ``order``, from its run's start
    ends = np.cumsum(counts)
    positions = np.repeat(order.run_starts[codes] - (ends - counts), counts) \
        + np.arange(len(left_idx), dtype=np.int64)
    return left_idx, order.order[positions], np.flatnonzero(counts == 0)


def join_indexes(left: list, right: list
                 ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Equi-join two lists of key columns (one column per key, per side).

    Returns ``(left_idx, right_idx, unmatched_left)``: the matching row
    pairs in left-row order, each left row's matches in right-row order,
    and the ascending left rows that matched nothing.  Rows with a NULL in
    any key column never match.  Keys of integer kind on both sides (bool,
    integers, date ordinals, dictionary codes) are :func:`probe_order` over
    :func:`build_order` of the right side, and ``left_idx`` may then be None
    (every left row, once, in order); floats, strings and mixed dtypes are
    coded jointly, under Python equality.
    """
    if integer_kind(left):
        order = build_order(right)
        if order is not None:
            return probe_order(order, left)
    return _joint_indexes(left, right)


def _joint_indexes(left: list, right: list
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`join_indexes` by coding both sides' keys in one space."""
    left_rows, right_rows = len(left[0]), len(right[0])
    columns = []
    for left_column, right_column in zip(left, right):
        left_values, left_valid = data_of(left_column)
        right_values, right_valid = data_of(right_column)
        valid = None
        if left_valid is not None or right_valid is not None:
            valid = np.concatenate([
                np.ones(len(values), dtype=bool) if side is None else side
                for values, side in ((left_values, left_valid),
                                     (right_values, right_valid))])
        columns.append((_joint(left_values, right_values), valid))
    codes, space, null_code, hashed = _combine(columns, null_is_a_key=False)
    _count("join", len(codes), hashed)
    probe, build = codes[:left_rows], codes[left_rows:]

    # counting sort of the build rows: a run per code, rows ascending in it
    # (the row number breaks ties, so any sort is a stable one)
    order = np.argsort(build * right_rows + np.arange(right_rows, dtype=np.int64))
    run_lengths = np.bincount(build, minlength=space)
    if null_code is not None:
        run_lengths[null_code] = 0  # its rows sort last and stay unread
    run_starts = np.cumsum(run_lengths) - run_lengths
    counts = run_lengths[probe]
    left_idx = np.repeat(np.arange(left_rows, dtype=np.int64), counts)
    # position of every output row inside its left row's run of matches
    within = np.arange(len(left_idx), dtype=np.int64) \
        - np.repeat(np.cumsum(counts) - counts, counts)
    right_idx = order[np.repeat(run_starts[probe], counts) + within]
    return left_idx, right_idx, np.flatnonzero(counts == 0)


def group_rows(factors: list, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Group ``rows`` rows by their key columns.

    Returns ``(group_ids, first_index)``: a dense id per row, ids numbered
    in first-seen order, and the first row of every group.  NULLs group
    together; every NaN is its own group.
    """
    columns = []
    for factor in factors:
        if isinstance(factor, Nullable):
            columns.append((factor.values, factor.valid))
        else:
            columns.append((factor, None))  # a None in an object array hashes
    codes, space, _, hashed = _combine(columns, null_is_a_key=True)
    _count("group", rows, hashed)
    first = np.full(space, rows, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(rows, dtype=np.int64))
    seen = np.flatnonzero(first < rows)
    seen = seen[np.argsort(first[seen])]
    group_of = np.empty(space, dtype=np.int64)
    group_of[seen] = np.arange(len(seen), dtype=np.int64)
    return group_of[codes], first[seen]


def _ranks(column: "np.ndarray | Nullable") -> np.ndarray:
    """Order-preserving ``int64`` ranks of one column, NULL ranked last."""
    values, valid = data_of(column)
    if valid is not None:
        ranks = np.empty(len(values), dtype=np.int64)
        present = _ranks(values[valid])
        ranks[valid] = present
        ranks[~valid] = present.max() + 1 if len(present) else 0
        return ranks
    if values.dtype != object:
        return np.unique(values, return_inverse=True)[1].astype(np.int64, copy=False)
    return hash_codes(values.tolist(), ranked=True)[0]


def order_index(keys: list[tuple["np.ndarray | Nullable", bool]]) -> np.ndarray:
    """Stable row order under ``[(column, descending), ...]`` sort keys.

    The first key is the most significant.  NULLs are the largest value
    (last ascending, first descending) and ties keep their input order in
    either direction -- what sorting the row tuples on ``(value is None,
    value)`` with ``reverse=descending``, one key at a time, gave.
    """
    ranks = [-_ranks(column) if descending else _ranks(column)
             for column, descending in keys]
    return np.lexsort(ranks[::-1])
