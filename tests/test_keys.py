"""The key kernels against the per-row dict loops they replaced.

``repro.engine.keys`` answers "which rows carry equal keys" for joins and
grouping with array operations.  The loops below are the column executor's
former ``_hash_join`` / ``_group_ids`` bodies, kept here as the reference:
on seeded random inputs the kernels must return not just the same pairs and
groups but the same *order* -- left-row order then build-row order for
joins, first-seen order for groups -- because float sums and ``LIMIT``
without a total order depend on it.  The one change of behaviour is the
NULL fix: a NULL join key matches nothing (the reference skips them).
"""

from __future__ import annotations

import datetime
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import keys as keys_module
from repro.engine.keys import (
    _joint_indexes,
    build_order,
    group_rows,
    hash_codes,
    join_indexes,
    order_index,
    probe_direct,
    probe_order,
)
from repro.engine.mask import Nullable
from repro.obs import MetricsContext


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------


def reference_join(left: list, right: list):
    """Build a dict on the right keys, probe it with the left keys, row by row."""
    table: dict[tuple, list[int]] = {}
    for index in range(len(right[0])):
        key = tuple(array[index] for array in right)
        if None not in key:
            table.setdefault(key, []).append(index)
    left_idx: list[int] = []
    right_idx: list[int] = []
    unmatched: list[int] = []
    for index in range(len(left[0])):
        key = tuple(array[index] for array in left)
        matches = table.get(key) if None not in key else None
        if matches:
            left_idx.extend([index] * len(matches))
            right_idx.extend(matches)
        else:
            unmatched.append(index)
    return left_idx, right_idx, unmatched


def reference_groups(factors: list, rows: int):
    """Dense group ids in first-seen order plus each group's first row."""
    ids: list[int] = []
    first: list[int] = []
    mapping: dict[tuple, int] = {}
    for index in range(rows):
        key = tuple(factor[index] for factor in factors)
        group = mapping.get(key)
        if group is None:
            group = len(mapping)
            mapping[key] = group
            first.append(index)
        ids.append(group)
    return ids, first


def _as_lists(left_rows: int, found) -> tuple[list, list, list]:
    left_idx, right_idx, unmatched = found
    if left_idx is None:  # every left row, once, in order
        left_idx = np.arange(left_rows)
    return left_idx.tolist(), right_idx.tolist(), unmatched.tolist()


def assert_join(left: list, right: list) -> MetricsContext:
    metrics = MetricsContext()
    with metrics.activate():
        found = join_indexes(left, right)
    assert _as_lists(len(left[0]), found) == reference_join(left, right)
    return metrics


def assert_groups(factors: list) -> MetricsContext:
    rows = len(factors[0])
    metrics = MetricsContext()
    with metrics.activate():
        ids, first = group_rows(factors, rows)
    assert (ids.tolist(), first.tolist()) == reference_groups(factors, rows)
    return metrics


@pytest.fixture(params=["general", "sorted", "keyed"])
def key_paths(request, monkeypatch):
    """Every input on the general kernels (coded keys, a built key order),
    then every one small enough for the small-input ones -- a sorted
    grouping or a grouping by a dict, a searched join: all answer as the
    reference loops do."""
    general = request.param == "general"
    monkeypatch.setattr(keys_module, "_SORTED_ROWS", 0 if general else 10 ** 9)
    monkeypatch.setattr(keys_module, "_KEYED_ROWS", 10 ** 9 if request.param == "keyed" else 0)
    monkeypatch.setattr(keys_module, "_SEARCHED_ROWS", 0 if general else 10 ** 9)
    return request.param


# ---------------------------------------------------------------------------
# column makers (every representation a frame column can have)
# ---------------------------------------------------------------------------

WORDS = ["alpha", "beta", "gamma", "delta", "abba", "axle", "box", "ibex"]


def ints(rng, rows, span=12):
    return np.array([rng.randrange(span) for _ in range(rows)], dtype=np.int64)


def floats(rng, rows, span=12):
    return np.array([rng.randrange(span) / 2.0 for _ in range(rows)], dtype=np.float64)


def bools(rng, rows):
    return np.array([rng.random() < 0.5 for _ in range(rows)], dtype=bool)


def dates(rng, rows):
    """Day ordinals, the column engine's date representation."""
    start = datetime.date(2020, 1, 1) - datetime.date(1970, 1, 1)
    return np.array([start.days + rng.randrange(9) for _ in range(rows)],
                    dtype=np.int64)


def strings(rng, rows):
    return np.array([rng.choice(WORDS) for _ in range(rows)], dtype=object)


def codes(rng, rows):
    """A dictionary code vector: int32, -1 for NULL."""
    return np.array([rng.randrange(-1, 5) for _ in range(rows)], dtype=np.int32)


def nullable(values: np.ndarray, rng) -> Nullable:
    return Nullable(values, np.array([rng.random() < 0.7 for _ in values], dtype=bool))


def with_nones(values: np.ndarray, rng) -> np.ndarray:
    """The legacy / string representation: an object array holding None."""
    out = values.astype(object)
    out[[rng.random() < 0.3 for _ in values]] = None
    return out


TYPED = [ints, floats, bools, dates]


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("key_paths")
class TestJoinIndexes:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("make", TYPED + [strings])
    def test_single_key_with_duplicates_on_both_sides(self, make, seed):
        rng = random.Random(seed)
        left, right = make(rng, rng.randrange(0, 60)), make(rng, rng.randrange(0, 40))
        metrics = assert_join([left], [right])
        # strings are object arrays: the dict pass; everything else numpy
        counted = "join.fallback_rows" if make is strings else "join.kernel_rows"
        assert metrics.snapshot() == {counted: len(left) + len(right)}

    @pytest.mark.parametrize("left_rows,right_rows", [(0, 0), (0, 5), (5, 0)])
    def test_empty_sides(self, left_rows, right_rows):
        rng = random.Random(3)
        assert_join([ints(rng, left_rows)], [ints(rng, right_rows)])
        assert_join([strings(rng, left_rows), ints(rng, left_rows)],
                    [strings(rng, right_rows), ints(rng, right_rows)])

    @pytest.mark.parametrize("seed", range(6))
    def test_int_keys_join_float_keys(self, seed):
        """``1`` joins ``1.0`` under Python hashing and must still."""
        rng = random.Random(seed)
        whole = np.array([float(rng.randrange(8)) for _ in range(30)])
        metrics = assert_join([ints(rng, 40, span=8)], [whole])
        assert metrics.get("join.fallback_rows") == 0
        assert_join([bools(rng, 20)], [ints(rng, 20, span=3)])
        assert_join([bools(rng, 20)], [floats(rng, 20, span=3)])

    def test_integers_float64_cannot_hold_take_the_dict(self):
        big = 2 ** 53
        left = np.array([big, big + 1, 3], dtype=np.int64)
        right = np.array([float(big), 3.0], dtype=np.float64)
        metrics = assert_join([left], [right])  # big + 1 != float(big)
        assert metrics.get("join.fallback_rows") == 5

    @pytest.mark.parametrize("seed", range(6))
    def test_null_keys_never_match(self, seed):
        rng = random.Random(seed)
        assert_join([nullable(ints(rng, 50), rng)], [nullable(ints(rng, 30), rng)])
        assert_join([with_nones(ints(rng, 50), rng)], [with_nones(ints(rng, 30), rng)])
        # the two NULL representations meet (typed scan vs. legacy decode)
        assert_join([nullable(ints(rng, 50), rng)], [with_nones(ints(rng, 30), rng)])
        assert_join([with_nones(strings(rng, 50), rng)],
                    [with_nones(strings(rng, 30), rng)])
        assert_join([nullable(floats(rng, 50), rng)], [ints(rng, 30)])

    def test_all_null_side(self):
        nothing = Nullable(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=bool))
        left_idx, right_idx, unmatched = join_indexes([nothing], [nothing])
        assert len(left_idx) == len(right_idx) == 0
        assert unmatched.tolist() == [0, 1, 2, 3]

    def test_validity_mask_without_nulls_over_sparse_keys(self):
        """A mask that marks nothing NULL must not cost the largest key its
        matches when the sparse key space is re-ranked."""
        everything = np.ones(3, dtype=bool)
        left = Nullable(np.array([0, 10 ** 9, 5], dtype=np.int64), everything)
        right = Nullable(np.array([10 ** 9, 5, 10 ** 9], dtype=np.int64), everything)
        assert_join([left], [right])
        some = Nullable(right.values, np.array([True, True, False]))
        assert_join([left], [some])

    def test_nan_keys_never_match(self):
        left = np.array([1.0, np.nan, 2.0, np.nan])
        right = np.array([np.nan, 2.0, 1.0, 1.0])
        left_idx, right_idx, unmatched = join_indexes([left], [right])
        assert (left_idx.tolist(), right_idx.tolist()) == ([0, 0, 2], [2, 3, 1])
        assert unmatched.tolist() == [1, 3]

    @pytest.mark.parametrize("seed", range(8))
    def test_multi_key(self, seed):
        rng = random.Random(seed)
        left_rows, right_rows = rng.randrange(0, 80), rng.randrange(0, 50)
        makers = [rng.choice(TYPED + [strings]) for _ in range(rng.randrange(2, 4))]

        def side(rows):
            columns = []
            for make in makers:
                column = make(rng, rows, 4) if make in (ints, floats) else make(rng, rows)
                roll = rng.random()
                if roll < 0.3 and make is not strings:
                    column = nullable(column, rng)
                elif roll < 0.6:
                    column = with_nones(column, rng)
                columns.append(column)
            return columns

        assert_join(side(left_rows), side(right_rows))

    def test_wide_key_spaces_do_not_overflow(self):
        """Three keys spanning ~2**61 each: the code product is re-ranked."""
        rng = random.Random(11)
        picks = [0, 2 ** 60, -2 ** 60, 7]

        def side(rows):
            return [np.array([rng.choice(picks) for _ in range(rows)], dtype=np.int64)
                    for _ in range(3)]

        metrics = assert_join(side(60), side(40))
        assert metrics.get("join.fallback_rows") == 0
        assert_groups(side(80))

    def test_full_range_integers(self):
        extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, 0],
                            dtype=np.int64)
        assert_join([extremes], [extremes[::-1].copy()])
        assert_groups([extremes])


# ---------------------------------------------------------------------------
# the join's two halves: a build side sorted once, probed any number of times
# ---------------------------------------------------------------------------

#: few values, so keys repeat and meet across the sides; negatives; a 2**60
#: span, which no offset table may cover (the sorted-distinct branch).
KEY_VALUES = st.sampled_from([-3, -1, 0, 1, 2, 3, 5, 8, 2 ** 60, -2 ** 60])
KINDS = st.sampled_from(["int", "bool", "date"])


def _typed(kind: str, values: list, nulls: list | None):
    if kind == "bool":
        array = np.array([value > 0 for value in values], dtype=bool)
    elif kind == "date":  # day ordinals
        array = np.array([18262 + value % 7 for value in values], dtype=np.int64)
    else:
        array = np.array(values, dtype=np.int64)
    return array if nulls is None else Nullable(array, ~np.array(nulls, dtype=bool))


@st.composite
def key_sides(draw, unique_build: bool = False):
    """``(left, right)`` lists of 1-3 integer-kind key columns, NULLs on either."""
    kinds = draw(st.lists(KINDS, min_size=1, max_size=3))
    if unique_build:
        kinds[0] = "int"  # a bool or weekday column cannot tell six rows apart

    def side(rows: int, unique: bool):
        columns = []
        for position, kind in enumerate(kinds):
            if unique and position == 0:
                values = draw(st.lists(KEY_VALUES, min_size=rows, max_size=rows,
                                       unique=True))
            else:
                values = draw(st.lists(KEY_VALUES, min_size=rows, max_size=rows))
            nulls = None
            if not unique and draw(st.booleans()):
                nulls = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
            columns.append(_typed(kind, values, nulls))
        return columns

    left = side(draw(st.integers(0, 12)), False)
    right = side(draw(st.integers(0, 6 if unique_build else 12)), unique_build)
    return left, right


class TestBuildAndProbe:
    @settings(max_examples=300, deadline=None)
    @given(key_sides())
    def test_probing_a_built_order_is_the_joint_code_join(self, sides):
        """``probe_order(build_order(right), left)`` returns what the kernel it
        was split from returns -- which still serves floats and strings -- and
        what the per-row dict loop does."""
        left, right = sides
        order = build_order(right)
        found = _as_lists(len(left[0]), probe_order(order, left))
        assert found == _as_lists(len(left[0]), _joint_indexes(left, right))
        assert found == reference_join(
            [column.to_objects() if isinstance(column, Nullable) else column
             for column in left],
            [column.to_objects() if isinstance(column, Nullable) else column
             for column in right])
        # one build serves any number of probes
        assert _as_lists(len(right[0]), probe_order(order, right)) \
            == _as_lists(len(right[0]), _joint_indexes(right, right))

    @settings(max_examples=200, deadline=None)
    @given(key_sides(unique_build=True))
    def test_unique_build_keys(self, sides):
        """A primary-key build side: a match or none per probe row, and no left
        index at all when every probe row has one."""
        left, right = sides
        order = build_order(right)
        assert order.unique and order.distinct == order.indexed_rows == len(right[0])
        left_idx, right_idx, unmatched = probe_order(order, left)
        expected = _joint_indexes(left, right)
        assert _as_lists(len(left[0]), (left_idx, right_idx, unmatched)) \
            == _as_lists(len(left[0]), expected)
        assert (left_idx is None) == (len(expected[2]) == 0)

    def test_every_probe_row_matching_once_needs_no_left_index(self):
        build = np.array([40, 10, 30, 20], dtype=np.int64)
        probe = np.array([10, 10, 40, 30], dtype=np.int64)
        left_idx, right_idx, unmatched = join_indexes([probe], [build])
        assert left_idx is None and right_idx.tolist() == [1, 1, 0, 2]
        assert unmatched.tolist() == []
        left_idx, right_idx, unmatched = join_indexes([np.append(probe, 50)], [build])
        assert left_idx.tolist() == [0, 1, 2, 3] and unmatched.tolist() == [4]

    def test_order_facts(self):
        keys = Nullable(np.array([7, 3, 7, 0, 3, 7], dtype=np.int64),
                        np.array([True, True, True, False, True, True]))
        order = build_order([keys])
        assert (order.rows, order.indexed_rows, order.distinct, order.unique) \
            == (6, 5, 2, False)
        assert order.order.tolist() == [1, 4, 0, 2, 5]  # by key, a key's rows ascending
        assert order.nbytes > 0
        sparse = build_order([np.array([0, 2 ** 60, 5], dtype=np.int64)])
        assert sparse.unique and sparse.distinct == 3

    def test_many_probes_against_sparse_keys_take_the_table(self):
        """Sparse keys are ranked by binary search, or -- when the probes
        outweigh the key span -- through a table laid out for them; both
        answer alike."""
        rng = random.Random(5)
        build = np.array(sorted(rng.sample(range(0, 4000, 4), 300)), dtype=np.int64)
        order = build_order([build])
        few = np.array([rng.randrange(-8, 4100) for _ in range(20)], dtype=np.int64)
        many = np.array([rng.randrange(-8, 4100) for _ in range(2000)], dtype=np.int64)
        for probe in (few, many):
            assert _as_lists(len(probe), probe_order(order, [probe])) \
                == _as_lists(len(probe), _joint_indexes([probe], [build]))

    @pytest.mark.parametrize("keys", [
        [3, 7, 7, 10, 4, 3, 9],               # an offset coder, duplicates, shifted
        [1, 2, 3, 4, 5, 6],                   # unique, from 1: no shift
        [0, 10, 20, 30, 5, -4],               # sparse: ranked distinct values
        [-2 ** 40, -2 ** 40 + 3, -2 ** 40 + 1],
    ])
    def test_direct_probes_answer_as_the_order_does(self, keys):
        """A probe through the direct table (``KeyOrder.direct``) finds what
        :func:`probe_order` finds, for values below, inside and above the
        table and at the ends of ``int64``."""
        order = build_order([np.array(keys, dtype=np.int64)])
        direct = order.direct()
        assert direct is not None
        info = np.iinfo(np.int64)
        low, high = min(keys), max(keys)
        probe = np.array([*keys, low - 1, low - 2, high + 1, high + 2, high + 1000, 0, 1,
                          info.min, info.max, info.min + 1, info.max - 1, *keys[::-1]],
                         dtype=np.int64)
        tally = {}
        left_idx, right_idx = probe_direct(order, direct, probe, tally)
        expected = probe_order(order, [probe])
        assert _as_lists(len(probe), (left_idx, right_idx, expected[2])) \
            == _as_lists(len(probe), expected)
        assert tally == {"join.kernel_rows": len(probe)}

    def test_a_null_build_key_is_in_no_direct_entry(self):
        order = build_order([Nullable(np.array([1, 2, 3, 2], dtype=np.int64),
                                      np.array([True, False, True, True]))])
        probe = np.array([2, 1, 3, 0, 4], dtype=np.int64)
        left_idx, right_idx = probe_direct(order, order.direct(), probe, {})
        assert (left_idx.tolist(), right_idx.tolist()) == ([0, 1, 2], [3, 0, 2])

    def test_wide_or_compound_keys_get_no_direct_table(self):
        assert build_order([np.array([0, 2 ** 62, 5], dtype=np.int64)]).direct() is None
        assert build_order([np.array([0, 1000, 5], dtype=np.int64)]).direct() is None
        two = build_order([np.array([1, 2], dtype=np.int64), np.array([3, 4], dtype=np.int64)])
        assert two.direct() is None

    @pytest.mark.parametrize("make_left,make_right", [
        (ints, floats), (floats, ints), (strings, strings), (ints, strings)])
    def test_other_keys_are_not_orderable(self, make_left, make_right):
        """Float, string and mixed-dtype keys keep the joint coding and its
        Python-equality contract; no order is built for them."""
        rng = random.Random(2)
        left, right = make_left(rng, 30), make_right(rng, 20)
        assert (build_order([right]) is None) == (make_right is not ints)
        metrics = assert_join([left], [right])
        hashed = strings in (make_left, make_right)
        assert metrics.snapshot() == {
            "join.fallback_rows" if hashed else "join.kernel_rows": 50}


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("key_paths")
class TestGroupRows:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("make", TYPED + [strings, codes])
    def test_single_factor(self, make, seed):
        rng = random.Random(seed)
        factor = make(rng, rng.randrange(0, 80))
        metrics = assert_groups([factor])
        counted = "group.fallback_rows" if make is strings else "group.kernel_rows"
        assert metrics.snapshot() == {counted: len(factor)}

    @pytest.mark.parametrize("seed", range(6))
    def test_nulls_group_together(self, seed):
        rng = random.Random(seed)
        assert_groups([nullable(ints(rng, 60), rng)])
        assert_groups([with_nones(strings(rng, 60), rng)])
        assert_groups([with_nones(ints(rng, 60), rng), nullable(floats(rng, 60), rng)])

    def test_each_nan_is_its_own_group(self):
        values = np.array([1.0, np.nan, 1.0, np.nan, 2.0, np.nan])
        ids, first = group_rows([values], len(values))
        assert ids.tolist() == [0, 1, 0, 2, 3, 4]
        assert first.tolist() == [0, 1, 3, 4, 5]
        assert_groups([values, np.zeros(len(values), dtype=np.int64)])

    def test_mixed_types_keep_python_equality(self):
        mixed = np.array([1, 1.0, True, "1", None, 2, None, "1", 2.0], dtype=object)
        metrics = assert_groups([mixed])
        assert metrics.get("group.fallback_rows") == len(mixed)
        ids, _ = group_rows([mixed], len(mixed))
        assert ids.tolist() == [0, 0, 0, 1, 2, 3, 2, 1, 3]

    @pytest.mark.parametrize("seed", range(8))
    def test_multi_factor(self, seed):
        rng = random.Random(seed)
        rows = rng.randrange(0, 120)
        factors = []
        for _ in range(rng.randrange(2, 5)):
            make = rng.choice(TYPED + [strings, codes])
            column = make(rng, rows)
            if make not in (strings, codes) and rng.random() < 0.4:
                column = nullable(column, rng)
            elif make is not codes and rng.random() < 0.3:
                column = with_nones(column, rng)
            factors.append(column)
        assert_groups(factors)

    def test_empty_input(self):
        ids, first = group_rows([np.empty(0, dtype=np.int64),
                                 np.empty(0, dtype=object)], 0)
        assert len(ids) == len(first) == 0

    def test_hash_codes_number_first_seen(self):
        found, distinct = hash_codes([("b", 1), ("a", 1), ("b", 1.0), (None, 2)])
        assert (found.tolist(), distinct) == ([0, 1, 0, 2], 3)
        assert hash_codes([])[1] == 0


# ---------------------------------------------------------------------------
# ordering
# ---------------------------------------------------------------------------


def reference_order(keys: list) -> list[int]:
    """Sort row numbers on ``(value is None, value)``, last key first."""
    rows = list(range(len(keys[0][0])))
    for column, descending in reversed(keys):
        rows.sort(key=lambda row: (column[row] is None, column[row]),
                  reverse=descending)
    return rows


class TestOrderIndex:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_tuple_sort(self, seed):
        rng = random.Random(seed)
        rows = rng.randrange(0, 90)
        keys = []
        for _ in range(rng.randrange(1, 4)):
            make = rng.choice([ints, floats, bools, dates, strings])
            column = make(rng, rows, 5) if make in (ints, floats) else make(rng, rows)
            roll = rng.random()
            if roll < 0.3 and make is not strings:
                column = nullable(column, rng)
            elif roll < 0.6:
                column = with_nones(column, rng)
            keys.append((column, rng.random() < 0.5))
        assert order_index(keys).tolist() == reference_order(keys)

    @pytest.mark.parametrize("descending", [False, True])
    def test_plain_numbers_sort_as_they_are(self, descending):
        """Plain int64, bool and NaN-free float keys sort on their values
        (``~`` / ``-`` reversing them), not on ranks: the ends of ``int64``,
        -0.0 against 0.0 and ties keep the tuple sort's order."""
        info = np.iinfo(np.int64)
        whole = np.array([3, info.max, -1, info.min, 3, 0, info.min, info.max], dtype=np.int64)
        truth = np.array([True, False, False, True, True, False, True, False])
        real = np.array([0.5, -0.0, 0.0, -2.5, 1e300, -1e300, 0.5, 0.0])
        for keys in ([(whole, descending)], [(truth, descending)], [(real, descending)],
                     [(truth, descending), (whole, not descending)],
                     [(real, not descending), (truth, descending)]):
            assert order_index(keys).tolist() == reference_order(keys)

    def test_nulls_last_ascending_first_descending_ties_stable(self):
        column = np.array([2, None, 1, 2, None, 1], dtype=object)
        assert order_index([(column, False)]).tolist() == [2, 5, 0, 3, 1, 4]
        assert order_index([(column, True)]).tolist() == [1, 4, 0, 3, 2, 5]

    def test_values_python_cannot_order_raise_as_the_sort_did(self):
        with pytest.raises(TypeError):
            order_index([(np.array([1, "a"], dtype=object), False)])
