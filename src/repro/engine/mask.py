"""Typed null-mask propagation: nullable vectors and Kleene truth masks.

This module is the column pipeline's representation of SQL NULL:

* :class:`Nullable` -- a *typed* values array (``int64`` / ``float64`` /
  ``bool`` / day ordinals) paired with a boolean validity mask (True =
  value present).  Storage hands these out directly for nullable columns,
  so expression kernels compute over the full typed array -- sentinel
  garbage at invalid slots included -- and combine validity separately,
  instead of decoding to slow object arrays holding ``None``.
* :class:`Kleene` -- a three-valued predicate result: paired boolean
  arrays ``truth`` / ``valid`` where UNKNOWN is ``valid == False``.  The
  canonical form keeps ``truth & valid == truth`` so TRUE-collapse (the
  filter semantics of SQL, where UNKNOWN drops the row) is just ``truth``.

Scalars use the Python convention throughout: ``None`` is the scalar
UNKNOWN / NULL, ``True`` / ``False`` are the known values.

Both classes support numpy-style fancy indexing (gather / boolean mask),
so selection vectors, hash-join gathers and frame slicing work unchanged;
integer indexing decodes (``None`` at invalid positions), which is what
row materialisation and hash-join key extraction expect.

The Kleene connectives follow the standard tables::

    NOT U = U        U AND F = F      U OR T = T
                     U AND T = U      U OR F = U
                     U AND U = U      U OR U = U
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

__all__ = [
    "Kleene",
    "Nullable",
    "as_kleene",
    "as_objects",
    "data_of",
    "is_array",
    "kleene_and",
    "kleene_not",
    "kleene_or",
    "none_positions",
    "truth_mask",
    "wrap_valid",
]


def none_positions(array: np.ndarray) -> np.ndarray:
    """Boolean mask of the ``None`` entries of an object array.

    One comparison loop inside numpy, no Python call per cell: of the
    values a column can hold (numbers, strings, dates, booleans and their
    numpy scalars) only ``None`` itself compares equal to ``None``.
    """
    return np.equal(array, None)


class Nullable:
    """A typed values array plus validity mask (True = value present).

    Entries where ``valid`` is False hold unspecified sentinel values;
    every consumer must combine validity rather than trust them.
    """

    __slots__ = ("values", "valid", "_objects")
    #: numpy defers binary ops to us instead of coercing to object arrays.
    __array_priority__ = 1000

    def __init__(self, values: np.ndarray, valid: np.ndarray):
        self.values = values
        self.valid = valid
        #: the decoded view :func:`as_objects` hands out, once asked for.
        self._objects: np.ndarray | None = None

    # -- array protocol --------------------------------------------------------

    @property
    def dtype(self):
        return self.values.dtype

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, (int, np.integer)):
            return self.values[index] if self.valid[index] else None
        return Nullable(self.values[index], self.valid[index])

    def __iter__(self) -> Iterator:
        for value, ok in zip(self.values, self.valid):
            yield value if ok else None

    def astype(self, dtype) -> "np.ndarray | Nullable":
        """Cast; the object target decodes to ``None``-carrying objects."""
        if np.dtype(dtype) == object:
            return self.to_objects()
        return Nullable(self.values.astype(dtype), self.valid)

    def to_objects(self) -> np.ndarray:
        """Decode to an object array with ``None`` at invalid positions."""
        out = self.values.astype(object)
        out[~self.valid] = None
        return out

    # -- arithmetic (scalar shifts used by interval / date arithmetic) --------

    def _binary(self, other: Any, operation, reflected: bool = False) -> Any:
        other_values, other_valid = data_of(other)
        if other_values is None and other is None:
            return None
        if reflected:
            result = operation(other_values, self.values)
        else:
            result = operation(self.values, other_values)
        valid = self.valid if other_valid is None else (self.valid & other_valid)
        return Nullable(result, valid)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __radd__(self, other):
        return self._binary(other, np.add, reflected=True)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return self._binary(other, np.subtract, reflected=True)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    def __rmul__(self, other):
        return self._binary(other, np.multiply, reflected=True)

    def __neg__(self):
        return Nullable(-self.values, self.valid)


class Kleene:
    """Three-valued predicate result over paired boolean arrays.

    Canonical form: ``truth & valid == truth`` (UNKNOWN rows carry a False
    truth bit), so ``truth`` *is* the is-TRUE filter mask.
    """

    __slots__ = ("truth", "valid", "_objects")
    __array_priority__ = 1000

    def __init__(self, truth: np.ndarray, valid: np.ndarray):
        self.truth = truth & valid
        self.valid = valid
        self._objects: np.ndarray | None = None

    @classmethod
    def unknown(cls, length: int) -> "Kleene":
        empty = np.zeros(length, dtype=bool)
        return cls(empty, empty)

    def __len__(self) -> int:
        return len(self.truth)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, (int, np.integer)):
            if not self.valid[index]:
                return None
            return bool(self.truth[index])
        return Kleene(self.truth[index], self.valid[index])

    def __iter__(self) -> Iterator:
        for truth, ok in zip(self.truth, self.valid):
            yield bool(truth) if ok else None

    def to_objects(self) -> np.ndarray:
        out = self.truth.astype(object)
        out[~self.valid] = None
        return out

    # -- Kleene connectives ----------------------------------------------------

    def __invert__(self) -> "Kleene":
        return Kleene(~self.truth & self.valid, self.valid)

    def __and__(self, other):
        return kleene_and(self, other)

    __rand__ = __and__

    def __or__(self, other):
        return kleene_or(self, other)

    __ror__ = __or__


def is_array(value: Any) -> bool:
    """True for every bulk operand shape (ndarray, Nullable, Kleene)."""
    return isinstance(value, (np.ndarray, Nullable, Kleene))


def data_of(value: Any) -> tuple[Any, np.ndarray | None]:
    """Split ``value`` into ``(values, valid-or-None)``.

    Object arrays get their ``None`` positions lifted into a validity mask;
    plain typed arrays and non-None scalars are fully valid; a scalar
    ``None`` comes back as ``(None, None)`` (callers special-case it).
    """
    if isinstance(value, Nullable):
        return value.values, value.valid
    if isinstance(value, Kleene):
        return value.truth, value.valid
    if isinstance(value, np.ndarray) and value.dtype == object:
        nulls = none_positions(value)
        if nulls.any():
            return value, ~nulls
    return value, None


def wrap_valid(values: np.ndarray, valid: np.ndarray | None) -> Any:
    """Pair ``values`` with ``valid``, collapsing the all-valid case."""
    if valid is None:
        return values
    return Nullable(values, valid)


def combine_valid(*valids: np.ndarray | None) -> np.ndarray | None:
    """AND together validity masks, treating None as all-valid."""
    combined: np.ndarray | None = None
    for valid in valids:
        if valid is None:
            continue
        combined = valid if combined is None else (combined & valid)
    return combined


def as_objects(value: Any) -> Any:
    """Object-array view of any bulk operand; read-only.

    A :class:`Nullable` / :class:`Kleene` decodes once and keeps the view:
    fallback paths (row-at-a-time predicates, string kernels) may ask for the
    same column several times per query.  Two threads racing here both
    decode, to equal arrays.
    """
    if isinstance(value, (Nullable, Kleene)):
        if value._objects is None:
            value._objects = value.to_objects()
        return value._objects
    if isinstance(value, np.ndarray):
        return value if value.dtype == object else value.astype(object)
    return value


def as_kleene(value: Any, length: int) -> Kleene:
    """Coerce any predicate result to a :class:`Kleene` of ``length`` rows."""
    if isinstance(value, Kleene):
        return value
    if isinstance(value, Nullable):
        return Kleene(value.values.astype(bool), value.valid)
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            valid = ~none_positions(value)
            return Kleene(value.astype(bool), valid)
        truth = value if value.dtype == bool else value.astype(bool)
        return Kleene(truth, np.ones(length, dtype=bool))
    if value is None:
        return Kleene.unknown(length)
    full = np.full(length, bool(value), dtype=bool)
    return Kleene(full, np.ones(length, dtype=bool))


def truth_mask(value: Any, length: int) -> np.ndarray:
    """Collapse a predicate result to its is-TRUE boolean filter mask."""
    if isinstance(value, Kleene):
        return value.truth  # canonical: UNKNOWN rows already False
    if isinstance(value, Nullable):
        return value.values.astype(bool) & value.valid
    if isinstance(value, np.ndarray):
        if value.dtype == bool:
            return value
        return value.astype(bool)  # object arrays: bool(None) is False
    return np.full(length, bool(value), dtype=bool)


def _bulk_length(*operands: Any) -> int | None:
    for operand in operands:
        if is_array(operand):
            return len(operand)
    return None


def kleene_not(value: Any) -> Any:
    """Kleene NOT over scalars, boolean arrays and Kleene masks."""
    if isinstance(value, Kleene):
        return ~value
    if isinstance(value, Nullable):
        return ~as_kleene(value, len(value))
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            kleene = as_kleene(value, len(value))
            return ~kleene if not kleene.valid.all() else ~kleene.truth
        return ~value if value.dtype == bool else ~value.astype(bool)
    if value is None:
        return None
    return not value


def _plain_bool(value: Any) -> Any:
    """Two-valued view of an operand, or None when it needs Kleene."""
    if isinstance(value, np.ndarray):
        if value.dtype == bool:
            return value
        if value.dtype != object:
            return value.astype(bool)
        return None
    if isinstance(value, (Nullable, Kleene)) or value is None:
        return None
    return bool(value)


def kleene_and(left: Any, right: Any) -> Any:
    """Kleene AND; scalar in/out when both operands are scalar."""
    length = _bulk_length(left, right)
    if length is None:
        # truthiness, not identity: 0 AND NULL is FALSE (0 decides), the
        # same way the row engine short-circuits on any falsy operand.
        if (left is not None and not left) or (right is not None and not right):
            return False
        if left is None or right is None:
            return None
        return True
    plain_left, plain_right = _plain_bool(left), _plain_bool(right)
    if plain_left is not None and plain_right is not None:
        return plain_left & plain_right
    a, b = as_kleene(left, length), as_kleene(right, length)
    truth = a.truth & b.truth
    valid = (a.valid & b.valid) | (a.valid & ~a.truth) | (b.valid & ~b.truth)
    return Kleene(truth, valid)


def kleene_or(left: Any, right: Any) -> Any:
    """Kleene OR; scalar in/out when both operands are scalar."""
    length = _bulk_length(left, right)
    if length is None:
        if left is not None and left:
            return True
        if right is not None and right:
            return True
        if left is None or right is None:
            return None
        return False
    plain_left, plain_right = _plain_bool(left), _plain_bool(right)
    if plain_left is not None and plain_right is not None:
        return plain_left | plain_right
    a, b = as_kleene(left, length), as_kleene(right, length)
    truth = a.truth | b.truth
    valid = (a.valid & b.valid) | truth
    return Kleene(truth, valid)
