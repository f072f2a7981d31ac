"""Abstract syntax tree for the supported SQL dialect.

The AST is shared by the grammar extractor (which walks it to split a baseline
query into SQALPEL rules) and the relational engines (which compile it into
executable plans).  It covers the SELECT subset exercised by TPC-H:
expressions with arithmetic, comparisons, boolean connectives, LIKE, BETWEEN,
IN (value lists and subqueries), EXISTS, IS NULL, CASE, CAST, EXTRACT,
SUBSTRING, aggregate and scalar function calls, date and interval literals,
joins expressed in the FROM list or with explicit JOIN ... ON, GROUP BY,
HAVING, ORDER BY, LIMIT and subqueries in FROM.

Nodes are frozen values: the parser builds each one whole, and a rewrite
builds a new tree (:func:`rebuild`).  Each ``Select`` carries its block
number, which the plans key their blocks by.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterator, TypeVar


class Node:
    """Base class of all AST nodes."""

    __slots__ = ()

    def children(self) -> Iterator["Node"]:
        """Yield the direct child nodes (used by generic walkers)."""
        return iter(())

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression(Node):
    """Base class of expression nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Literal(Expression):
    """A constant: number, string, boolean or NULL."""

    value: object
    type_name: str = "unknown"  # number | string | boolean | null


@dataclass(frozen=True, slots=True)
class DateLiteral(Expression):
    """A ``date 'YYYY-MM-DD'`` literal, stored as an ISO string."""

    value: str


@dataclass(frozen=True, slots=True)
class IntervalLiteral(Expression):
    """An ``interval '3' month`` literal."""

    value: int
    unit: str  # day | month | year


@dataclass(frozen=True, slots=True)
class ColumnRef(Expression):
    """A (possibly qualified) column reference."""

    name: str
    table: str | None = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True, slots=True)
class Star(Expression):
    """``*`` or ``table.*`` in a select list or inside ``count(*)``."""

    table: str | None = None


@dataclass(frozen=True, slots=True)
class UnaryOp(Expression):
    """Unary operators: ``-x``, ``+x``, ``NOT x``."""

    operator: str
    operand: Expression

    def children(self) -> Iterator[Node]:
        yield self.operand


@dataclass(frozen=True, slots=True)
class BinaryOp(Expression):
    """Binary arithmetic/comparison/string operators."""

    operator: str
    left: Expression
    right: Expression

    def children(self) -> Iterator[Node]:
        yield self.left
        yield self.right


@dataclass(frozen=True, slots=True)
class BoolOp(Expression):
    """N-ary AND / OR."""

    operator: str  # "and" | "or"
    operands: list[Expression] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield from self.operands


@dataclass(frozen=True, slots=True)
class Comparison(Expression):
    """Comparison with an optional ANY/ALL subquery quantifier."""

    operator: str
    left: Expression
    right: Expression
    quantifier: str | None = None  # "any" | "all" | None

    def children(self) -> Iterator[Node]:
        yield self.left
        yield self.right


@dataclass(frozen=True, slots=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def children(self) -> Iterator[Node]:
        yield self.operand


@dataclass(frozen=True, slots=True)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def children(self) -> Iterator[Node]:
        yield self.operand
        yield self.low
        yield self.high


@dataclass(frozen=True, slots=True)
class Like(Expression):
    """``expr [NOT] LIKE pattern``."""

    operand: Expression
    pattern: Expression
    negated: bool = False

    def children(self) -> Iterator[Node]:
        yield self.operand
        yield self.pattern


@dataclass(frozen=True, slots=True)
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expression
    items: list[Expression] = field(default_factory=list)
    negated: bool = False

    def children(self) -> Iterator[Node]:
        yield self.operand
        yield from self.items


@dataclass(frozen=True, slots=True)
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)``."""

    operand: Expression
    subquery: "Select" = None  # type: ignore[assignment]
    negated: bool = False

    def children(self) -> Iterator[Node]:
        yield self.operand
        yield self.subquery


@dataclass(frozen=True, slots=True)
class Exists(Expression):
    """``[NOT] EXISTS (SELECT ...)``."""

    subquery: "Select" = None  # type: ignore[assignment]
    negated: bool = False

    def children(self) -> Iterator[Node]:
        yield self.subquery


@dataclass(frozen=True, slots=True)
class ScalarSubquery(Expression):
    """A subquery used as a scalar value."""

    subquery: "Select" = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.subquery


@dataclass(frozen=True, slots=True)
class FunctionCall(Expression):
    """A function or aggregate call."""

    name: str
    arguments: list[Expression] = field(default_factory=list)
    distinct: bool = False

    def children(self) -> Iterator[Node]:
        yield from self.arguments

    @property
    def is_aggregate(self) -> bool:
        return self.name.lower() in AGGREGATE_FUNCTIONS


@dataclass(frozen=True, slots=True)
class Cast(Expression):
    """``CAST(expr AS type)``."""

    operand: Expression
    type_name: str

    def children(self) -> Iterator[Node]:
        yield self.operand


@dataclass(frozen=True, slots=True)
class Extract(Expression):
    """``EXTRACT(field FROM expr)``."""

    field_name: str
    operand: Expression

    def children(self) -> Iterator[Node]:
        yield self.operand


@dataclass(frozen=True, slots=True)
class Substring(Expression):
    """``SUBSTRING(expr FROM start FOR length)`` (or comma form)."""

    operand: Expression
    start: Expression
    length: Expression | None = None

    def children(self) -> Iterator[Node]:
        yield self.operand
        yield self.start
        if self.length is not None:
            yield self.length


@dataclass(frozen=True, slots=True)
class CaseWhen(Expression):
    """A searched CASE expression."""

    branches: list[tuple[Expression, Expression]] = field(default_factory=list)
    default: Expression | None = None

    def children(self) -> Iterator[Node]:
        for condition, result in self.branches:
            yield condition
            yield result
        if self.default is not None:
            yield self.default


#: Names treated as aggregate functions by the analyser and the engines.
AGGREGATE_FUNCTIONS = frozenset({"sum", "avg", "min", "max", "count"})


# ---------------------------------------------------------------------------
# Relations / query structure
# ---------------------------------------------------------------------------


class TableExpression(Node):
    """Base class of FROM-clause items."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class TableRef(TableExpression):
    """A base table reference with an optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        """Name the table is visible under inside the query."""
        return self.alias or self.name


@dataclass(frozen=True, slots=True)
class SubqueryRef(TableExpression):
    """A derived table: ``(SELECT ...) alias``."""

    subquery: "Select"
    alias: str

    def children(self) -> Iterator[Node]:
        yield self.subquery

    @property
    def binding(self) -> str:
        return self.alias


@dataclass(frozen=True, slots=True)
class Join(TableExpression):
    """An explicit ``A JOIN B ON condition``."""

    left: TableExpression
    right: TableExpression
    kind: str = "inner"  # inner | left | right | full | cross
    condition: Expression | None = None

    def children(self) -> Iterator[Node]:
        yield self.left
        yield self.right
        if self.condition is not None:
            yield self.condition

    @property
    def binding(self) -> str:  # pragma: no cover - joins are unwrapped before binding
        return "<join>"


@dataclass(frozen=True, slots=True)
class SelectItem(Node):
    """One projection-list element with an optional alias."""

    expression: Expression
    alias: str | None = None

    def children(self) -> Iterator[Node]:
        yield self.expression

    def output_name(self, position: int) -> str:
        """Name of the output column (alias, column name, or col<N>)."""
        if self.alias:
            return self.alias
        if isinstance(self.expression, ColumnRef):
            return self.expression.name
        return f"col{position + 1}"


@dataclass(frozen=True, slots=True)
class OrderItem(Node):
    """One ORDER BY term."""

    expression: Expression
    descending: bool = False

    def children(self) -> Iterator[Node]:
        yield self.expression


@dataclass(frozen=True, slots=True)
class Select(Node):
    """A SELECT query block."""

    items: list[SelectItem] = field(default_factory=list)
    from_items: list[TableExpression] = field(default_factory=list)
    where: Expression | None = None
    group_by: list[Expression] = field(default_factory=list)
    having: Expression | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False
    #: the block's number: the order the parser opened the blocks of one
    #: text in, 0 for the root.  No comparison, ``repr`` or printed SQL sees it.
    block: int = field(default=0, compare=False, repr=False)

    def children(self) -> Iterator[Node]:
        yield from self.items
        yield from self.from_items
        if self.where is not None:
            yield self.where
        yield from self.group_by
        if self.having is not None:
            yield self.having
        yield from self.order_by

    # -- analysis helpers -----------------------------------------------------

    def table_refs(self) -> list[TableRef]:
        """Return every base-table reference in this block (not subqueries)."""
        refs: list[TableRef] = []

        def collect(item: TableExpression) -> None:
            if isinstance(item, TableRef):
                refs.append(item)
            elif isinstance(item, Join):
                collect(item.left)
                collect(item.right)

        for item in self.from_items:
            collect(item)
        return refs

    def has_aggregates(self) -> bool:
        """True when any select item or HAVING uses an aggregate function.

        Aggregates inside nested subqueries do not count: they aggregate in
        their own block.
        """
        scope: list[Expression] = [item.expression for item in self.items]
        if self.having is not None:
            scope.append(self.having)
        return any(has_local_aggregate(expression) for expression in scope)

    def subqueries(self) -> list["Select"]:
        """Return directly nested subqueries (in FROM, WHERE, select list, HAVING)."""
        nested: list[Select] = []
        for node in self.walk():
            if node is self:
                continue
            if isinstance(node, Select):
                nested.append(node)
        return nested


N = TypeVar("N", bound=Node)


def rebuild(node: N, child: Callable[[Node], Node], **changes) -> N:
    """A copy of ``node`` with ``changes`` in place of the fields they name
    and ``child(part)`` in place of every other node ``part`` among its
    fields (in a list, or in a CASE branch's tuple).  The parts are met last
    first, the order :func:`walk_local` yields them in."""
    def over(value):
        if isinstance(value, Node):
            return child(value)
        if isinstance(value, (list, tuple)):
            parts = [over(part) for part in reversed(value)][::-1]
            return parts if isinstance(value, list) else tuple(parts)
        return value
    for part in reversed(fields(node)):
        if part.name not in changes:
            changes[part.name] = over(getattr(node, part.name))
    return replace(node, **changes)


def walk_local(expression: Node) -> Iterator[Node]:
    """Yield ``expression`` and its descendants WITHOUT entering nested SELECTs.

    Aggregates and column references that live inside a subquery belong to
    that subquery's scope, so analyses of the enclosing expression must not
    see them; this walker is the pruning counterpart of :meth:`Node.walk`.
    """
    stack: list[Node] = [expression]
    while stack:
        node = stack.pop()
        yield node
        for child in node.children():
            if isinstance(child, Select):
                continue
            stack.append(child)


def has_local_aggregate(expression: Expression) -> bool:
    """True when ``expression`` itself (not a nested subquery) uses an aggregate."""
    return any(
        isinstance(node, FunctionCall) and node.is_aggregate
        for node in walk_local(expression)
    )


def conjuncts(expression: Expression | None) -> list[Expression]:
    """Split a WHERE/HAVING expression into its top-level AND conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, BoolOp) and expression.operator == "and":
        parts: list[Expression] = []
        for operand in expression.operands:
            parts.extend(conjuncts(operand))
        return parts
    return [expression]


def column_refs(expression: Expression) -> list[ColumnRef]:
    """Return every column reference inside ``expression`` (excluding subqueries)."""
    refs: list[ColumnRef] = []
    stack: list[Node] = [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, ColumnRef):
            refs.append(node)
            continue
        if isinstance(node, Select):
            continue  # do not descend into nested query blocks
        stack.extend(node.children())
    return list(reversed(refs))
