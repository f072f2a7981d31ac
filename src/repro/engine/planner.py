"""Shared query-analysis primitives: binding resolution and predicate
classification.

These building blocks are consumed by the :class:`repro.engine.plan.Planner`,
which runs them once per query and bakes the outcome into the logical plan
both physical backends execute (the executors no longer re-derive this
analysis from the AST themselves):

* :class:`ColumnInfo` / :class:`Scope` -- name resolution of (possibly
  qualified) column references against the FROM-clause bindings, with a link
  to an outer scope for correlated subqueries; :class:`Layout` -- the same
  resolution to a column *position*, shared by frames and the compilers,
* :func:`classify_conjuncts` -- splits the WHERE clause into single-relation
  filters (push-down candidates), equi-join conditions, and residual
  predicates (anything referencing several relations, outer columns or
  subqueries),
* :func:`contains_subquery` / :func:`contains_aggregate` -- structural tests
  used when choosing execution strategies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExecutionError, PlanError
from repro.sqlparser import ast


@dataclass(frozen=True)
class ColumnInfo:
    """One column visible inside a query block."""

    binding: str
    name: str
    type_name: str

    @property
    def key(self) -> tuple[str, str]:
        return (self.binding.lower(), self.name.lower())


class Layout:
    """Position lookup over a list of columns: a frame's, or at compile time
    the one a frame will have.

    ``ambiguous`` selects what an unqualified name matching several columns
    does: ``"first"`` mirrors the row frames (first binding wins), ``"raise"``
    mirrors the column engine's strict resolution.
    """

    __slots__ = ("columns", "ambiguous", "_index", "_by_name")

    def __init__(self, columns: list[ColumnInfo], ambiguous: str = "first"):
        self.columns = list(columns)
        self.ambiguous = ambiguous
        self._index: dict[tuple[str, str], int] = {}
        self._by_name: dict[str, list[int]] = {}
        for position, column in enumerate(self.columns):
            self._index[(column.binding.lower(), column.name.lower())] = position
            self._by_name.setdefault(column.name.lower(), []).append(position)

    def position(self, ref: ast.ColumnRef) -> int | None:
        if ref.table:
            return self._index.get((ref.table.lower(), ref.name.lower()))
        positions = self._by_name.get(ref.name.lower())
        if not positions:
            return None
        if len(positions) > 1 and self.ambiguous == "raise":
            raise ExecutionError(
                f"ambiguous column '{ref.name}' (qualify it with a table alias)")
        return positions[0]

    def type_of(self, position: int) -> str:
        return self.columns[position].type_name


@dataclass
class Scope:
    """Name-resolution scope: the columns of the current block plus an outer link."""

    columns: list[ColumnInfo] = field(default_factory=list)
    outer: "Scope | None" = None

    def add(self, column: ColumnInfo) -> None:
        self.columns.append(column)

    def extend(self, columns: list[ColumnInfo]) -> None:
        self.columns.extend(columns)

    # -- resolution -----------------------------------------------------------

    def resolve_local(self, ref: ast.ColumnRef) -> ColumnInfo | None:
        """Resolve ``ref`` against this scope only (None when not found)."""
        name = ref.name.lower()
        if ref.table:
            table = ref.table.lower()
            for column in self.columns:
                if column.binding.lower() == table and column.name.lower() == name:
                    return column
            return None
        matches = [column for column in self.columns if column.name.lower() == name]
        if not matches:
            return None
        if len(matches) > 1:
            # Ambiguity across bindings: prefer an exact single match per
            # binding order; TPC-H never needs more than this.
            return matches[0]
        return matches[0]

    def resolve(self, ref: ast.ColumnRef) -> tuple[ColumnInfo, bool]:
        """Resolve ``ref`` here or in an outer scope.

        Returns ``(column, is_outer)``; raises :class:`PlanError` when the
        name cannot be resolved anywhere.
        """
        local = self.resolve_local(ref)
        if local is not None:
            return local, False
        outer = self.outer
        while outer is not None:
            found = outer.resolve_local(ref)
            if found is not None:
                return found, True
            outer = outer.outer
        raise PlanError(f"unknown column '{ref.qualified}'")

    def is_visible(self, ref: ast.ColumnRef) -> bool:
        """True when ``ref`` resolves in this scope or an outer one."""
        try:
            self.resolve(ref)
        except PlanError:
            return False
        return True

    def is_local(self, ref: ast.ColumnRef) -> bool:
        """True when ``ref`` resolves in this scope (not an outer one)."""
        return self.resolve_local(ref) is not None

    def bindings_of(self, expression: ast.Expression) -> set[str]:
        """Return the local binding names referenced by ``expression``.

        Columns that only resolve in an outer scope are ignored (they do not
        constrain the local join order); unknown columns raise
        :class:`PlanError`.
        """
        bindings: set[str] = set()
        for ref in ast.column_refs(expression):
            column, is_outer = self.resolve(ref)
            if not is_outer:
                bindings.add(column.binding.lower())
        return bindings


# ---------------------------------------------------------------------------
# predicate classification
# ---------------------------------------------------------------------------


@dataclass
class ClassifiedPredicates:
    """The WHERE clause split by the role each conjunct plays."""

    #: conjuncts that reference exactly one relation and no subquery,
    #: keyed by binding name -- push-down candidates.
    single: dict[str, list[ast.Expression]] = field(default_factory=dict)
    #: equality joins between two relations: (left ref, right ref, conjunct).
    equi_joins: list[tuple[ast.ColumnRef, ast.ColumnRef, ast.Expression]] = field(
        default_factory=list
    )
    #: everything else (multi-relation non-equi predicates, predicates with
    #: subqueries, predicates referencing outer columns).
    residual: list[ast.Expression] = field(default_factory=list)
    #: single-relation predicates that are no conjunct of the WHERE clause but
    #: follow from a residual disjunction (see :func:`implied_by_disjunction`),
    #: keyed by binding -- push-down candidates on top of ``single``.
    implied: dict[str, list[ast.Expression]] = field(default_factory=dict)

    def all_predicates(self) -> list[ast.Expression]:
        """Every conjunct, in classification order (used when push-down is off)."""
        ordered: list[ast.Expression] = []
        for predicates in self.single.values():
            ordered.extend(predicates)
        ordered.extend(join for _, _, join in self.equi_joins)
        ordered.extend(self.residual)
        return ordered


def contains_subquery(expression: ast.Expression) -> bool:
    """True when ``expression`` contains any nested SELECT."""
    return any(isinstance(node, ast.Select) for node in expression.walk())


def contains_aggregate(expression: ast.Expression) -> bool:
    """True when ``expression`` contains an aggregate call outside any subquery."""
    return ast.has_local_aggregate(expression)


def classify_conjuncts(where: ast.Expression | None, scope: Scope) -> ClassifiedPredicates:
    """Split the WHERE clause of a block into push-down / join / residual parts."""
    classified = ClassifiedPredicates()
    for conjunct in ast.conjuncts(where):
        if contains_subquery(conjunct):
            classified.residual.append(conjunct)
            continue
        try:
            bindings = scope.bindings_of(conjunct)
        except PlanError:
            classified.residual.append(conjunct)
            continue
        if _is_equi_join(conjunct, scope):
            left, right = conjunct.left, conjunct.right  # type: ignore[union-attr]
            classified.equi_joins.append((left, right, conjunct))
            continue
        if len(bindings) == 1:
            binding = next(iter(bindings))
            classified.single.setdefault(binding, []).append(conjunct)
        elif len(bindings) == 0:
            # constant or purely-outer predicate: keep it as residual so it is
            # still evaluated (possibly per outer row).
            classified.residual.append(conjunct)
        else:
            classified.residual.append(conjunct)
            for binding, predicate in implied_by_disjunction(conjunct, scope).items():
                classified.implied.setdefault(binding, []).append(predicate)
    return classified


def implied_by_disjunction(conjunct: ast.Expression, scope: Scope
                           ) -> dict[str, ast.Expression]:
    """The single-relation predicates a subquery-free ``OR`` implies, by binding.

    TPC-H Q7's ``(n1.n_name = 'FRANCE' and n2.n_name = 'GERMANY') or
    (n1.n_name = 'GERMANY' and n2.n_name = 'FRANCE')`` spans two relations and
    stays residual, yet no row with another ``n1.n_name`` can pass it.  When
    *every* disjunct has conjuncts over binding *b* alone (no column of an
    enclosing block among them), the ``OR`` over the disjuncts of the ``AND``
    of those conjuncts is TRUE wherever the disjunction is -- under Kleene
    logic too: a TRUE disjunction has a TRUE disjunct, whose conjuncts are all
    TRUE -- so *b*'s scan may drop every row it rejects.  The disjunction
    itself stays where it is.
    """
    if not (isinstance(conjunct, ast.BoolOp) and conjunct.operator == "or"):
        return {}
    per_disjunct: list[dict[str, list[ast.Expression]]] = []
    for disjunct in conjunct.operands:
        own: dict[str, list[ast.Expression]] = {}
        for part in ast.conjuncts(disjunct):
            bindings = scope.bindings_of(part)
            if len(bindings) == 1 and all(scope.is_local(ref)
                                          for ref in ast.column_refs(part)):
                own.setdefault(next(iter(bindings)), []).append(part)
        per_disjunct.append(own)
    return {
        binding: ast.BoolOp("or", [
            own[binding][0] if len(own[binding]) == 1 else ast.BoolOp("and", own[binding])
            for own in per_disjunct])
        for binding in per_disjunct[0]
        if all(binding in own for own in per_disjunct)}


def _is_equi_join(conjunct: ast.Expression, scope: Scope) -> bool:
    """True for ``a.x = b.y`` between two *different* local relations."""
    if not isinstance(conjunct, ast.Comparison) or conjunct.operator != "=":
        return False
    if conjunct.quantifier is not None:
        return False
    left, right = conjunct.left, conjunct.right
    if not isinstance(left, ast.ColumnRef) or not isinstance(right, ast.ColumnRef):
        return False
    if not scope.is_local(left) or not scope.is_local(right):
        return False
    left_info = scope.resolve_local(left)
    right_info = scope.resolve_local(right)
    assert left_info is not None and right_info is not None
    return left_info.binding.lower() != right_info.binding.lower()


def probes_index(item: ast.TableExpression, keyed: bool, filtered: bool,
                 upstream_filtered: bool) -> bool:
    """Whether the row engine reads a join side through a storage key index.

    Only a base table joined on equality keys can be.  Unfiltered, it always
    is: the table a build loop would fill *is* the index.  With push-down
    predicates of its own it is when a level before it in the join order
    carries some too -- the probes then reach a fraction of its rows and the
    inlined guards run on those alone, where a build runs them on every row.
    Under an unfiltered upstream the probes reach every row anyway (a
    many-to-one join reaches it repeatedly), so the filtered build stays.

    The pipeline generator emits what this says and the planner's join costs
    charge for it, so the two cannot disagree.
    """
    return keyed and isinstance(item, ast.TableRef) and (not filtered or upstream_filtered)


def always_date(node: ast.Expression, layout: Layout) -> bool:
    """True when ``node`` always evaluates to a date (or NULL)."""
    if isinstance(node, ast.DateLiteral):
        return True
    if isinstance(node, ast.ColumnRef):
        position = layout.position(node)
        return position is not None and layout.type_of(position) == "date"
    if (isinstance(node, ast.BinaryOp) and node.operator in ("+", "-")
            and isinstance(node.right, ast.IntervalLiteral)):
        return always_date(node.left, layout)
    if isinstance(node, ast.Cast):
        return node.type_name.lower().startswith("date")
    if isinstance(node, ast.FunctionCall):
        return node.name.lower() in ("min", "max") and len(node.arguments) == 1 \
            and always_date(node.arguments[0], layout)
    if isinstance(node, ast.CaseWhen):
        # every branch a date or the NULL literal, and one of them a date
        results = [result for _, result in node.branches if not _null_literal(result)]
        if node.default is not None and not _null_literal(node.default):
            results.append(node.default)
        return bool(results) and all(always_date(result, layout) for result in results)
    return False


def _null_literal(node: ast.Expression) -> bool:
    return isinstance(node, ast.Literal) and node.value is None


def output_type(expression: ast.Expression, layout: Layout) -> str | None:
    """The type of one select item as far as the plan knows it: a bare
    column's, ``"date"`` for what :func:`always_date` says is one, else None
    (the column engine then reads it off the array the item evaluates to --
    which cannot tell a day ordinal from an integer, hence this)."""
    if isinstance(expression, ast.ColumnRef):
        position = layout.position(expression)
        if position is not None:
            return layout.type_of(position)
    return "date" if always_date(expression, layout) else None


def _star_columns(star: ast.Star, columns: list[ColumnInfo]) -> list[ColumnInfo]:
    return [column for column in columns
            if star.table is None or column.binding.lower() == star.table.lower()]


def output_columns(select: ast.Select, scope: Scope) -> list[str]:
    """Compute the output column names of a block (aliases, names, colN)."""
    names: list[str] = []
    for position, item in enumerate(select.items):
        if isinstance(item.expression, ast.Star):
            names.extend(column.name for column in _star_columns(item.expression,
                                                                 scope.columns))
        else:
            names.append(item.output_name(position))
    return names


def output_types(select: ast.Select, columns: list[ColumnInfo]) -> list[str | None]:
    """Beside :func:`output_columns`' names, the types :func:`output_type`
    knows of a block over ``columns``: what a derived table's columns are
    typed from."""
    layout = Layout(columns)
    types: list[str | None] = []
    for item in select.items:
        if isinstance(item.expression, ast.Star):
            types.extend(column.type_name for column in _star_columns(item.expression,
                                                                      columns))
        else:
            types.append(output_type(item.expression, layout))
    return types
