"""Compile-once lowering of planned query blocks, for both physical backends.

The recursive interpreters (:mod:`repro.engine.expression` for the row engine,
:class:`repro.engine.vector.VectorEvaluator` for the column engine) re-dispatch
on the AST node type for every row / every operator application; on the
driver's plan-once/execute-many loop that dispatch drowns the
execution-strategy contrast the paper cares about.  This module lowers each
planned block *once*; the result is cached on the
:class:`~repro.engine.plan.QueryPlan` (:meth:`QueryPlan.kernels`), so the LRU
plan cache amortises compilation exactly like planning.

* **Row pipelines** -- data-centric code generation.  :func:`compile_row_block`
  writes the source of one Python function per block and ``compile()``s it
  into a :class:`RowPipeline`: an access path per non-driving FROM item, then
  a single loop nest in the plan's join order -- ``for r0 in scan0: if
  <push-down>: for r1 in ix1(k, ()): ... <residual> -> <accumulate |
  project>`` -- with one row variable per binding instead of concatenated
  tuples, one running state list per group instead of value lists, and
  integer row counters that are all a traced run needs.  A base table joined
  on equality keys is probed through the key index storage owns
  (:meth:`StorageTable.key_index`, a scalar key for one-column joins), its
  push-down predicates inlined in the probe loop; a hash table is built per
  execution (push-down inlined in the build loop) only over a derived table,
  or over a filtered base table when nothing upstream is filtered -- see
  :func:`~repro.engine.planner.probes_index`, which the planner's join costs
  consult as well.  Where the plan confined the driving scan to a scan window
  (``BlockPlan.window``), the loop runs over the rows in that range of one
  column, which the executor fetches through storage's key order, and the
  conjuncts the window decides are not emitted.  :class:`_Source` emits the
  expressions as straight-line statements.  A column of an enclosing block is bound once per
  run (``outers``).  What cannot be lowered -- a subquery -- goes to the
  interpreter *per subexpression*, from inside the generated loop (the
  ``interp`` hook).  :func:`compile_row_kernel` is the same generator pointed
  at one expression (``fn(row) -> value``).
* **Column kernels** -- ``fn(ctx) -> ndarray`` closures over a
  :class:`ColumnContext` that evaluates leaf columns through a **selection
  vector**: an ``int64`` index of the surviving rows.  Scans and residual
  predicates refine the selection, nothing is materialised per predicate;
  gathered columns are memoised per evaluation so repeated references pay
  one gather.  Beside them, per block, what the column pipeline needs to
  know before it runs (:class:`ColumnBlockShape`): frame layouts, join keys,
  output types and -- found by the one walk over an aggregated select list,
  :func:`aggregate_sites` -- the numbered leaf sites kernels, partial
  aggregate states and per-group evaluation are all indexed by.

Both mirror the interpreter semantics exactly (NULL propagation, date
coercion, LIKE, three-valued predicates).  :class:`CompileFallback` reaches a
caller only where there is no row to interpret on: from
:func:`compile_row_kernel`, around aggregate calls (the block then has
``run=None`` and the executor interprets it whole) and from the column
compiler, whose block then has no kernel (None) for that expression and
whose executor hands it to the ``VectorEvaluator``.
"""

from __future__ import annotations

import datetime
import functools
import itertools
import linecache
import math
import weakref
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.engine.expression import (
    compare_values,
    evaluate,
    in_members,
    like_predicate,
    scalar_functions,
)
from repro.engine.mask import (
    Nullable,
    as_objects,
    is_array,
    kleene_and,
    kleene_not,
    kleene_or,
    none_positions,
    truth_mask,
)
from repro.engine.planner import ColumnInfo, Layout, always_date, output_type, probes_index
from repro.engine.types import add_interval, date_to_ordinal, ordinal_to_date, to_date
from repro.engine.vector import (
    abs_values,
    arith_arrays,
    case_branch_values,
    cast_array,
    collapse_case_result,
    compare_arrays,
    concat_values,
    extract_date_field,
    in_list_mask,
    isnull_mask,
    length_values,
    like_mask,
    map_string_values,
    negate_values,
    round_values,
    widen_guarded,
)
from repro.errors import ExecutionError
from repro.sqlparser import ast


class CompileFallback(Exception):
    """Raised when an expression cannot be lowered to a compiled kernel."""


#: the comparison operators both compilers lower, with their Python spelling.
_PY_CMP = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: arithmetic operators the column kernels lower through
#: :func:`repro.engine.vector.arith_arrays` (NULL-propagating).
_ARITH_OPS = ("+", "-", "*", "/", "%")


# ---------------------------------------------------------------------------
# shared compile-time analysis
# ---------------------------------------------------------------------------


def _as_fn(pair: tuple[bool, Any]) -> Callable:
    const, value = pair
    if const:
        return lambda _arg, _value=value: _value
    return value


def _maybe_fold(fn: Callable, *pairs: tuple[bool, Any]) -> tuple[bool, Any]:
    """Constant-fold ``fn`` when every input is constant.

    Folding calls the closure with no context; a closure that needs runtime
    state (a row, a column context) or raises is kept as a runtime kernel so
    errors surface with interpreter timing.
    """
    if all(const for const, _ in pairs):
        try:
            return True, fn(None)
        except CompileFallback:
            raise
        except Exception:
            return False, fn
    return False, fn


def _never_date(node: ast.Expression, layout) -> bool:
    """True when ``node`` can never evaluate to a ``datetime.date`` instance."""
    if isinstance(node, (ast.Literal, ast.IntervalLiteral)):
        return True
    if isinstance(node, ast.DateLiteral):
        return False
    if isinstance(node, ast.ColumnRef):
        position = layout.position(node)
        return position is not None and layout.type_of(position) in (
            "int", "float", "bool", "str")
    if isinstance(node, ast.UnaryOp):
        return _never_date(node.operand, layout)
    if isinstance(node, ast.BinaryOp):
        if isinstance(node.left, ast.IntervalLiteral) or isinstance(node.right, ast.IntervalLiteral):
            return False
        return _never_date(node.left, layout) and _never_date(node.right, layout)
    if isinstance(node, ast.Cast):
        return not node.type_name.lower().startswith("date")
    if isinstance(node, (ast.Extract, ast.Substring, ast.Comparison, ast.Between,
                         ast.IsNull, ast.Like, ast.InList, ast.BoolOp)):
        return True
    return False


def _cast_converter(type_name: str) -> Callable[[Any], Any]:
    target = type_name.lower()
    if target.startswith(("int", "bigint", "smallint")):
        return int
    if target.startswith(("float", "double", "real", "decimal", "numeric")):
        return float
    if target.startswith(("char", "varchar", "text", "string")):
        return str
    if target.startswith("date"):
        return to_date
    raise CompileFallback(f"unsupported CAST target type '{type_name}'")


# ---------------------------------------------------------------------------
# row pipelines: generated source
# ---------------------------------------------------------------------------


def _div(left, right):
    if right == 0:
        raise ExecutionError("division by zero")
    return left / right


def _sub(left, right):
    if isinstance(left, datetime.date) and isinstance(right, datetime.date):
        return (left - right).days
    return left - right


def _shift(value, amount, unit):
    if not isinstance(value, datetime.date):
        raise ExecutionError("interval arithmetic requires a date operand")
    return add_interval(value, amount, unit)


def _interval_left(_value):
    raise ExecutionError("an interval may only appear on the right-hand side")


def _substr(value, start, length=None):
    begin = max(int(start) - 1, 0)
    text = str(value)
    return text[begin:] if length is None else text[begin:begin + int(length)]


#: what generated source may call besides builtins and its bound constants.
_RUNTIME = {
    "_div": _div, "_sub": _sub, "_shift": _shift, "_interval_left": _interval_left,
    "_substr": _substr, "add_interval": add_interval, "to_date": to_date,
    "compare_values": compare_values, "in_members": in_members,
    "like_predicate": like_predicate,
}

#: numbers the ``<rowpipe:N>`` file names generated sources are registered under.
_SERIAL = itertools.count(1)

#: node types the interpreter can evaluate with no row at all.
_FOLDABLE = (ast.Literal, ast.DateLiteral, ast.IntervalLiteral, ast.UnaryOp,
             ast.BinaryOp, ast.BoolOp, ast.Comparison, ast.IsNull, ast.Between,
             ast.Like, ast.InList, ast.Cast, ast.Extract, ast.Substring, ast.CaseWhen)

#: the node shapes evaluate_aggregate accepts around aggregate calls.
_AGGREGATE_WRAPPERS = (ast.BinaryOp, ast.UnaryOp, ast.Comparison, ast.BoolOp,
                       ast.CaseWhen, ast.Cast)


def _constant(node: ast.Expression) -> bool:
    return all(isinstance(part, _FOLDABLE)
               or (isinstance(part, ast.FunctionCall) and not part.is_aggregate)
               for part in node.walk())


class _Val(NamedTuple):
    """A generated expression: ``src`` is Python source that may be evaluated
    once every name in ``nulls`` is known not to be None, and the SQL value is
    NULL exactly when one of them is.  A temporary holding its own NULL has
    ``nulls == (src,)``; ``const`` is ``(value,)`` for a compile-time constant."""

    src: str
    nulls: tuple[str, ...] = ()
    const: tuple | None = None


_NULL = _Val("None", ("None",), (None,))


class _Source:
    """Emits the body of one generated function, statement by statement.

    Operators that propagate NULL and cannot raise compose into one inline
    Python expression guarded once by the union of their operands' ``nulls``.
    Everything the interpreter evaluates conditionally (Kleene operands past
    the first, CASE branches, IN members) is generated inside the block that
    makes it conditional, and everything that can raise is assigned to a
    temporary where the interpreter would evaluate it, so errors surface for
    the same rows.  ``scopes`` follows the blocks: what a block bound or
    proved non-NULL is forgotten when it closes.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 1
        self.env: dict[str, Any] = dict(_RUNTIME)
        self.scopes: list[tuple[dict[str, str], set[str]]] = [({}, set())]
        self.serial = itertools.count()
        #: what column refs resolve in: the layout, each position's source
        #: (``r0[5]``) and the whole row's, for the interpreter hook (None = no
        #: hook: what cannot be lowered raises).
        self.cols: tuple[Any, list[str], str | None] = (Layout([]), [], None)
        #: (expression, layout) pairs evaluated through the interpreter hook.
        self.interpreted: list[tuple[ast.Expression, Any]] = []
        #: the local each column of an enclosing block is bound to (see _outer_key).
        self.outers: dict[tuple[str, str], str] = {}
        #: memo entries in insertion order, so a failed lowering can be undone.
        self.journal: list[tuple[dict[str, str], str]] = []
        #: (call, final value) per aggregate call, while finalising a group.
        self.finals: list[tuple[ast.FunctionCall, _Val]] | None = None

    # -- emission -----------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def open(self, header: str) -> None:
        self.emit(header)
        self.depth += 1
        self.scopes.append(({}, set()))

    def close(self, blocks: int = 1) -> None:
        self.depth -= blocks
        del self.scopes[-blocks:]

    @contextmanager
    def block(self, header: str):
        self.open(header)
        try:
            yield
        finally:
            self.close()

    def fresh(self, prefix: str = "t") -> str:
        return f"{prefix}{next(self.serial)}"

    def bind(self, value: Any) -> str:
        name = self.fresh("K")
        self.env[name] = value
        return name

    def function(self, name: str, parameters: str) -> tuple[Callable, str]:
        """Compile the emitted body; its source is registered in ``linecache``
        for as long as the function lives, so tracebacks show the line."""
        source = f"def {name}({parameters}):\n" + "\n".join(self.lines) + "\n"
        filename = f"<rowpipe:{next(_SERIAL)}>"
        exec(compile(source, filename, "exec"), self.env)
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        weakref.finalize(self.env[name], linecache.cache.pop, filename, None)
        return self.env[name], source

    # -- values ---------------------------------------------------------------

    def known(self, atom: str) -> bool:
        return any(atom in known for _, known in self.scopes)

    def _memo(self, src: str) -> str | None:
        """The name already holding ``src`` in an enclosing scope."""
        for memo, _ in reversed(self.scopes):
            if src in memo:
                return memo[src]
        return None

    def _remember(self, src: str, name: str) -> str:
        self.scopes[-1][0][src] = name
        self.journal.append((self.scopes[-1][0], src))
        return name

    def nulls(self, atoms: tuple[str, ...], test: str = "is None",
              joiner: str = " or ") -> str:
        """Source testing those of ``atoms`` not yet proved non-NULL ('' = none left)."""
        return joiner.join(f"{atom} {test}" for atom in atoms if not self.known(atom))

    def value(self, val: _Val) -> str:
        """Source of the SQL value of ``val`` (None = NULL)."""
        unknown = self.nulls(val.nulls)
        if val.const is not None or not unknown or val.nulls == (val.src,):
            return val.src
        return f"(None if {unknown} else {val.src})"

    def truth(self, val: _Val) -> str:
        """Source that is truthy exactly when ``val`` is TRUE."""
        present = self.nulls(val.nulls, "is not None", " and ")
        if val.const is not None or not present or val.nulls == (val.src,):
            return val.src
        return f"{present} and {val.src}"

    def atom(self, val: _Val) -> _Val:
        """Evaluate ``val`` here, once, into a temporary holding its own NULL."""
        if val.const is not None or val.nulls == (val.src,):
            return val
        name = self._memo(val.src)
        if name is None:
            name = self._remember(val.src, self.fresh())
            self.emit(f"{name} = {self.value(val)}")
        return _Val(name, (name,))

    def constant(self, value: Any) -> _Val:
        if value is None:
            return _NULL
        if isinstance(value, ast.IntervalLiteral):
            raise CompileFallback("an interval outside date arithmetic")
        literal = type(value) in (int, str, bool) or (
            type(value) is float and math.isfinite(value))
        return _Val(repr(value) if literal else self.bind(value), (), (value,))

    def strict(self, template: str, *operands: _Val, effect: bool = False) -> _Val:
        """A NULL-propagating operator: NULL exactly when an operand is.

        ``effect`` marks operators that can raise or return NULL themselves;
        they are evaluated on the spot instead of inline in their consumer.
        """
        if any(operand.const == (None,) for operand in operands):
            return _NULL
        nulls = tuple(dict.fromkeys(atom for operand in operands for atom in operand.nulls))
        val = _Val(template.format(*(operand.src for operand in operands)), nulls)
        return self.atom(val) if effect else val

    def column(self, ref: ast.ColumnRef) -> _Val:
        layout, slots, _ = self.cols
        position = layout.position(ref)
        if position is None:
            name = self.outers.get(_outer_key(ref))
            if name is None:
                raise CompileFallback(f"column '{ref.qualified}' is not local")
            return _Val(name, (name,))
        slot = slots[position]
        name = self._memo(slot)
        if name is None:
            name = self._remember(slot, "c" + slot[1:-1].replace("[", "_"))
            self.emit(f"{name} = {slot}")
        return _Val(name, (name,))

    def guard(self, predicate: ast.Expression) -> None:
        """Skip the loop's current row unless ``predicate`` is TRUE."""
        val = self.expr(predicate)
        self.emit(f"if not ({self.truth(val)}): continue")
        self.scopes[-1][1].update(val.nulls)

    # -- expressions ----------------------------------------------------------

    def expr(self, node: ast.Expression) -> _Val:
        """Lower ``node``; what cannot be lowered (a subquery, an outer column)
        is evaluated by the interpreter, on the current row, right here."""
        mark = len(self.lines), len(self.journal), len(self.interpreted)
        try:
            return self._lower(node)
        except CompileFallback:
            layout, _, row = self.cols
            # around an aggregate there is no row to interpret on
            if row is None or (self.finals is not None and ast.has_local_aggregate(node)):
                raise
            del self.lines[mark[0]:], self.interpreted[mark[2]:]
            while len(self.journal) > mark[1]:
                memo, src = self.journal.pop()
                memo.pop(src, None)
            self.interpreted.append((node, layout))
            return self.atom(_Val(f"interp({len(self.interpreted) - 1}, {row})"))

    def _lower(self, node: ast.Expression) -> _Val:
        kind = type(node)
        if kind is ast.Literal:
            return self.constant(node.value)
        if kind is ast.ColumnRef:
            return self.column(node)
        if kind is ast.Star:
            return self.constant(1)
        if kind is ast.FunctionCall and node.is_aggregate:
            for call, final in self.finals or ():
                if call is node:
                    return final
            raise CompileFallback(
                f"aggregate function '{node.name.lower()}' used outside an aggregation context")
        if _constant(node):
            # one copy of the semantics: the interpreter folds; what raises
            # stays a run-time expression so the error keeps its timing.
            try:
                folded = evaluate(node, None)
            except Exception:
                pass
            else:
                return self.constant(folded)
        handler = getattr(self, "_" + kind.__name__.lower(), None)
        if handler is None:
            raise CompileFallback(f"cannot compile expression node {kind.__name__}")
        return handler(node)

    def _unaryop(self, node: ast.UnaryOp) -> _Val:
        template = {"not": "(not {})", "-": "(-{})"}.get(node.operator, "(+{})")
        return self.strict(template, self.expr(node.operand))

    def _binaryop(self, node: ast.BinaryOp) -> _Val:
        op, layout = node.operator, self.cols[0]
        if op == "||":
            return self.strict("(str({}) + str({}))", self.expr(node.left),
                               self.expr(node.right))
        if isinstance(node.right, ast.IntervalLiteral):
            amount = node.right.value if op == "+" else -node.right.value
            call = "add_interval" if always_date(node.left, layout) else "_shift"
            return self.strict(f"{call}({{}}, {amount!r}, {node.right.unit!r})",
                               self.expr(node.left), effect=call == "_shift")
        if isinstance(node.left, ast.IntervalLiteral):
            return self.strict("_interval_left({})", self.expr(node.right), effect=True)
        left, right = self.expr(node.left), self.expr(node.right)
        if op == "/":
            if right.const is not None and right.const[0]:
                return self.strict("({} / {})", left, right)
            return self.strict("_div({}, {})", left, right, effect=True)
        if op == "-" and not (_never_date(node.left, layout)
                              or _never_date(node.right, layout)):
            return self.strict("_sub({}, {})", left, right)
        if op in ("+", "-", "*", "%"):
            return self.strict(f"({{}} {op} {{}})", left, right, effect=op == "%")
        raise CompileFallback(f"unsupported binary operator '{op}'")

    def kleene(self, conjunction: bool, operands: list[Callable[[], _Val]]) -> _Val:
        """Three-valued AND / OR, evaluating operands as the interpreter does:
        in order, until one decides (FALSE for AND, TRUE for OR)."""
        result = self.fresh()
        decided = "False" if conjunction else "True"
        self.emit(f"{result} = {conjunction}")
        for index, operand in enumerate(operands):
            with self.block(f"if {result} is not {decided}:") if index else nullcontext():
                val = operand()
                unknown = self.nulls(val.nulls)
                test = f"not {val.src}" if conjunction else val.src
                if unknown:
                    self.emit(f"if {unknown}: {result} = None")
                self.emit(f"{'el' if unknown else ''}if {test}: {result} = {decided}")
        return _Val(result, (result,))

    def _boolop(self, node: ast.BoolOp) -> _Val:
        return self.kleene(node.operator == "and",
                           [lambda operand=operand: self.expr(operand)
                            for operand in node.operands])

    def _same_kind(self, *nodes: ast.Expression) -> bool:
        """True when plain Python comparison needs no date coercion."""
        layout = self.cols[0]
        return (all(_never_date(node, layout) for node in nodes)
                or all(always_date(node, layout) for node in nodes))

    def _compare(self, op: str, left: _Val, right: _Val, plain: bool) -> _Val:
        template = f"({{}} {_PY_CMP[op]} {{}})" if plain \
            else f"compare_values({op!r}, {{}}, {{}})"
        return self.strict(template, left, right)

    def _comparison(self, node: ast.Comparison) -> _Val:
        if node.quantifier is not None:
            raise CompileFallback("quantified comparisons require a subquery")
        if node.operator not in _PY_CMP:
            raise CompileFallback(f"unsupported comparison operator '{node.operator}'")
        return self._compare(node.operator, self.expr(node.left), self.expr(node.right),
                             self._same_kind(node.left, node.right))

    def _isnull(self, node: ast.IsNull) -> _Val:
        operand = self.expr(node.operand)
        test = self.nulls(operand.nulls, "is not None", " and ") if node.negated \
            else self.nulls(operand.nulls)
        if operand.const is not None or not test:
            return self.constant((operand.const == (None,)) != node.negated)
        return _Val(f"({test})")

    def _between(self, node: ast.Between) -> _Val:
        # the interpreter evaluates all three operands, then decomposes into
        # the Kleene conjunction low <= x AND x <= high.
        operand, low, high = (self.atom(self.expr(part))
                              for part in (node.operand, node.low, node.high))
        plain = self._same_kind(node.operand, node.low, node.high)
        if plain and not low.nulls and not high.nulls:
            inside = self.strict("({} <= {} <= {})", low, operand, high)
        else:
            inside = self.kleene(True, [
                lambda: self._compare("<=", low, operand, plain),
                lambda: self._compare("<=", operand, high, plain)])
        return self.strict("(not {})", inside) if node.negated else inside

    def _like(self, node: ast.Like) -> _Val:
        operand, pattern = self.expr(node.operand), self.expr(node.pattern)
        if pattern.const is not None and pattern.const[0] is not None:
            matcher = self.bind(like_predicate(str(pattern.const[0])))
            matched = self.strict(f"{matcher}({{}})", operand)
        else:
            matched = self.strict("like_predicate(str({1}))({0})", operand, pattern)
        return self.strict("(not {})", matched) if node.negated else matched

    def _inlist(self, node: ast.InList) -> _Val:
        operand = self.expr(node.operand)
        try:
            members = frozenset(evaluate(item, None) for item in node.items) \
                if all(_constant(item) for item in node.items) else None
        except Exception:  # a member raises (at run time, then) or is unhashable
            members = None
        if members is not None and None not in members:
            return self.strict(f"({{}} {'not in' if node.negated else 'in'} "
                               f"{self.bind(members)})", operand)
        # the general form: members are evaluated only for a non-NULL operand
        # and a NULL member can make the answer UNKNOWN.
        if operand.const == (None,):
            return _NULL
        operand, result = self.atom(operand), self.fresh()
        self.emit(f"{result} = None")
        with self.block(f"if {self.nulls(operand.nulls, 'is not None', ' and ') or True}:"):
            items = ", ".join(self.value(self.expr(item)) for item in node.items)
            self.emit(f"{result} = in_members({operand.src}, {{{items}}}, {node.negated})")
        return _Val(result, (result,))

    def _functioncall(self, node: ast.FunctionCall) -> _Val:
        name = node.name.lower()
        handler = scalar_functions.get(name)
        if handler is None:
            raise CompileFallback(f"unknown function '{name}'")
        arguments = [self.expr(argument) for argument in node.arguments]
        function = self.bind(handler)
        if name == "coalesce":
            values = ", ".join(self.value(argument) for argument in arguments)
            return self.atom(_Val(f"{function}({values})"))
        slots = ", ".join("{}" for _ in arguments)
        return self.strict(f"{function}({slots})", *arguments, effect=True)

    def _cast(self, node: ast.Cast) -> _Val:
        converter = _cast_converter(node.type_name)
        name = converter.__name__ if converter in (int, float, str) else "to_date"
        return self.strict(f"{name}({{}})", self.expr(node.operand), effect=True)

    def _extract(self, node: ast.Extract) -> _Val:
        if node.field_name not in ("year", "month", "day"):
            raise CompileFallback(f"unsupported EXTRACT field '{node.field_name}'")
        if always_date(node.operand, self.cols[0]):
            return self.strict(f"{{}}.{node.field_name}", self.expr(node.operand))
        return self.strict(f"to_date({{}}).{node.field_name}", self.expr(node.operand),
                           effect=True)

    def _substring(self, node: ast.Substring) -> _Val:
        parts = [node.operand, node.start] + ([node.length] if node.length is not None else [])
        slots = ", ".join("{}" for _ in parts)
        return self.strict(f"_substr({slots})", *(self.expr(part) for part in parts),
                           effect=True)

    def _casewhen(self, node: ast.CaseWhen) -> _Val:
        result = self.fresh()
        self._branches(list(node.branches), node.default, result)
        return _Val(result, (result,))

    def _branches(self, branches: list, default: ast.Expression | None, result: str) -> None:
        if not branches:
            chosen = "None" if default is None else self.value(self.expr(default))
            self.emit(f"{result} = {chosen}")
            return
        condition, outcome = branches[0]
        test = self.truth(self.expr(condition))
        with self.block(f"if {test}:"):
            self.emit(f"{result} = {self.value(self.expr(outcome))}")
        with self.block("else:"):
            self._branches(branches[1:], default, result)


def compile_row_kernel(expression: ast.Expression, layout) -> Callable[[tuple], Any]:
    """Lower ``expression`` to a generated ``fn(row) -> value`` function.

    Raises :class:`CompileFallback` for subqueries and unresolvable columns.
    """
    source = _Source()
    source.cols = (layout, [f"r0[{position}]" for position in range(len(layout.columns))], None)
    source.emit(f"return {source.value(source.expr(expression))}")
    return source.function("kernel", "r0")[0]


# ---------------------------------------------------------------------------
# row pipelines: one generated function per planned block
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexProbe:
    """A join side read through a storage key index instead of a scan."""

    table: str
    #: the key columns, by name and by position in the table's rows.
    columns: tuple[str, ...]
    positions: tuple[int, ...]

    def describe(self) -> str:
        return f"index {self.table}({', '.join(self.columns)})"


@dataclass
class RowPipeline:
    """One planned block lowered to a single generated function (row engine).

    ``run(scans, indexes, outers, interp)`` takes, per FROM item, the row
    list it scans -- for the driving item of a block with a scan window, the
    rows in the window: the function does not test what the window decides --
    or the key index it probes (None in the other list; see
    ``probes``), the values of ``outer_refs`` and the interpreter hook
    ``interp(index, row)`` for the expressions in ``interpreted``.  Indexes
    are arguments, never constants of the function: storage drops them on a
    mutation, and a cached plan must see the next ones.  It returns ``(rows, counts)`` with ``counts = (rows read from each
    FROM item, rows of it past its push-down, rows at each join level, rows
    past the residual filter)``; an item read through an index counts the rows
    its probes reached.  ``rows`` is None for the empty global group, which
    keeps the interpreter's semantics.  ``run`` is None when the whole block
    stays on the interpreter (``fallback`` says why).
    """

    #: registered in ``linecache`` as ``run.__code__.co_filename`` (``<rowpipe:N>``).
    run: Callable | None
    source: str = ""
    hash_joins: bool = True
    #: (expression, layout) pairs the generated loop evaluates through the hook.
    interpreted: list = field(default_factory=list)
    #: the joined columns, in FROM order.
    columns: list = field(default_factory=list)
    #: per FROM item: the storage index it is probed through (None = scanned).
    probes: list[IndexProbe | None] = field(default_factory=list)
    #: per FROM item: the scan window ``run`` expects its rows to be confined
    #: to -- the plan's, for the driving item -- because it does not test what
    #: the window decides (None = the item's rows, whole).
    windows: list = field(default_factory=list)
    #: the FROM items a hash table (or filtered list) is built over per execution.
    builds: list[int] = field(default_factory=list)
    #: the enclosing blocks' columns bound once per run, in ``outers`` order.
    outer_refs: list = field(default_factory=list)
    fallback: str | None = None


def compile_row_block(block, hash_joins: bool = True) -> RowPipeline:
    """Lower one :class:`~repro.engine.plan.BlockPlan` to a generated pipeline.

    Never raises: a block the generator cannot lower (a subquery inside an
    aggregated select list or HAVING, an aggregate shape the interpreter
    rejects too, more nested loops than Python compiles) comes back with
    ``run=None`` and runs on the interpreter.
    """
    try:
        return _generate_pipeline(block, hash_joins)
    except Exception as error:
        return RowPipeline(None, hash_joins=hash_joins,
                           fallback=str(error) or type(error).__name__)


def row_pipeline(plan, block, hash_joins: bool = True) -> RowPipeline:
    """The block's pipeline, generated once and cached on ``plan``."""
    if hash_joins:
        return plan.kernels(block, ("row",), compile_row_block)
    return plan.kernels(block, ("row", "nested-loops"),
                        lambda planned: compile_row_block(planned, hash_joins=False))


def _check_aggregate_shape(node: ast.Expression) -> None:
    """Reject what :func:`evaluate_aggregate` rejects around aggregate calls,
    so generated and interpreted blocks refuse exactly the same queries."""
    if (isinstance(node, ast.FunctionCall) and node.is_aggregate) \
            or not ast.has_local_aggregate(node):
        return
    if not isinstance(node, _AGGREGATE_WRAPPERS):
        raise CompileFallback(
            f"cannot compile aggregate expression node {type(node).__name__}")
    for child in node.children():
        _check_aggregate_shape(child)


def _tuple(parts: list[str]) -> str:
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


def _outer_key(ref: ast.ColumnRef) -> tuple[str, str]:
    """What tells two references to enclosing blocks' columns apart."""
    return (ref.table or "").lower(), ref.name.lower()


def _generate_pipeline(block, hash_joins: bool) -> RowPipeline:
    select = block.select
    # a derived table's columns are typed "str" by the planner for want of
    # better knowledge; only a base table's str column is known to hold strings.
    items = [columns if isinstance(item, ast.TableRef) else
             [replace(column, type_name="any") for column in columns]
             for item, columns in zip(select.from_items, block.item_columns)]
    slots = [[f"r{index}[{position}]" for position in range(len(columns))]
             for index, columns in enumerate(items)]
    layouts = [Layout(columns) for columns in items]
    pushdown = [_item_pushdown(block, columns) for columns in items]
    filtered = [bool(predicates) for predicates in pushdown]
    order = [step.frame_index for step in block.join_order]
    windows = [block.window_of(index) for index in range(len(items))]
    for index, window in enumerate(windows):
        if window is not None:
            # the executor hands the loop the rows in the window, in row
            # order: the conjuncts it decides are TRUE on every one of them
            pushdown[index] = [predicate for predicate in pushdown[index]
                               if not window.decides(predicate)]
    src = _Source()
    # a column an enclosing block resolves is constant while the function runs
    outer_refs = {_outer_key(ref): ref for ref in block.outer_refs}
    src.outers = {key: f"o{number}" for number, key in enumerate(outer_refs)}
    if outer_refs:
        src.emit(f"{_tuple(list(src.outers.values()))} = outers")

    def scan_guards(index: int) -> None:
        src.cols = (layouts[index], slots[index], f"r{index}")
        for predicate in pushdown[index]:
            src.guard(predicate)

    def key(parts: list[str]) -> str:
        return parts[0] if len(parts) == 1 else _tuple(parts)

    # per join level: the key on either side, and what the rows joined so far
    # resolve in (see _Source.cols) -- their columns in FROM order, whatever
    # the join order (see JoinStep).
    keys: list[tuple[list[str], list[int]]] = []
    joined: list[tuple[Layout, list[str], str]] = [(Layout([]), [], "()")]
    probes: list[IndexProbe | None] = [None] * len(items)
    upstream_filtered = False
    for level, step in enumerate(block.join_order):
        index = step.frame_index
        columns, sources, _ = joined[-1]
        probe = [sources[position] for position, _ in step.keys] if hash_joins else []
        build = [position for _, position in step.keys] if hash_joins else []
        keys.append((probe, build))
        item = select.from_items[index]
        if probes_index(item, bool(build), filtered[index], upstream_filtered):
            probes[index] = IndexProbe(
                item.name, tuple(items[index][position].name for position in build),
                tuple(build))
        upstream_filtered = upstream_filtered or filtered[index]
        joined.append((Layout(columns.columns[:step.cut] + items[index]
                              + columns.columns[step.cut:]),
                       sources[:step.cut] + slots[index] + sources[step.cut:],
                       " + ".join(f"r{item}" for item in sorted(order[:level + 1]))))

    # access paths: a storage index to probe, or the rows to scan -- and, for
    # a scanned join side, one hash table (or filtered list) per execution,
    # push-down predicates inlined in the build loop.
    for index, probe in enumerate(probes):
        src.emit(f"s{index} = scans[{index}]" if probe is None
                 else f"ix{index} = indexes[{index}].get")
    visited = [f"len(s{index})" for index in range(len(items))]
    scanned = [f"b{index}" if pushdown[index] else f"len(s{index})"
               for index in range(len(items))]
    headers: list[str] = []
    builds: list[int] = []
    for level, step in enumerate(block.join_order):
        index, table = step.frame_index, f"h{step.frame_index}"
        probe, build = keys[level]
        if probes[index] is not None:
            headers.append(f"for r{index} in ix{index}({key(probe)}, ()):")
            continue
        if level and (build or pushdown[index]):
            builds.append(index)
            src.emit(f"{table} = {'{}' if build else '[]'}")
            if pushdown[index]:
                src.emit(f"b{index} = 0")
            with src.block(f"for r{index} in s{index}:"):
                scan_guards(index)
                if pushdown[index]:
                    src.emit(f"b{index} += 1")
                if build:
                    src.emit(f"k = {key([slots[index][position] for position in build])}")
                    src.emit("if k is None: continue" if len(build) == 1
                             else "if None in k: continue")
                    src.emit(f"m = {table}.get(k)")
                    src.emit(f"if m is None: {table}[k] = [r{index}]")
                    src.emit(f"else: m.append(r{index})")
                else:
                    src.emit(f"{table}.append(r{index})")
        if build:
            src.emit(f"m{index} = {table}.get")
            headers.append(f"for r{index} in m{index}({key(probe)}, ()):")
        elif level:
            headers.append(f"for r{index} in {table if pushdown[index] else f's{index}'}:")
        else:
            headers.append(f"for r{index} in s{index}:")

    # the loop nest: driving scan, then one probe per join step.
    counters = [f"n{level}" for level in range(len(order))
                if level or pushdown[order[0]]] + (["nf"] if block.residual else []) \
        + [f"v{index}" for index, probe in enumerate(probes) if probe and pushdown[index]]
    if counters:
        src.emit(" = ".join(counters) + " = 0")
    if not block.needs_aggregation:
        src.emit("out = []")
        src.emit("push = out.append")
    elif select.group_by:
        src.emit("groups = {}")
        src.emit("lookup = groups.get")
    else:
        src.emit("g = None")
    levels: list[str] = []
    for level, index in enumerate(order):
        src.open(headers[level])
        if not level:
            scan_guards(index)
            if pushdown[index]:
                scanned[index] = "n0"
        elif probes[index] is not None:
            # rows in = the rows the probes reached, rows out = those past the guards
            visited[index] = scanned[index] = f"n{level}"
            if pushdown[index]:
                visited[index] = f"v{index}"
                src.emit(f"v{index} += 1")
                scan_guards(index)
        elif not hash_joins:
            src.cols = joined[level + 1]
            for _, _, conjunct in block.join_order[level].connecting:
                src.guard(conjunct)
        if f"n{level}" in counters:
            src.emit(f"n{level} += 1")
        levels.append(f"n{level}" if f"n{level}" in counters else scanned[index])
    if not order:  # no FROM clause: one empty row
        src.open("for _ in (0,):")
        levels.append("1")
    src.cols = joined[-1]
    for predicate in block.residual:
        src.guard(predicate)
    if block.residual:
        src.emit("nf += 1")
    counts = (f"([{', '.join(visited)}], [{', '.join(scanned)}], [{', '.join(levels)}], "
              f"{'nf' if block.residual else levels[-1]})")

    if block.needs_aggregation:
        _emit_aggregation(src, select, [f"r{index}" for index in order], len(levels), counts)
    else:
        values: list[str] = []
        for item in select.items:
            star = item.expression
            if isinstance(star, ast.Star):
                values += [slot for column, slot in zip(joined[-1][0].columns, joined[-1][1])
                           if star.table is None
                           or column.binding.lower() == star.table.lower()]
            else:
                values.append(src.value(src.expr(star)))
        src.emit(f"push({_tuple(values)})")
        src.close(len(levels))
        src.emit(f"return out, {counts}")
    return RowPipeline(*src.function("pipeline", "scans, indexes, outers, interp"), hash_joins,
                       src.interpreted, joined[-1][0].columns, probes, windows, builds,
                       list(outer_refs.values()))


def _emit_aggregation(src: _Source, select: ast.Select, rows: list[str], nest: int,
                      counts: str) -> None:
    """Grouping, running accumulators and per-group finalisation.

    Called with ``src`` inside the innermost of ``nest`` loops.  Each group is
    one state list ``g``: the group's first rows, then a running slot per
    distinct (accumulator, argument) pair -- ``sum`` and ``avg`` of one
    argument share theirs.  ``sum`` adds left to right from 0, exactly as the
    builtin does.
    """
    expressions = [item.expression for item in select.items]
    if select.having is not None:
        expressions.append(select.having)
    for expression in expressions:
        _check_aggregate_shape(expression)
    inits = [_tuple(rows)]
    states: dict[tuple[str, str], str] = {}

    def state(kind: str, argument: str, initial: str) -> tuple[str, bool]:
        created = (kind, argument) not in states
        if created:
            states[(kind, argument)] = f"g[{len(inits)}]"
            inits.append(initial)
        return states[(kind, argument)], created

    if select.group_by:
        keys = [src.value(src.expr(expression)) for expression in select.group_by]
        src.emit(f"k = {keys[0] if len(keys) == 1 else _tuple(keys)}")
        src.emit("g = lookup(k)")
    new_group = len(src.lines)  # patched once every slot is known
    src.emit("if g is None: g = " + ("groups[k] = " if select.group_by else ""))

    updates: dict[tuple[str, ...], list[str]] = {}
    finals: list[tuple[ast.FunctionCall, str]] = []
    for expression in expressions:
        for call in ast.walk_local(expression):
            if not (isinstance(call, ast.FunctionCall) and call.is_aggregate):
                continue
            name = call.name.lower()
            if name == "count" and (not call.arguments
                                    or isinstance(call.arguments[0], ast.Star)):
                slot, created = state("rows", "", "0")
                if created:
                    updates.setdefault((), []).append(f"{slot} += 1")
                finals.append((call, slot))
                continue
            if not call.arguments:
                raise CompileFallback(f"aggregate '{name}' requires an argument")
            if name not in ("count", "sum", "avg", "min", "max"):
                raise CompileFallback(f"unknown aggregate function '{name}'")
            argument = src.expr(call.arguments[0])
            if name in ("min", "max") and not call.distinct:
                argument = src.atom(argument)
            value, todo = argument.src, updates.setdefault(argument.nulls, [])
            if call.distinct:
                seen, created = state("distinct", value, "set()")
                if created:
                    todo.append(f"{seen}.add({value})")
                finals.append((call, {
                    "count": f"len({seen})",
                    "avg": f"(sum({seen}) / len({seen}) if {seen} else None)",
                }.get(name, f"({name}({seen}) if {seen} else None)")))
            elif name in ("min", "max"):
                best, created = state(name, value, "None")
                if created:
                    todo.append(f"if {best} is None or {value} {'<' if name == 'min' else '>'} "
                                f"{best}: {best} = {value}")
                finals.append((call, best))
            else:
                count, created = state("count", value, "0")
                if created:
                    todo.append(f"{count} += 1")
                total, created = state("sum", value, "0") if name != "count" else ("", False)
                if created:
                    todo.append(f"{total} += {value}")
                finals.append((call, {
                    "count": count, "sum": f"({total} if {count} else None)",
                    "avg": f"({total} / {count} if {count} else None)"}[name]))
    for nulls, statements in updates.items():
        present = src.nulls(nulls, "is not None", " and ")
        with src.block(f"if {present}:") if present else nullcontext():
            for statement in statements:
                src.emit(statement)
    src.lines[new_group] += "[" + ", ".join(inits) + "]"
    src.close(nest)

    if select.group_by:
        src.emit("groups = groups.values()")
    else:
        # the empty global group: non-aggregate subexpressions are NULL there,
        # which only the interpreter's evaluate_aggregate knows how to say.
        src.emit(f"if g is None: return None, {counts}")
        src.emit("groups = [g]")
    src.emit("out = []")
    with src.block("for g in groups:"):
        if rows:
            src.emit(f"{_tuple(rows)} = g[0]")
        src.finals = []
        for number, (call, final) in enumerate(finals):
            src.emit(f"a{number} = {final}")
            src.finals.append((call, _Val(f"a{number}", (f"a{number}",))))
        if select.having is not None:
            src.emit(f"if not ({src.truth(src.expr(select.having))}): continue")
        values = [src.value(src.expr(item.expression)) for item in select.items]
        src.emit(f"out.append({_tuple(values)})")
    src.emit(f"return out, {counts}")


def _item_pushdown(block, columns: list[ColumnInfo]) -> list[ast.Expression]:
    """The push-down predicates targeting one FROM item, in binding order."""
    seen: list[str] = []
    for column in columns:
        binding = column.binding.lower()
        if binding not in seen:
            seen.append(binding)
    predicates: list[ast.Expression] = []
    for binding in seen:
        predicates.extend(block.pushdown.get(binding, []))
    return predicates


# ---------------------------------------------------------------------------
# column kernels (selection-vector execution)
# ---------------------------------------------------------------------------


class ColumnContext:
    """One kernel evaluation over a frame's arrays through a selection vector.

    ``sel`` is an ``int64`` index of the surviving rows (None = all rows);
    ``length`` is the number of *selected* rows.  Gathered columns are
    memoised so every column is gathered at most once per evaluation batch.
    """

    __slots__ = ("arrays", "length", "sel", "_gathered")

    def __init__(self, arrays: list[np.ndarray], length: int,
                 sel: np.ndarray | None = None):
        self.arrays = arrays
        self.length = length
        self.sel = sel
        self._gathered: dict[int, np.ndarray] = {}

    def column(self, position: int) -> np.ndarray:
        if self.sel is None:
            return self.arrays[position]
        gathered = self._gathered.get(position)
        if gathered is None:
            gathered = self.arrays[position][self.sel]
            self._gathered[position] = gathered
        return gathered


def as_mask(value: Any, length: int) -> np.ndarray:
    """Collapse a kernel result to its is-TRUE mask (mirrors evaluate_predicate).

    UNKNOWN rows of a Kleene result come back False -- the SQL filter
    semantics; interior boolean structure stays three-valued until here.
    """
    return truth_mask(value, length)


def compile_column_kernel(expression: ast.Expression, layout,
                          overflow_guard: bool = False) -> Callable[[ColumnContext], Any]:
    """Lower ``expression`` to a ``fn(ctx) -> ndarray | scalar`` closure.

    Mirrors :class:`~repro.engine.vector.VectorEvaluator` semantics (dates as
    int64 ordinals, NULL-as-NaN for floats, the overflow-guard widening).
    Raises :class:`CompileFallback` where the evaluator would raise
    :class:`~repro.engine.vector.VectorFallback`.
    """
    pair = _col(expression, layout, overflow_guard)
    const, value = pair
    if const:
        return lambda _ctx, _value=value: _value
    return value


def _col(node: ast.Expression, layout, guard: bool) -> tuple[bool, Any]:
    if isinstance(node, ast.Literal):
        return True, node.value
    if isinstance(node, ast.DateLiteral):
        return True, date_to_ordinal(node.value)
    if isinstance(node, ast.IntervalLiteral):
        return True, node
    if isinstance(node, ast.ColumnRef):
        position = layout.position(node)
        if position is None:
            raise CompileFallback(f"column '{node.qualified}' is not local")
        return False, lambda ctx, _p=position: ctx.column(_p)
    if isinstance(node, ast.Star):
        return False, lambda ctx: np.ones(ctx.length, dtype=np.int64)
    if isinstance(node, ast.UnaryOp):
        return _col_unary(node, layout, guard)
    if isinstance(node, ast.BinaryOp):
        return _col_binary(node, layout, guard)
    if isinstance(node, ast.BoolOp):
        return _col_bool(node, layout, guard)
    if isinstance(node, ast.Comparison):
        return _col_comparison(node, layout, guard)
    if isinstance(node, ast.IsNull):
        return _col_isnull(node, layout, guard)
    if isinstance(node, ast.Between):
        return _col_between(node, layout, guard)
    if isinstance(node, ast.Like):
        return _col_like(node, layout, guard)
    if isinstance(node, ast.InList):
        return _col_in_list(node, layout, guard)
    if isinstance(node, ast.CaseWhen):
        return _col_case(node, layout, guard)
    if isinstance(node, ast.Cast):
        return _col_cast(node, layout, guard)
    if isinstance(node, ast.Extract):
        return _col_extract(node, layout, guard)
    if isinstance(node, ast.Substring):
        return _col_substring(node, layout, guard)
    if isinstance(node, ast.FunctionCall):
        return _col_function(node, layout, guard)
    raise CompileFallback(f"unsupported expression node {type(node).__name__}")


def _col_unary(node: ast.UnaryOp, layout, guard) -> tuple[bool, Any]:
    operand_pair = _col(node.operand, layout, guard)
    operand = _as_fn(operand_pair)
    if node.operator == "not":
        def fn(ctx):
            return kleene_not(operand(ctx))
        return _maybe_fold(fn, operand_pair)
    if node.operator == "-":
        def fn(ctx):
            return negate_values(operand(ctx))
        return _maybe_fold(fn, operand_pair)
    return operand_pair


def _col_binary(node: ast.BinaryOp, layout, guard) -> tuple[bool, Any]:
    left_pair = _col(node.left, layout, guard)
    right_pair = _col(node.right, layout, guard)
    op = node.operator

    if right_pair[0] and isinstance(right_pair[1], ast.IntervalLiteral):
        interval = right_pair[1]
        if interval.unit in ("day", "week"):
            days = interval.value * (7 if interval.unit == "week" else 1)
            delta = days if op == "+" else -days
            left = _as_fn(left_pair)

            def fn(ctx):
                return left(ctx) + delta
            return _maybe_fold(fn, left_pair)
        if left_pair[0] and isinstance(left_pair[1], (int, np.integer)):
            base = ordinal_to_date(int(left_pair[1]))
            amount = interval.value if op == "+" else -interval.value
            return True, date_to_ordinal(add_interval(base, amount, interval.unit))
        raise CompileFallback("month/year interval arithmetic on a column")
    if left_pair[0] and isinstance(left_pair[1], ast.IntervalLiteral):
        raise CompileFallback("unsupported interval arithmetic form")

    left, right = _as_fn(left_pair), _as_fn(right_pair)
    if guard and op in ("+", "-", "*"):
        plain_left, plain_right = left, right

        def left(ctx, _fn=plain_left):
            return widen_guarded(_fn(ctx))

        def right(ctx, _fn=plain_right):
            return widen_guarded(_fn(ctx))

    if op == "||":
        def fn(ctx):
            return concat_values(left(ctx), right(ctx))
    elif op in _ARITH_OPS:
        def fn(ctx):
            return arith_arrays(op, left(ctx), right(ctx))
    else:
        raise CompileFallback(f"unsupported binary operator '{op}'")
    return _maybe_fold(fn, left_pair, right_pair)


def _col_bool(node: ast.BoolOp, layout, guard) -> tuple[bool, Any]:
    operand_fns = [_as_fn(_col(operand, layout, guard))
                   for operand in node.operands]
    combine = kleene_and if node.operator == "and" else kleene_or

    def fn(ctx):
        combined = operand_fns[0](ctx)
        for operand in operand_fns[1:]:
            combined = combine(combined, operand(ctx))
        return combined
    return False, fn


def _col_mask_fn(node: ast.Expression, layout, guard) -> Callable[[ColumnContext], np.ndarray]:
    operand = _as_fn(_col(node, layout, guard))

    def fn(ctx):
        return as_mask(operand(ctx), ctx.length)
    return fn


def _col_align(left_node, right_node, left_pair, right_pair, layout):
    """Compile-time date alignment (mirrors ``_align_date_operands``).

    Constant strings compared against date-ordinal columns are converted at
    compile time; non-constant operands get a runtime str check, matching the
    evaluator's scalar coercion.
    """
    def is_date_column(node):
        if isinstance(node, ast.ColumnRef):
            position = layout.position(node)
            return position is not None and layout.type_of(position) == "date"
        return False

    if is_date_column(left_node):
        if right_pair[0] and isinstance(right_pair[1], str):
            right_pair = (True, date_to_ordinal(right_pair[1]))
        elif not right_pair[0]:
            inner = right_pair[1]

            def aligned(ctx, _fn=inner):
                value = _fn(ctx)
                return date_to_ordinal(value) if isinstance(value, str) else value
            right_pair = (False, aligned)
    if is_date_column(right_node):
        if left_pair[0] and isinstance(left_pair[1], str):
            left_pair = (True, date_to_ordinal(left_pair[1]))
        elif not left_pair[0]:
            inner = left_pair[1]

            def aligned(ctx, _fn=inner):
                value = _fn(ctx)
                return date_to_ordinal(value) if isinstance(value, str) else value
            left_pair = (False, aligned)
    return left_pair, right_pair


def _col_comparison(node: ast.Comparison, layout, guard) -> tuple[bool, Any]:
    if node.quantifier is not None:
        raise CompileFallback("quantified comparisons require row-at-a-time evaluation")
    if node.operator not in _PY_CMP:
        raise CompileFallback(f"unsupported comparison operator '{node.operator}'")
    left_pair = _col(node.left, layout, guard)
    right_pair = _col(node.right, layout, guard)
    left_pair, right_pair = _col_align(node.left, node.right, left_pair, right_pair,
                                       layout)
    left, right = _as_fn(left_pair), _as_fn(right_pair)
    op = node.operator

    def fn(ctx):
        return compare_arrays(op, left(ctx), right(ctx))
    return _maybe_fold(fn, left_pair, right_pair)


def _col_isnull(node: ast.IsNull, layout, guard) -> tuple[bool, Any]:
    operand = _as_fn(_col(node.operand, layout, guard))
    negated = node.negated

    def fn(ctx):
        return isnull_mask(operand(ctx), ctx.length, negated)
    return False, fn


def _col_between(node: ast.Between, layout, guard) -> tuple[bool, Any]:
    operand_pair = _col(node.operand, layout, guard)
    low_pair = _col(node.low, layout, guard)
    high_pair = _col(node.high, layout, guard)
    operand_pair, low_pair = _col_align(node.operand, node.low, operand_pair, low_pair,
                                        layout)
    operand_pair, high_pair = _col_align(node.operand, node.high, operand_pair,
                                         high_pair, layout)
    operand, low, high = _as_fn(operand_pair), _as_fn(low_pair), _as_fn(high_pair)
    negated = node.negated

    def fn(ctx):
        value = operand(ctx)
        inside = kleene_and(compare_arrays(">=", value, low(ctx)),
                            compare_arrays("<=", value, high(ctx)))
        # NOT BETWEEN over a NULL operand or bound stays UNKNOWN (Kleene NOT).
        return kleene_not(inside) if negated else inside
    return False, fn


def _col_like(node: ast.Like, layout, guard) -> tuple[bool, Any]:
    operand = _as_fn(_col(node.operand, layout, guard))
    pattern_pair = _col(node.pattern, layout, guard)
    negated = node.negated
    if pattern_pair[0]:
        if pattern_pair[1] is None:
            return True, None  # NULL pattern: UNKNOWN everywhere
        predicate = like_predicate(str(pattern_pair[1]))

        def matcher(ctx):
            return predicate
    else:
        pattern = _as_fn(pattern_pair)

        def matcher(ctx):
            pattern_value = pattern(ctx)
            return None if pattern_value is None \
                else like_predicate(str(pattern_value))

    def fn(ctx):
        predicate = matcher(ctx)
        if predicate is None:
            return None
        return like_mask(predicate, operand(ctx), negated, ctx.length)
    return False, fn


def _col_in_list(node: ast.InList, layout, guard) -> tuple[bool, Any]:
    operand = _as_fn(_col(node.operand, layout, guard))
    item_pairs = [_col(item, layout, guard) for item in node.items]
    if not all(const for const, _ in item_pairs):
        raise CompileFallback("IN list with non-constant members")
    values = [value for _, value in item_pairs]
    #: NULL list members can never compare TRUE (x = NULL is UNKNOWN), and
    #: np.isin would match a NULL operand by identity -- exclude them from
    #: the vectorised member set; their presence turns non-matches UNKNOWN.
    member_values = [value for value in values if value is not None]
    has_null_member = len(member_values) != len(values)
    negated = node.negated
    typed_cache: dict[Any, np.ndarray] = {}

    def fn(ctx):
        return in_list_mask(operand(ctx), member_values, has_null_member,
                            negated, ctx.length, typed_cache)
    return False, fn


def _col_case(node: ast.CaseWhen, layout, guard) -> tuple[bool, Any]:
    branches = [(_col_mask_fn(condition, layout, guard),
                 _as_fn(_col(result, layout, guard)))
                for condition, result in node.branches]
    default = _as_fn(_col(node.default, layout, guard)) \
        if node.default is not None else None

    def fn(ctx):
        default_value = case_branch_values(default(ctx)) if default is not None else None
        if isinstance(default_value, np.ndarray):
            result = default_value.astype(object)
        else:
            result = np.full(ctx.length, default_value, dtype=object)
        decided = np.zeros(ctx.length, dtype=bool)
        for condition, branch in branches:
            mask = condition(ctx) & ~decided
            value = case_branch_values(branch(ctx))
            if isinstance(value, np.ndarray):
                result[mask] = value[mask]
            else:
                result[mask] = value
            decided |= mask
        return collapse_case_result(result)
    return False, fn


def _col_cast(node: ast.Cast, layout, guard) -> tuple[bool, Any]:
    operand = _as_fn(_col(node.operand, layout, guard))
    target = node.type_name.lower()
    if target.startswith(("int", "bigint", "smallint")):
        def convert(array):
            return array.astype(np.int64)
    elif target.startswith(("float", "double", "real", "decimal", "numeric")):
        def convert(array):
            return array.astype(np.float64)
    else:
        # string targets need the row value domain (date ordinals would
        # stringify as integers); the interpreter falls back row-at-a-time.
        raise CompileFallback(f"CAST to '{node.type_name}' requires row semantics")

    def fn(ctx):
        value = operand(ctx)
        if not isinstance(value, (np.ndarray, Nullable)):
            return value
        return cast_array(value, convert)
    return False, fn


def _col_extract(node: ast.Extract, layout, guard) -> tuple[bool, Any]:
    if node.field_name not in ("year", "month", "day"):
        raise CompileFallback(f"unsupported EXTRACT field '{node.field_name}'")
    operand_pair = _col(node.operand, layout, guard)
    operand = _as_fn(operand_pair)
    field_name = node.field_name

    def fn(ctx):
        return extract_date_field(operand(ctx), field_name)
    return _maybe_fold(fn, operand_pair)


def _col_substring(node: ast.Substring, layout, guard) -> tuple[bool, Any]:
    operand = _as_fn(_col(node.operand, layout, guard))
    start = _as_fn(_col(node.start, layout, guard))
    length = _as_fn(_col(node.length, layout, guard)) if node.length is not None else None

    def fn(ctx):
        value = operand(ctx)
        begin = max(int(start(ctx)) - 1, 0)
        end = None if length is None else begin + int(length(ctx))

        def slice_one(item):
            if item is None:
                return None  # row semantics: SUBSTRING over NULL is NULL
            text = str(item)
            return text[begin:end] if end is not None else text[begin:]

        if is_array(value):
            return np.array([slice_one(item) for item in as_objects(value)],
                            dtype=object)
        return slice_one(value)
    return False, fn


def _col_function(node: ast.FunctionCall, layout, guard) -> tuple[bool, Any]:
    name = node.name.lower()
    if node.is_aggregate:
        raise CompileFallback(
            f"aggregate function '{name}' used outside an aggregation context")
    pairs = [_col(argument, layout, guard) for argument in node.arguments]
    fns = [_as_fn(pair) for pair in pairs]
    if name == "abs":
        def fn(ctx):
            value = fns[0](ctx)
            return None if value is None else abs_values(value)
    elif name == "round":
        def fn(ctx):
            value = fns[0](ctx)
            digits_value = fns[1](ctx) if len(fns) > 1 else 0
            if value is None or digits_value is None:
                return None
            return round_values(value, int(digits_value))
    elif name == "length":
        def fn(ctx):
            values = fns[0](ctx)
            return None if values is None else length_values(values)
    elif name in ("lower", "upper"):
        transform = str.lower if name == "lower" else str.upper

        def fn(ctx):
            values = fns[0](ctx)
            return None if values is None else map_string_values(values, transform)
    else:
        raise CompileFallback(f"function '{name}' has no vectorised implementation")
    return _maybe_fold(fn, *pairs)


# ---------------------------------------------------------------------------
# column block kernels
# ---------------------------------------------------------------------------

#: a predicate with its compiled kernel (None = evaluate via the interpreter).
ColumnPredicate = tuple["Callable[[ColumnContext], Any] | None", ast.Expression]


@dataclass
class ColumnBlockKernels:
    """The kernels of one planned block (column engine).

    None stands for "the vectorised interpreter evaluates this one": what the
    compiler cannot lower and, with ``compile_expressions`` off, everything
    -- the pipeline that runs them is the same.
    """

    #: per FROM item: its push-down predicates (empty list = nothing to apply).
    pushdown: list[list[ColumnPredicate]]
    #: the block's residual conjunction, one entry per predicate.
    residual: list[ColumnPredicate]
    #: per select item of a block that does not aggregate (None for a star too).
    projection: list[Callable | None]
    #: of an aggregated block, by site number (see :class:`AggregateSites`):
    #: per group key, per aggregate call (its argument) and per first-row site.
    keys: list[Callable | None]
    arguments: list[Callable | None]
    firsts: list[Callable | None]


#: the column types whose values a key order sorts as integers.
_ORDERED_KEY_TYPES = ("int", "bool", "date")


@dataclass(frozen=True)
class OrderProbe:
    """A join side probed through a storage key order instead of a sort of
    its rows per execution."""

    table: str
    #: the key columns, by name.
    columns: tuple[str, ...]

    def describe(self) -> str:
        return f"order {self.table}({', '.join(self.columns)})"


@dataclass
class ColumnJoin:
    """One scheduled join of a block, resolved against the frames it meets."""

    frame_index: int
    #: per key, its position in the frame joined so far and in the FROM item.
    positions: list[tuple[int, int]]
    #: where the item's columns go among those joined so far.
    cut: int
    #: the lookup over the joined frame's columns (in FROM order).
    layout: Layout
    #: the key order a base table joined on integer-kind keys can be probed
    #: through; None for derived tables, explicit JOINs, cross joins and
    #: float or string keys, whose build side is sorted per execution.
    probe: OrderProbe | None


class GroupValues(NamedTuple):
    """What an aggregated block knows of its groups once its morsels'
    partial states are combined: one value per group and leaf site."""

    count: int
    #: per aggregate-call site, the finished aggregate.
    calls: list[np.ndarray]
    #: per first-row site, the expression at each group's first row.
    firsts: list[np.ndarray]


@dataclass
class AggregateSites:
    """The leaf sites of an aggregated block, found and numbered by one walk.

    A select item (or HAVING) over groups is a tree whose leaves are
    aggregate calls and subtrees free of them -- those read at each group's
    first row -- under the few node shapes :func:`aggregate_sites` knows to
    combine per group.  The leaves are what runs per row: the kernel
    compiler, the executor's partial states and the per-group closures all
    name them by their number here, as they do the group keys.
    """

    keys: list[ast.Expression]
    #: per key, the joined frame's column it is nothing but (a dictionary-
    #: encoded one groups on its codes), else None.
    key_columns: list[int | None]
    calls: list[ast.FunctionCall]
    #: per call, what it aggregates (None: ``count(*)``, every row).
    arguments: list[ast.Expression | None]
    firsts: list[ast.Expression]
    #: per select item, its per-group values from those of the leaves.
    items: list[Callable[[GroupValues], Any]]
    having: Callable[[GroupValues], Any] | None


def aggregate_sites(select: ast.Select, layout: Layout) -> AggregateSites:
    """Walk the select list and HAVING of an aggregated block, once.

    A node shape the walk does not know around an aggregate call lowers to a
    closure raising the :class:`ExecutionError` when the groups are evaluated.
    """
    calls: list[ast.FunctionCall] = []
    firsts: list[ast.Expression] = []

    def lower(node: ast.Expression) -> Callable[[GroupValues], Any]:
        if isinstance(node, ast.FunctionCall) and node.is_aggregate:
            calls.append(node)
            return lambda groups, _site=len(calls) - 1: groups.calls[_site]
        if not ast.has_local_aggregate(node):
            firsts.append(node)
            return lambda groups, _site=len(firsts) - 1: groups.firsts[_site]
        if isinstance(node, (ast.BinaryOp, ast.Comparison)):
            left, right = lower(node.left), lower(node.right)
            combine = _group_arithmetic if isinstance(node, ast.BinaryOp) else _group_comparison
            return lambda groups: combine(node.operator, left(groups), right(groups))
        if isinstance(node, ast.UnaryOp):
            operand = lower(node.operand)
            if node.operator == "not":
                return lambda groups: kleene_not(operand(groups))
            if node.operator == "-":  # NULL-propagating: an empty group's SUM is None
                return lambda groups: negate_values(group_values(operand(groups)))
            return operand
        if isinstance(node, ast.BoolOp):
            connective = kleene_and if node.operator == "and" else kleene_or
            operands = [lower(operand) for operand in node.operands]
            return lambda groups: functools.reduce(
                connective, (operand(groups) for operand in operands))
        if isinstance(node, ast.CaseWhen):
            branches = [(lower(condition), lower(result)) for condition, result in node.branches]
            default = None if node.default is None else lower(node.default)
            return lambda groups: _group_case(branches, default, groups)
        if isinstance(node, ast.Cast):
            return lower(node.operand)

        def unsupported(_groups):
            raise ExecutionError(
                f"cannot aggregate expression node {type(node).__name__} column-wise")
        return unsupported

    items = [lower(item.expression) for item in select.items]
    having = None if select.having is None else lower(select.having)
    return AggregateSites(
        keys=list(select.group_by),
        key_columns=[_column_of(key, layout) for key in select.group_by],
        calls=calls,
        arguments=[None if not call.arguments or isinstance(call.arguments[0], ast.Star)
                   else call.arguments[0] for call in calls],
        firsts=firsts, items=items, having=having)


#: per-group results on a single representation (masks decode to objects):
#: what a CASE branch's rows are normalised to as well.
group_values = case_branch_values


def _group_arithmetic(operator: str, left: Any, right: Any) -> np.ndarray:
    left, left_nulls = _as_float_with_nulls(group_values(left))
    right, right_nulls = _as_float_with_nulls(group_values(right))
    if operator == "+":
        result = left + right
    elif operator == "-":
        result = left - right
    elif operator == "*":
        result = left * right
    elif operator == "/":
        with np.errstate(invalid="ignore", divide="ignore"):
            result = left / right
    elif operator == "%":
        result = left % right
    else:
        raise ExecutionError(f"unsupported aggregate operator '{operator}'")
    nulls = left_nulls
    if right_nulls is not None:
        nulls = right_nulls if nulls is None else (nulls | right_nulls)
    if nulls is not None and nulls.any():
        result = result.astype(object)
        result[nulls] = None
    return result


def _as_float_with_nulls(values) -> tuple[np.ndarray, np.ndarray | None]:
    """Float view of per-group values plus the mask of NULL groups."""
    array = np.asarray(values)
    if array.dtype != object:
        return np.asarray(array, dtype=np.float64), None
    nulls = none_positions(array)
    if not nulls.any():
        return array.astype(np.float64), None
    converted = np.fromiter(
        (0.0 if value is None else float(value) for value in array),
        dtype=np.float64, count=len(array))
    return converted, nulls


def _group_comparison(operator: str, left: Any, right: Any) -> Any:
    if operator not in _PY_CMP:
        raise ExecutionError(f"unsupported comparison operator '{operator}'")
    return compare_arrays(operator, np.asarray(group_values(left)),
                          np.asarray(group_values(right)))


def _group_case(branches: list, default: Callable | None, groups: GroupValues) -> np.ndarray:
    result = np.full(groups.count, None, dtype=object)
    decided = np.zeros(groups.count, dtype=bool)
    for condition, branch in branches:
        mask = truth_mask(condition(groups), groups.count) & ~decided
        result[mask] = np.asarray(group_values(branch(groups)), dtype=object)[mask]
        decided |= mask
    if default is not None:
        result[~decided] = np.asarray(group_values(default(groups)), dtype=object)[~decided]
    return result


@dataclass
class ColumnBlockShape:
    """The frames one planned block runs through, known before it runs.

    Everything here is a function of the plan -- the column lookup of every
    FROM item and of every join prefix, where each join's keys sit, which
    storage order a join may probe, what comes out of the select list -- so
    frames are handed their lookup instead of indexing their columns again,
    and nothing walks the select list, on every execution.  It exists
    whatever the engine options: interpreted blocks run through the same
    frames.
    """

    item_layouts: list[Layout]
    #: the join schedule after its first (driving) item.
    joins: list[ColumnJoin]
    #: the lookup of the frame the residual, grouping and projection see.
    joined_layout: Layout
    #: per select item, its :func:`~repro.engine.planner.output_type`.
    output_types: list[str | None]
    #: per select item, the joined frame's column it is nothing but (a
    #: dictionary-encoded one keeps its codes in the output), else None.
    output_columns: list[int | None]
    #: the leaf sites of an aggregated block (None: the block projects).
    sites: AggregateSites | None


def _column_of(expression: ast.Expression, layout: Layout) -> int | None:
    return layout.position(expression) if isinstance(expression, ast.ColumnRef) else None


def column_block_shape(block) -> ColumnBlockShape:
    """Resolve the frame layouts, join keys and outputs of one planned block."""
    item_layouts = [Layout(columns, ambiguous="raise") for columns in block.item_columns]
    joins, joined = _block_joins(block, item_layouts)
    items = [item.expression for item in block.select.items]
    # an ambiguous name is for the evaluation to refuse, not for this look ahead
    lenient = Layout(joined.columns)
    return ColumnBlockShape(
        item_layouts, joins, joined,
        output_types=[None if isinstance(item, ast.Star) else output_type(item, lenient)
                      for item in items],
        output_columns=[_column_of(item, lenient) for item in items],
        sites=aggregate_sites(block.select, lenient) if block.needs_aggregation else None)


def _block_joins(block, item_layouts: list[Layout]) -> tuple[list[ColumnJoin], Layout]:
    """The block's join schedule after its driving item, resolved, and the
    layout of the frame it ends in."""
    if not block.join_order:
        return [], Layout(block.columns, ambiguous="raise")
    first = block.join_order[0].frame_index
    joined, columns, joins = item_layouts[first], list(block.item_columns[first]), []
    for step in block.join_order[1:]:
        item = item_layouts[step.frame_index]
        positions = list(step.keys)
        source = block.select.from_items[step.frame_index]
        probe = None
        if positions and isinstance(source, ast.TableRef) and all(
                item.type_of(position) in _ORDERED_KEY_TYPES for _, position in positions):
            probe = OrderProbe(source.name, tuple(item.columns[position].name
                                                  for _, position in positions))
        # the joined columns stay in FROM order (see JoinStep)
        columns = columns[:step.cut] + block.item_columns[step.frame_index] \
            + columns[step.cut:]
        joined = Layout(columns, ambiguous="raise")
        joins.append(ColumnJoin(step.frame_index, positions, step.cut, joined, probe))
    return joins, joined


def column_shape(plan, block) -> ColumnBlockShape:
    """The block's shape, resolved once and cached on ``plan``."""
    return plan.kernels(block, ("col", "shape"), column_block_shape)


def compile_column_block(block, shape: ColumnBlockShape, overflow_guard: bool = False,
                         compiled: bool = True) -> ColumnBlockKernels:
    """The kernels of one :class:`~repro.engine.plan.BlockPlan` for the column
    engine; every one of them None unless ``compiled``."""
    item_layouts, joined_layout = shape.item_layouts, shape.joined_layout

    def lower(expression, layout=joined_layout):
        if not compiled or expression is None or isinstance(expression, ast.Star):
            return None
        try:
            return compile_column_kernel(expression, layout, overflow_guard)
        except CompileFallback:
            return None

    sites = shape.sites
    return ColumnBlockKernels(
        pushdown=[[(lower(predicate, item_layouts[index]), predicate)
                   for predicate in _item_pushdown(block, columns)]
                  for index, columns in enumerate(block.item_columns)],
        residual=[(lower(predicate), predicate) for predicate in block.residual],
        projection=[] if sites else [lower(item.expression) for item in block.select.items],
        keys=[lower(key) for key in sites.keys] if sites else [],
        arguments=[lower(argument) for argument in sites.arguments] if sites else [],
        firsts=[lower(first) for first in sites.firsts] if sites else [])


def column_kernels(plan, block, overflow_guard: bool = False,
                   compiled: bool = True) -> ColumnBlockKernels:
    """The block's column kernels, lowered once and cached on ``plan``."""
    shape = column_shape(plan, block)  # before the build: the plan's lock is not reentrant
    return plan.kernels(
        block, ("col", overflow_guard, compiled),
        lambda planned: compile_column_block(planned, shape, overflow_guard, compiled))
