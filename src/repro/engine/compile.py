"""Compile-once lowering of planned query blocks, for both physical backends.

The recursive interpreter (:mod:`repro.engine.expression`) re-dispatches on
the AST node type for every row, and an uncompiled column block lowers its
expressions again for every evaluation; on the driver's
plan-once/execute-many loop that dispatch drowns the execution-strategy
contrast the paper cares about.  This module lowers each
planned block *once*; the result is cached on the
:class:`~repro.engine.plan.QueryPlan` (:meth:`QueryPlan.kernels`), so the LRU
plan cache amortises compilation exactly like planning.

* **Row pipelines** -- data-centric code generation.  :func:`compile_row_block`
  writes the source of one Python function per block and ``compile()``s it
  into a :class:`RowPipeline`: an access path per non-driving FROM item, then
  a single loop nest in the plan's join order -- ``for r0 in scan0: if
  <push-down>: for r1 in ix1(k, ()): ... <residual> -> <partition |
  project>`` -- with one row variable per binding instead of concatenated
  tuples, and integer row counters that are all a traced run needs.  An
  aggregation partitions, then folds: the loop only appends each passing row
  to its group's list, and per group each distinct aggregate argument is
  gathered once (``map(itemgetter(p), g)``, a comprehension, or a generated
  loop) and folded with the builtins the interpreter folds with.  A column
  that holds no NULL in the table version being read is never tested: the
  pipeline is generated per NULL-free set (``null_free``, from storage
  statistics) and cached under it.  A base table joined
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
  output types and the lookup of an aggregated block's group rows.

An aggregated select list and HAVING are ordinary expressions over a group
row (:class:`~repro.engine.plan.Aggregation`, from the planner's one walk):
both lowerings take them as they take any expression, the row pipeline's
over the group's first row and its calls' locals, the column kernels over a
frame of group rows.  Both mirror the interpreter semantics exactly (NULL
propagation, date coercion, LIKE, three-valued predicates).
:class:`CompileFallback` reaches a caller only where there is no row to
interpret on: from :func:`compile_row_kernel`, and from
:func:`compile_column_kernel`, whose block then has no kernel (None) for
that expression; its executor tries the lowering again for each evaluation
and, where it still fails, evaluates the expression row by row.
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
from operator import itemgetter
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
    Kleene,
    Nullable,
    as_kleene,
    as_objects,
    is_array,
    kleene_and,
    kleene_not,
    kleene_or,
    truth_mask,
)
from repro.engine.planner import ColumnInfo, Layout, always_date, output_type, probes_index
from repro.engine.types import add_interval, date_to_ordinal, ordinal_to_date, to_date
from repro.engine.vector import (
    ARITHMETIC,
    NUMPY_COMPARISONS,
    abs_values,
    arith_arrays,
    case_branch_values,
    cast_array,
    cast_integers,
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
    zero_divisor,
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


def _mod(left, right):
    if right == 0:
        raise ExecutionError("division by zero")
    return left % right


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
    "_div": _div, "_mod": _mod, "_sub": _sub, "_shift": _shift, "_interval_left": _interval_left,
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


#: a lookup over no columns: a FROM-less block's, or one that leaves every name
#: to the enclosing blocks.
NO_COLUMNS = Layout([])


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
        self.cols: tuple[Any, list[str], str | None] = (NO_COLUMNS, [], None)
        #: (expression, layout) pairs evaluated through the interpreter hook.
        self.interpreted: list[tuple[ast.Expression, Any]] = []
        #: the local each column of an enclosing block is bound to (see _outer_key).
        self.outers: dict[tuple[str, str], str] = {}
        #: memo entries in insertion order, so a failed lowering can be undone.
        self.journal: list[tuple[dict[str, str], str]] = []
        #: slots (``r0[5]``) and their locals (``c0_5``) whose column holds no
        #: NULL in the table version the function is generated for.
        self.nonnull: set[str] = set()
        #: True while lowering into a comprehension: a column is read from its
        #: slot, not bound to a local first.
        self.inline = False

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
        return atom in self.nonnull or any(atom in known for _, known in self.scopes)

    def mark(self) -> tuple[int, int, int]:
        return len(self.lines), len(self.journal), len(self.interpreted)

    def undo(self, mark: tuple[int, int, int]) -> None:
        """Forget what was emitted, memoised and hooked since ``mark``."""
        del self.lines[mark[0]:], self.interpreted[mark[2]:]
        while len(self.journal) > mark[1]:
            memo, src = self.journal.pop()
            memo.pop(src, None)

    def inline_expr(self, node: ast.Expression) -> _Val | None:
        """``node`` as one inline Python expression over column slots, or None
        (nothing emitted) when lowering it takes statements or the hook."""
        mark = self.mark()
        self.inline = True
        try:
            val = self.expr(node)
        finally:
            self.inline = False
        if len(self.lines) == mark[0] and len(self.interpreted) == mark[2]:
            return val
        self.undo(mark)
        return None

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
        if self.inline or "[" not in slot:  # a local already (a group's aggregate)
            return _Val(slot, (slot,))
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
        mark = self.mark()
        try:
            return self._lower(node)
        except CompileFallback:
            layout, _, row = self.cols
            if row is None:
                raise
            self.undo(mark)
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
        if op in ("/", "%"):
            if right.const is not None and right.const[0]:
                return self.strict(f"({{}} {op} {{}})", left, right, effect=op == "%")
            return self.strict(f"{'_div' if op == '/' else '_mod'}({{}}, {{}})", left, right,
                               effect=True)
        if op == "-" and not (_never_date(node.left, layout)
                              or _never_date(node.right, layout)):
            return self.strict("_sub({}, {})", left, right)
        if op in ("+", "-", "*"):
            return self.strict(f"({{}} {op} {{}})", left, right)
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
    its probes reached.  ``run`` is None when the whole block stays on the
    interpreter (``fallback`` says why).
    """

    #: registered in ``linecache`` as ``run.__code__.co_filename`` (``<rowpipe:N>``).
    run: Callable | None
    source: str = ""
    hash_joins: bool = True
    #: (expression, layout) pairs the generated loop evaluates through the hook.
    interpreted: list = field(default_factory=list)
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
    #: per FROM item, the positions of the columns the function takes to hold
    #: no NULL (it does not test them): the flavour it was generated for.
    null_free: tuple = ()
    #: (argument, how its values are gathered per group) per distinct
    #: aggregate argument: "builtin" (``map(itemgetter(p), g)``),
    #: "comprehension" or "loop" (a generated loop per group).
    folds: list = field(default_factory=list)


def compile_row_block(block, hash_joins: bool = True, null_free: tuple = ()) -> RowPipeline:
    """Lower one :class:`~repro.engine.plan.BlockPlan` to a generated pipeline.

    ``null_free`` holds, per FROM item, the positions of the columns known to
    hold no NULL (see :attr:`RowPipeline.null_free`).  Never raises: a block
    the generator cannot lower (more nested loops than Python compiles) comes
    back with ``run=None`` and runs on the interpreter.
    """
    try:
        return _generate_pipeline(block, hash_joins, null_free)
    except Exception as error:
        return RowPipeline(None, hash_joins=hash_joins,
                           fallback=str(error) or type(error).__name__, null_free=null_free)


def row_pipeline(plan, block, hash_joins: bool = True, null_free: tuple = ()) -> RowPipeline:
    """The block's pipeline for one NULL-free set, generated once and cached on
    ``plan`` (``null_free=()`` is the flavour that tests every column)."""
    flavour = ("row",) if hash_joins else ("row", "nested-loops")
    return plan.kernels(block, flavour + (null_free,),
                        lambda planned: compile_row_block(planned, hash_joins, null_free))


def _tuple(parts: list[str]) -> str:
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


def _outer_key(ref: ast.ColumnRef) -> tuple[str, str]:
    """What tells two references to enclosing blocks' columns apart."""
    return (ref.table or "").lower(), ref.name.lower()


def _generate_pipeline(block, hash_joins: bool, null_free: tuple) -> RowPipeline:
    select = block.select
    # a derived table's columns are typed "str" by the planner for want of
    # better knowledge; only a base table's str column is known to hold strings.
    derived = [not isinstance(item, ast.TableRef) for item in select.from_items]
    items = [[replace(column, type_name="any") for column in columns] if retyped else columns
             for retyped, columns in zip(derived, block.item_columns)]
    slots = [[f"r{index}[{position}]" for position in range(len(columns))]
             for index, columns in enumerate(items)]
    layouts = [layout.view(columns) for layout, columns in zip(block.item_layouts, items)]
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
    for index, positions in enumerate(null_free):
        for position in positions:
            src.nonnull.update((f"r{index}[{position}]", f"c{index}_{position}"))
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
    # the join order (see JoinStep); all of them, the block's.
    keys: list[tuple[list[str], list[int]]] = []
    joined: list[tuple[list[ColumnInfo], list[str], str]] = [([], [], "()")]
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
        joined.append((columns[:step.cut] + items[index] + columns[step.cut:],
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
                    parts = [slots[index][position] for position in build]
                    src.emit(f"k = {key(parts)}")
                    if not all(src.known(part) for part in parts):
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
        src.emit("g = []")
        src.emit("push = g.append")
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
            columns, sources, row = joined[level + 1]
            src.cols = (Layout(columns), sources, row)
            for _, _, conjunct in block.join_order[level].connecting:
                src.guard(conjunct)
        if f"n{level}" in counters:
            src.emit(f"n{level} += 1")
        levels.append(f"n{level}" if f"n{level}" in counters else scanned[index])
    if not order:  # no FROM clause: one empty row
        src.open("for _ in (0,):")
        levels.append("1")
    columns, sources, row = joined[-1]
    layout = block.layout.view(columns)
    src.cols = (layout, sources, row)
    for predicate in block.residual:
        src.guard(predicate)
    if block.residual:
        src.emit("nf += 1")
    counts = (f"([{', '.join(visited)}], [{', '.join(scanned)}], [{', '.join(levels)}], "
              f"{'nf' if block.residual else levels[-1]})")

    folds: list[tuple[ast.Expression, str]] = []
    if block.needs_aggregation:
        group = Layout(block.aggregation.columns(layout)) if any(derived) \
            else block.group_layout.view()
        folds = _emit_aggregation(src, block, [f"r{index}" for index in order],
                                  [len(items[index]) for index in order], len(levels), counts,
                                  (group, sources, row))
    else:
        values: list[str] = []
        for item in select.items:
            star = item.expression
            if isinstance(star, ast.Star):
                values += [slot for column, slot in zip(columns, sources)
                           if star.table is None
                           or column.binding.lower() == star.table.lower()]
            else:
                values.append(src.value(src.expr(star)))
        src.emit(f"push({_tuple(values)})")
        src.close(len(levels))
        src.emit(f"return out, {counts}")
    return RowPipeline(*src.function("pipeline", "scans, indexes, outers, interp"), hash_joins,
                       src.interpreted, probes, windows, builds,
                       list(outer_refs.values()), null_free=null_free, folds=folds)


def _emit_aggregation(src: _Source, block, rows: list[str], widths: list[int], nest: int,
                      counts: str, grouped: tuple) -> list[tuple[ast.Expression, str]]:
    """Partition, fold, then evaluate over group rows.

    Called with ``src`` inside the innermost of ``nest`` loops, which only
    appends each row that reaches it -- for a join, the tuple of its row
    variables -- to its group's list ``g`` (one list without GROUP BY).  Per
    group, each distinct aggregate argument of the block's
    :class:`~repro.engine.plan.Aggregation` then becomes one list of values
    in row order, folded with the builtins the interpreter folds with
    (``sum``, ``len``, ``min``, ``max``, ``set``; see :func:`_emit_folds`),
    and each call's value is bound to a local.  HAVING and the select list
    are lowered as any expression is, over the group row: the row variables
    bound to the group's first row (rows of NULLs, ``widths`` wide, for the
    empty global group) beside the calls' locals.  ``grouped`` is what the
    group row's columns resolve in (see ``_Source.cols``).  Returns (argument, fold kind)
    per distinct argument, for :attr:`RowPipeline.folds`.
    """
    select, aggregation = block.select, block.aggregation
    member = rows[0] if len(rows) == 1 else _tuple(rows)
    if select.group_by:
        keys = [src.value(src.expr(expression)) for expression in select.group_by]
        src.emit(f"k = {keys[0] if len(keys) == 1 else _tuple(keys)}")
        src.emit("g = lookup(k)")
        src.emit(f"if g is None: groups[k] = [{member}]")
        src.emit(f"else: g.append({member})")
    else:
        src.emit(f"push({member})")
    src.close(nest)

    # every group of a GROUP BY has a row; the one group without may have none
    filled = bool(select.group_by)
    src.emit("groups = groups.values()" if filled else "groups = (g,)")
    src.emit("out = []")
    kinds: list[tuple[ast.Expression, str]] = []
    with src.block("for g in groups:"):
        folded = []
        for argument, uses in zip(aggregation.arguments, aggregation.folds):
            results, kind, never_null = _emit_folds(src, argument, uses, rows, filled)
            folded.append((results, never_null))
            kinds.append((argument, kind))
        finals = []
        for number, (call, argument) in enumerate(zip(aggregation.calls,
                                                      aggregation.call_arguments)):
            name = f"a{number}"
            if argument is None:
                final, never_null = "len(g)", True
            else:
                results, never_null = folded[argument]
                final = _final(call, results, never_null, filled)
            src.emit(f"{name} = {final}")
            if call.name.lower() == "count" or (never_null and filled):
                src.scopes[-1][1].add(name)
            finals.append(name)
        if rows:
            empty = [(None,) * width for width in widths]
            src.emit(f"{member} = g[0]" if filled else f"{member} = g[0] if g else "
                     f"{src.bind(empty[0] if len(rows) == 1 else tuple(empty))}")
        if not filled:
            src.nonnull = set()  # the empty global group's row is NULL throughout
        layout, sources, row = grouped
        src.cols = (layout, sources + finals, f"{row} + {_tuple(finals)}" if finals else row)
        if aggregation.having is not None:
            src.emit(f"if not ({src.truth(src.expr(aggregation.having))}): continue")
        values = [src.value(src.expr(item)) for item in aggregation.items]
        src.emit(f"out.append({_tuple(values)})")
    src.emit(f"return out, {counts}")
    return kinds


def _emit_folds(src: _Source, argument: ast.Expression, uses: frozenset[str],
                rows: list[str], filled: bool) -> tuple[dict[str, str], str, bool]:
    """Gather one argument's values over the group ``g`` and fold them.

    A plain column of a one-table block is ``map(itemgetter(p), g)``, an
    argument that lowers to one inline expression a comprehension, anything
    else (CASE, Kleene operators, what can raise, the interpreter hook) a
    generated loop over ``g`` that binds the ``rows`` variables per member.
    NULLs are left out of the values unless the argument holds none (a
    NULL-free column, see :attr:`RowPipeline.null_free`): then nothing is
    tested, its count is ``len(g)`` and, for one fold, no list is built.
    Every fold is the builtin over the values in row order, as the row
    interpreter's (:func:`~repro.engine.expression.aggregate_value`) -- not
    a ``+=`` chain: from CPython 3.12 ``sum`` compensates float rounding
    (``sum([1e16, 1.0, -1e16])`` is 1.0, the chain 0.0).  Unless ``filled``
    (every group has a row), ``g`` may be empty.  Returns (the source of
    each fold in ``uses``, plus ``"values"`` / ``"count"``), the kind of
    gathering, and whether the values hold no NULL.
    """
    def listed(source: str) -> str:
        name = src.fresh("x")
        src.emit(f"{name} = {source}")
        return name

    target = rows[0] if len(rows) == 1 else _tuple(rows) if rows else "_"
    consumers = [use for use in ("sum", "min", "max", "distinct") if use in uses]
    val = src.inline_expr(argument)
    if val is None:
        kind, values = "loop", listed("[]")
        with src.block(f"for {target} in g:"):
            val = src.expr(argument)
            present = src.nulls(val.nulls, "is not None", " and ")
            src.emit(f"{f'if {present}: ' if present else ''}{values}.append({val.src})")
    else:
        present = src.nulls(val.nulls, "is not None", " and ")
        if len(rows) == 1 and val.src in src.cols[1]:
            getter = src.bind(itemgetter(src.cols[1].index(val.src)))
            kind, values = "builtin", f"map({getter}, g)"
            if present or len(consumers) > 1:
                values = listed(f"list({values})")
            if present:  # one C-level test per group; the filter only where a NULL is
                src.emit(f"if None in {values}: "
                         f"{values} = [e for e in {values} if e is not None]")
        else:
            kind = "comprehension"
            values = listed(f"[{val.src} for {target} in g{f' if {present}' if present else ''}]")
    never_null = not present
    results = {"values": values, "count": "len(g)" if never_null else f"len({values})"}
    for use in consumers:
        results[use] = src.fresh("f")
        fold = f"{'set' if use == 'distinct' else use}({values})"
        if use in ("min", "max") and not (never_null and filled):
            # min / max of nothing raises
            fold += f" if {'g' if never_null else values} else None"
        src.emit(f"{results[use]} = {fold}")
    return results, kind, never_null


def _final(call: ast.FunctionCall, results: dict[str, str], never_null: bool,
           filled: bool) -> str:
    """The source of one aggregate call's value from its argument's folds."""
    name = call.name.lower()
    if call.distinct:
        values = results["distinct"]
        count = f"len({values})"
        total = f"{name if name in ('min', 'max') else 'sum'}({values})"
    else:
        values, count = results["values"], results["count"]
        total = results.get("sum" if name == "avg" else name)
    if name == "count":
        return count
    if name == "avg":
        total = f"{total} / {count}"
    if (never_null and filled) or (name in ("min", "max") and not call.distinct):
        return total  # a min / max fold says None for no values itself
    return f"({total} if {'g' if never_null else values} else None)"


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
    ``frame``, when given, is the frame the arrays are of: a kernel may read
    a string column's dictionary codes off it instead of the strings.
    """

    __slots__ = ("arrays", "length", "sel", "_gathered", "frame")

    def __init__(self, arrays: list[np.ndarray], length: int,
                 sel: np.ndarray | None = None, frame: Any = None):
        self.arrays = arrays
        self.length = length
        self.sel = sel
        self._gathered: dict[int, np.ndarray] = {}
        self.frame = frame

    def column(self, position: int) -> np.ndarray:
        if self.sel is None:
            return self.arrays[position]
        gathered = self._gathered.get(position)
        if gathered is None:
            gathered = self.arrays[position][self.sel]
            self._gathered[position] = gathered
        return gathered


def _column_reader(position: int) -> Callable[[ColumnContext], Any]:
    """The kernel of a column reference: :meth:`ColumnContext.column`,
    inlined -- a kernel reads its columns with one call each."""
    def column(ctx: ColumnContext) -> Any:
        selection = ctx.sel
        if selection is None:
            return ctx.arrays[position]
        gathered = ctx._gathered.get(position)
        if gathered is None:
            gathered = ctx._gathered[position] = ctx.arrays[position][selection]
        return gathered
    return column


def as_mask(value: Any, length: int) -> np.ndarray:
    """Collapse a kernel result to its is-TRUE mask (mirrors evaluate_predicate).

    UNKNOWN rows of a Kleene result come back False -- the SQL filter
    semantics; interior boolean structure stays three-valued until here.
    """
    return truth_mask(value, length)


def compile_column_kernel(expression: ast.Expression, layout,
                          overflow_guard: bool = False,
                          plain: frozenset = frozenset()) -> Callable[[ColumnContext], Any]:
    """Lower ``expression`` to a ``fn(ctx) -> ndarray | scalar`` closure.

    Dates are int64 ordinals, NULL is NaN in plain float arrays, and
    ``overflow_guard`` widens every arithmetic operand.  ``plain`` holds the
    positions in ``layout`` of the columns known to hold no NULL (plain typed
    or object arrays, never a :class:`Nullable`): arithmetic, comparisons,
    BETWEEN, AND / OR / NOT and CASE over nothing but those and constants
    other than NULL lower straight to the numpy operators, without the
    representation dispatch of :mod:`repro.engine.vector` -- the same
    values, as that dispatch gives them for such operands.  Raises
    :class:`CompileFallback` for what needs row-at-a-time evaluation: a
    subquery, a column of an enclosing block, a pattern or IN member that
    varies by row, month arithmetic on a column, a CAST to a string type.
    """
    pair = _col(expression, layout, overflow_guard, plain)
    const, value = pair
    if const:
        return lambda _ctx, _value=value: _value
    return value


def _plain(node: ast.Expression, layout, plain: frozenset) -> bool:
    """Whether ``node``'s value over the rows holds no NULL: a column in
    ``plain``, a constant other than NULL, arithmetic and minus over such
    values, or a predicate over them (two-valued: a plain boolean array)."""
    if not plain:
        return False
    if isinstance(node, ast.ColumnRef):
        return layout.position(node) in plain
    if isinstance(node, ast.Literal):
        return node.value is not None
    if isinstance(node, ast.DateLiteral):
        return True
    if isinstance(node, ast.BinaryOp):
        return node.operator in _ARITH_OPS and _plain(node.left, layout, plain) \
            and _plain(node.right, layout, plain)
    if isinstance(node, ast.UnaryOp) and node.operator == "-":
        return _plain(node.operand, layout, plain)
    return _plain_predicate(node, layout, plain)


def _plain_kernel(operation: Callable, fallback: Callable, errors: tuple,
                  left_pair: tuple[bool, Any], right_pair: tuple[bool, Any]) -> Callable:
    """``operation(left, right)`` over operands without NULL -- a constant
    one bound as it is -- and ``fallback(left, right)`` where numpy refuses
    the operands (``errors``), as the NULL-aware primitive would."""
    (left_const, left), (right_const, right) = left_pair, right_pair
    if right_const:
        def fn(ctx):
            left_value = left(ctx)
            try:
                return operation(left_value, right)
            except errors:
                return fallback(left_value, right)
    elif left_const:
        def fn(ctx):
            right_value = right(ctx)
            try:
                return operation(left, right_value)
            except errors:
                return fallback(left, right_value)
    else:
        def fn(ctx):
            left_value, right_value = left(ctx), right(ctx)
            try:
                return operation(left_value, right_value)
            except errors:
                return fallback(left_value, right_value)
    return fn


def _divide(operation: Callable) -> Callable:
    """``/`` or ``%`` over operands without NULL, raising the row engine's
    error where a divisor is 0 (numpy would say inf, NaN or 0)."""
    def checked(left, right):
        if zero_divisor(left, right):
            raise ExecutionError("division by zero")
        return operation(left, right)
    return checked


def _plain_predicate(node: ast.Expression, layout, plain: frozenset) -> bool:
    """Whether ``node`` is a predicate that is TRUE or FALSE on every row, a
    boolean array: comparisons, BETWEEN, IN (no NULL member) and LIKE over
    values without NULL, and AND / OR / NOT over such predicates."""
    if isinstance(node, ast.Comparison):
        return node.quantifier is None and _plain(node.left, layout, plain) \
            and _plain(node.right, layout, plain)
    if isinstance(node, ast.Between):
        return all(_plain(operand, layout, plain)
                   for operand in (node.operand, node.low, node.high))
    if isinstance(node, ast.InList):
        return _plain(node.operand, layout, plain) and all(
            _plain(item, layout, plain) for item in node.items)
    if isinstance(node, ast.Like):
        return _plain(node.operand, layout, plain) and _plain(node.pattern, layout, plain)
    if isinstance(node, ast.BoolOp):
        return all(_plain_predicate(operand, layout, plain) for operand in node.operands)
    if isinstance(node, ast.UnaryOp) and node.operator == "not":
        return _plain_predicate(node.operand, layout, plain)
    return False


def _col(node: ast.Expression, layout, guard: bool, plain: frozenset) -> tuple[bool, Any]:
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
        return False, _column_reader(position)
    if isinstance(node, ast.Star):
        return False, lambda ctx: np.ones(ctx.length, dtype=np.int64)
    if isinstance(node, ast.UnaryOp):
        return _col_unary(node, layout, guard, plain)
    if isinstance(node, ast.BinaryOp):
        return _col_binary(node, layout, guard, plain)
    if isinstance(node, ast.BoolOp):
        return _col_bool(node, layout, guard, plain)
    if isinstance(node, ast.Comparison):
        return _over_dictionary(node, layout, plain, _col_comparison(node, layout, guard, plain))
    if isinstance(node, ast.IsNull):
        return _col_isnull(node, layout, guard, plain)
    if isinstance(node, ast.Between):
        return _over_dictionary(node, layout, plain, _col_between(node, layout, guard, plain))
    if isinstance(node, ast.Like):
        return _over_dictionary(node, layout, plain, _col_like(node, layout, guard, plain))
    if isinstance(node, ast.InList):
        return _over_dictionary(node, layout, plain, _col_in_list(node, layout, guard, plain))
    if isinstance(node, ast.CaseWhen):
        return _col_case(node, layout, guard, plain)
    if isinstance(node, ast.Cast):
        return _col_cast(node, layout, guard, plain)
    if isinstance(node, ast.Extract):
        return _col_extract(node, layout, guard, plain)
    if isinstance(node, ast.Substring):
        return _col_substring(node, layout, guard, plain)
    if isinstance(node, ast.FunctionCall):
        return _col_function(node, layout, guard, plain)
    raise CompileFallback(f"unsupported expression node {type(node).__name__}")


def dictionary_column(node: ast.Expression, layout) -> int | None:
    """The position of the one string column a comparison, BETWEEN, LIKE or
    IN reads, where it reads no other column (else None): lowered, such a
    predicate has one answer per string, so one per dictionary entry."""
    if not isinstance(node, (ast.Comparison, ast.Between, ast.Like, ast.InList)):
        return None
    found = None
    for part in ast.walk_local(node):
        if isinstance(part, ast.ColumnRef):
            position = layout.position(part)
            if position is None or found not in (None, position):
                return None
            found = position
    return None if found is None or layout.type_of(found) != "str" else found


def _over_dictionary(node: ast.Expression, layout, plain: frozenset,
                     pair: tuple[bool, Any]) -> tuple[bool, Any]:
    """``pair``, the lowering of a predicate :func:`dictionary_column` names
    a column of, made to read that column's dictionary codes where the
    context's frame has them: once the rows the kernel matched over a
    dictionary add up to its entries, the predicate runs once per entry --
    the answers kept on the kernel for the dictionary it read last -- and
    each row takes its code's answer, a ``Kleene`` where the strings would
    give one.  (Matching a dictionary then never costs more than matching
    the rows did, however unique its strings.)"""
    const, fn = pair
    position = None if const else dictionary_column(node, layout)
    if position is None:
        return pair
    nullable = position not in plain
    #: the dictionary read last, its answers (None: not yet), the rows matched over it.
    kept = [(None, None, 0)]

    def answers(dictionary) -> tuple:
        """Per code -- the dictionary's strings, then NULL -- the truth and
        validity, whether the strings hold an UNKNOWN and NULL is one (a
        NULL-free column never reads NULL's: it reads UNKNOWN), and the one
        code that is TRUE where a NULL-free column's rows need no more than
        a comparison with it (else None)."""
        table = dictionary.table()
        if not nullable:
            table = table[:-1]
        over = fn(ColumnContext({position: table}, len(table)))
        truth, valid = (over.truth, over.valid) if isinstance(over, Kleene) \
            else (over, np.ones(len(over), dtype=bool))
        if not nullable:
            truth, valid = np.append(truth, False), np.append(valid, False)
        unknown, matching = not valid[:-1].all(), truth.nonzero()[0]
        single = np.int32(matching[0]) if len(matching) == 1 and not (nullable or unknown) \
            else None
        return truth, valid, unknown, not valid[-1], single

    def coded(ctx):
        frame = ctx.frame
        codes = None if frame is None or frame.codes is None else frame.codes[position]
        if codes is None:
            return fn(ctx)
        dictionary = frame.dictionaries[position]
        seen, found, spent = kept[0]
        if seen is not dictionary:
            found, spent = None, 0
        if found is None:
            spent += ctx.length
            if spent < dictionary.entries():
                kept[0] = dictionary, None, spent
                return fn(ctx)
            found = answers(dictionary)
            kept[0] = dictionary, found, spent
        truth, valid, unknown, null_unknown, single = found
        if ctx.sel is not None:
            codes = codes[ctx.sel]
        if single is not None:
            return codes == single
        if unknown or (null_unknown and nullable and len(codes)
                       and np.minimum.reduce(codes) < 0):
            return Kleene(truth.take(codes), valid.take(codes))
        return truth.take(codes)
    return False, coded


def _col_unary(node: ast.UnaryOp, layout, guard, plain) -> tuple[bool, Any]:
    operand_pair = _col(node.operand, layout, guard, plain)
    operand = _as_fn(operand_pair)
    if node.operator == "not":
        if not operand_pair[0] and _plain_predicate(node.operand, layout, plain):
            def fn(ctx):
                return ~operand(ctx)
            return False, fn

        def fn(ctx):
            return kleene_not(operand(ctx))
        return _maybe_fold(fn, operand_pair)
    if node.operator == "-":
        def fn(ctx):
            return negate_values(operand(ctx))
        return _maybe_fold(fn, operand_pair)
    return operand_pair


def _col_binary(node: ast.BinaryOp, layout, guard, plain) -> tuple[bool, Any]:
    left_pair = _col(node.left, layout, guard, plain)
    right_pair = _col(node.right, layout, guard, plain)
    op = node.operator

    if right_pair[0] and isinstance(right_pair[1], ast.IntervalLiteral):
        interval = right_pair[1]
        if left_pair[0] and not isinstance(left_pair[1], (int, np.integer)):
            # a string or NULL: the row semantics say what that is
            raise CompileFallback("interval arithmetic on a constant that is not a date")
        if interval.unit in ("day", "week"):
            days = interval.value * (7 if interval.unit == "week" else 1)
            delta = days if op == "+" else -days
            left = _as_fn(left_pair)

            def fn(ctx):
                return arith_arrays("+", left(ctx), delta)
            return _maybe_fold(fn, left_pair)
        if left_pair[0]:
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
    elif op in _ARITH_OPS and not (left_pair[0] and right_pair[0]) \
            and _plain(node, layout, plain):
        # a widened constant is the constant: it is bound as it is
        return False, _plain_kernel(
            _divide(ARITHMETIC[op]) if op in ("/", "%") else ARITHMETIC[op],
            functools.partial(arith_arrays, op), (TypeError, ZeroDivisionError),
            left_pair if left_pair[0] else (False, left),
            right_pair if right_pair[0] else (False, right))
    elif op in _ARITH_OPS:
        def fn(ctx):
            return arith_arrays(op, left(ctx), right(ctx))
    else:
        raise CompileFallback(f"unsupported binary operator '{op}'")
    return _maybe_fold(fn, left_pair, right_pair)


def _col_bool(node: ast.BoolOp, layout, guard, plain) -> tuple[bool, Any]:
    pairs = [_col(operand, layout, guard, plain) for operand in node.operands]
    operand_fns = [_as_fn(pair) for pair in pairs]
    conjunction = node.operator == "and"
    if not any(const for const, _ in pairs) and _plain_predicate(node, layout, plain):
        combine = np.logical_and if conjunction else np.logical_or
    else:
        combine = kleene_and if conjunction else kleene_or

    def fn(ctx):
        combined = operand_fns[0](ctx)
        for operand in operand_fns[1:]:
            try:
                value = operand(ctx)
            except ExecutionError:
                # as on the row engine, an operand raises only if it does over
                # the rows the earlier ones left undecided (AND: not FALSE,
                # OR: not TRUE); a decided row keeps its verdict
                decided = truth_mask(kleene_not(combined) if conjunction else combined,
                                     ctx.length)
                rows = np.flatnonzero(~decided)
                part = as_kleene(operand(_narrowed(ctx, rows)), len(rows))
                value = np.full(ctx.length, not conjunction)
                value[rows] = part.truth
                if not part.valid.all():
                    valid = np.ones(ctx.length, dtype=bool)
                    valid[rows] = part.valid
                    value = Kleene(value, valid)
            combined = combine(combined, value)
        return combined
    return False, fn


def _col_mask_fn(node: ast.Expression, layout, guard, plain) -> Callable[[ColumnContext], np.ndarray]:
    const, operand = _col(node, layout, guard, plain)
    if not const and _plain_predicate(node, layout, plain):
        return operand  # its own mask: no call around it
    operand = _as_fn((const, operand))

    def fn(ctx):
        return as_mask(operand(ctx), ctx.length)
    return fn


def _col_align(left_node, right_node, left_pair, right_pair, layout):
    """Compile-time date alignment: a string compared with a date column
    (a grammar-injected ``'1995-03-15'``) compares as its day ordinal.

    Constant strings are converted at compile time; non-constant operands get
    a runtime str check -- but a column, whose value is an array, none.
    """
    def is_date_column(node):
        if isinstance(node, ast.ColumnRef):
            position = layout.position(node)
            return position is not None and layout.type_of(position) == "date"
        return False

    if is_date_column(left_node):
        if right_pair[0] and isinstance(right_pair[1], str):
            right_pair = (True, date_to_ordinal(right_pair[1]))
        elif not right_pair[0] and not isinstance(right_node, ast.ColumnRef):
            inner = right_pair[1]

            def aligned(ctx, _fn=inner):
                value = _fn(ctx)
                return date_to_ordinal(value) if isinstance(value, str) else value
            right_pair = (False, aligned)
    if is_date_column(right_node):
        if left_pair[0] and isinstance(left_pair[1], str):
            left_pair = (True, date_to_ordinal(left_pair[1]))
        elif not left_pair[0] and not isinstance(left_node, ast.ColumnRef):
            inner = left_pair[1]

            def aligned(ctx, _fn=inner):
                value = _fn(ctx)
                return date_to_ordinal(value) if isinstance(value, str) else value
            left_pair = (False, aligned)
    return left_pair, right_pair


def _col_comparison(node: ast.Comparison, layout, guard, plain) -> tuple[bool, Any]:
    if node.quantifier is not None:
        raise CompileFallback("quantified comparisons require row-at-a-time evaluation")
    if node.operator not in _PY_CMP:
        raise CompileFallback(f"unsupported comparison operator '{node.operator}'")
    left_pair = _col(node.left, layout, guard, plain)
    right_pair = _col(node.right, layout, guard, plain)
    left_pair, right_pair = _col_align(node.left, node.right, left_pair, right_pair,
                                       layout)
    op = node.operator
    if not (left_pair[0] and right_pair[0]) and _plain_predicate(node, layout, plain):
        # mixed types numpy cannot compare are compared value by value
        return False, _plain_kernel(NUMPY_COMPARISONS[op], functools.partial(compare_arrays, op),
                                    (TypeError,), left_pair, right_pair)
    left, right = _as_fn(left_pair), _as_fn(right_pair)

    def fn(ctx):
        return compare_arrays(op, left(ctx), right(ctx))
    return _maybe_fold(fn, left_pair, right_pair)


def _col_isnull(node: ast.IsNull, layout, guard, plain) -> tuple[bool, Any]:
    operand = _as_fn(_col(node.operand, layout, guard, plain))
    negated = node.negated

    def fn(ctx):
        return isnull_mask(operand(ctx), ctx.length, negated)
    return False, fn


def _col_between(node: ast.Between, layout, guard, plain) -> tuple[bool, Any]:
    operand_pair = _col(node.operand, layout, guard, plain)
    low_pair = _col(node.low, layout, guard, plain)
    high_pair = _col(node.high, layout, guard, plain)
    operand_pair, low_pair = _col_align(node.operand, node.low, operand_pair, low_pair,
                                        layout)
    operand_pair, high_pair = _col_align(node.operand, node.high, operand_pair,
                                         high_pair, layout)
    operand, low, high = _as_fn(operand_pair), _as_fn(low_pair), _as_fn(high_pair)
    negated = node.negated
    if not operand_pair[0] and _plain_predicate(node, layout, plain):
        bounds = (low_pair[1], high_pair[1]) if low_pair[0] and high_pair[0] else None

        def fn(ctx):
            value = operand(ctx)
            low_value, high_value = bounds or (low(ctx), high(ctx))
            try:
                inside = (value >= low_value) & (value <= high_value)
            except TypeError:  # mixed types: compared value by value
                inside = kleene_and(compare_arrays(">=", value, low_value),
                                    compare_arrays("<=", value, high_value))
            return ~inside if negated else inside
        return False, fn

    def fn(ctx):
        value = operand(ctx)
        inside = kleene_and(compare_arrays(">=", value, low(ctx)),
                            compare_arrays("<=", value, high(ctx)))
        # NOT BETWEEN over a NULL operand or bound stays UNKNOWN (Kleene NOT).
        return kleene_not(inside) if negated else inside
    return False, fn


def _col_like(node: ast.Like, layout, guard, plain) -> tuple[bool, Any]:
    operand = _as_fn(_col(node.operand, layout, guard, plain))
    const, pattern = _col(node.pattern, layout, guard, plain)
    if not const:
        # one matcher serves every row; a pattern that varies by row is
        # matched row by row.
        raise CompileFallback("LIKE with a non-constant pattern")
    if pattern is None:
        return True, None  # NULL pattern: UNKNOWN everywhere
    predicate = like_predicate(str(pattern))
    negated = node.negated

    def fn(ctx):
        return like_mask(predicate, operand(ctx), negated, ctx.length)
    return False, fn


def _col_in_list(node: ast.InList, layout, guard, plain) -> tuple[bool, Any]:
    operand = _as_fn(_col(node.operand, layout, guard, plain))
    item_pairs = [_col(item, layout, guard, plain) for item in node.items]
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


def _narrowed(ctx: ColumnContext, rows: np.ndarray) -> ColumnContext:
    """``ctx`` over the rows at the positions ``rows`` of its selection."""
    if len(rows) == ctx.length:
        return ctx
    return ColumnContext(ctx.arrays, len(rows), rows if ctx.sel is None else ctx.sel[rows],
                         ctx.frame)


def _col_case(node: ast.CaseWhen, layout, guard, plain) -> tuple[bool, Any]:
    # as on the row engine, a condition runs over the rows no earlier branch
    # took and a value over the rows its branch took (a division its guard
    # keeps from a zero never sees one); a constant value needs no rows
    branches = [(_col_mask_fn(condition, layout, guard, plain), _col(result, layout, guard, plain))
                for condition, result in node.branches]
    if node.default is not None:
        branches.append((None, _col(node.default, layout, guard, plain)))

    def fn(ctx):
        result = np.full(ctx.length, None, dtype=object)
        rest = np.arange(ctx.length)
        for condition, (const, value) in branches:
            rows = rest
            if condition is not None:  # None: the default, the rows left over
                mask = condition(_narrowed(ctx, rest))
                rows, rest = rest[mask], rest[~mask]
            if not const and len(rows):
                value = case_branch_values(value(_narrowed(ctx, rows)))
            result[rows] = value
        return collapse_case_result(result)
    return False, fn


def _col_cast(node: ast.Cast, layout, guard, plain) -> tuple[bool, Any]:
    operand_pair = _col(node.operand, layout, guard, plain)
    operand = _as_fn(operand_pair)
    target = node.type_name.lower()
    if target.startswith(("int", "bigint", "smallint")):
        convert, scalar = cast_integers, int
    elif target.startswith(("float", "double", "real", "decimal", "numeric")):
        def convert(array):
            return array.astype(np.float64)
        scalar = float
    else:
        # string targets need the row value domain (date ordinals would
        # stringify as integers); such a CAST is evaluated row at a time.
        raise CompileFallback(f"CAST to '{node.type_name}' requires row semantics")

    def fn(ctx):
        value = operand(ctx)
        if isinstance(value, (np.ndarray, Nullable)):
            return cast_array(value, convert)
        if isinstance(value, (bool, int, float, np.bool_, np.integer, np.floating)):
            return scalar(value)  # a constant operand, cast as the row engine does
        return value
    return _maybe_fold(fn, operand_pair)


def _col_extract(node: ast.Extract, layout, guard, plain) -> tuple[bool, Any]:
    if node.field_name not in ("year", "month", "day"):
        raise CompileFallback(f"unsupported EXTRACT field '{node.field_name}'")
    operand_pair = _col(node.operand, layout, guard, plain)
    operand = _as_fn(operand_pair)
    field_name = node.field_name

    def fn(ctx):
        return extract_date_field(operand(ctx), field_name)
    return _maybe_fold(fn, operand_pair)


def _col_substring(node: ast.Substring, layout, guard, plain) -> tuple[bool, Any]:
    operand = _as_fn(_col(node.operand, layout, guard, plain))
    bounds = [_col(bound, layout, guard, plain) for bound in (node.start, node.length)
              if bound is not None]
    if not all(const for const, _ in bounds):
        # one slice serves every row; bounds that vary by row are sliced row
        # by row.
        raise CompileFallback("SUBSTRING with a non-constant start or length")
    start = _as_fn(bounds[0])
    length = _as_fn(bounds[1]) if node.length is not None else None

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


def _col_function(node: ast.FunctionCall, layout, guard, plain) -> tuple[bool, Any]:
    name = node.name.lower()
    if node.is_aggregate:
        raise CompileFallback(
            f"aggregate function '{name}' used outside an aggregation context")
    pairs = [_col(argument, layout, guard, plain) for argument in node.arguments]
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

#: a predicate with its compiled kernel (None = lowered per evaluation).
ColumnPredicate = tuple["Callable[[ColumnContext], Any] | None", ast.Expression]


@dataclass
class ColumnBlockKernels:
    """The kernels of one planned block (column engine).

    None stands for "lower this one with :func:`compile_column_kernel` for
    each evaluation, over all of the frame's rows": what the compiler cannot
    lower (it is then evaluated row by row) and, with ``compile_expressions``
    off, everything -- the pipeline that runs them is the same.
    """

    #: per FROM item: its push-down predicates (empty list = nothing to apply).
    pushdown: list[list[ColumnPredicate]]
    #: the block's residual conjunction, one entry per predicate.
    residual: list[ColumnPredicate]
    #: per select item (None for a star too): over the selected rows or, of
    #: an aggregated block, over its group rows (see ``ColumnBlockShape``).
    projection: list[Callable | None]
    #: of an aggregated block: per group key and per distinct aggregate
    #: argument (see :class:`~repro.engine.plan.Aggregation`), over the
    #: selected rows, and HAVING over the group rows.
    keys: list[Callable | None]
    arguments: list[Callable | None]
    having: Callable | None


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
    """One scheduled join of a block, resolved against the frames it meets.

    The frames joined so far are numbered as the schedule meets them -- the
    driving item is source 0, the item of the block's ``n``-th join source
    ``n`` -- and a joined column is a column of one of them (see
    :attr:`ColumnBlockShape.slots`).  An execution keeps one row index per
    source, not per column.
    """

    frame_index: int
    #: per key, its position in the frame joined so far and in the FROM item.
    positions: list[tuple[int, int]]
    #: where the item's columns go among those joined so far.
    cut: int
    #: the key order a base table joined on integer-kind keys can be probed
    #: through; None for derived tables, explicit JOINs, cross joins and
    #: float or string keys, whose build side is sorted per execution.
    probe: OrderProbe | None
    #: per key, the (source, position in it) its probe side is read from.
    left_keys: list[tuple[int, int]]
    #: whether every probe-side key is a base-table column of integer kind
    #: (int, bool, date): an order can be probed without looking at them.
    typed_keys: bool


@dataclass
class ColumnBlockShape:
    """The frames one planned block runs through, known before it runs.

    Everything here is a function of the plan -- where each join's keys
    sit, which storage order a join may probe, what comes out of the select
    list; the column lookups of the FROM items, the joined frame and the
    group rows are the plan's own (``BlockPlan.layout`` ...) -- so frames are
    handed their lookup instead of indexing their columns again, and nothing
    walks the select list, on every execution.  It exists whatever the
    engine options: interpreted blocks run through the same frames.
    """

    #: the join schedule after its first (driving) item.
    joins: list[ColumnJoin]
    #: per select item, its :func:`~repro.engine.planner.output_type`.
    output_types: list[str | None]
    #: per select item, the joined frame's string column it is nothing but (a
    #: dictionary-encoded one keeps its codes in the output, and is decoded
    #: from them only where it is read), else None -- an ambiguous name too.
    output_coded: list[int | None]
    #: per group key, the joined frame's column it is nothing but (a
    #: dictionary-encoded one groups on its codes), else None.
    key_columns: list[int | None]
    #: per source of the joins (see :class:`ColumnJoin`), its FROM position.
    sources: list[int]
    #: per column of the frame the joins end in, its (source, position in
    #: the source); a block without joins reads its one item's columns.
    slots: list[tuple[int, int]]
    #: per select item, its output name and, where its type is known from
    #: the plan, its output column (None: the type is read off the values).
    output_names: list[str]
    output_infos: list[ColumnInfo | None]


def _column_of(expression: ast.Expression, layout: Layout) -> int | None:
    if not isinstance(expression, ast.ColumnRef):
        return None
    try:
        return layout.position(expression)
    except ExecutionError:
        return None  # ambiguous: for the evaluation to refuse


def column_block_shape(block) -> ColumnBlockShape:
    """Resolve the frame layouts, join keys and outputs of one planned block."""
    joins, slots = _block_joins(block, block.item_layouts)
    joined = block.layout
    items = [item.expression for item in block.select.items]
    # an ambiguous name is for the evaluation to refuse, not for this look ahead
    lenient = joined.view()
    output_types = [None if isinstance(item, ast.Star) else output_type(item, lenient)
                    for item in items]
    names = [item.output_name(position) for position, item in enumerate(block.select.items)]
    columns = [_column_of(item, joined) for item in items]
    return ColumnBlockShape(
        joins, output_types=output_types,
        output_coded=[None if column is None or joined.type_of(column) != "str" else column
                      for column in columns],
        key_columns=[_column_of(key, lenient) for key in block.select.group_by],
        sources=[step.frame_index for step in block.join_order], slots=slots,
        output_names=names,
        output_infos=[None if type_name is None else ColumnInfo("", name, type_name)
                      for name, type_name in zip(names, output_types)])


def _block_joins(block, item_layouts: list[Layout]
                 ) -> tuple[list[ColumnJoin], list[tuple[int, int]]]:
    """The block's join schedule after its driving item, resolved, and the
    slots of the frame it ends in.  Whatever the order, the
    columns joined so far stand in FROM order (see ``JoinStep``), so a
    position among them is found by walking the joined items in FROM order."""
    if not block.join_order:
        return [], [(0, position) for position in range(len(block.columns))]
    items, widths = block.select.from_items, [len(columns) for columns in block.item_columns]
    source_of = {step.frame_index: number for number, step in enumerate(block.join_order)}
    first = block.join_order[0].frame_index
    joined, joins = [first], []

    def slot(position: int) -> tuple[int, int]:  # (item, position in it)
        for item in sorted(joined):
            if position < widths[item]:
                return item, position
            position -= widths[item]
        raise AssertionError("a key outside the columns joined so far")

    for step in block.join_order[1:]:
        item = item_layouts[step.frame_index]
        positions = list(step.keys)
        source = items[step.frame_index]
        probe = None
        if positions and isinstance(source, ast.TableRef) and all(
                item.type_of(position) in _ORDERED_KEY_TYPES for _, position in positions):
            probe = OrderProbe(source.name, tuple(item.columns[position].name
                                                  for _, position in positions))
        keys = [slot(position) for position, _ in positions]
        # a base table's int / bool / date column is an int64 or bool array
        # (a Nullable one with NULLs), and the joins before are inner: no padding
        typed_keys = all(isinstance(items[key_item], ast.TableRef)
                         and block.item_columns[key_item][column].type_name
                         in _ORDERED_KEY_TYPES for key_item, column in keys)
        joins.append(ColumnJoin(step.frame_index, positions, step.cut, probe,
                                [(source_of[key_item], column) for key_item, column in keys],
                                typed_keys))
        joined.append(step.frame_index)
    slots = [(source_of[item], position) for item in range(len(widths))
             for position in range(widths[item])]
    return joins, slots


def column_shape(plan, block) -> ColumnBlockShape:
    """The block's shape, resolved once and cached on ``plan``."""
    return plan.kernels(block, ("col", "shape"), column_block_shape)


def compile_column_block(block, shape: ColumnBlockShape, overflow_guard: bool = False,
                         compiled: bool = True, null_free: tuple = ()) -> ColumnBlockKernels:
    """The kernels of one :class:`~repro.engine.plan.BlockPlan` for the column
    engine; every one of them None unless ``compiled``.

    ``null_free`` holds, per FROM item, the positions of its columns known
    to hold no NULL (``executor_row.null_free_columns``: a base table's, in
    the table version being read): the kernels over them skip the NULL
    dispatch (see :func:`compile_column_kernel`).  The scheduled joins are
    inner, so a NULL-free column is one in the joined frame as well, where
    the items' columns stand in FROM order (see ``JoinStep``).
    """
    item_layouts, joined_layout = block.item_layouts, block.layout
    free = [frozenset(positions) for positions in null_free]
    joined_plain, start = set(), 0
    for columns, positions in zip(block.item_columns, null_free):
        joined_plain.update(map(start.__add__, positions))
        start += len(columns)
    joined_plain = frozenset(joined_plain)

    def lower(expression, layout=joined_layout, plain=joined_plain):
        if not compiled or expression is None or isinstance(expression, ast.Star):
            return None
        try:
            return compile_column_kernel(expression, layout, overflow_guard, plain)
        except CompileFallback:
            return None

    aggregation = block.aggregation
    pushdown = [[(lower(predicate, item_layouts[index],
                        free[index] if index < len(free) else frozenset()), predicate)
                 for predicate in _item_pushdown(block, columns)]
                for index, columns in enumerate(block.item_columns)]
    residual = [(lower(predicate), predicate) for predicate in block.residual]
    if aggregation is None:
        return ColumnBlockKernels(pushdown, residual,
                                  [lower(item.expression) for item in block.select.items],
                                  [], [], None)
    # a group row holds no NULL in a count, nor -- every group of a GROUP BY
    # has a first row -- in a NULL-free joined column
    width = len(joined_layout.columns)
    group_plain = (joined_plain if block.select.group_by else frozenset()) | {
        width + number for number, call in enumerate(aggregation.calls)
        if call.name.lower() == "count"}
    group = functools.partial(lower, layout=block.group_layout, plain=group_plain)
    return ColumnBlockKernels(
        pushdown, residual, [group(item) for item in aggregation.items],
        [lower(key) for key in block.select.group_by],
        [lower(argument) for argument in aggregation.arguments], group(aggregation.having))


def column_kernels(plan, block, overflow_guard: bool = False,
                   compiled: bool = True, null_free: tuple = ()) -> ColumnBlockKernels:
    """The block's column kernels for one NULL-free set, lowered once and
    cached on ``plan`` (``null_free=()``: the flavour that tests every
    column for NULL)."""
    shape = column_shape(plan, block)  # before the build: the plan's lock is not reentrant
    return plan.kernels(
        block, ("col", overflow_guard, compiled, null_free),
        lambda planned: compile_column_block(planned, shape, overflow_guard, compiled,
                                             null_free))
