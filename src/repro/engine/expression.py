"""Tuple-at-a-time expression evaluation (used by the row engine and as the
row-wise fallback of the column engine).

The evaluator is deliberately a straightforward recursive interpreter: its
per-row overhead is part of what makes the row engine's performance profile
different from the vectorised engine, which is exactly the kind of contrast
discriminative benchmarking is designed to expose.
"""

from __future__ import annotations

import datetime
from typing import Any, Callable, Protocol

from repro.engine.types import add_interval, like_to_predicate, to_date
from repro.errors import ExecutionError
from repro.sqlparser import ast


class RowEnv(Protocol):
    """Environment an expression is evaluated in.

    ``lookup`` returns the value of a column reference for the current row
    (consulting outer rows for correlated references); ``run_subquery``
    executes a nested SELECT with the current row as outer context and
    returns its rows.
    """

    def lookup(self, ref: ast.ColumnRef) -> Any: ...

    def run_subquery(self, select: ast.Select) -> list[tuple]: ...


_LIKE_CACHE: dict[str, Callable[[Any], bool]] = {}


def _like(pattern: str) -> Callable[[Any], bool]:
    predicate = _LIKE_CACHE.get(pattern)
    if predicate is None:
        predicate = like_to_predicate(pattern)
        _LIKE_CACHE[pattern] = predicate
    return predicate


def evaluate(expression: ast.Expression, env: RowEnv) -> Any:
    """Evaluate ``expression`` for the row bound in ``env``.

    NULL propagates through arithmetic and comparisons (returned as None);
    predicates treat None as false where SQL would.
    """
    if isinstance(expression, ast.Literal):
        return expression.value
    if isinstance(expression, ast.DateLiteral):
        return to_date(expression.value)
    if isinstance(expression, ast.IntervalLiteral):
        return expression
    if isinstance(expression, ast.ColumnRef):
        return env.lookup(expression)
    if isinstance(expression, ast.Star):
        return 1  # count(*) argument
    if isinstance(expression, ast.UnaryOp):
        return _evaluate_unary(expression, env)
    if isinstance(expression, ast.BinaryOp):
        return _evaluate_binary(expression, env)
    if isinstance(expression, ast.BoolOp):
        return _evaluate_bool(expression, env)
    if isinstance(expression, ast.Comparison):
        return _evaluate_comparison(expression, env)
    if isinstance(expression, ast.IsNull):
        value = evaluate(expression.operand, env)
        return (value is None) != expression.negated
    if isinstance(expression, ast.Between):
        return _evaluate_between(expression, env)
    if isinstance(expression, ast.Like):
        value = evaluate(expression.operand, env)
        pattern = evaluate(expression.pattern, env)
        if value is None or pattern is None:
            return None  # LIKE over NULL is UNKNOWN, negated or not
        matched = _like(str(pattern))(value)
        return (not matched) if expression.negated else matched
    if isinstance(expression, ast.InList):
        return _evaluate_in_list(expression, env)
    if isinstance(expression, ast.InSubquery):
        return _evaluate_in_subquery(expression, env)
    if isinstance(expression, ast.Exists):
        rows = env.run_subquery(expression.subquery)
        found = bool(rows)
        return (not found) if expression.negated else found
    if isinstance(expression, ast.ScalarSubquery):
        rows = env.run_subquery(expression.subquery)
        if not rows:
            return None
        return rows[0][0]
    if isinstance(expression, ast.FunctionCall):
        return _evaluate_function(expression, env)
    if isinstance(expression, ast.Cast):
        return _evaluate_cast(expression, env)
    if isinstance(expression, ast.Extract):
        return _evaluate_extract(expression, env)
    if isinstance(expression, ast.Substring):
        return _evaluate_substring(expression, env)
    if isinstance(expression, ast.CaseWhen):
        for condition, result in expression.branches:
            if evaluate(condition, env):
                return evaluate(result, env)
        if expression.default is not None:
            return evaluate(expression.default, env)
        return None
    raise ExecutionError(f"cannot evaluate expression node {type(expression).__name__}")


# -- operator helpers ------------------------------------------------------------


def _evaluate_unary(node: ast.UnaryOp, env: RowEnv) -> Any:
    value = evaluate(node.operand, env)
    if node.operator == "not":
        if value is None:
            return None
        return not value
    if value is None:
        return None
    return -value if node.operator == "-" else +value


def _evaluate_binary(node: ast.BinaryOp, env: RowEnv) -> Any:
    left = evaluate(node.left, env)
    right = evaluate(node.right, env)
    if left is None or right is None:
        return None
    operator = node.operator
    if operator == "||":
        return str(left) + str(right)
    # date +/- interval arithmetic
    if isinstance(right, ast.IntervalLiteral):
        if not isinstance(left, datetime.date):
            raise ExecutionError("interval arithmetic requires a date operand")
        amount = right.value if operator == "+" else -right.value
        return add_interval(left, amount, right.unit)
    if isinstance(left, ast.IntervalLiteral):
        raise ExecutionError("an interval may only appear on the right-hand side")
    if operator == "+":
        return left + right
    if operator == "-":
        if isinstance(left, datetime.date) and isinstance(right, datetime.date):
            return (left - right).days
        return left - right
    if operator == "*":
        return left * right
    if operator in ("/", "%"):
        if right == 0:
            raise ExecutionError("division by zero")
        return left / right if operator == "/" else left % right
    raise ExecutionError(f"unsupported binary operator '{operator}'")


def _evaluate_bool(node: ast.BoolOp, env: RowEnv) -> Any:
    """Kleene AND/OR: UNKNOWN (None) only dominates the undecided case.

    FALSE short-circuits AND and TRUE short-circuits OR even past UNKNOWN
    operands; a conjunction/disjunction that stays undecided with an UNKNOWN
    operand is UNKNOWN, not False.
    """
    if node.operator == "and":
        unknown = False
        for operand in node.operands:
            value = evaluate(operand, env)
            if value is None:
                unknown = True
            elif not value:
                return False
        return None if unknown else True
    unknown = False
    for operand in node.operands:
        value = evaluate(operand, env)
        if value is None:
            unknown = True
        elif value:
            return True
    return None if unknown else False


def _compare(operator: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if isinstance(left, datetime.date) or isinstance(right, datetime.date):
        left = to_date(left) if isinstance(left, (str, datetime.date)) else left
        right = to_date(right) if isinstance(right, (str, datetime.date)) else right
    if operator == "=":
        return left == right
    if operator == "<>":
        return left != right
    if operator == "<":
        return left < right
    if operator == "<=":
        return left <= right
    if operator == ">":
        return left > right
    if operator == ">=":
        return left >= right
    raise ExecutionError(f"unsupported comparison operator '{operator}'")


def _evaluate_comparison(node: ast.Comparison, env: RowEnv) -> Any:
    left = evaluate(node.left, env)
    if node.quantifier is not None:
        assert isinstance(node.right, ast.ScalarSubquery)
        rows = env.run_subquery(node.right.subquery)
        values = [row[0] for row in rows]
        results = [bool(_compare(node.operator, left, value)) for value in values]
        if node.quantifier == "any":
            return any(results)
        return all(results) if results else True
    right = evaluate(node.right, env)
    return _compare(node.operator, left, right)


def _kleene_and_scalar(left: Any, right: Any) -> Any:
    """Scalar Kleene AND (None = UNKNOWN): FALSE decides, UNKNOWN lingers."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _evaluate_between(node: ast.Between, env: RowEnv) -> Any:
    """BETWEEN decomposes into its Kleene conjunction.

    ``x NOT BETWEEN NULL AND 5`` is TRUE for x = 6: the ``x <= 5`` conjunct
    is already FALSE, so the NULL bound cannot change the answer -- a NULL
    operand only yields UNKNOWN while the range test stays undecided.
    """
    value = evaluate(node.operand, env)
    low = evaluate(node.low, env)
    high = evaluate(node.high, env)
    inside = _kleene_and_scalar(_compare("<=", low, value),
                                _compare("<=", value, high))
    if not node.negated:
        return inside
    return None if inside is None else (not inside)


def _in_members(value: Any, members: set, negated: bool) -> Any:
    """Kleene membership: a NULL member makes a non-match UNKNOWN.

    ``x IN (a, NULL)`` is TRUE when x matches a, otherwise UNKNOWN (the
    comparison against the NULL member is UNKNOWN); negation is Kleene NOT.
    """
    if value in members:
        result: Any = True
    elif None in members:
        result = None
    else:
        result = False
    if not negated:
        return result
    return None if result is None else (not result)


def _evaluate_in_list(node: ast.InList, env: RowEnv) -> Any:
    value = evaluate(node.operand, env)
    if value is None:
        return None
    members = {evaluate(item, env) for item in node.items}
    return _in_members(value, members, node.negated)


def _evaluate_in_subquery(node: ast.InSubquery, env: RowEnv) -> Any:
    value = evaluate(node.operand, env)
    if value is None:
        return None
    rows = env.run_subquery(node.subquery)
    members = {row[0] for row in rows}
    return _in_members(value, members, node.negated)


_SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "abs": abs,
    "round": lambda value, digits=0: round(value, int(digits)),
    "floor": lambda value: float(int(value // 1)),
    "ceil": lambda value: float(-int(-value // 1)),
    "length": lambda value: len(str(value)),
    "lower": lambda value: str(value).lower(),
    "upper": lambda value: str(value).upper(),
    "coalesce": lambda *values: next((value for value in values if value is not None), None),
}


def _evaluate_function(node: ast.FunctionCall, env: RowEnv) -> Any:
    name = node.name.lower()
    if node.is_aggregate:
        raise ExecutionError(
            f"aggregate function '{name}' used outside an aggregation context"
        )
    handler = _SCALAR_FUNCTIONS.get(name)
    if handler is None:
        raise ExecutionError(f"unknown function '{name}'")
    arguments = [evaluate(argument, env) for argument in node.arguments]
    if name != "coalesce" and any(argument is None for argument in arguments):
        return None
    return handler(*arguments)


# public aliases consumed by the kernel compiler (repro.engine.compile) and
# the vectorised primitives (repro.engine.vector); the compiled closures must
# share these exact semantics with the interpreter.
compare_values = _compare
scalar_functions = _SCALAR_FUNCTIONS
like_predicate = _like
in_members = _in_members


def _evaluate_cast(node: ast.Cast, env: RowEnv) -> Any:
    value = evaluate(node.operand, env)
    if value is None:
        return None
    target = node.type_name.lower()
    if target.startswith(("int", "bigint", "smallint")):
        return int(value)
    if target.startswith(("float", "double", "real", "decimal", "numeric")):
        return float(value)
    if target.startswith(("char", "varchar", "text", "string")):
        return str(value)
    if target.startswith("date"):
        return to_date(value)
    raise ExecutionError(f"unsupported CAST target type '{node.type_name}'")


def _evaluate_extract(node: ast.Extract, env: RowEnv) -> Any:
    value = evaluate(node.operand, env)
    if value is None:
        return None
    date_value = to_date(value)
    if node.field_name == "year":
        return date_value.year
    if node.field_name == "month":
        return date_value.month
    if node.field_name == "day":
        return date_value.day
    raise ExecutionError(f"unsupported EXTRACT field '{node.field_name}'")


def _evaluate_substring(node: ast.Substring, env: RowEnv) -> Any:
    value = evaluate(node.operand, env)
    if value is None:
        return None
    start = int(evaluate(node.start, env))
    text = str(value)
    begin = max(start - 1, 0)
    if node.length is None:
        return text[begin:]
    length = int(evaluate(node.length, env))
    return text[begin:begin + length]


# ---------------------------------------------------------------------------
# aggregate calls over a group of rows
# ---------------------------------------------------------------------------


def aggregate_value(call: ast.FunctionCall, values: list | None, rows: int) -> Any:
    """One aggregate call's value over a group of ``rows`` rows: ``values``
    are its argument's non-NULL values in row order (None: ``count(*)``).
    A group without values gives NULL, or 0 for a count."""
    name = call.name.lower()
    if values is None:
        return rows
    if call.distinct:
        values = list(set(values))
    if name == "count":
        return len(values)
    if not values:
        return None
    if name == "sum":
        return sum(values)
    if name == "avg":
        return sum(values) / len(values)
    return min(values) if name == "min" else max(values)
