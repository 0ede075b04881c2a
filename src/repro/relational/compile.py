"""WHERE-clause compilation: row closures, LIKE regexes, value compare.

:func:`compile_predicate` lowers a WHERE tree to a closure over column
positions and pre-coerced constants that returns SQL's three-valued
answer (True/False/None) without re-dispatching on AST nodes per row.
Closures capture only the (immutable) table schema, so
:func:`compiled_for`'s per-table cache never needs invalidating on row
mutation.

:func:`compare_values` is the one copy of the comparison semantics —
numeric when both sides coerce to float, else case-insensitive text —
used by compiled closures for the column-vs-column case; the
constant-vs-column cases pre-coerce the constant side at compile time.
"""

from __future__ import annotations

import operator
import re
import typing as _t
from functools import lru_cache

from repro.errors import SchemaError
from repro.relational.sqlast import (
    ColumnRef,
    Comparison,
    Constant,
    InList,
    IsNull,
    Like,
    LogicalOp,
    NotOp,
    SqlExpr,
)
from repro.relational.types import SqlValue

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.relational.table import Table

__all__ = ["compare_values", "like_regex", "compile_predicate", "compiled_for"]

Row = _t.Tuple[SqlValue, ...]
RowPredicate = _t.Callable[[Row], _t.Optional[bool]]

_OPS: dict[str, _t.Callable[[_t.Any, _t.Any], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compare_values(op: str, left: SqlValue, right: SqlValue) -> bool:
    """SQL comparison: numeric when both coerce, else case-insensitive text."""
    a: _t.Any
    b: _t.Any
    try:
        a = float(left)  # type: ignore[arg-type]
        b = float(right)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        a = str(left).lower()
        b = str(right).lower()
    fn = _OPS.get(op)
    if fn is None:
        raise SchemaError(f"unknown comparison operator {op!r}")
    return fn(a, b)


@lru_cache(maxsize=512)
def like_regex(pattern: str) -> "re.Pattern[str]":
    """Compiled regex for a SQL LIKE pattern (``%``/``_`` wildcards)."""
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.compile(regex, flags=re.IGNORECASE)


def _coerced(value: SqlValue) -> float | None:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def _operand(expr: SqlExpr, table: "Table") -> _t.Callable[[Row], SqlValue]:
    if isinstance(expr, Constant):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ColumnRef):
        position = table.column_position(expr.name)
        return lambda row: row[position]
    raise SchemaError(f"unsupported operand: {type(expr).__name__}")


def _compile_comparison(expr: Comparison, table: "Table") -> RowPredicate:
    op = expr.op
    fn = _OPS.get(op)
    if fn is None:
        raise SchemaError(f"unknown comparison operator {op!r}")
    column_left = isinstance(expr.left, ColumnRef)
    column_right = isinstance(expr.right, ColumnRef)
    if column_left and isinstance(expr.right, Constant):
        position = table.column_position(expr.left.name)
        const = expr.right.value
        if const is None:
            return lambda row: None
        const_num = _coerced(const)
        const_str = str(const).lower()

        def run_col_const(row: Row) -> bool | None:
            value = row[position]
            if value is None:
                return None
            if const_num is not None:
                try:
                    number = float(value)  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    pass
                else:
                    return fn(number, const_num)
            return fn(str(value).lower(), const_str)

        return run_col_const
    if column_right and isinstance(expr.left, Constant):
        position = table.column_position(expr.right.name)
        const = expr.left.value
        if const is None:
            return lambda row: None
        const_num = _coerced(const)
        const_str = str(const).lower()

        def run_const_col(row: Row) -> bool | None:
            value = row[position]
            if value is None:
                return None
            if const_num is not None:
                try:
                    number = float(value)  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    pass
                else:
                    return fn(const_num, number)
            return fn(const_str, str(value).lower())

        return run_const_col
    left = _operand(expr.left, table)
    right = _operand(expr.right, table)

    def run_general(row: Row) -> bool | None:
        a = left(row)
        b = right(row)
        if a is None or b is None:
            return None
        return compare_values(op, a, b)

    return run_general


def _compile_in_list(expr: InList, table: "Table") -> RowPredicate:
    get = _operand(expr.operand, table)
    negated = expr.negated
    # Decompose the list once: numeric membership for coercible elements
    # (NaN never equals anything numerically, so it is excluded), plus
    # lowered-text membership replicating the per-element compare — a
    # coercible row value only text-matches non-coercible elements.
    numbers: set[float] = set()
    texts_all: set[str] = set()
    texts_noncoercible: set[str] = set()
    for element in expr.values:
        if element is None:
            continue
        lowered = str(element).lower()
        texts_all.add(lowered)
        number = _coerced(element)
        if number is None:
            texts_noncoercible.add(lowered)
        elif number == number:
            numbers.add(number)

    def run(row: Row) -> bool | None:
        value = get(row)
        if value is None:
            return None
        number = _coerced(value)
        if number is not None:
            hit = number in numbers or str(value).lower() in texts_noncoercible
        else:
            hit = str(value).lower() in texts_all
        return (not hit) if negated else hit

    return run


def compile_predicate(expr: SqlExpr, table: "Table") -> RowPredicate:
    """Compile a WHERE tree to a three-valued row closure."""
    if isinstance(expr, LogicalOp):
        left = compile_predicate(expr.left, table)
        right = compile_predicate(expr.right, table)
        if expr.op == "AND":

            def run_and(row: Row) -> bool | None:
                a = left(row)
                if a is False:
                    return False
                b = right(row)
                if b is False:
                    return False
                if a is None or b is None:
                    return None
                return True

            return run_and

        def run_or(row: Row) -> bool | None:
            a = left(row)
            if a is True:
                return True
            b = right(row)
            if b is True:
                return True
            if a is None or b is None:
                return None
            return False

        return run_or
    if isinstance(expr, NotOp):
        inner = compile_predicate(expr.operand, table)

        def run_not(row: Row) -> bool | None:
            value = inner(row)
            return None if value is None else (not value)

        return run_not
    if isinstance(expr, Comparison):
        return _compile_comparison(expr, table)
    if isinstance(expr, InList):
        return _compile_in_list(expr, table)
    if isinstance(expr, Like):
        get = _operand(expr.operand, table)
        negated = expr.negated
        regex = like_regex(expr.pattern)

        def run_like(row: Row) -> bool | None:
            value = get(row)
            if value is None:
                return None
            hit = regex.fullmatch(str(value)) is not None
            return (not hit) if negated else hit

        return run_like
    if isinstance(expr, IsNull):
        get = _operand(expr.operand, table)
        negated = expr.negated

        def run_is_null(row: Row) -> bool:
            result = get(row) is None
            return (not result) if negated else result

        return run_is_null
    raise SchemaError(f"unsupported WHERE node: {type(expr).__name__}")


def compiled_for(table: "Table", expr: SqlExpr) -> RowPredicate:
    """Per-table compiled-predicate cache, keyed on the tree's identity.

    Never on dataclass equality: ``Constant(1) == Constant(1.0)``, yet
    the closures differ in their text fallback (``'1'`` against
    ``'1.0'``).  Each entry holds its tree, so a key's ``id`` cannot be
    recycled while the entry lives.  Closures bind column positions,
    which are fixed at table creation, so entries stay valid across
    inserts/deletes — no invalidation.
    """
    cache = table._compiled_where
    hit = cache.get(id(expr))
    if hit is not None and hit[0] is expr:
        return hit[1]
    if len(cache) >= 128:
        cache.clear()
    predicate = compile_predicate(expr, table)
    cache[id(expr)] = (expr, predicate)
    return predicate
