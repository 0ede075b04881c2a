"""Query execution over :class:`~repro.relational.table.Table`.

The executor prunes candidate rows with the table's hash indexes,
evaluates the WHERE tree's compiled row closure
(:mod:`repro.relational.compile`, SQL three-valued logic) on each
candidate, and reports rows examined per query so the simulation can
charge proportional CPU.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.errors import SchemaError
from repro.relational.compile import compiled_for
from repro.relational.sqlast import (
    ColumnRef,
    Comparison,
    Constant,
    InList,
    LogicalOp,
    SelectStmt,
    SqlExpr,
)
from repro.relational.table import Table
from repro.relational.types import SqlValue

__all__ = ["ResultSet", "execute_select", "select_rowids"]


@dataclass(frozen=True)
class ResultSet:
    """Rows plus execution metadata."""

    columns: tuple[str, ...]
    rows: list[tuple[SqlValue, ...]]
    rows_examined: int
    index_used: bool

    def __len__(self) -> int:
        return len(self.rows)

    def as_dicts(self) -> list[dict[str, SqlValue]]:
        """Rows as name→value dicts (handy for assertions and consumers)."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def estimated_size(self) -> int:
        """Approximate wire size of the result in bytes."""
        total = sum(len(c) + 2 for c in self.columns)
        for row in self.rows:
            total += sum(len(str(v)) + 4 for v in row)
        return max(total, 64)


# -- planning -------------------------------------------------------------


def _index_candidates(expr: SqlExpr) -> list[tuple[str, SqlValue]]:
    """Top-level AND-conjunct ``col = literal`` pairs usable with indexes."""
    if isinstance(expr, Comparison) and expr.op == "=":
        if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Constant):
            return [(expr.left.name, expr.right.value)]
        if isinstance(expr.right, ColumnRef) and isinstance(expr.left, Constant):
            return [(expr.right.name, expr.left.value)]
        return []
    if isinstance(expr, LogicalOp) and expr.op == "AND":
        return _index_candidates(expr.left) + _index_candidates(expr.right)
    return []


def _conjuncts(expr: SqlExpr) -> list[SqlExpr]:
    """Flatten top-level ANDs into their conjunct list."""
    if isinstance(expr, LogicalOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _prune_candidates(table: Table, where: SqlExpr) -> set[int] | None:
    """Smallest index-derived candidate set for ``where``, or None.

    Every option over-approximates its conjunct (the compiled predicate
    re-checks each candidate), so the smallest usable one wins.  An
    equality conjunct on an unknown column raises :class:`SchemaError`
    unless an earlier equality conjunct already yielded an index bucket;
    then the walk over them just stops there.
    """
    options: list[set[int]] = []
    for column, value in _index_candidates(where):
        if not options and not table.has_column(column):
            raise SchemaError(f"no column {column!r} in table {table.name!r}")
        if not table.has_column(column):
            break
        bucket = table.lookup_index(column, value)
        if bucket is not None:
            options.append(bucket)
    for conjunct in _conjuncts(where):
        if isinstance(conjunct, InList) and not conjunct.negated and isinstance(conjunct.operand, ColumnRef):
            column = conjunct.operand.name
            if table.has_column(column) and table.lookup_index(column, None) is not None:
                union: set[int] = set()
                for element in conjunct.values:
                    if element is not None:
                        union.update(table.lookup_index(column, element) or ())
                options.append(union)
    if not options:
        return None
    return min(options, key=len)


def select_rowids(table: Table, where: SqlExpr | None) -> tuple[list[int], int, bool]:
    """Rowids matching ``where``; returns (ids, rows_examined, index_used).

    Prunes with every usable index, then evaluates the compiled row
    closure on the candidates in rowid order.
    """
    candidates: set[int] | None = None
    index_used = False
    if where is not None:
        candidates = _prune_candidates(table, where)
        index_used = candidates is not None
    if candidates is None:
        items: list[tuple[int, tuple[SqlValue, ...]]] = list(table.rows())
    else:
        items = [(rowid, table.get_row(rowid)) for rowid in sorted(candidates)]
    hits = []
    examined = 0
    # Compile lazily: a WHERE naming an unknown column outside the
    # equality conjuncts raises only when there is a row to test.
    predicate = compiled_for(table, where) if (where is not None and items) else None
    for rowid, row in items:
        examined += 1
        if predicate is None or predicate(row) is True:
            hits.append(rowid)
    table.rows_scanned_total += examined
    return hits, examined, index_used


def execute_select(table: Table, stmt: SelectStmt) -> ResultSet:
    """Run a SELECT against one table."""
    rowids, examined, index_used = select_rowids(table, stmt.where)
    if stmt.count_star:
        return ResultSet(
            columns=("COUNT(*)",),
            rows=[(len(rowids),)],
            rows_examined=examined,
            index_used=index_used,
        )
    if stmt.order_by:
        def sort_key(rowid: int) -> tuple:
            row = table.get_row(rowid)
            key = []
            for item in stmt.order_by:
                value = row[table.column_position(item.column)]
                # NULLs sort first ascending, last descending.
                null_rank = 0 if value is None else 1
                comparable = (null_rank, _sortable(value))
                key.append(_Reversed(comparable) if item.descending else comparable)
            return tuple(key)

        rowids.sort(key=sort_key)
    if stmt.limit is not None:
        rowids = rowids[: stmt.limit]
    if stmt.columns == ("*",):
        out_columns = tuple(c.name for c in table.columns)
        positions = list(range(len(table.columns)))
    else:
        out_columns = stmt.columns
        positions = [table.column_position(name) for name in stmt.columns]
    rows = [tuple(table.get_row(rid)[p] for p in positions) for rid in rowids]
    return ResultSet(columns=out_columns, rows=rows, rows_examined=examined, index_used=index_used)


def _sortable(value: SqlValue) -> _t.Any:
    if value is None:
        return 0
    if isinstance(value, (int, float)):
        return (0, float(value))
    return (1, str(value).lower())


class _Reversed:
    """Key wrapper inverting comparison order (for DESC sort keys)."""

    __slots__ = ("inner",)

    def __init__(self, inner: _t.Any) -> None:
        self.inner = inner

    def __lt__(self, other: "_Reversed") -> bool:
        return other.inner < self.inner

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.inner == self.inner
