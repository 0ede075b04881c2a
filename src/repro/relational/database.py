"""Database catalog: named tables plus a one-call SQL entry point.

This is the stand-in for the MySQL instance beneath the R-GMA Registry
(DESIGN.md §2): ``Database.execute`` parses and runs one statement and
returns a :class:`~repro.relational.executor.ResultSet` (SELECT) or an
affected-row count (other statements).
"""

from __future__ import annotations

import typing as _t

from repro.errors import SchemaError
from repro.relational.executor import ResultSet, execute_select, select_rowids
from repro.relational.sqlast import CreateTableStmt, DeleteStmt, InsertStmt, SelectStmt
from repro.relational.sqlparser import Statement, parse_sql_cached
from repro.relational.table import Table
from repro.relational.types import Column, ColumnType

__all__ = ["Database"]


class Database:
    """A catalog of tables with a textual SQL interface."""

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self.statements_executed = 0

    # -- catalog --------------------------------------------------------------
    def create_table(self, name: str, columns: _t.Sequence[tuple[str, str]]) -> Table:
        """Create a table from (name, type) pairs; returns it."""
        key = name.lower()
        if key in self._tables:
            raise SchemaError(f"table {name!r} already exists")
        table = Table(name, [Column(n, ColumnType.normalize(t)) for n, t in columns])
        self._tables[key] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise SchemaError(f"no such table: {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    # -- execution ------------------------------------------------------------
    def execute(self, sql: str | Statement) -> ResultSet | int:
        """Run one statement; SELECT → ResultSet, others → affected rows."""
        stmt = parse_sql_cached(sql) if isinstance(sql, str) else sql
        self.statements_executed += 1
        if isinstance(stmt, SelectStmt):
            return execute_select(self.table(stmt.table), stmt)
        if isinstance(stmt, InsertStmt):
            table = self.table(stmt.table)
            for row in stmt.rows:
                table.insert(row, columns=stmt.columns)
            return len(stmt.rows)
        if isinstance(stmt, CreateTableStmt):
            self.create_table(stmt.table, stmt.columns)
            return 0
        if isinstance(stmt, DeleteStmt):
            table = self.table(stmt.table)
            rowids, _examined, _indexed = select_rowids(table, stmt.where)
            return table.delete_rows(rowids)
        raise SchemaError(f"unsupported statement: {type(stmt).__name__}")

    def query(self, sql: str) -> ResultSet:
        """Run a SELECT; raises if the statement is not a SELECT."""
        result = self.execute(sql)
        if not isinstance(result, ResultSet):
            raise SchemaError("query() requires a SELECT statement")
        return result
