"""Mini relational engine: the substrate beneath the R-GMA Registry.

Typed in-memory tables, a MySQL-flavoured SQL subset (CREATE TABLE,
INSERT, SELECT with WHERE/ORDER BY/LIMIT, DELETE), hash indexes and SQL
NULL three-valued logic.  Stands in for the MySQL + JDBC stack of the
paper's R-GMA 1.18 deployment (DESIGN.md §2).
"""

from repro.relational.database import Database
from repro.relational.executor import ResultSet, execute_select
from repro.relational.sqlast import (
    ColumnRef,
    Comparison,
    Constant,
    CreateTableStmt,
    DeleteStmt,
    InList,
    InsertStmt,
    IsNull,
    Like,
    LogicalOp,
    NotOp,
    OrderItem,
    SelectStmt,
)
from repro.relational.sqlparser import parse_sql, parse_sql_cached
from repro.relational.table import Table
from repro.relational.types import Column, ColumnType, coerce

__all__ = [
    "Database",
    "Table",
    "Column",
    "ColumnType",
    "coerce",
    "parse_sql",
    "parse_sql_cached",
    "execute_select",
    "ResultSet",
    "SelectStmt",
    "InsertStmt",
    "CreateTableStmt",
    "DeleteStmt",
    "OrderItem",
    "ColumnRef",
    "Constant",
    "Comparison",
    "LogicalOp",
    "NotOp",
    "InList",
    "Like",
    "IsNull",
]
