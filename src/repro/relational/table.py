"""In-memory tables with hash secondary indexes.

Rows are stored as tuples in insertion order; equality indexes map a
column value to the set of row ids holding it.  The executor consults
indexes for ``col = literal`` conjuncts and ``IN`` lists, and reports
how many rows it actually examined, which feeds the study's cost models.

Index keys are normalized exactly like the executor's comparison
semantics — numeric when the value coerces to float, case-insensitive
text otherwise — so an index lookup can never miss a row the predicate
would accept.
"""

from __future__ import annotations

import typing as _t

from repro.errors import SchemaError
from repro.relational.types import Column, SqlValue, coerce

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.relational.compile import RowPredicate

__all__ = ["Table"]


class Table:
    """One relational table: schema, rows, and secondary indexes."""

    def __init__(self, name: str, columns: _t.Sequence[Column]) -> None:
        if not columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        seen: set[str] = set()
        for column in columns:
            if column.key in seen:
                raise SchemaError(f"duplicate column {column.name!r} in table {name!r}")
            seen.add(column.key)
        self.name = name
        self.columns = tuple(columns)
        self._index_of = {c.key: i for i, c in enumerate(self.columns)}
        self._rows: dict[int, tuple[SqlValue, ...]] = {}
        self._next_rowid = 0
        self._indexes: dict[str, dict[SqlValue, set[int]]] = {}
        # Compiled WHERE closures keyed on the expression tree's id (see
        # compile.compiled_for); closures bind column positions only, so
        # rows never invalidate them.
        self._compiled_where: dict[int, tuple[_t.Any, "RowPredicate"]] = {}
        self.rows_scanned_total = 0  # cumulative cost counter

    # -- schema -----------------------------------------------------------------
    def column_position(self, name: str) -> int:
        try:
            return self._index_of[name.lower()]
        except KeyError:
            raise SchemaError(f"no column {name!r} in table {self.name!r}") from None

    def has_column(self, name: str) -> bool:
        return name.lower() in self._index_of

    # -- indexing ---------------------------------------------------------------
    def create_index(self, column: str) -> None:
        """Build (or rebuild) a hash index over ``column``."""
        position = self.column_position(column)
        index: dict[SqlValue, set[int]] = {}
        for rowid, row in self._rows.items():
            index.setdefault(_norm(row[position]), set()).add(rowid)
        self._indexes[column.lower()] = index

    # -- mutation ---------------------------------------------------------------
    def insert(self, values: _t.Sequence[SqlValue], columns: _t.Sequence[str] | None = None) -> int:
        """Insert one row; returns its rowid.

        ``columns`` names the supplied values; omitted columns get NULL.
        """
        if columns is None:
            if len(values) != len(self.columns):
                raise SchemaError(
                    f"table {self.name!r} has {len(self.columns)} columns, got {len(values)} values"
                )
            row = tuple(coerce(v, c) for v, c in zip(values, self.columns))
        else:
            if len(values) != len(columns):
                raise SchemaError("column list and value list lengths differ")
            slots: list[SqlValue] = [None] * len(self.columns)
            for name, value in zip(columns, values):
                position = self.column_position(name)
                slots[position] = coerce(value, self.columns[position])
            row = tuple(slots)
        rowid = self._next_rowid
        self._next_rowid += 1
        self._rows[rowid] = row
        for column_key, index in self._indexes.items():
            position = self._index_of[column_key]
            index.setdefault(_norm(row[position]), set()).add(rowid)
        return rowid

    def delete_rows(self, rowids: _t.Iterable[int]) -> int:
        """Remove the given rows; returns how many existed."""
        removed = 0
        for rowid in list(rowids):
            row = self._rows.pop(rowid, None)
            if row is None:
                continue
            removed += 1
            for column_key, index in self._indexes.items():
                position = self._index_of[column_key]
                bucket = index.get(_norm(row[position]))
                if bucket:
                    bucket.discard(rowid)
        return removed

    def clear(self) -> None:
        """Drop all rows (keeps schema and index definitions)."""
        self._rows.clear()
        for index in self._indexes.values():
            index.clear()

    # -- access -----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> _t.Iterator[tuple[int, tuple[SqlValue, ...]]]:
        """(rowid, row) pairs in insertion order."""
        return iter(sorted(self._rows.items()))

    def lookup_index(self, column: str, value: SqlValue) -> set[int] | None:
        """Row ids with ``column == value`` via index, or None if unindexed."""
        index = self._indexes.get(column.lower())
        if index is None:
            return None
        return set(index.get(_norm(value), set()))

    def get_row(self, rowid: int) -> tuple[SqlValue, ...]:
        return self._rows[rowid]


def _norm(value: SqlValue) -> SqlValue:
    """Index key normalization mirroring the comparison semantics.

    ``col = literal`` compares numerically when both sides coerce to
    float, so coercible values (including numeric *strings*) key by
    their float value; everything else keys by lowercased text.  NaN
    never compares equal numerically, so NaN spellings stay textual.
    """
    if value is None:
        return None
    try:
        number = float(value)
    except (TypeError, ValueError):
        return value.lower() if isinstance(value, str) else value
    if number != number:  # NaN
        return value.lower() if isinstance(value, str) else value
    return number
