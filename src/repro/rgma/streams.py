"""R-GMA's push model: continuous queries over producer streams.

"Its main use is the notification of events — that is, a user can
subscribe to a flow of data with specific properties directly from a
data source" (paper §2.2).  A :class:`StreamBroker` holds continuous
SELECTs; each published tuple is matched against the subscriptions of
its table and delivered to the matching consumers' callbacks.

This is the push half of the pull/push comparison in the paper's §3.7
(MDS is pull-only; R-GMA supports both).
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.errors import SchemaError, SqlError
from repro.relational import SelectStmt, parse_sql
from repro.relational.compile import RowPredicate, compile_predicate
from repro.relational.table import Table
from repro.relational.types import Column, ColumnType
from repro.rgma.schema import GLOBAL_SCHEMA

__all__ = ["ContinuousQuery", "StreamBroker"]

Callback = _t.Callable[[dict[str, _t.Any]], None]


@dataclass
class ContinuousQuery:
    """One standing subscription."""

    subscription_id: str
    stmt: SelectStmt
    callback: Callback
    delivered: int = 0


# A subscription as publish runs it: the handle, its compiled WHERE (None
# for no WHERE) and its projection as (output name, column position) pairs.
_Standing = tuple[ContinuousQuery, _t.Optional[RowPredicate], tuple[tuple[str, int], ...]]


@dataclass
class StreamBroker:
    """Dispatches published tuples to matching continuous queries."""

    _subs: dict[str, ContinuousQuery] = field(default_factory=dict)
    _by_table: dict[str, dict[str, _Standing]] = field(default_factory=dict)
    published: int = 0
    deliveries: int = 0

    def subscribe(self, subscription_id: str, sql: str, callback: Callback) -> ContinuousQuery:
        """Register a continuous SELECT; returns the subscription handle.

        The WHERE clause and the projection are checked against the
        table's global-schema columns here, once: an unknown column, or
        an id that is already subscribed, raises :class:`SchemaError`.
        """
        stmt = parse_sql(sql)
        if not isinstance(stmt, SelectStmt):
            raise SqlError("continuous queries must be SELECT statements")
        schema = GLOBAL_SCHEMA.get(stmt.table)
        if schema is None:
            raise SqlError(f"table {stmt.table!r} is not in the global schema")
        if subscription_id in self._subs:
            raise SchemaError(f"subscription {subscription_id!r} already exists")
        table = Table(stmt.table, [Column(c, ColumnType.normalize(t)) for c, t in schema])
        predicate = None if stmt.where is None else compile_predicate(stmt.where, table)
        names = [c for c, _t_ in schema] if stmt.columns == ("*",) else stmt.columns
        projection = tuple((name, table.column_position(name)) for name in names)
        sub = ContinuousQuery(subscription_id, stmt, callback)
        self._subs[subscription_id] = sub
        self._by_table.setdefault(stmt.table.lower(), {})[subscription_id] = (
            sub, predicate, projection,
        )
        return sub

    def unsubscribe(self, subscription_id: str) -> bool:
        sub = self._subs.pop(subscription_id, None)
        if sub is None:
            return False
        del self._by_table[sub.stmt.table.lower()][subscription_id]
        return True

    @property
    def subscription_count(self) -> int:
        return len(self._subs)

    def publish(self, table_name: str, row: dict[str, _t.Any]) -> int:
        """Push one tuple; returns the number of deliveries made."""
        self.published += 1
        schema = GLOBAL_SCHEMA.get(table_name)
        if schema is None:
            raise SqlError(f"table {table_name!r} is not in the global schema")
        values = tuple(row.get(c) for c, _t_ in schema)
        delivered = 0
        # A snapshot: a callback may unsubscribe.
        for sub, predicate, projection in tuple(self._by_table.get(table_name.lower(), {}).values()):
            if predicate is None or predicate(values) is True:
                sub.callback({name: values[position] for name, position in projection})
                sub.delivered += 1
                delivered += 1
        self.deliveries += delivered
        return delivered
