"""The ProducerServlet: R-GMA's information server (Table 1 of the paper).

Producers attach to a ProducerServlet, which buffers their published
tuples in per-table relations and answers SQL SELECTs from
ConsumerServlets.  :class:`ServletAnswer` reports rows examined and
result size so the simulation layer can charge work.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.errors import RegistryError, SqlError
from repro.relational import Database, ResultSet, SelectStmt, parse_sql_cached
from repro.rgma.producer import Producer
from repro.rgma.registry import DEFAULT_LEASE, Registry
from repro.rgma.schema import GLOBAL_SCHEMA, table_ddl

__all__ = ["ProducerServlet", "ServletAnswer"]

# R-GMA buffers a bounded history per stream; the study's deployment used
# small circular buffers per producer.
DEFAULT_HISTORY_ROWS = 1000


@dataclass(frozen=True)
class ServletAnswer:
    """One servlet query answer plus its cost drivers."""

    result: ResultSet
    producers_touched: int

    def estimated_size(self) -> int:
        return self.result.estimated_size()


class ProducerServlet:
    """Buffers producer tuples and answers consumer SQL."""

    def __init__(self, name: str, *, history_rows: int = DEFAULT_HISTORY_ROWS) -> None:
        self.name = name
        self.db = Database(f"{name}-buffer")
        self.history_rows = history_rows
        self._producers: dict[str, Producer] = {}
        self._table_producers: dict[str, int] = {}  # table -> attached producers publishing it
        self._row_count: dict[str, int] = {}
        self.queries_answered = 0
        self.tuples_buffered = 0

    # -- producer lifecycle -------------------------------------------------
    def attach(
        self,
        producer: Producer,
        registry: Registry | None = None,
        *,
        now: float = 0.0,
        lease: float = DEFAULT_LEASE,
    ) -> None:
        """Attach a producer (and register it with the Registry if given)."""
        if producer.producer_id in self._producers:
            raise RegistryError(f"producer {producer.producer_id!r} already attached")
        self._producers[producer.producer_id] = producer
        self._table_producers[producer.table] = self._table_producers.get(producer.table, 0) + 1
        if not self.db.has_table(producer.table):
            self.db.execute(table_ddl(producer.table))
            self.db.table(producer.table).create_index("producerId")
            self.db.table(producer.table).create_index("hostName")
        if registry is not None:
            registry.register(
                producer.producer_id,
                producer.table,
                self.name,
                producer.predicate,
                now=now,
                lease=lease,
            )

    def detach(self, producer_id: str, registry: Registry | None = None) -> bool:
        producer = self._producers.pop(producer_id, None)
        if producer is not None:
            self._table_producers[producer.table] -= 1
        if registry is not None:
            registry.unregister(producer_id)
        return producer is not None

    @property
    def producers(self) -> list[Producer]:
        return list(self._producers.values())

    @property
    def producer_count(self) -> int:
        return len(self._producers)

    # -- publication -------------------------------------------------------
    def publish(self, producer_id: str, now: float) -> dict[str, _t.Any]:
        """Have one attached producer emit a fresh tuple into its buffer."""
        producer = self._producers.get(producer_id)
        if producer is None:
            raise RegistryError(f"no attached producer {producer_id!r}")
        row = producer.measure(now)
        table = self.db.table(producer.table)
        table.insert([row.get(c) for c in producer.columns()])
        self.tuples_buffered += 1
        self._row_count[producer.table] = self._row_count.get(producer.table, 0) + 1
        self._trim(producer.table)
        return row

    def publish_all(self, now: float) -> int:
        """One measurement round across every attached producer."""
        for producer_id in list(self._producers):
            self.publish(producer_id, now)
        return len(self._producers)

    def _trim(self, table_name: str) -> None:
        table = self.db.table(table_name)
        if len(table) > self.history_rows:
            # Drop the oldest rows beyond the buffer bound.
            excess = len(table) - self.history_rows
            oldest = [rowid for rowid, _row in list(table.rows())[:excess]]
            table.delete_rows(oldest)

    # -- queries --------------------------------------------------------------
    def answer(self, sql: str | SelectStmt) -> ServletAnswer:
        """Answer one SQL SELECT over the buffered tuples."""
        stmt = parse_sql_cached(sql) if isinstance(sql, str) else sql
        if not isinstance(stmt, SelectStmt):
            raise SqlError("ProducerServlet answers SELECT statements only")
        if stmt.table not in GLOBAL_SCHEMA:
            raise RegistryError(f"table {stmt.table!r} is not in the global schema")
        self.queries_answered += 1
        if not self.db.has_table(stmt.table):
            # No local producer for this table: empty relation.
            self.db.execute(table_ddl(stmt.table))
        result = self.db.execute(stmt)
        assert isinstance(result, ResultSet)
        touched = self._table_producers.get(stmt.table, 0)
        return ServletAnswer(result=result, producers_touched=touched)
