"""Reference R-GMA Registry: producer registrations held in the SQL engine.

This is the Registry as it was when it owned a :class:`Database`: every
register, unregister, sweep and lookup is a SQL statement over a
``producers`` table, and ``describe`` reads a ``schemata`` table.  The
differential tests hold :class:`repro.rgma.registry.Registry` to its
answers, row order and value types.

The SQL engine compares text case-insensitively, and numerically when
both sides parse as numbers, and ``unregister`` splices the id into its
DELETE unescaped.  The differential histories draw ids, servlets and
table names that none of these rules touches.
"""

from __future__ import annotations

from repro.errors import RegistryError
from repro.relational import Database
from repro.rgma.registry import DEFAULT_LEASE, ProducerRegistration
from repro.rgma.schema import GLOBAL_SCHEMA


class Registry:
    """Mediating directory of producers, backed by the relational engine."""

    def __init__(self, name: str = "registry") -> None:
        self.name = name
        self.db = Database(f"{name}-db")
        self.db.create_table(
            "producers",
            (
                ("producerId", "VARCHAR(64)"),
                ("tableName", "VARCHAR(64)"),
                ("servlet", "VARCHAR(64)"),
                ("predicate", "VARCHAR(255)"),
                ("expiresAt", "REAL"),
            ),
        )
        self.db.table("producers").create_index("tableName")
        self.db.table("producers").create_index("producerId")
        self.db.create_table(
            "schemata",
            (("tableName", "VARCHAR(64)"), ("columnName", "VARCHAR(64)"), ("columnType", "VARCHAR(32)")),
        )
        for table, columns in GLOBAL_SCHEMA.items():
            for column, typ in columns:
                self.db.execute(
                    f"INSERT INTO schemata VALUES ('{table}', '{column}', '{typ}')"
                )
        self.registrations_total = 0
        self.lookups_total = 0

    # -- registration ----------------------------------------------------------
    def register(
        self,
        producer_id: str,
        table: str,
        servlet: str,
        predicate: str = "",
        *,
        now: float = 0.0,
        lease: float = DEFAULT_LEASE,
    ) -> None:
        """Insert or refresh a producer registration."""
        if table not in GLOBAL_SCHEMA:
            raise RegistryError(f"table {table!r} is not in the global schema")
        self.unregister(producer_id)
        escaped_pred = predicate.replace("'", "''")
        self.db.execute(
            f"INSERT INTO producers VALUES ('{producer_id}', '{table}', "
            f"'{servlet}', '{escaped_pred}', {now + lease})"
        )
        self.registrations_total += 1

    def unregister(self, producer_id: str) -> bool:
        """Drop a registration; returns whether it existed."""
        removed = self.db.execute(
            f"DELETE FROM producers WHERE producerId = '{producer_id}'"
        )
        return bool(removed)

    def sweep(self, now: float) -> int:
        """Expire lapsed leases; returns how many were dropped."""
        return int(self.db.execute(f"DELETE FROM producers WHERE expiresAt <= {now}"))

    # -- mediation ------------------------------------------------------------
    def lookup(self, table: str, now: float = 0.0) -> list[ProducerRegistration]:
        """Live producers advertising ``table`` (mediator step one)."""
        self.lookups_total += 1
        result = self.db.query(
            f"SELECT producerId, tableName, servlet, predicate, expiresAt "
            f"FROM producers WHERE tableName = '{table}' AND expiresAt > {now}"
        )
        return [
            ProducerRegistration(
                producer_id=row[0],
                table=row[1],
                servlet=row[2],
                predicate=row[3],
                expires_at=row[4],
            )
            for row in result.rows
        ]

    def describe(self, table: str) -> list[tuple[str, str]]:
        """Schema description of a global table (name, type) per column."""
        result = self.db.query(
            f"SELECT columnName, columnType FROM schemata WHERE tableName = '{table}'"
        )
        if not result.rows:
            raise RegistryError(f"table {table!r} is not in the global schema")
        return [(row[0], row[1]) for row in result.rows]

    def producer_count(self, now: float = 0.0) -> int:
        result = self.db.query(f"SELECT COUNT(*) FROM producers WHERE expiresAt > {now}")
        return int(result.rows[0][0])

    def tables(self) -> list[str]:
        return list(GLOBAL_SCHEMA)
