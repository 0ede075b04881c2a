"""The R-GMA Registry: the mediator's directory of producers.

"The RDBMS holds the information for all the Producers (the registered
table name, the identity, and the values of those fixed attributes) and
the descriptions of each Producer's tables" (paper §2.2).  What that
RDBMS costs is modelled — :class:`~repro.core.params.RegistryParams`
charges every query — so no SQL engine runs here.  Per table, the
Registry keeps its registrations in the order they were made (a
re-registration is a delete plus an insert, so it moves to the end) and
answers a lookup from a live list it rebuilds only when a registration
changes or the clock crosses a lease expiry.  Leases are R-GMA's soft
state: a lapsed registration stops answering at once and
:meth:`Registry.sweep` drops it.  The SQL Registry this replaced is the
differential oracle in ``tests/rgma/oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import RegistryError
from repro.rgma.schema import GLOBAL_SCHEMA

__all__ = ["Registry", "ProducerRegistration"]

DEFAULT_LEASE = 1800.0  # R-GMA's default producer termination interval


@dataclass(frozen=True)
class ProducerRegistration:
    """One producer's registration: what it publishes, where, until when."""

    producer_id: str
    table: str
    servlet: str
    predicate: str
    expires_at: float


class Registry:
    """Mediating directory of producers with soft-state leases."""

    def __init__(self, name: str = "registry") -> None:
        self.name = name
        # table -> producer id -> registration, in registration order
        self._tables: dict[str, dict[str, ProducerRegistration]] = {t: {} for t in GLOBAL_SCHEMA}
        self._table_of: dict[str, str] = {}  # producer id -> its table
        # table -> (live registrations, latest lapsed expiry, earliest live
        # expiry): the answer for every ``now`` with lapsed <= now < live,
        # until a registration of the table changes.
        self._live: dict[str, tuple[list[ProducerRegistration], float, float]] = {}
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
        self._tables[table][producer_id] = ProducerRegistration(
            producer_id, table, servlet, predicate, float(now + lease)
        )
        self._table_of[producer_id] = table
        self._live.pop(table, None)
        self.registrations_total += 1

    def unregister(self, producer_id: str) -> bool:
        """Drop a registration; returns whether it existed."""
        table = self._table_of.pop(producer_id, None)
        if table is None:
            return False
        del self._tables[table][producer_id]
        self._live.pop(table, None)
        return True

    def sweep(self, now: float) -> int:
        """Expire lapsed leases; returns how many were dropped."""
        dropped = 0
        for table, registrations in self._tables.items():
            lapsed = [pid for pid, reg in registrations.items() if reg.expires_at <= now]
            for producer_id in lapsed:
                del registrations[producer_id]
                del self._table_of[producer_id]
            if lapsed:
                self._live.pop(table, None)
                dropped += len(lapsed)
        return dropped

    # -- mediation ------------------------------------------------------------
    def lookup(self, table: str, now: float = 0.0) -> list[ProducerRegistration]:
        """Live producers advertising ``table`` (mediator step one), in
        registration order."""
        self.lookups_total += 1
        cached = self._live.get(table)
        if cached is None or not cached[1] <= now < cached[2]:
            registrations = self._tables.get(table)
            if registrations is None:
                return []
            live = [reg for reg in registrations.values() if reg.expires_at > now]
            lapsed = [reg.expires_at for reg in registrations.values() if reg.expires_at <= now]
            cached = self._live[table] = (
                live,
                max(lapsed, default=-math.inf),
                min((reg.expires_at for reg in live), default=math.inf),
            )
        return list(cached[0])

    def describe(self, table: str) -> list[tuple[str, str]]:
        """Schema description of a global table (name, type) per column."""
        if table not in GLOBAL_SCHEMA:
            raise RegistryError(f"table {table!r} is not in the global schema")
        return list(GLOBAL_SCHEMA[table])

    def producer_count(self, now: float = 0.0) -> int:
        return sum(
            reg.expires_at > now
            for registrations in self._tables.values()
            for reg in registrations.values()
        )

    def tables(self) -> list[str]:
        return list(GLOBAL_SCHEMA)
