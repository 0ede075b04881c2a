"""The Grid Index Information Service (GIIS).

"A GIIS provides an aggregate directory of lower level data" (paper
§2.1): GRIS (and other GIIS — the hierarchy is recursive) register into
it with soft state, and queries are answered by merging per-registrant
data, cached for ``cachettl`` seconds.  Setting ``cachettl`` very large
turns the GIIS into a pure directory server — exactly the paper's
Experiment 2 configuration.

The crashes the paper reports in Experiment 4 (the GIIS died beyond
~200 registered GRIS under query-all) are the kernel's to decide
(:mod:`repro.core.kernels.mds`); it marks the GIIS ``crashed``, and a
crashed GIIS refuses all further work.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.errors import RegistryError, ServiceCrashError
from repro.ldap.compile import resolve_filter
from repro.ldap.dit import DIT
from repro.ldap.entry import Entry
from repro.ldap.filter import Filter
from repro.mds.cache import AnswerMemo, EncodedAnswer, EncodedResult, TtlCache
from repro.mds.registration import DEFAULT_REG_TTL, Registration, RegistrationTable

__all__ = ["GIIS", "GiisResult"]

# Registrant pullers return (entries, provider_exec_cost) when queried.
Puller = _t.Callable[[float], tuple[list[Entry], float]]


@dataclass
class GiisResult(EncodedResult):
    """A GIIS query answer plus the aggregation work it caused."""

    entries: list[Entry]
    pulled: list[str] = field(default_factory=list)  # registrants re-fetched
    cache_hits: int = 0
    pull_cost: float = 0.0  # downstream provider CPU charged
    registrants_queried: int = 0
    _answer: EncodedAnswer | None = None


class GIIS:
    """Aggregate directory over registered GRIS/GIIS."""

    def __init__(
        self,
        name: str,
        *,
        cachettl: float = 30.0,
    ) -> None:
        self.name = name
        self.registrations = RegistrationTable()
        self.cache: TtlCache[list[Entry]] = TtlCache(cachettl)
        self.queries = 0
        self.crashed = False
        self._generation = 0
        self._memo = AnswerMemo()

    # -- registration (soft state) ----------------------------------------------
    def register(
        self,
        name: str,
        puller: Puller,
        *,
        now: float = 0.0,
        ttl: float = DEFAULT_REG_TTL,
    ) -> None:
        """Register (or re-register) a downstream information service."""
        self._check_alive()
        if name in self.registrations:
            self.registrations.renew(name, now)
            return
        self.registrations.add(
            Registration(name=name, puller=puller, ttl=ttl, registered_at=now)
        )
        self._generation += 1

    def renew(self, name: str, now: float) -> bool:
        """Soft-state renewal; returns False for unknown registrants."""
        return self.registrations.renew(name, now)

    def unregister(self, name: str) -> Registration | None:
        """Explicitly drop a registrant (a clean leave, not a TTL lapse).

        Returns the removed :class:`Registration` so scenario churn can
        re-register the same puller when the node rejoins, or None for
        unknown names.  The registrant's cache slice is invalidated
        exactly as :meth:`sweep` would.
        """
        self._check_alive()
        reg = self.registrations.get(name)
        if reg is None:
            return None
        self.registrations.remove(name)
        self.cache.invalidate(name)
        self._generation += 1
        return reg

    def sweep(self, now: float) -> list[str]:
        """Clean dead registrations (the soft-state garbage collector)."""
        dead = self.registrations.sweep(now)
        for name in dead:
            self.cache.invalidate(name)
        if dead:
            self._generation += 1
        return dead

    @property
    def registrant_count(self) -> int:
        return len(self.registrations)

    # -- queries --------------------------------------------------------------
    def query(
        self,
        filter: Filter | str = "(objectclass=*)",
        *,
        now: float = 0.0,
        attributes: _t.Sequence[str] | None = None,
        subset: _t.Sequence[str] | None = None,
    ) -> GiisResult:
        """Aggregate query across registrants.

        ``subset`` restricts the aggregation to named registrants (the
        paper's "query part" case); None means query-all.

        Raises :class:`RegistryError` for unknown subset names.
        """
        self._check_alive()
        self.queries += 1
        predicate = resolve_filter(filter).predicate
        live = self.registrations.alive(now)
        if subset is not None:
            wanted = set(subset)
            unknown = wanted - {reg.name for reg in live}
            if unknown:
                raise RegistryError(f"unknown registrants: {sorted(unknown)}")
            live = [reg for reg in live if reg.name in wanted]
        result = GiisResult(entries=[], registrants_queried=len(live))
        fresh: dict[str, list[Entry]] = {}
        for reg in live:
            entries = self.cache.get(reg.name, now)
            if entries is None:
                entries, cost = reg.puller(now)
                self.cache.put(reg.name, entries, now)
                result.pulled.append(reg.name)
                result.pull_cost += cost
                self._generation += 1
            else:
                result.cache_hits += 1
            fresh[reg.name] = entries
        question = (
            str(filter),
            tuple(attributes) if attributes is not None else None,
            tuple(sorted(subset)) if subset is not None else None,
        )

        def select() -> list[Entry]:
            merged = DIT()
            for entries in fresh.values():
                for entry in entries:
                    merged.upsert(entry)
            # The merged DIT is only read back in DFS order, never searched.
            return [e.project(attributes) for e in merged.entries() if predicate(e)]

        result._answer = self._memo.answer(self._generation, question, select)
        result.entries = result._answer.entries
        return result

    def as_puller(self) -> Puller:
        """Expose this GIIS as a puller so it can register into a parent
        GIIS — the recursive hierarchy of Figure 1."""

        def pull(now: float) -> tuple[list[Entry], float]:
            result = self.query(now=now)
            return result.entries, result.pull_cost

        return pull

    def _check_alive(self) -> None:
        if self.crashed:
            raise ServiceCrashError(f"GIIS {self.name} has crashed")
