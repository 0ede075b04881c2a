"""The Grid Resource Information Service (GRIS).

A GRIS "runs on a resource and acts as a modular content gateway for a
resource" (paper §2.1): it owns a set of information providers, caches
their output for ``cachettl`` seconds, and answers LDAP searches over
the merged data.

The functional core is simulation-free; :class:`GrisResult` reports
what work a query caused (providers executed, cache hits, result size)
so the simulation layer can charge time for it.  It keeps no directory
tree: the VO suffix entry, the host entry beneath it, and one slice per
provider (its latest output, directly beneath the host), in
first-production order — the order a tree search would visit them in.
Answers are memoized per cache generation: with a warm cache, repeated
identical queries — the workload of Experiment 1 — cost O(1), mirroring
slapd's in-memory serving while keeping the host-Python experiments fast.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

import numpy as np

from repro.ldap.compile import resolve_filter
from repro.ldap.dit import SCOPE_BASE, SCOPE_ONE, SCOPE_SUB
from repro.ldap.entry import Entry
from repro.ldap.filter import Filter
from repro.ldap.schema import MDS_VO_SUFFIX, host_dn_text
from repro.mds.cache import AnswerMemo, EncodedAnswer, EncodedResult, TtlCache
from repro.mds.providers import InformationProvider

__all__ = ["GRIS", "GrisResult"]


@dataclass
class GrisResult(EncodedResult):
    """A GRIS search answer plus the work it caused."""

    entries: list[Entry]
    providers_run: list[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    exec_cost: float = 0.0  # provider CPU-seconds charged by this query
    _answer: EncodedAnswer | None = None

    @property
    def fetched(self) -> bool:
        """True when at least one provider had to execute (cache miss)."""
        return bool(self.providers_run)


class GRIS:
    """Per-resource information server with a TTL cache over providers."""

    def __init__(
        self,
        hostname: str,
        providers: _t.Sequence[InformationProvider],
        *,
        cachettl: float = 30.0,
        seed: int = 0,
    ) -> None:
        self.hostname = hostname
        self.providers = list(providers)
        self.cache: TtlCache[list[Entry]] = TtlCache(cachettl)
        self._rng = np.random.default_rng(seed)
        self.queries = 0
        self._generation = 0
        self._memo = AnswerMemo()
        self._suffix = Entry(MDS_VO_SUFFIX, {"objectclass": "MdsVoName"})
        self._host = Entry(
            host_dn_text(hostname),
            {"objectclass": ["MdsHost", "MdsComputer"], "Mds-Host-hn": hostname},
        )
        self._slices: dict[str, list[Entry]] = {}  # provider name -> its last output

    @property
    def base_dn(self) -> str:
        """Default search base for this resource."""
        return host_dn_text(self.hostname)

    @property
    def cachettl(self) -> float:
        return self.cache.ttl

    def add_provider(self, provider: InformationProvider) -> None:
        self.providers.append(provider)
        self.cache.invalidate(provider.name)
        self._generation += 1

    # -- the core operation -------------------------------------------------
    def search(
        self,
        filter: Filter | str = "(objectclass=*)",
        *,
        now: float = 0.0,
        scope: str = SCOPE_SUB,
        attributes: _t.Sequence[str] | None = None,
    ) -> GrisResult:
        """Answer one LDAP search of the VO suffix, running stale providers as needed."""
        self.queries += 1
        result = GrisResult(entries=[])
        for provider in self.providers:
            entries = self.cache.get(provider.name, now)
            if entries is None:
                entries = provider.produce(self.hostname, self._rng, now)
                self.cache.put(provider.name, entries, now)
                result.providers_run.append(provider.name)
                result.exec_cost += provider.exec_cost
                result.cache_misses += 1
                self._slices[provider.name] = entries
                self._generation += 1
            else:
                result.cache_hits += 1
        question = (str(filter), scope, tuple(attributes) if attributes is not None else None)
        result._answer = self._memo.answer(
            self._generation, question, lambda: self._select(filter, scope, attributes)
        )
        result.entries = result._answer.entries
        return result

    def _select(
        self, filter: Filter | str, scope: str, attributes: _t.Sequence[str] | None
    ) -> list[Entry]:
        predicate = resolve_filter(filter).predicate
        if scope == SCOPE_BASE:
            candidates = [self._suffix]
        elif scope == SCOPE_ONE:
            candidates = [self._host]
        elif scope == SCOPE_SUB:
            candidates = [self._suffix, self._host]
            for entries in self._slices.values():
                candidates.extend(entries)
        else:
            raise ValueError(f"unknown scope: {scope!r}")
        return [entry.project(attributes) for entry in candidates if predicate(entry)]
