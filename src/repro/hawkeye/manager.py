"""The Hawkeye Manager: pool head with an indexed resident database.

"A Manager is the head computer in the Pool that collects and stores
(in an indexed resident database) monitoring information from each
Agent registered to it.  It is also the central target for queries
about the status of any Pool member" (paper §2.3).

The resident database is a :class:`~repro.classad.collector.AdCollector`
(indexed on Name/Machine), which is why the paper finds the Manager's
directory performance better than the GIIS's LDAP backend (§3.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.classad import AdCollector, ClassAd, QueryOutcome
from repro.hawkeye.agent import Agent
from repro.hawkeye.triggers import Trigger, TriggerEngine, TriggerFiring

__all__ = ["Manager", "ManagerAnswer"]


@dataclass(frozen=True)
class ManagerAnswer:
    """One Manager query answer plus its scan cost."""

    ads: list[ClassAd]
    scanned: int
    ops: int
    index_hit: bool

    def sized_text(self) -> tuple[str, int]:
        """The reply body and its size, each ad serialized once."""
        sized = [ad.sized_text() for ad in self.ads]
        size = sum(n for _text, n in sized) if sized else 64
        return "\n\n".join(text for text, _n in sized), size

    def estimated_size(self) -> int:
        return self.sized_text()[1]


class Manager:
    """Pool manager: ad collection, queries, agent directory, triggers."""

    def __init__(
        self,
        name: str,
        *,
        ad_lifetime: float = 900.0,
        indexed_attrs: tuple[str, ...] = ("Name", "Machine"),
    ) -> None:
        self.name = name
        self.collector = AdCollector(indexed_attrs=indexed_attrs)
        self.ad_lifetime = ad_lifetime
        self.triggers = TriggerEngine()
        self._agents: dict[str, Agent] = {}
        self.queries = 0
        self.ads_received = 0

    # -- pool membership ----------------------------------------------------
    def register_agent(self, agent: Agent) -> None:
        """Add a Monitoring Agent to the pool."""
        self._agents[agent.machine.lower()] = agent

    def agent_address(self, machine: str) -> Agent | None:
        """Directory lookup: the paper's "client must first consult the
        Manager for the Agent's IP-address" (§2.3)."""
        self.queries += 1
        return self._agents.get(machine.lower())

    @property
    def pool_size(self) -> int:
        return len(self.collector)

    @property
    def agent_count(self) -> int:
        return len(self._agents)

    # -- ad ingestion ------------------------------------------------------------
    def receive_ad(self, ad: ClassAd, now: float = 0.0) -> None:
        """Store one Startd ClassAd in the resident database."""
        self.collector.advertise(ad, now=now, lifetime=self.ad_lifetime)
        self.ads_received += 1

    def expire(self, now: float) -> int:
        """Sweep ads whose lease lapsed (soft state)."""
        return self.collector.expire(now)

    # -- queries --------------------------------------------------------------
    def query(self, constraint: str = "TRUE") -> ManagerAnswer:
        """Answer a pool status query with a ClassAd constraint."""
        self.queries += 1
        outcome: QueryOutcome = self.collector.query(constraint)
        return ManagerAnswer(
            ads=outcome.ads,
            scanned=outcome.scanned,
            ops=outcome.ops,
            index_hit=outcome.index_hit,
        )

    def query_machine(self, machine: str) -> ManagerAnswer:
        """Indexed lookup of one machine's latest Startd ad."""
        self.queries += 1
        ads = self.collector.lookup_equal("Machine", machine)
        return ManagerAnswer(ads=ads, scanned=len(ads), ops=len(ads), index_hit=True)

    # -- triggers -------------------------------------------------------------
    def submit_trigger(self, trigger: Trigger) -> None:
        """Accept a Trigger ClassAd from a client (paper §2.3)."""
        self.triggers.submit(trigger)

    def check_triggers(self, now: float = 0.0) -> list[TriggerFiring]:
        """Matchmake all triggers against all resident Startd ads."""
        return self.triggers.check(self.collector.ads(), now=now)
