"""Applying a :class:`Scenario`'s environment models to the exact DES.

:func:`apply_scenario` installs the *environment* half of a scenario —
registrant churn, WAN weather and injected faults — onto a compiled
:class:`~repro.core.topology.adapters.Deployment` before the workload
runs.  (The workload half — arrival modulation and client mixes — rides
into :func:`repro.core.runner.drive` via its ``scenario`` parameter.)

Churn is real register/unregister traffic, per system:

* **MDS** — directly-registered GRIS are :meth:`~repro.mds.giis.GIIS.
  unregister`-ed on leave and re-registered with their saved pullers on
  rejoin; soft-state registrants instead go *silent* (their registrar
  gate closes), so the GIIS lease sweeper expires them and the first
  renewal cycle after rejoin re-registers — the honest soft-state path.
* **R-GMA** — a churned ProducerServlet's producers are
  :meth:`~repro.rgma.registry.Registry.unregister`-ed on leave and
  re-registered (fresh leases) on rejoin.
* **Hawkeye** — the Manager has no unregister: agent ads lapse via
  ``ad_lifetime`` exactly as Condor's do, so churn is service-level
  only (connections refused while the node is out).

In every system the churned node's :class:`~repro.sim.rpc.Service`
objects are :meth:`~repro.sim.rpc.Service.fail`-ed for the outage.

Faults land on the plan's ``fault_target`` nodes: one controller crashes
and restarts their services on the :class:`~repro.core.scenario.model.
FaultModel`'s outage windows, and a :class:`~repro.sim.faults.
FaultInjector` drops or stalls requests when the model asks for it.
Outages are depth-counted, so a crash window overlapping a churn-out
never double-frees a server.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.core.runner import ScenarioRun
from repro.core.scenario.model import ChurnEvent, Outage, Scenario, ScenarioError
from repro.core.topology.adapters import Deployment
from repro.core.topology.plan import CollectorSpec, EdgeKind
from repro.errors import ServiceCrashError
from repro.mds.giis import GIIS
from repro.sim.faults import DropInjector, FaultInjector, StallInjector
from repro.sim.network import WanConditions

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.mds.registration import Registration
    from repro.rgma.registry import Registry
    from repro.rgma.producer_servlet import ProducerServlet

__all__ = ["ScenarioOps", "apply_scenario", "churn_candidates"]


@dataclass
class ScenarioOps:
    """What a scenario's environment controllers actually did to a run."""

    churn_events: list[ChurnEvent] = field(default_factory=list)
    churn_leaves: int = 0
    churn_rejoins: int = 0
    directory_unregisters: int = 0
    directory_registers: int = 0
    directory_errors: int = 0  # register/unregister refused (crashed directory)
    wan_episodes: int = 0
    messages_lost: int = 0
    outages: tuple[Outage, ...] = ()

    @property
    def last_churn_end(self) -> float:
        return max((e.rejoin for e in self.churn_events), default=0.0)

    @property
    def last_outage_end(self) -> float:
        return self.outages[-1].end if self.outages else 0.0


def churn_candidates(dep: Deployment) -> list[str]:
    """Plan nodes eligible for churn: network actors, in plan order.

    Collectors never leave on their own (they live inside their server
    process); every other node qualifies if it exposes a service or
    holds a registration into a directory.
    """
    out = []
    for spec in dep.plan.nodes:
        if isinstance(spec, CollectorSpec):
            continue
        if dep.node_services(spec.name) or dep.plan.edges_from(
            spec.name, EdgeKind.REGISTRATION
        ):
            out.append(spec.name)
    return out


class _DirectoryChurn:
    """Per-system register/unregister traffic for churn events."""

    def __init__(self, run: ScenarioRun, dep: Deployment, ops: ScenarioOps) -> None:
        self.run = run
        self.dep = dep
        self.ops = ops
        # node -> saved direct MDS registrations, for re-registration.
        self._saved_mds: dict[str, list[tuple[GIIS, str, "Registration"]]] = {}
        # node -> (registry, servlet, lease) for R-GMA re-registration.
        self._rgma: dict[str, list[tuple["Registry", "ProducerServlet", float]]] = {}
        for edge in dep.plan.edges:
            if edge.kind is not EdgeKind.REGISTRATION:
                continue
            source = dep.objects.get(edge.source)
            target = dep.objects.get(edge.target)
            if source is not None and hasattr(source, "producers"):
                # R-GMA: ProducerServlet -> Registry.
                self._rgma.setdefault(edge.source, []).append(
                    (target, source, float(edge.options.get("lease", 1e9)))
                )

    def _mds_labels(self, node: str) -> list[tuple[GIIS, str]]:
        """(giis, label) pairs for a node's *direct* MDS registrations."""
        out: list[tuple[GIIS, str]] = []
        for edge in self.dep.plan.edges_from(node, EdgeKind.REGISTRATION):
            if edge.options.get("soft_state"):
                continue  # the registrar gate handles these
            giis = self.dep.objects.get(edge.target)
            if not isinstance(giis, GIIS):
                continue
            source = self.dep.objects.get(node)
            if isinstance(source, list):
                fmt = edge.options.get("label_format", node + "{i}")
                out.extend((giis, fmt.format(i=i)) for i in range(len(source)))
            else:
                out.append((giis, edge.options.get("label", node)))
        return out

    def leave(self, node: str) -> None:
        ops = self.ops
        saved = self._saved_mds.setdefault(node, [])
        for giis, label in self._mds_labels(node):
            try:
                reg = giis.unregister(label)
            except ServiceCrashError:
                ops.directory_errors += 1
                continue
            if reg is not None:
                saved.append((giis, label, reg))
                ops.directory_unregisters += 1
        for registry, servlet, _lease in self._rgma.get(node, ()):
            for producer in servlet.producers:
                if registry.unregister(producer.producer_id):
                    ops.directory_unregisters += 1

    def rejoin(self, node: str, now: float) -> None:
        ops = self.ops
        for giis, label, reg in self._saved_mds.pop(node, []):
            try:
                giis.register(label, reg.puller, now=now, ttl=reg.ttl)
            except ServiceCrashError:
                ops.directory_errors += 1
                continue
            ops.directory_registers += 1
        for registry, servlet, lease in self._rgma.get(node, ()):
            for producer in servlet.producers:
                try:
                    registry.register(
                        producer.producer_id,
                        producer.table,
                        servlet.name,
                        producer.predicate,
                        now=now,
                        lease=lease,
                    )
                except ServiceCrashError:
                    ops.directory_errors += 1
                    continue
                ops.directory_registers += 1


def apply_scenario(
    scenario: Scenario,
    run: ScenarioRun,
    dep: Deployment,
    *,
    horizon: float,
    key: tuple[str, ...] = (),
) -> ScenarioOps:
    """Install a scenario's churn, WAN and fault controllers on a deployment.

    Churn and WAN weather are drawn up front from streams keyed by the
    scenario's own seed (independent of the run seed and of worker
    count), then replayed by simulation processes.  The drop and stall
    injectors draw per request from ``("drop"|"stall", *key,
    scenario.name)``; ``key`` names the point (system, users).  A
    scenario with none of the three spawns nothing and leaves the run
    untouched.
    """
    ops = ScenarioOps()
    sim = run.sim

    if scenario.churn is not None:
        candidates = churn_candidates(dep)
        events = scenario.churn.events(
            candidates,
            horizon,
            lambda node: run.rng.stream(
                "scenario", scenario.name, str(scenario.seed), "churn", node
            ),
        )
        ops.churn_events = list(events)
        directory = _DirectoryChurn(run, dep, ops)
        node_down: set[str] = dep.extras.setdefault("node_down", set())

        def churn_cycle(event: ChurnEvent) -> _t.Generator:
            yield sim.timeout(event.leave)
            ops.churn_leaves += 1
            node_down.add(event.node)
            for svc in dep.node_services(event.node):
                svc.fail(f"churn: {event.node} left")
            directory.leave(event.node)
            yield sim.timeout(event.rejoin - event.leave)
            node_down.discard(event.node)
            for svc in dep.node_services(event.node):
                svc.restore()
            directory.rejoin(event.node, sim.now)
            ops.churn_rejoins += 1

        for event in events:
            sim.spawn(churn_cycle(event), name=f"churn:{event.node}@{event.leave:g}")

    if scenario.wan is not None:
        episodes = scenario.wan.draw(
            horizon,
            run.rng.stream("scenario", scenario.name, str(scenario.seed), "wan-draw"),
        )
        loss_rng = run.rng.stream(
            "scenario", scenario.name, str(scenario.seed), "wan-loss"
        )
        net = run.net

        def weather_controller() -> _t.Generator:
            for episode in episodes:
                delay = episode.start - sim.now
                if delay > 0:
                    yield sim.timeout(delay)
                conditions = WanConditions(
                    episode.extra_latency,
                    episode.loss,
                    loss_rng if episode.loss > 0 else None,
                )
                net.weather = conditions
                ops.wan_episodes += 1
                yield sim.timeout(episode.duration)
                ops.messages_lost += conditions.lost
                net.weather = None

        if episodes:
            sim.spawn(weather_controller(), name="wan-weather")

    faults = scenario.faults
    if faults is not None:
        targets = dep.fault_targets
        if not targets:
            raise ScenarioError(
                f"scenario {scenario.name!r} injects faults but plan "
                f"{dep.plan.name!r} marks no fault_target node"
            )
        drop = stall = None
        if faults.drop > 0:
            drop = DropInjector(faults.drop, run.rng.stream("drop", *key, scenario.name))
        if faults.stall > 0:
            stream = run.rng.stream("stall", *key, scenario.name)
            stall = StallInjector(faults.stall, faults.stall_seconds, stream)
        if drop is not None or stall is not None:
            injector = FaultInjector(drop, stall)
            for svc in targets:
                svc.faults = injector
        ops.outages = faults.outages
        reason = f"injected {scenario.name}"

        def outage_controller() -> _t.Generator:
            for outage in faults.outages:
                if outage.start > sim.now:
                    yield sim.timeout(outage.start - sim.now)
                for svc in targets:
                    svc.fail(reason)
                yield sim.timeout(outage.end - sim.now)
                for svc in targets:
                    svc.restore()

        if faults.outages:
            sim.spawn(outage_controller(), name=f"faults:{targets[0].name}")

    return ops
