"""The four shared compile phases of a plan, runtime-free.

Compiling a :class:`DeploymentPlan` is four phases that involve no
simulator and no sockets:

1. **materialize** — build the functional objects (GRIS, GIIS, Manager,
   Agent, ProducerServlet, Registry);
2. **connect** — apply the plan's edges (registrations, producer
   attachment, priming);
3. **expose** — decide which kernel serves every exposed node and side
   door (``<node>:ingest``, ``<node>:registration``), under which name
   and with which thread/backlog bounds;
4. **activate** — the background loops that keep data fresh (R-GMA
   publishers, Hawkeye advertisers, MDS soft-state registrars and lease
   sweepers), each an op generator and the testbed node it runs on.

This module is their single home: the DES compiler
(:mod:`repro.core.topology`) and the live plane (:mod:`repro.live`)
call the same functions, so both runtimes serve *identical* data
through identical kernels and loops; each runtime adds only the wrap —
a :class:`~repro.sim.rpc.Service` or a ``LiveService`` around each
:class:`~repro.core.kernels.ops.KernelSpec` — and the host that runs
each loop through the same op interpreter.

Everything here is deterministic in the plan (seeds come from specs or
from the caller's ``stream``), mutates only the ``objects``/``extras``
dicts it is handed, and imports nothing from :mod:`repro.sim`.
"""

from __future__ import annotations

import functools
import typing as _t

from repro.core.components import System
from repro.core.kernels.hawkeye import (
    AgentKernel,
    ManagerAggregateKernel,
    ManagerDirectoryKernel,
    ManagerFanoutKernel,
    ManagerIngestKernel,
)
from repro.core.kernels.mds import (
    GiisAggregateKernel,
    GiisDirectoryKernel,
    GiisFanoutKernel,
    GiisLeafKernel,
    GiisRegistrationKernel,
    GrisKernel,
)
from repro.core.kernels.ops import CLOCK, Busy, Call, Compute, KernelSpec
from repro.core.kernels.rgma import (
    ConsumerServletKernel,
    ProducerServletKernel,
    RegistryKernel,
)
from repro.core.params import StudyParams
from repro.core.topology.plan import (
    AggregateSpec,
    CollectorSpec,
    DeploymentPlan,
    DirectorySpec,
    EdgeKind,
    NodeSpec,
    PlanError,
    ServerSpec,
)
from repro.errors import ReproError

__all__ = [
    "bank_placements",
    "materialize_plan",
    "connect_plan",
    "expose_plan",
    "activate_plan",
]


def bank_placements(spec: NodeSpec) -> list[str]:
    """Round-robin placement list for a replicated bank."""
    hosts = spec.options.get("hosts")
    if hosts:
        return list(hosts)
    if spec.host is not None:
        return [spec.host]
    return []


# -- MDS ----------------------------------------------------------------------


def _mds_collector_count(plan: DeploymentPlan, spec: NodeSpec) -> int:
    for edge in plan.edges_to(spec.name, EdgeKind.COLLECTION):
        source = plan.node(edge.source)
        assert isinstance(source, CollectorSpec)
        return source.count
    return 10


def _make_puller(gris: _t.Any) -> _t.Callable[[float], tuple[list, float]]:
    def puller(now: float, gris=gris) -> tuple[list, float]:
        result = gris.search(now=now)
        return result.entries, result.exec_cost

    return puller


def mds_materialize(
    plan: DeploymentPlan, objects: dict[str, _t.Any], extras: dict[str, _t.Any]
) -> None:
    from repro.mds.giis import GIIS
    from repro.mds.gris import GRIS
    from repro.mds.providers import replicated_providers

    for spec in plan.nodes:
        if isinstance(spec, ServerSpec):
            count = _mds_collector_count(plan, spec)
            ttl = float("inf") if spec.cached else 0.0
            if spec.replicas == 1 and "hostname_format" not in spec.options:
                hostname = spec.options.get("hostname", f"{spec.host}.mcs.anl.gov")
                gris = GRIS(
                    hostname, replicated_providers(count), cachettl=ttl, seed=spec.seed
                )
                if spec.primed:
                    gris.search(now=0.0)  # prime the cache before measurement
                objects[spec.name] = gris
                continue
            # A bank: "multiple instances at each Lucky node" (paper §3.6).
            placements = bank_placements(spec)
            name_format = spec.options.get("hostname_format", spec.name + "{i}")
            bank = []
            for i in range(spec.replicas):
                node = placements[i % len(placements)] if placements else ""
                hostname = name_format.format(node=node, i=i)
                bank.append(
                    GRIS(
                        hostname,
                        replicated_providers(count),
                        cachettl=ttl,
                        seed=spec.seed + i,
                    )
                )
            objects[spec.name] = bank
        elif isinstance(spec, (AggregateSpec, DirectorySpec)):
            if spec.variant == "fanout":
                continue  # pure service node, no resident GIIS state
            objects[spec.name] = GIIS(
                spec.options.get("giis_name", spec.name),
                cachettl=spec.options.get("cachettl", float("inf")),
            )


def mds_connect(
    plan: DeploymentPlan, objects: dict[str, _t.Any], extras: dict[str, _t.Any]
) -> None:
    for edge in plan.edges:
        if edge.kind is not EdgeKind.REGISTRATION:
            continue
        giis = objects[edge.target]
        pullers = extras.setdefault(f"pullers:{edge.target}", {})
        ttl = float(edge.options.get("ttl", 1e12))
        source = objects[edge.source]
        if isinstance(source, list):
            label_format = edge.options.get("label_format", edge.source + "{i}")
            for i, gris in enumerate(source):
                label = label_format.format(i=i)
                puller = _make_puller(gris)
                pullers[label] = puller
                giis.register(label, puller, now=0.0, ttl=ttl)
        else:
            label = edge.options.get("label", edge.source)
            puller = _make_puller(source)
            pullers[label] = puller
            giis.register(label, puller, now=0.0, ttl=ttl)
    for spec in plan.nodes:
        if isinstance(spec, (AggregateSpec, DirectorySpec)) and spec.primed:
            # "cachettl ... set to a very large value ... always in cache"
            objects[spec.name].query(now=0.0)


# -- R-GMA --------------------------------------------------------------------


def rgma_materialize(
    plan: DeploymentPlan, objects: dict[str, _t.Any], extras: dict[str, _t.Any]
) -> None:
    from repro.rgma.producer import make_default_producers
    from repro.rgma.producer_servlet import ProducerServlet
    from repro.rgma.registry import Registry

    for spec in plan.nodes:
        if isinstance(spec, DirectorySpec):
            objects[spec.name] = Registry(spec.options.get("registry_name", spec.name))
        elif isinstance(spec, ServerSpec) and spec.variant == "default":
            servlet = ProducerServlet(spec.options.get("servlet_name", spec.name))
            objects[spec.name] = servlet
            for edge in plan.edges_to(spec.name, EdgeKind.COLLECTION):
                collector = plan.node(edge.source)
                assert isinstance(collector, CollectorSpec)
                hostname = spec.options.get("producer_host", f"{spec.host}.mcs.anl.gov")
                extras[f"producers:{spec.name}"] = make_default_producers(
                    hostname, collector.count, seed=collector.seed
                )


def rgma_connect(
    plan: DeploymentPlan, objects: dict[str, _t.Any], extras: dict[str, _t.Any]
) -> None:
    for edge in plan.edges:
        if edge.kind is not EdgeKind.REGISTRATION:
            continue
        servlet = objects[edge.source]
        registry = objects[edge.target]
        lease = float(edge.options.get("lease", 1e9))
        for producer in extras.get(f"producers:{edge.source}", ()):
            servlet.attach(producer, registry, now=0.0, lease=lease)
    for spec in plan.nodes:
        if isinstance(spec, ServerSpec) and spec.variant == "default" and spec.primed:
            # Initial measurement round so queries return rows.
            objects[spec.name].publish_all(now=0.0)


# -- Hawkeye ------------------------------------------------------------------


def _hawkeye_modules(plan: DeploymentPlan, spec: ServerSpec) -> list:
    from repro.hawkeye.modules import make_default_modules, replicated_modules

    for edge in plan.edges_to(spec.name, EdgeKind.COLLECTION):
        collector = plan.node(edge.source)
        assert isinstance(collector, CollectorSpec)
        if collector.flavor == "default":
            return make_default_modules()
        return replicated_modules(collector.count)
    return make_default_modules()


def hawkeye_materialize(
    plan: DeploymentPlan, objects: dict[str, _t.Any], extras: dict[str, _t.Any]
) -> None:
    from repro.hawkeye.agent import Agent
    from repro.hawkeye.manager import Manager

    for spec in plan.nodes:
        if isinstance(spec, (AggregateSpec, DirectorySpec)):
            if spec.variant == "fanout":
                continue
            objects[spec.name] = Manager(spec.options.get("manager_name", spec.name))
        elif isinstance(spec, ServerSpec) and not spec.options.get("synthetic"):
            objects[spec.name] = Agent(
                spec.options.get("agent_machine", f"{spec.host}.mcs.anl.gov"),
                _hawkeye_modules(plan, spec),
                seed=spec.seed,
            )


def hawkeye_connect(
    plan: DeploymentPlan, objects: dict[str, _t.Any], extras: dict[str, _t.Any]
) -> None:
    for edge in plan.edges:
        if edge.kind is not EdgeKind.REGISTRATION:
            continue
        agent = objects[edge.source]
        manager = objects[edge.target]
        manager.register_agent(agent)
        ad, _ = agent.make_startd_ad(now=0.0)
        manager.receive_ad(ad, now=0.0)  # pool is warm at t=0


# -- expose -------------------------------------------------------------------
#
# One generator per system yields ``(service_name, node_spec, kernel)`` in
# the order services are created.  ``x`` is the :class:`_Expose` context.


class _Expose(_t.NamedTuple):
    plan: DeploymentPlan
    objects: dict[str, _t.Any]
    extras: dict[str, _t.Any]
    params: StudyParams
    make_lock: _t.Callable[[str], _t.Any]
    wire: bool
    mediation_retry: _t.Any
    services: _t.Mapping[str, _t.Any]

    def exposed(self) -> _t.Iterator[tuple[NodeSpec, tuple[type, str]]]:
        """Nodes that get a service of their own, with their (type, variant)."""
        for spec in self.plan.nodes:
            if spec.expose and not isinstance(spec, CollectorSpec):
                yield spec, (type(spec), spec.variant)

    def targets(self, spec: NodeSpec, names: _t.Sequence[str]) -> list:
        """The already-wrapped services ``spec``'s kernel calls."""
        missing = [name for name in names if name not in self.services]
        if missing:
            raise PlanError(
                f"node {spec.name!r} calls {', '.join(map(repr, missing))}: declare "
                "and expose the nodes it calls before it"
            )
        return [self.services[name] for name in names]

    def fanout(self, spec: NodeSpec, label_prefix: str) -> dict[str, _t.Any]:
        """Constructor arguments every fan-out kernel takes."""
        edges = self.plan.edges_to(spec.name, EdgeKind.AGGREGATION)
        if not edges:
            raise PlanError(f"fanout node {spec.name!r} has no aggregation edges")
        return dict(
            children=self.targets(spec, [edge.source for edge in edges]),
            label=spec.options.get("label", f"{label_prefix}:{spec.name}"),
            top=spec.name == self.plan.entry,
        )

    def unknown(self, spec: NodeSpec) -> PlanError:
        return PlanError(
            f"node {spec.name!r}: {self.plan.system.value} has no "
            f"{spec.variant!r} {spec.role.value} kernel"
        )


_Exposed = _t.Iterator[tuple[str, NodeSpec, _t.Any]]

#: (spec type, variant) cells served by a resident GIIS / Manager object.
_GIIS_KINDS = ((DirectorySpec, "default"), (AggregateSpec, "leaf"), (AggregateSpec, "default"))
_MANAGER_KINDS = ((DirectorySpec, "default"), (AggregateSpec, "default"))


def _mds_expose(x: _Expose) -> _Exposed:
    p = x.params.giis
    for spec, kind in x.exposed():
        if kind == (ServerSpec, "default"):
            gris = x.objects[spec.name]
            lock = x.make_lock(f"gris:{gris.hostname}:providers")
            yield spec.name, spec, GrisKernel(
                gris, x.params.gris, providers_lock=lock, wire=x.wire
            )
            continue
        if kind == (AggregateSpec, "fanout"):
            yield spec.name, spec, GiisFanoutKernel(params=p, **x.fanout(spec, "giis"))
            continue
        if kind not in _GIIS_KINDS:
            raise x.unknown(spec)
        giis = x.objects[spec.name]
        if kind == (DirectorySpec, "default"):
            yield spec.name, spec, GiisDirectoryKernel(giis, p, wire=x.wire)
        elif kind == (AggregateSpec, "leaf"):
            yield spec.name, spec, GiisLeafKernel(giis, p, wire=x.wire)
        else:
            yield spec.name, spec, GiisAggregateKernel(
                giis,
                p,
                assembly_lock=x.make_lock(f"giis:{giis.name}:assembly"),
                query_part=spec.query_part,
                wire=x.wire,
            )
        if any(
            e.options.get("soft_state")
            for e in x.plan.edges_to(spec.name, EdgeKind.REGISTRATION)
        ):
            yield f"{spec.name}:registration", spec, GiisRegistrationKernel(
                giis, p, x.extras[f"pullers:{spec.name}"]
            )


def _rgma_expose(x: _Expose) -> _Exposed:
    p = x.params
    for spec, kind in x.exposed():
        if kind == (DirectorySpec, "default"):
            yield spec.name, spec, RegistryKernel(x.objects[spec.name], p.registry)
        elif kind == (ServerSpec, "mediator"):
            edges = x.plan.edges_from(spec.name, EdgeKind.MEDIATION)
            if not edges:
                raise PlanError(f"mediator node {spec.name!r} has no mediation edge")
            name = spec.options.get("cs_name", spec.name)
            yield spec.name, spec, ConsumerServletKernel(
                name,
                x.targets(spec, [edges[0].target])[0],
                p.consumer_servlet,
                mediation_lock=x.make_lock(f"cs:{name}:mediation"),
                retry=x.mediation_retry,
            )
        elif kind == (ServerSpec, "default"):
            servlet = x.objects[spec.name]
            yield spec.name, spec, ProducerServletKernel(
                servlet,
                p.producer_servlet,
                db_lock=x.make_lock(f"ps:{servlet.name}:db"),
                wire=x.wire,
            )
        else:
            raise x.unknown(spec)


def _hawkeye_expose(x: _Expose) -> _Exposed:
    p = x.params.manager
    for spec, kind in x.exposed():
        if kind == (ServerSpec, "default"):
            agent = x.objects[spec.name]
            lock = x.make_lock(f"agent:{agent.machine}:startd")
            yield spec.name, spec, AgentKernel(
                agent, x.params.agent, startd_lock=lock, wire=x.wire
            )
            continue
        if kind == (AggregateSpec, "fanout"):
            yield spec.name, spec, ManagerFanoutKernel(params=p, **x.fanout(spec, "manager"))
            continue
        if kind not in _MANAGER_KINDS:
            raise x.unknown(spec)
        manager = x.objects[spec.name]
        # One collector lock per Manager, shared by queries and ingest.
        lock = x.make_lock(f"manager:{manager.name}:collector")
        if isinstance(spec, AggregateSpec):
            yield spec.name, spec, ManagerAggregateKernel(manager, p, collector_lock=lock)
        else:
            yield spec.name, spec, ManagerDirectoryKernel(manager, p, wire=x.wire)
        if any(
            e.kind in (EdgeKind.REGISTRATION, EdgeKind.AGGREGATION)
            and e.options.get("mode") in ("wire", "resilient")
            for e in x.plan.edges_to(spec.name)
        ):
            # Ads arrive over the wire: the Manager needs an ingest door.
            yield f"{spec.name}:ingest", spec, ManagerIngestKernel(
                manager, p, collector_lock=lock
            )


# -- activate -----------------------------------------------------------------
#
# One generator per system yields ``(loop_name, placement, factory)`` in the
# order the loops start; ``factory()`` builds a fresh op generator (the ops
# of :mod:`repro.core.kernels.ops`, with ``Busy(s, 0.0)`` as the sleep).
# ``x`` is the :class:`_Activate` context.


class _Activate(_t.NamedTuple):
    plan: DeploymentPlan
    objects: dict[str, _t.Any]
    extras: dict[str, _t.Any]
    params: StudyParams
    services: _t.Mapping[str, _t.Any]
    stream: _t.Callable[..., _t.Any]
    registration_retry: _t.Any
    advertise_retry: _t.Any


_Loops = _t.Iterator[tuple[str, str, _t.Callable[[], _t.Generator]]]


def _placement(spec: NodeSpec) -> str:
    if spec.host is None:
        raise PlanError(f"node {spec.name!r} needs a placement to run a background loop")
    return spec.host


def _lease_sweeper(giis: _t.Any) -> _t.Generator:
    """Expire the GIIS's lapsed soft-state leases every model second."""
    while True:
        yield Busy(1.0, 0.0)
        now = yield CLOCK
        giis.sweep(now)


def _publisher(servlet: _t.Any, interval: float) -> _t.Generator:
    """R-GMA measurement rounds: the servlet's producers publish every ``interval``."""
    while True:
        yield Busy(interval, 0.0)
        now = yield CLOCK
        count = servlet.publish_all(now=now)
        # Buffer inserts burn a little CPU on the servlet host.
        yield Compute(0.0008 * count)


def _local_advertiser(
    agent: _t.Any, manager: _t.Any, interval: float, ingest_cpu: float
) -> _t.Generator:
    """Experiment 2's in-process ad push (no wire, collector CPU only)."""
    while True:
        yield Busy(interval, 0.0)
        now = yield CLOCK
        ad, _answer = agent.make_startd_ad(now=now)
        yield Compute(ingest_cpu)
        now = yield CLOCK
        manager.receive_ad(ad, now)


def _wire_advertiser(
    machine: str,
    stream: _t.Callable[..., _t.Any],
    manager: _t.Any,
    ingest: _t.Any,
    offset: float,
    interval: float,
    size: int,
) -> _t.Generator:
    """Experiment 4's hawkeye_advertise pushes from one synthetic machine."""
    from repro.hawkeye.advertise import synthesize_startd_ad

    rng = stream("ad", machine)
    manager.receive_ad(synthesize_startd_ad(machine, rng, now=0.0), now=0.0)  # warm at t=0
    yield Busy(offset, 0.0)
    while True:
        now = yield CLOCK
        ad = synthesize_startd_ad(machine, rng, now=now)
        try:
            yield Call(ingest, {"ad": ad}, size)
        except ReproError:
            pass  # a dropped ad is just a missed update
        yield Busy(interval, 0.0)


def _mds_activate(x: _Activate) -> _Loops:
    from repro.mds.resilience import RegistrarStats, soft_state_registrar

    # Scenario churn marks nodes down here; registrars consult it
    # through their gate, so a churned-out GRIS goes silent and its
    # lease expires server-side like a crashed daemon's.
    node_down: set[str] = x.extras.setdefault("node_down", set())
    swept: list[str] = []
    for edge in x.plan.edges:
        if edge.kind is not EdgeKind.REGISTRATION or not edge.options.get("soft_state"):
            continue
        label = edge.options.get("label", edge.source)
        st = RegistrarStats(registered=True, last_confirmed=0.0)
        x.extras.setdefault("registrar_stats", []).append(st)
        yield f"registrar:{label}", _placement(x.plan.node(edge.source)), functools.partial(
            soft_state_registrar,
            x.services[f"{edge.target}:registration"],
            label,
            interval=float(edge.options["interval"]),
            ttl=float(edge.options["ttl"]),
            retry=x.registration_retry,
            stats=st,
            gate=lambda node=edge.source: node not in node_down,
        )
        if edge.target not in swept:
            swept.append(edge.target)
    for target in swept:
        yield "giis-sweep", _placement(x.plan.node(target)), functools.partial(
            _lease_sweeper, x.objects[target]
        )


def _rgma_activate(x: _Activate) -> _Loops:
    for spec in x.plan.nodes:
        if (
            isinstance(spec, ServerSpec)
            and spec.variant == "default"
            and spec.options.get("publisher")
        ):
            servlet = x.objects[spec.name]
            interval = float(spec.options.get("publish_interval", 30.0))
            yield f"publisher:{servlet.name}", _placement(spec), functools.partial(
                _publisher, servlet, interval
            )


def _hawkeye_activate(x: _Activate) -> _Loops:
    from repro.hawkeye.resilience import AdvertiserStats, resilient_advertiser

    p = x.params.manager
    for edge in x.plan.edges:
        mode = edge.options.get("mode")
        if edge.kind is EdgeKind.REGISTRATION and mode == "local":
            agent = x.objects[edge.source]
            interval = float(edge.options.get("interval", p.advertise_interval))
            # Runs on the Manager's host: its Compute is the collector's ingest.
            manager_host = _placement(x.plan.node(edge.target))
            yield f"advertiser:{agent.machine}", manager_host, functools.partial(
                _local_advertiser, agent, x.objects[edge.target], interval, p.ad_ingest_cpu
            )
        elif edge.kind is EdgeKind.REGISTRATION and mode == "resilient":
            source = x.plan.node(edge.source)
            st = AdvertiserStats(last_delivered=0.0)
            x.extras.setdefault("advertiser_stats", []).append(st)
            label = edge.options.get("label", source.host or edge.source)
            yield f"resilient-adv:{label}", _placement(source), functools.partial(
                resilient_advertiser,
                x.services[f"{edge.target}:ingest"],
                x.objects[edge.source],
                interval=float(edge.options.get("interval", 30.0)),
                retry=x.advertise_retry,
                stats=st,
            )
        elif edge.kind is EdgeKind.AGGREGATION and mode == "wire":
            source = x.plan.node(edge.source)
            placements = bank_placements(source)
            machine_format = source.options.get("machine_format", source.name + "{i}")
            interval = float(edge.options.get("interval", p.advertise_interval))
            offsets = x.stream(*edge.options.get("offset_stream", ("advertisers", source.name)))
            for i in range(source.replicas):
                machine = machine_format.format(i=i)
                offset = float(offsets.uniform(0.0, interval))
                yield f"adv:{machine}", placements[i % len(placements)], functools.partial(
                    _wire_advertiser,
                    machine,
                    x.stream,
                    x.objects[edge.target],
                    x.services[f"{edge.target}:ingest"],
                    offset,
                    interval,
                    p.ad_wire_bytes,
                )


# -- dispatch -----------------------------------------------------------------

_MATERIALIZE = {
    System.MDS: mds_materialize,
    System.RGMA: rgma_materialize,
    System.HAWKEYE: hawkeye_materialize,
}
_CONNECT = {
    System.MDS: mds_connect,
    System.RGMA: rgma_connect,
    System.HAWKEYE: hawkeye_connect,
}
_EXPOSE = {
    System.MDS: _mds_expose,
    System.RGMA: _rgma_expose,
    System.HAWKEYE: _hawkeye_expose,
}
_ACTIVATE = {
    System.MDS: _mds_activate,
    System.RGMA: _rgma_activate,
    System.HAWKEYE: _hawkeye_activate,
}


def materialize_plan(
    plan: DeploymentPlan, objects: dict[str, _t.Any], extras: dict[str, _t.Any]
) -> None:
    """Phase-1 compile: build the plan's functional objects into ``objects``."""
    _MATERIALIZE[plan.system](plan, objects, extras)


def connect_plan(
    plan: DeploymentPlan, objects: dict[str, _t.Any], extras: dict[str, _t.Any]
) -> None:
    """Phase-2 compile: apply the plan's edges and prime caches."""
    _CONNECT[plan.system](plan, objects, extras)


def expose_plan(
    plan: DeploymentPlan,
    objects: dict[str, _t.Any],
    extras: dict[str, _t.Any],
    params: StudyParams,
    *,
    make_lock: _t.Callable[[str], _t.Any],
    wire: bool,
    mediation_retry: _t.Any = None,
    services: _t.Mapping[str, _t.Any],
) -> _t.Iterator[tuple[str, NodeSpec, KernelSpec]]:
    """Phase-3 compile: the kernel behind every exposed node and side door.

    Walks the plan once, in declaration order, and yields
    ``(service_name, node_spec, kernel_spec)``.  What differs per
    runtime arrives as arguments: ``make_lock(name)`` builds the
    runtime's lock token, ``wire`` asks kernels for serialized reply
    bodies, ``mediation_retry`` rides the R-GMA CS->PS hop, and
    ``services`` is the caller's mapping of already-wrapped services —
    the caller wraps each yielded spec and stores it under
    ``service_name`` before asking for the next, so fan-out and mediator
    kernels resolve their targets from it.
    """
    context = _Expose(
        plan, objects, extras, params, make_lock, wire, mediation_retry, services
    )
    for name, spec, kernel in _EXPOSE[plan.system](context):
        yield name, spec, kernel.spec()


def activate_plan(
    plan: DeploymentPlan,
    objects: dict[str, _t.Any],
    extras: dict[str, _t.Any],
    params: StudyParams,
    *,
    services: _t.Mapping[str, _t.Any],
    stream: _t.Callable[..., _t.Any],
    registration_retry: _t.Any = None,
    advertise_retry: _t.Any = None,
) -> _t.Iterator[tuple[str, str, _t.Callable[[], _t.Generator]]]:
    """Phase-4 compile: every background loop and the node it runs on.

    Walks the plan once and yields ``(loop_name, placement, factory)`` in
    start order: MDS registrars in edge order, then one lease sweeper
    per registration target; Hawkeye advertisers per edge; R-GMA
    publishers per node.  ``factory()`` returns a fresh op generator
    that runs forever; the runtime hosts it on ``placement`` through its
    op interpreter.  What differs per runtime arrives as arguments:
    ``services`` holds the wrapped services the loops call,
    ``stream(*names)`` returns the named random stream (wire-advertiser
    offsets and ads), and the two retry policies ride every registrar
    and resilient-advertiser ``Call`` (``None``: one attempt per cycle).
    Stats objects land in ``extras`` (``registrar_stats``,
    ``advertiser_stats``) as the loops are yielded.
    """
    context = _Activate(
        plan, objects, extras, params, services, stream, registration_retry, advertise_retry
    )
    yield from _ACTIVATE[plan.system](context)
