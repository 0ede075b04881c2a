"""Hand-wired scenario construction: the oracle for plan compilation.

These are the pre-topology experiment builders.  The experiment modules
(:mod:`exp1` .. :mod:`exp4`) compile :mod:`repro.core.topology.catalog`
plans instead; ``test_topology_equivalence.py`` drives one point of
each experiment through both paths and requires byte-identical
results.  Every service here is built by hand — a kernel, its
:class:`~repro.sim.resources.Mutex` locks, and
:func:`~repro.core.desruntime.kernel_service` — so the oracle shares
none of the expose phase (:func:`repro.core.kernels.build.expose_plan`)
it checks.
"""

from __future__ import annotations

import typing as _t

from repro.core.experiments.common import (
    build_agent,
    build_gris,
    build_rgma_producer_side,
    lucky_clients,
    spawn_agent_advertiser,
    spawn_publisher,
    uc_clients,
)
from repro.core.params import StudyParams
from repro.core.runner import PointResult, drive, new_run
from repro.core.desruntime import kernel_service
from repro.core.kernels import (
    AgentKernel,
    ConsumerServletKernel,
    GiisAggregateKernel,
    GiisDirectoryKernel,
    GrisKernel,
    ManagerAggregateKernel,
    ManagerDirectoryKernel,
    ManagerIngestKernel,
    ProducerServletKernel,
    RegistryKernel,
)
from repro.core.testbed import LUCKY_NAMES
from repro.hawkeye.advertise import synthesize_startd_ad
from repro.hawkeye.agent import Agent
from repro.hawkeye.manager import Manager
from repro.hawkeye.modules import make_default_modules
from repro.mds.giis import GIIS
from repro.mds.gris import GRIS
from repro.mds.providers import replicated_providers
from repro.rgma.producer import make_default_producers
from repro.rgma.producer_servlet import ProducerServlet
from repro.rgma.registry import Registry
from repro.sim.faults import FaultPlan
from repro.sim.resources import Mutex
from repro.sim.rpc import RetryPolicy, Service, call

__all__ = ["exp1_point", "exp2_point", "exp3_point", "exp4_point"]


def _gris_service(run, host, gris: GRIS) -> Service:
    lock = Mutex(run.sim, name=f"gris:{gris.hostname}:providers")
    kernel = GrisKernel(gris, run.params.gris, providers_lock=lock)
    return kernel_service(run.sim, run.net, host, kernel.spec())


def _agent_service(run, host, agent: Agent) -> Service:
    lock = Mutex(run.sim, name=f"agent:{agent.machine}:startd")
    kernel = AgentKernel(agent, run.params.agent, startd_lock=lock)
    return kernel_service(run.sim, run.net, host, kernel.spec())


def _ps_service(run, host, servlet: ProducerServlet) -> Service:
    lock = Mutex(run.sim, name=f"ps:{servlet.name}:db")
    kernel = ProducerServletKernel(servlet, run.params.producer_servlet, db_lock=lock)
    return kernel_service(run.sim, run.net, host, kernel.spec())


def _cs_service(run, host, name: str, ps_service: Service, retry) -> Service:
    kernel = ConsumerServletKernel(
        name,
        ps_service,
        run.params.consumer_servlet,
        mediation_lock=Mutex(run.sim, name=f"cs:{name}:mediation"),
        retry=retry,
    )
    return kernel_service(run.sim, run.net, host, kernel.spec())


def exp1_point(
    system: str,
    users: int,
    seed: int = 1,
    *,
    params: StudyParams | None = None,
    warmup: float | None = None,
    window: float | None = None,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
) -> PointResult:
    """The pre-topology Experiment 1 wiring, verbatim."""
    if system.startswith("mds-gris"):
        monitored: tuple[str, ...] = ("lucky7",)
    elif system == "hawkeye-agent":
        monitored = ("lucky4",)
    else:
        monitored = ("lucky3",)
    run = new_run(seed, params, monitored=monitored)
    p = run.params

    if system in ("mds-gris-cache", "mds-gris-nocache"):
        cached = system.endswith("cache") and not system.endswith("nocache")
        gris = build_gris(run, collectors=10, cached=cached, seed=seed)
        server_host = run.testbed.lucky["lucky7"]
        service = _gris_service(run, server_host, gris)
        run.services["gris"] = service
        return drive(
            run,
            system=system,
            x=users,
            service=service,
            clients=uc_clients(run, users),
            server_host=server_host,
            payload_fn=lambda uid: {"filter": "(objectclass=*)"},
            request_size=p.gris.request_size,
            warmup=warmup,
            window=window,
            retry=retry,
            faults=faults,
        )

    if system == "hawkeye-agent":
        agent = build_agent(run, modules=11, seed=seed)
        server_host = run.testbed.lucky["lucky4"]
        service = _agent_service(run, server_host, agent)
        run.services["agent"] = service
        return drive(
            run,
            system=system,
            x=users,
            service=service,
            clients=uc_clients(run, users),
            server_host=server_host,
            payload_fn=lambda uid: {"query": "status"},
            request_size=p.agent.request_size,
            warmup=warmup,
            window=window,
            retry=retry,
            faults=faults,
        )

    _registry, servlet = build_rgma_producer_side(run, producers=10, seed=seed)
    server_host = run.testbed.lucky["lucky3"]
    ps_service = _ps_service(run, server_host, servlet)
    run.services["ps"] = ps_service
    spawn_publisher(run, servlet, server_host)
    payload_fn = lambda uid: {"sql": "SELECT * FROM cpuLoad"}  # noqa: E731
    cs_retry = None
    if retry is not None or faults is not None:
        cs_retry = RetryPolicy(
            max_attempts=2,
            base_backoff=0.25,
            max_backoff=2.0,
            rng=run.rng.stream("cs-retry", system, str(users)),
        )

    if system == "rgma-ps-uc":
        cs_host = run.testbed.uc[0]
        cs_service = _cs_service(run, cs_host, "uc-cs", ps_service, cs_retry)
        run.services["cs"] = cs_service
        return drive(
            run,
            system=system,
            x=users,
            service=cs_service,
            clients=uc_clients(run, users),
            server_host=server_host,
            payload_fn=payload_fn,
            request_size=p.consumer_servlet.request_size,
            warmup=warmup,
            window=window,
            retry=retry,
            faults=faults,
            fault_services=[ps_service] if faults is not None else None,
        )

    cs_nodes = [name for name in run.testbed.lucky if name != "lucky3"]
    cs_services: dict[str, Service] = {}
    for name in cs_nodes:
        cs_services[name] = _cs_service(
            run, run.testbed.lucky[name], f"{name}-cs", ps_service, cs_retry
        )
    clients = lucky_clients(run, users, exclude=("lucky3",))
    services_by_user = [cs_services[c.name.split(".")[0]] for c in clients]
    return drive(
        run,
        system=system,
        x=users,
        service=ps_service,
        clients=clients,
        server_host=server_host,
        payload_fn=payload_fn,
        request_size=p.consumer_servlet.request_size,
        services_by_user=services_by_user,
        warmup=warmup,
        window=window,
        retry=retry,
        faults=faults,
        fault_services=[ps_service] if faults is not None else None,
    )


def _build_giis_exp2(seed: int) -> GIIS:
    giis = GIIS("lucky0", cachettl=float("inf"))
    for i, node in enumerate(("lucky3", "lucky4", "lucky5", "lucky6", "lucky7")):
        gris = GRIS(
            f"{node}.mcs.anl.gov",
            replicated_providers(10),
            cachettl=float("inf"),
            seed=seed * 101 + i,
        )

        def puller(now: float, gris: GRIS = gris) -> tuple[list, float]:
            result = gris.search(now=now)
            return result.entries, result.exec_cost

        giis.register(node, puller, now=0.0, ttl=1e12)
    giis.query(now=0.0)
    return giis


def exp2_point(
    system: str,
    users: int,
    seed: int = 1,
    *,
    params: StudyParams | None = None,
    warmup: float | None = None,
    window: float | None = None,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
) -> PointResult:
    """The pre-topology Experiment 2 wiring, verbatim."""
    if system == "mds-giis":
        monitored: tuple[str, ...] = ("lucky0",)
    elif system == "hawkeye-manager":
        monitored = ("lucky3",)
    else:
        monitored = ("lucky1",)
    run = new_run(seed, params, monitored=monitored)
    p = run.params

    if system == "mds-giis":
        giis = _build_giis_exp2(seed)
        server_host = run.testbed.lucky["lucky0"]
        service = kernel_service(
            run.sim, run.net, server_host, GiisDirectoryKernel(giis, p.giis).spec()
        )
        run.services["giis"] = service
        return drive(
            run,
            system=system,
            x=users,
            service=service,
            clients=uc_clients(run, users),
            server_host=server_host,
            payload_fn=lambda uid: {"filter": "(objectclass=MdsHost)"},
            request_size=p.giis.request_size,
            warmup=warmup,
            window=window,
            retry=retry,
            faults=faults,
        )

    if system == "hawkeye-manager":
        manager = Manager("lucky3")
        server_host = run.testbed.lucky["lucky3"]
        agent_nodes = [n for n in LUCKY_NAMES if n != "lucky3"]
        for i, node in enumerate(agent_nodes):
            agent = Agent(f"{node}.mcs.anl.gov", make_default_modules(), seed=seed * 77 + i)
            manager.register_agent(agent)
            ad, _ = agent.make_startd_ad(now=0.0)
            manager.receive_ad(ad, now=0.0)
            spawn_agent_advertiser(
                run,
                agent,
                server_host,
                p.manager.ad_ingest_cpu,
                interval=p.manager.advertise_interval,
                receive=manager.receive_ad,
            )
        service = kernel_service(
            run.sim, run.net, server_host, ManagerDirectoryKernel(manager, p.manager).spec()
        )
        run.services["manager"] = service
        return drive(
            run,
            system=system,
            x=users,
            service=service,
            clients=uc_clients(run, users),
            server_host=server_host,
            payload_fn=lambda uid: {"machine": "lucky4.mcs.anl.gov"},
            request_size=p.manager.request_size,
            warmup=warmup,
            window=window,
            retry=retry,
            faults=faults,
        )

    registry = Registry("lucky1")
    server_host = run.testbed.lucky["lucky1"]
    ps_nodes = ("lucky0", "lucky3", "lucky4", "lucky5", "lucky6")
    for i, node in enumerate(ps_nodes):
        servlet = ProducerServlet(f"{node}-ps")
        for producer in make_default_producers(f"{node}.mcs.anl.gov", 10, seed=seed * 31 + i):
            servlet.attach(producer, registry, now=0.0, lease=1e9)
    service = kernel_service(
        run.sim, run.net, server_host, RegistryKernel(registry, p.registry).spec()
    )
    run.services["registry"] = service
    if system == "rgma-registry-uc":
        clients = uc_clients(run, users)
    else:
        clients = lucky_clients(run, users, exclude=("lucky1",))
    return drive(
        run,
        system=system,
        x=users,
        service=service,
        clients=clients,
        server_host=server_host,
        payload_fn=lambda uid: {"table": "cpuLoad"},
        request_size=p.registry.request_size,
        warmup=warmup,
        window=window,
        retry=retry,
        faults=faults,
    )


def exp3_point(
    system: str,
    collectors: int,
    seed: int = 1,
    *,
    users: int = 10,
    params: StudyParams | None = None,
    warmup: float | None = None,
    window: float | None = None,
) -> PointResult:
    """The pre-topology Experiment 3 wiring, verbatim."""
    if system.startswith("mds-gris"):
        monitored: tuple[str, ...] = ("lucky7",)
    elif system == "hawkeye-agent":
        monitored = ("lucky4",)
    else:
        monitored = ("lucky3",)
    run = new_run(seed, params, monitored=monitored)
    p = run.params
    clients = uc_clients(run, users)

    if system in ("mds-gris-cache", "mds-gris-nocache"):
        cached = not system.endswith("nocache")
        gris = build_gris(run, collectors=collectors, cached=cached, seed=seed)
        server_host = run.testbed.lucky["lucky7"]
        service = _gris_service(run, server_host, gris)
        run.services["gris"] = service
        payload_fn = lambda uid: {"filter": "(objectclass=*)"}  # noqa: E731
        request_size = p.gris.request_size
    elif system == "hawkeye-agent":
        agent = build_agent(run, modules=collectors, seed=seed)
        server_host = run.testbed.lucky["lucky4"]
        service = _agent_service(run, server_host, agent)
        run.services["agent"] = service
        payload_fn = lambda uid: {"query": "status"}  # noqa: E731
        request_size = p.agent.request_size
    else:
        _registry, servlet = build_rgma_producer_side(run, producers=collectors, seed=seed)
        server_host = run.testbed.lucky["lucky3"]
        service = _ps_service(run, server_host, servlet)
        run.services["ps"] = service
        spawn_publisher(run, servlet, server_host)
        payload_fn = lambda uid: {"sql": "SELECT * FROM cpuLoad"}  # noqa: E731
        request_size = p.producer_servlet.request_size

    return drive(
        run,
        system=system,
        x=collectors,
        service=service,
        clients=clients,
        server_host=server_host,
        payload_fn=payload_fn,
        request_size=request_size,
        warmup=warmup,
        window=window,
    )


def _build_giis_exp4(registrants: int, seed: int) -> GIIS:
    giis = GIIS("lucky0", cachettl=float("inf"))
    nodes = [n for n in LUCKY_NAMES if n != "lucky0"]
    for i in range(registrants):
        node = nodes[i % len(nodes)]
        gris = GRIS(
            f"{node}-inst{i}.mcs.anl.gov",
            replicated_providers(10),
            cachettl=float("inf"),
            seed=seed * 7919 + i,
        )

        def puller(now: float, gris: GRIS = gris) -> tuple[list, float]:
            result = gris.search(now=now)
            return result.entries, result.exec_cost

        giis.register(f"gris{i}", puller, now=0.0, ttl=1e12)
    giis.query(now=0.0)
    return giis


def exp4_point(
    system: str,
    servers: int,
    seed: int = 1,
    *,
    users: int = 10,
    params: StudyParams | None = None,
    warmup: float | None = None,
    window: float | None = None,
) -> PointResult:
    """The pre-topology Experiment 4 wiring, verbatim."""
    monitored = ("lucky0",) if system.startswith("mds") else ("lucky3",)
    run = new_run(seed, params, monitored=monitored)
    p = run.params
    clients = uc_clients(run, users)

    if system.startswith("mds-giis"):
        query_part = system.endswith("part")
        giis = _build_giis_exp4(servers, seed)
        server_host = run.testbed.lucky["lucky0"]
        kernel = GiisAggregateKernel(
            giis,
            p.giis,
            assembly_lock=Mutex(run.sim, name=f"giis:{giis.name}:assembly"),
            query_part=query_part,
        )
        service = kernel_service(run.sim, run.net, server_host, kernel.spec())
        run.services["giis"] = service
        return drive(
            run,
            system=system,
            x=servers,
            service=service,
            clients=clients,
            server_host=server_host,
            payload_fn=lambda uid: {"filter": "(objectclass=*)"},
            request_size=p.giis.request_size,
            warmup=warmup,
            window=window,
        )

    manager = Manager("lucky3")
    server_host = run.testbed.lucky["lucky3"]
    collector_mutex = Mutex(run.sim, name=f"manager:{manager.name}:collector")
    service = kernel_service(
        run.sim,
        run.net,
        server_host,
        ManagerAggregateKernel(manager, p.manager, collector_lock=collector_mutex).spec(),
    )
    ingest = kernel_service(
        run.sim,
        run.net,
        server_host,
        ManagerIngestKernel(manager, p.manager, collector_lock=collector_mutex).spec(),
    )
    run.services["manager"] = service
    run.services["ingest"] = ingest

    adv_hosts = [run.testbed.lucky[n] for n in LUCKY_NAMES if n != "lucky3"]
    rng = run.rng.stream("advertisers", str(servers))

    def advertiser(machine: str, host, offset: float) -> _t.Generator:
        local_rng = run.rng.stream("ad", machine)
        ad = synthesize_startd_ad(machine, local_rng, now=0.0)
        manager.receive_ad(ad, now=0.0)
        yield run.sim.timeout(offset)
        while True:
            ad = synthesize_startd_ad(machine, local_rng, now=run.sim.now)
            try:
                yield from call(
                    run.sim,
                    run.net,
                    host,
                    ingest,
                    {"ad": ad},
                    size=p.manager.ad_wire_bytes,
                )
            except Exception:
                pass
            yield run.sim.timeout(p.manager.advertise_interval)

    for i in range(servers):
        machine = f"sim{i:04d}.pool"
        host = adv_hosts[i % len(adv_hosts)]
        offset = float(rng.uniform(0.0, p.manager.advertise_interval))
        run.sim.spawn(advertiser(machine, host, offset), name=f"adv:{machine}")

    return drive(
        run,
        system=system,
        x=servers,
        service=service,
        clients=clients,
        server_host=server_host,
        payload_fn=lambda uid: {"constraint": "TARGET.CpuLoad > 50"},
        request_size=p.manager.request_size,
        warmup=warmup,
        window=window,
    )
