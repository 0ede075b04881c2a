"""Tests for the kernels as simulated services (cost-model wiring)."""

import pytest

from repro.core.desruntime import kernel_service
from repro.core.kernels import (
    AgentKernel,
    GiisAggregateKernel,
    GrisKernel,
    ManagerAggregateKernel,
    ManagerIngestKernel,
    ProducerServletKernel,
    RegistryKernel,
)
from repro.core.runner import new_run
from repro.errors import ServiceUnavailableError
from repro.hawkeye.agent import Agent
from repro.hawkeye.advertise import synthesize_startd_ad
from repro.hawkeye.manager import Manager
from repro.hawkeye.modules import replicated_modules
from repro.mds.giis import GIIS
from repro.mds.gris import GRIS
from repro.mds.providers import replicated_providers
from repro.rgma.producer import make_default_producers
from repro.rgma.producer_servlet import ProducerServlet
from repro.rgma.registry import Registry
from repro.sim.randomness import RngHub
from repro.sim.resources import Mutex
from repro.sim.rpc import call


def serve(run, host, kernel):
    return kernel_service(run.sim, run.net, host, kernel.spec())


def gris_service(run, gris):
    kernel = GrisKernel(gris, run.params.gris, providers_lock=Mutex(run.sim, name="providers"))
    return serve(run, run.testbed.lucky["lucky7"], kernel)


def agent_service(run, agent, p):
    kernel = AgentKernel(agent, p, startd_lock=Mutex(run.sim, name="startd"))
    return serve(run, run.testbed.lucky["lucky4"], kernel)


def giis_aggregate_service(run, giis, p, **options):
    kernel = GiisAggregateKernel(
        giis, p, assembly_lock=Mutex(run.sim, name="assembly"), **options
    )
    return serve(run, run.testbed.lucky["lucky0"], kernel)


def manager_aggregate_service(run, manager, p):
    """The aggregate service and the collector lock ingest must share."""
    lock = Mutex(run.sim, name="collector")
    kernel = ManagerAggregateKernel(manager, p, collector_lock=lock)
    return serve(run, run.testbed.lucky["lucky3"], kernel), lock


def one_call(run, service, payload=None, client=None, size=512):
    """Issue a single RPC and return (value, elapsed)."""
    client = client or run.testbed.uc[0]
    out = {}

    def caller():
        started = run.sim.now
        value = yield from call(run.sim, run.net, client, service, payload, size=size)
        out["value"] = value
        out["elapsed"] = run.sim.now - started

    run.sim.spawn(caller())
    # run(until=...) because the testbed's Ganglia sampler never stops.
    run.sim.run(until=600.0)
    return out["value"], out["elapsed"]


@pytest.fixture
def run():
    return new_run(seed=3, monitored=("lucky3", "lucky4", "lucky7", "lucky0", "lucky1"))


def test_gris_service_cached_fast(run):
    gris = GRIS("lucky7.mcs.anl.gov", replicated_providers(10), cachettl=float("inf"), seed=1)
    gris.search(now=0.0)
    service = gris_service(run, gris)
    value, elapsed = one_call(run, service, {"filter": "(objectclass=*)"})
    assert value["entries"] == 12
    assert not value["fetched"]
    assert elapsed < 1.0  # one idle query: base conn overhead + wire


def test_gris_service_uncached_pays_provider_time(run):
    gris = GRIS("lucky7.mcs.anl.gov", replicated_providers(10), cachettl=0.0, seed=1)
    service = gris_service(run, gris)
    value, elapsed = one_call(run, service, None)
    assert value["fetched"]
    assert elapsed > 10 * run.params.gris.provider_hold * 0.9  # ~0.52 s serialized


def test_agent_service_cost_scales_with_modules(run):
    p = run.params.agent
    small = Agent("a.mcs.anl.gov", replicated_modules(11), seed=1)
    svc_small = agent_service(run, small, p)
    _v, t_small = one_call(run, svc_small)

    run2 = new_run(seed=3)
    big = Agent("b.mcs.anl.gov", replicated_modules(88), seed=1)
    svc_big = agent_service(run2, big, p)
    _v, t_big = one_call(run2, svc_big)
    assert t_big > t_small + p.fetch_quad_coeff * (88**2 - 11**2) * 0.9


def test_producer_servlet_service_returns_rows(run):
    servlet = ProducerServlet("ps")
    registry = Registry("reg")
    for producer in make_default_producers("lucky3.mcs.anl.gov", 10, seed=1):
        servlet.attach(producer, registry)
    servlet.publish_all(now=0.0)
    kernel = ProducerServletKernel(
        servlet, run.params.producer_servlet, db_lock=Mutex(run.sim, name="db")
    )
    service = serve(run, run.testbed.lucky["lucky3"], kernel)
    value, _elapsed = one_call(run, service, {"sql": "SELECT * FROM cpuLoad"})
    assert value["rows"] == 2


def test_registry_service_lookup(run):
    registry = Registry("reg")
    registry.register("p1", "cpuLoad", "s1", lease=1e9)
    service = serve(
        run, run.testbed.lucky["lucky1"], RegistryKernel(registry, run.params.registry)
    )
    value, elapsed = one_call(run, service, {"table": "cpuLoad"})
    assert value["producers"] == 1
    assert elapsed > run.params.registry.cpu_per_query * 0.45  # CPU charged (2 cores)


def test_giis_aggregate_service_crash_path(run):
    giis = GIIS("lucky0", cachettl=float("inf"))
    for i in range(5):
        gris = GRIS(f"h{i}", replicated_providers(10), cachettl=float("inf"), seed=i)
        giis.register(
            f"g{i}",
            lambda now, gris=gris: (gris.search(now=now).entries, 0.0),
            ttl=1e12,
        )
    p = run.params.giis
    import dataclasses

    tight = dataclasses.replace(p, max_queryall_registrants=3)
    service = giis_aggregate_service(run, giis, tight)
    client = run.testbed.uc[0]
    outcomes = []

    def caller():
        try:
            yield from call(run.sim, run.net, client, service, None)
            outcomes.append("ok")
        except Exception as exc:
            outcomes.append(type(exc).__name__)

    run.sim.spawn(caller())
    run.sim.run(until=600.0)
    assert outcomes and outcomes[0] in ("ServiceCrashError", "ServiceUnavailableError")
    assert service.crashed


def test_giis_aggregate_query_part_smaller_and_faster(run):
    giis = GIIS("lucky0", cachettl=float("inf"))
    for i in range(50):
        gris = GRIS(f"h{i}", replicated_providers(10), cachettl=float("inf"), seed=i)
        giis.register(
            f"g{i}",
            lambda now, gris=gris: (gris.search(now=now).entries, 0.0),
            ttl=1e12,
        )
    giis.query(now=0.0)
    svc_all = giis_aggregate_service(run, giis, run.params.giis)
    _va, t_all = one_call(run, svc_all)

    run2 = new_run(seed=4)
    svc_part = giis_aggregate_service(run2, giis, run2.params.giis, query_part=True)
    _vp, t_part = one_call(run2, svc_part)
    assert t_part < t_all


def test_manager_aggregate_and_ingest_share_lock(run):
    manager = Manager("lucky3")
    host = run.testbed.lucky["lucky3"]
    p = run.params.manager
    _agg, lock = manager_aggregate_service(run, manager, p)
    ingest = serve(run, host, ManagerIngestKernel(manager, p, collector_lock=lock))
    rng = RngHub(1).stream("ads")
    ad = synthesize_startd_ad("sim0", rng)
    value, _ = one_call(run, ingest, {"ad": ad}, size=p.ad_wire_bytes)
    assert value == {"ok": True}
    assert manager.pool_size == 1

    run2 = new_run(seed=5)
    manager2 = Manager("m2")
    agg2, _lock2 = manager_aggregate_service(run2, manager2, p)
    for i in range(20):
        manager2.receive_ad(synthesize_startd_ad(f"sim{i}", rng), now=0.0)
    value, _ = one_call(run2, agg2, {"constraint": "TARGET.CpuLoad > 50"})
    assert value["ads"] == 0  # worst case: nothing matches
    assert value["scanned"] == 20


def test_manager_scan_cost_scales_with_pool(run):
    p = run.params.manager
    rng = RngHub(2).stream("ads")

    def scan_time(n):
        r = new_run(seed=6)
        manager = Manager("m")
        service, _lock = manager_aggregate_service(r, manager, p)
        for i in range(n):
            manager.receive_ad(synthesize_startd_ad(f"sim{i}", rng), now=0.0)
        _v, elapsed = one_call(r, service)
        return elapsed

    assert scan_time(400) > scan_time(10) + p.scan_cpu_per_ad * 380 * 0.4
