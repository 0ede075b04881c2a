"""Fast fidelity tiers: analytic station models of the exact scenarios.

The exact tier simulates one Python object per client and per request,
which tops out around ~10^3 users.  This module provides the two fast
tiers that break that ceiling (ROADMAP: million-user sweeps):

* ``meanfield`` — a fixed-point solution of the closed queueing network
  induced by the scenario's cost model (Schweitzer approximate MVA with
  a Seidmann reduction for multi-server stations, an outer fixed point
  for the concurrency-dependent connection overhead, and a population
  cap for accept-queue refusal).  O(stations) per point, any N.
* ``cohort`` — :mod:`repro.sim.cohort` steps numpy state vectors for
  the whole client population through the same station chain in event
  epochs; stochastic (think jitter, start spread) and conserving
  (every request is completed or refused), at ~10^5-10^6 users.

Both tiers consume a :class:`ServiceModel` built by
:func:`model_for_plan` from the same :class:`DeploymentPlan` the exact
tier compiles, with per-query costs taken verbatim from
:mod:`repro.core.params` and entry counts / response sizes measured on
cheap *representative* functional objects (a real GRIS/GIIS/Agent/
Manager/servlet answering one query) — never a full plan compile, so a
10^4-node tree model costs milliseconds.

Validity envelope (docs/FIDELITY.md): background traffic that the
exact tier simulates (producer publish rounds, Hawkeye local
advertising) is ignored — it is <0.3% of a host CPU in every committed
scenario; client-side NIC contention is ignored; Experiment-4
aggregate scenarios (crash limits, wire advertising) require the exact
tier and raise :class:`FidelityError` here.
"""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass

from repro.core.components import Role, System
from repro.core.metrics import MetricsSummary
from repro.core.params import StudyParams, default_params, measurement_window
from repro.core.runner import PointResult
from repro.core.topology.plan import (
    FIDELITY_TIERS,
    CollectorSpec,
    DeploymentPlan,
    EdgeKind,
    NodeSpec,
    ServerSpec,
)
from repro.sim.rpc import ConnectionOverhead

__all__ = [
    "TIERS",
    "FAST_TIERS",
    "FidelityError",
    "require_plain_run",
    "Station",
    "ServiceModel",
    "MeanFieldSolution",
    "model_for_plan",
    "tier_for_plan",
    "solve_meanfield",
    "load1_ramp",
    "fast_point",
    "projected_exact_cost",
]

TIERS = FIDELITY_TIERS
FAST_TIERS = tuple(t for t in FIDELITY_TIERS if t != "exact")

_NIC_RATE = 100.0e6 / 8.0  # bytes/s through one host NIC
_LOOPBACK = 1e-4
_SAME_SITE_LATENCY = 1e-3  # Network.default_latency for intra-site hops


class FidelityError(ValueError):
    """A scenario a fast tier cannot model faithfully."""


def require_plain_run(tier: str, *, adaptive: object = None) -> None:
    """Reject a tier name the repo does not know, or an adaptive run.

    The fast tiers compute steady-state query-path metrics only, so the
    adaptive (detected steady-state window) mode needs the exact
    per-client DES.  Scenario models that need it — churn, WAN weather,
    faults — are named by :meth:`~repro.core.scenario.model.Scenario.requires_exact`.
    """
    if tier not in TIERS:
        raise FidelityError(f"unknown fidelity tier {tier!r}; pick from {TIERS}")
    if adaptive:
        raise FidelityError(
            f"fidelity tier {tier!r} cannot model adaptive; use the exact tier for those runs"
        )


@dataclass(frozen=True)
class Station:
    """One queueing resource a request visits, in visit order.

    ``demand`` is the total resource-seconds one query consumes here;
    ``service`` the no-contention time the query spends here (defaults
    to ``demand``; smaller when the work fans out across the station's
    ``servers``, e.g. a tree query scanning every leaf in parallel).
    ``servers=0`` is a pure delay (no queueing at all).

    ``monitored_cpu`` is the part of ``demand`` that burns CPU on the
    *monitored* host (feeds the Ganglia cpu% estimate).  ``load_queue``
    marks stations whose queued requests are runnable threads on the
    monitored host (CPU stations); ``load_util`` credits a fractional
    runnable thread while the station is busy (serialized holds that
    burn CPU for ``cpu_fraction`` of the hold).

    ``in_server`` marks the thread-slot window: stations between
    admission and handler return.  Only these count toward the
    connection-overhead active count and the accept-queue refusal
    limit — the exact engine releases the slot before the response
    transfer, so response-path stations are ``in_server=False``.
    """

    name: str
    demand: float
    servers: int = 1
    service: float | None = None
    convoy: float = 0.0  # hold inflation per queued request
    monitored_cpu: float = 0.0
    load_queue: bool = False
    load_util: float = 0.0
    in_server: bool = True

    @property
    def base_service(self) -> float:
        return self.demand if self.service is None else self.service


@dataclass(frozen=True)
class ServiceModel:
    """Everything a fast tier needs about one deployed scenario."""

    name: str
    stations: tuple[Station, ...]
    pre_delay: float  # request-path latency (transfers + propagation)
    post_delay: float  # response-path latency after the last station
    conn: ConnectionOverhead | None
    max_threads: int
    backlog: int
    cpus: int  # monitored host CPUs
    cpu_rate: float = 1.0
    refusal_rtt: float = 0.0  # client-observed cost of one refused attempt
    response_bytes: int = 0
    notes: str = ""

    @property
    def capacity(self) -> int:
        """The accept-queue refusal limit (threads + backlog)."""
        return self.max_threads + self.backlog


# -- representative functional objects --------------------------------------
#
# Entry counts and wire sizes come from real answers of cheaply built
# functional objects, so the fast tiers inherit them from the same code
# path the exact tier exercises instead of hard-coding byte counts.


def _rep_gris(collectors: int, cached: bool, seed: int = 0):
    from repro.mds.gris import GRIS
    from repro.mds.providers import replicated_providers

    ttl = float("inf") if cached else 0.0
    gris = GRIS(
        "fidelity-model.mcs.anl.gov",
        replicated_providers(collectors),
        cachettl=ttl,
        seed=seed,
    )
    result = gris.search(now=0.0)  # primes the cache when cached
    if cached:
        result = gris.search(now=0.0)  # measure the steady (cached) answer
    return gris, result


def _rep_giis_directory(registrants: int, collectors: int = 10):
    from repro.mds.giis import GIIS

    giis = GIIS("fidelity-model", cachettl=float("inf"))
    for i in range(registrants):
        gris, _ = _rep_gris(collectors, cached=True, seed=101 + i)
        giis.register(f"gris{i}", _gris_puller(gris), now=0.0, ttl=1e12)
    return giis, giis.query(now=0.0)


def _gris_puller(gris):
    def pull(now: float):
        result = gris.search(now=now)
        return result.entries, result.exec_cost

    return pull


def _rep_agent(modules: int, seed: int = 0):
    from repro.hawkeye.agent import Agent
    from repro.hawkeye.modules import replicated_modules

    agent = Agent("fidelity-model.pool", replicated_modules(modules), seed=seed)
    return agent, agent.query(now=0.0)


def _rep_manager(agent_machines: _t.Sequence[str]):
    from repro.hawkeye.agent import Agent
    from repro.hawkeye.manager import Manager
    from repro.hawkeye.modules import make_default_modules

    manager = Manager("fidelity-model")
    for machine in agent_machines:
        agent = Agent(machine, make_default_modules(), seed=0)
        manager.register_agent(agent)
        ad, _ = agent.make_startd_ad(now=0.0)
        manager.receive_ad(ad, now=0.0)
    return manager


def _rep_producer_servlet(producers: int, seed: int = 0):
    from repro.rgma.producer import make_default_producers
    from repro.rgma.producer_servlet import ProducerServlet
    from repro.rgma.registry import Registry

    registry = Registry("fidelity-model")
    servlet = ProducerServlet("fidelity-ps")
    for producer in make_default_producers("lucky3.mcs.anl.gov", producers, seed=seed):
        servlet.attach(producer, registry, now=0.0, lease=1e9)
    servlet.publish_all(now=0.0)
    return registry, servlet, servlet.answer("SELECT * FROM cpuLoad")


# -- model construction ------------------------------------------------------


def tier_for_plan(plan: DeploymentPlan) -> str:
    """The fidelity tier the plan's entry node requests."""
    return plan.node(plan.entry).fidelity


def _collector_count(plan: DeploymentPlan, spec: NodeSpec, default: int = 10) -> int:
    for edge in plan.edges_to(spec.name, EdgeKind.COLLECTION):
        source = plan.node(edge.source)
        if isinstance(source, CollectorSpec):
            return source.count
    return default


def _wan_legs(request: int, response: int, p: StudyParams) -> tuple[float, float, list[Station]]:
    """(pre_delay, post_delay, network stations) for UC clients -> ANL server."""
    tb = p.testbed
    wan_rate = tb.wan_mbps * 1e6 / 8.0
    pre = tb.wan_latency + 2 * request / _NIC_RATE
    post = tb.wan_latency + response / _NIC_RATE
    stations = [
        Station("nic-out", demand=response / _NIC_RATE, in_server=False),
        Station("wan", demand=(request + response) / wan_rate, in_server=False),
    ]
    return pre, post, stations


def _lan_legs(request: int, response: int, p: StudyParams) -> tuple[float, float, list[Station]]:
    """(pre, post, stations) for clients on the ANL LAN."""
    tb = p.testbed
    pre = tb.lan_latency + 2 * request / _NIC_RATE
    post = tb.lan_latency + response / _NIC_RATE
    return pre, post, [Station("nic-out", demand=response / _NIC_RATE, in_server=False)]


def _gris_model(plan: DeploymentPlan, p: StudyParams) -> ServiceModel:
    entry = plan.node(plan.entry)
    assert isinstance(entry, ServerSpec)
    collectors = _collector_count(plan, entry)
    gp = p.gris
    _, result = _rep_gris(collectors, cached=entry.cached, seed=entry.seed)
    response = result.estimated_size()
    cpu = gp.cpu_per_query + len(result.entries) * gp.cpu_per_entry
    stations = [
        Station("cpu", demand=cpu, servers=p.testbed.lucky_cpus,
                monitored_cpu=cpu, load_queue=True),
    ]
    if not entry.cached:
        hold = collectors * gp.provider_hold
        stations.append(
            Station("providers", demand=hold,
                    monitored_cpu=hold * gp.provider_cpu_fraction,
                    load_util=gp.provider_cpu_fraction)
        )
    pre, post, net = _wan_legs(gp.request_size, response, p)
    return ServiceModel(
        name=plan.name, stations=tuple(stations + net), pre_delay=pre, post_delay=post,
        conn=gp.conn_overhead, max_threads=gp.max_threads, backlog=gp.backlog,
        cpus=p.testbed.lucky_cpus, cpu_rate=p.testbed.lucky_cpu_rate,
        refusal_rtt=pre + p.testbed.wan_latency, response_bytes=response,
    )


def _agent_model(plan: DeploymentPlan, p: StudyParams) -> ServiceModel:
    entry = plan.node(plan.entry)
    modules = _collector_count(plan, entry, default=11)
    ap = p.agent
    _, answer = _rep_agent(modules, seed=entry.seed)
    response = answer.estimated_size()
    hold = ap.fetch_quad_coeff * modules * modules
    stations = [
        Station("cpu", demand=ap.cpu_per_query, servers=p.testbed.lucky_cpus,
                monitored_cpu=ap.cpu_per_query, load_queue=True),
        Station("startd", demand=hold, convoy=ap.convoy_coeff,
                monitored_cpu=hold * ap.fetch_cpu_fraction,
                load_util=ap.fetch_cpu_fraction),
    ]
    pre, post, net = _wan_legs(ap.request_size, response, p)
    return ServiceModel(
        name=plan.name, stations=tuple(stations + net), pre_delay=pre, post_delay=post,
        conn=ap.conn_overhead, max_threads=ap.max_threads, backlog=ap.backlog,
        cpus=p.testbed.lucky_cpus, cpu_rate=p.testbed.lucky_cpu_rate,
        refusal_rtt=pre + p.testbed.wan_latency, response_bytes=response,
    )


def _ps_stations(plan: DeploymentPlan, p: StudyParams, ps_name: str) -> tuple[list[Station], int]:
    """The ProducerServlet's own stations plus its response size."""
    pp = p.producer_servlet
    producers = _collector_count(plan, plan.node(ps_name))
    _, _, answer = _rep_producer_servlet(producers)
    hold = pp.db_hold_linear * producers + pp.db_hold_quad * producers * producers
    stations = [
        Station("ps-cpu", demand=pp.cpu_per_query, servers=p.testbed.lucky_cpus,
                monitored_cpu=pp.cpu_per_query, load_queue=True),
        Station("ps-db", demand=hold, convoy=pp.convoy_coeff,
                monitored_cpu=hold * pp.db_cpu_fraction,
                load_util=pp.db_cpu_fraction),
    ]
    return stations, answer.estimated_size()


def _rgma_model(plan: DeploymentPlan, p: StudyParams) -> ServiceModel:
    entry = plan.node(plan.entry)
    pp = p.producer_servlet
    cp = p.consumer_servlet
    tb = p.testbed
    if entry.variant == "mediator":
        # exp1 rgma-ps-uc: UC consumers -> one CS at UC -> PS over the WAN.
        mediation = [e.target for e in plan.edges_from(plan.entry, EdgeKind.MEDIATION)]
        ps_stations, response = _ps_stations(plan, p, mediation[0])
        wan_rate = tb.wan_mbps * 1e6 / 8.0
        stations = [
            Station("cs-cpu", demand=cp.cpu_per_query / tb.uc_cpu_rate,
                    servers=tb.uc_cpus, in_server=False),
            Station("cs-mediation", demand=cp.mediation_hold, in_server=False),
            *ps_stations,
            # CS -> PS request and PS -> CS response both cross the WAN;
            # the CS -> consumer response (1024 B) stays on the UC LAN.
            Station("ps-nic-out", demand=response / _NIC_RATE, in_server=False),
            Station("wan", demand=(cp.request_size + response) / wan_rate,
                    in_server=False),
        ]
        pre = _SAME_SITE_LATENCY + tb.wan_latency + 2 * cp.request_size / _NIC_RATE
        post = tb.wan_latency + _SAME_SITE_LATENCY + 1024 / _NIC_RATE
        return ServiceModel(
            name=plan.name, stations=tuple(stations), pre_delay=pre, post_delay=post,
            conn=pp.conn_overhead, max_threads=pp.max_threads, backlog=pp.backlog,
            cpus=tb.lucky_cpus, cpu_rate=tb.lucky_cpu_rate,
            refusal_rtt=pre + tb.wan_latency, response_bytes=response,
        )
    mediators = [e.source for e in plan.edges_to(plan.entry, EdgeKind.MEDIATION)]
    if mediators:
        # exp1 rgma-ps-lucky: consumers on the Lucky nodes, a CS per node
        # (loopback to the local CS, LAN to the shared PS on lucky3).
        n_cs = len(mediators)
        ps_stations, response = _ps_stations(plan, p, plan.entry)
        stations = [
            Station("cs-cpu", demand=cp.cpu_per_query,
                    servers=n_cs * tb.lucky_cpus, in_server=False),
            Station("cs-mediation", demand=cp.mediation_hold, servers=n_cs,
                    service=cp.mediation_hold, in_server=False),
            *ps_stations,
            Station("ps-nic-out", demand=response / _NIC_RATE, in_server=False),
        ]
        pre = _LOOPBACK + tb.lan_latency + 2 * cp.request_size / _NIC_RATE
        post = tb.lan_latency + _LOOPBACK + (response + 1024) / _NIC_RATE
        return ServiceModel(
            name=plan.name, stations=tuple(stations), pre_delay=pre, post_delay=post,
            conn=pp.conn_overhead, max_threads=pp.max_threads, backlog=pp.backlog,
            cpus=tb.lucky_cpus, cpu_rate=tb.lucky_cpu_rate,
            refusal_rtt=pre + tb.lan_latency, response_bytes=response,
        )
    # exp3 rgma-ps: UC consumers query the ProducerServlet directly.
    ps_stations, response = _ps_stations(plan, p, plan.entry)
    pre, post, net = _wan_legs(pp.request_size, response, p)
    return ServiceModel(
        name=plan.name, stations=tuple(ps_stations + net), pre_delay=pre, post_delay=post,
        conn=pp.conn_overhead, max_threads=pp.max_threads, backlog=pp.backlog,
        cpus=tb.lucky_cpus, cpu_rate=tb.lucky_cpu_rate,
        refusal_rtt=pre + tb.wan_latency, response_bytes=response,
    )


def _giis_directory_model(plan: DeploymentPlan, p: StudyParams) -> ServiceModel:
    gp = p.giis
    registrants = len(plan.edges_to(plan.entry, EdgeKind.REGISTRATION))
    _, result = _rep_giis_directory(registrants)
    response = result.estimated_size()
    stations = [
        Station("cpu", demand=gp.cpu_per_query, servers=p.testbed.lucky_cpus,
                monitored_cpu=gp.cpu_per_query, load_queue=True),
    ]
    pre, post, net = _wan_legs(gp.request_size, response, p)
    return ServiceModel(
        name=plan.name, stations=tuple(stations + net), pre_delay=pre, post_delay=post,
        conn=gp.conn_overhead, max_threads=gp.max_threads, backlog=gp.backlog,
        cpus=p.testbed.lucky_cpus, cpu_rate=p.testbed.lucky_cpu_rate,
        refusal_rtt=pre + p.testbed.wan_latency, response_bytes=response,
    )


def _manager_directory_model(plan: DeploymentPlan, p: StudyParams) -> ServiceModel:
    mp = p.manager
    agents = [
        plan.node(e.source).options.get(
            "agent_machine", f"{plan.node(e.source).host}.mcs.anl.gov"
        )
        for e in plan.edges_to(plan.entry, EdgeKind.REGISTRATION)
    ]
    manager = _rep_manager(agents)
    answer = manager.query_machine("lucky4.mcs.anl.gov")
    response = max(answer.estimated_size(), 512)
    stations = [
        Station("cpu", demand=mp.cpu_per_query, servers=p.testbed.lucky_cpus,
                monitored_cpu=mp.cpu_per_query, load_queue=True),
    ]
    pre, post, net = _wan_legs(mp.request_size, response, p)
    return ServiceModel(
        name=plan.name, stations=tuple(stations + net), pre_delay=pre, post_delay=post,
        conn=mp.conn_overhead, max_threads=mp.max_threads, backlog=mp.backlog,
        cpus=p.testbed.lucky_cpus, cpu_rate=p.testbed.lucky_cpu_rate,
        refusal_rtt=pre + p.testbed.wan_latency, response_bytes=response,
        notes="background agent advertising ignored (<0.3% host CPU)",
    )


def _registry_model(plan: DeploymentPlan, p: StudyParams) -> ServiceModel:
    from repro.rgma.producer import make_default_producers
    from repro.rgma.producer_servlet import ProducerServlet
    from repro.rgma.registry import Registry

    rp = p.registry
    ps_nodes = [e.source for e in plan.edges_to(plan.entry, EdgeKind.REGISTRATION)]
    registry = Registry("fidelity-model")
    for i, node in enumerate(ps_nodes or ["lucky3-ps"]):
        servlet = ProducerServlet(node)
        producers = make_default_producers(f"{node}.mcs.anl.gov", 10, seed=i)
        for producer in producers:
            servlet.attach(producer, registry, now=0.0, lease=1e9)
    regs = registry.lookup("cpuLoad", now=0.0)
    response = max(256, 128 * len(regs))
    stations = [
        Station("cpu", demand=rp.cpu_per_query, servers=p.testbed.lucky_cpus,
                monitored_cpu=rp.cpu_per_query, load_queue=True),
    ]
    lucky = plan.name.endswith("lucky")
    if lucky:
        pre, post, net = _lan_legs(rp.request_size, response, p)
        rtt_back = p.testbed.lan_latency
    else:
        pre, post, net = _wan_legs(rp.request_size, response, p)
        rtt_back = p.testbed.wan_latency
    return ServiceModel(
        name=plan.name, stations=tuple(stations + net), pre_delay=pre, post_delay=post,
        conn=rp.conn_overhead, max_threads=rp.max_threads, backlog=rp.backlog,
        cpus=p.testbed.lucky_cpus, cpu_rate=p.testbed.lucky_cpu_rate,
        refusal_rtt=pre + rtt_back, response_bytes=response,
    )


def _tree_shape(plan: DeploymentPlan) -> tuple[int, int, int, int]:
    """(depth, fanout, leaf_aggregates, interior_aggregates) of a tree plan.

    Walks one root-to-leaf path of the (complete, symmetric) tree that
    :func:`repro.core.topology.catalog.hierarchy_plan` builds; the leaf
    fan-out comes from the leaf's registration edges (a GRIS bank's
    replica count for MDS, one edge per Agent for Hawkeye).
    """
    children: dict[str, list[str]] = {}
    for edge in plan.edges:
        if edge.kind is EdgeKind.AGGREGATION:
            children.setdefault(edge.target, []).append(edge.source)
    depth = 1
    node = plan.entry
    fanout = 0
    while node in children:
        kids = children[node]
        fanout = fanout or len(kids)
        node = kids[0]
        depth += 1
    reg = plan.edges_to(node, EdgeKind.REGISTRATION)
    if reg:
        source = plan.node(reg[0].source)
        leaf_fanout = source.replicas if source.replicas > 1 else len(reg)
    else:
        leaf_fanout = max(fanout, 1)
    if fanout == 0:
        fanout = leaf_fanout
    leaf_aggs = fanout ** (depth - 1)
    interior = sum(fanout**level for level in range(1, depth - 1))
    return depth, fanout, leaf_aggs, interior


def _tree_model(plan: DeploymentPlan, p: StudyParams) -> ServiceModel:
    depth, fanout, leaf_aggs, interior = _tree_shape(plan)
    tb = p.testbed
    pool_cpus = 6 * tb.lucky_cpus  # hierarchy_plan places non-top nodes on 6 Luckys
    if plan.system is System.MDS:
        gp = p.giis
        _, leaf_result = _rep_giis_directory(fanout)
        leaf_bytes = max(leaf_result.estimated_size(),
                         len(leaf_result.entries) * gp.entry_wire_bytes)
        leaf_cost = gp.aggregate_cpu_coeff * (fanout ** gp.aggregate_cpu_exp)
        top_cost = gp.aggregate_cpu_coeff * (fanout ** gp.aggregate_cpu_exp)
        int_cost = top_cost
        leaf_servers = min(pool_cpus, max(1, leaf_aggs * tb.lucky_cpus))
        conn, threads, backlog = gp.conn_overhead, gp.max_threads, gp.backlog
        request = gp.request_size
    else:
        mp = p.manager
        leaf_cost = mp.cpu_per_query + mp.scan_cpu_per_ad * fanout
        top_cost = mp.cpu_per_query * max(1, fanout)
        int_cost = top_cost
        leaf_bytes = 512
        # Each leaf Manager serializes its scans on its collector lock,
        # so parallelism is min(leaves, pool CPUs).
        leaf_servers = min(pool_cpus, max(1, leaf_aggs))
        conn, threads, backlog = mp.conn_overhead, mp.max_threads, mp.backlog
        request = mp.request_size
    if depth == 1:
        # The "tree" is a single leaf aggregate on the top host.
        response = leaf_bytes
        stations = [
            Station("top-cpu", demand=leaf_cost, servers=tb.lucky_cpus,
                    monitored_cpu=leaf_cost, load_queue=True),
        ]
    else:
        response = leaf_aggs * leaf_bytes
        stations = [
            Station("top-cpu", demand=top_cost, servers=tb.lucky_cpus,
                    monitored_cpu=top_cost, load_queue=True),
            Station("lan", demand=2 * (depth - 1) * tb.lan_latency, servers=0),
            Station("leaves", demand=leaf_aggs * leaf_cost, servers=leaf_servers,
                    service=leaf_cost),
        ]
        if interior:
            stations.append(
                Station("interior", demand=interior * int_cost, servers=pool_cpus,
                        service=max(0, depth - 2) * int_cost)
            )
        # Child responses funnel through the top node's NIC while the
        # handler thread is held (the fan-out happens inside _serve).
        stations.append(
            Station("top-nic-in", demand=response / _NIC_RATE, servers=1)
        )
    pre, post, net = _wan_legs(request, response, p)
    return ServiceModel(
        name=plan.name, stations=tuple(stations + net), pre_delay=pre, post_delay=post,
        conn=conn, max_threads=threads, backlog=backlog,
        cpus=tb.lucky_cpus, cpu_rate=tb.lucky_cpu_rate,
        refusal_rtt=pre + tb.wan_latency, response_bytes=response,
        notes=f"tree depth={depth} fanout={fanout} leaves={leaf_aggs}",
    )


def model_for_plan(plan: DeploymentPlan, params: StudyParams | None = None) -> ServiceModel:
    """Build the fast-tier station model for a catalog plan.

    Covers every exp1/exp2/exp3 scenario and the hierarchy trees.
    Experiment-4 aggregate scenarios (serialized query-all with crash
    limits, wire advertising banks) and the fault-experiment control
    planes (soft-state registrars, resilient advertisers) raise
    :class:`FidelityError` — they need the exact tier.
    """
    p = params or default_params()
    entry = plan.node(plan.entry)
    if any(
        e.options.get("mode") in ("wire", "resilient") or e.options.get("soft_state")
        for e in plan.edges
    ):
        raise FidelityError(
            f"plan {plan.name!r}: wire control-plane loops (advertising banks, "
            "soft-state registrars) need the exact tier"
        )
    if plan.system is System.MDS:
        if entry.role is Role.INFORMATION_SERVER:
            return _gris_model(plan, p)
        if entry.role is Role.DIRECTORY_SERVER:
            return _giis_directory_model(plan, p)
        if entry.variant in ("fanout", "leaf"):
            return _tree_model(plan, p)
        raise FidelityError(
            f"plan {plan.name!r}: the exp4 GIIS aggregate (crash limits) "
            "needs the exact tier"
        )
    if plan.system is System.HAWKEYE:
        if entry.role is Role.INFORMATION_SERVER:
            return _agent_model(plan, p)
        if entry.role is Role.DIRECTORY_SERVER:
            return _manager_directory_model(plan, p)
        return _tree_model(plan, p)
    if entry.role is Role.DIRECTORY_SERVER:
        return _registry_model(plan, p)
    return _rgma_model(plan, p)


# -- mean-field solver -------------------------------------------------------


@dataclass(frozen=True)
class MeanFieldSolution:
    """The fixed point for one (model, population) coordinate."""

    throughput: float  # successful queries/s
    response: float  # mean seconds per successful query
    load1: float
    cpu_pct: float
    refusal_rate: float  # refused connections/s
    admitted: int  # population inside the service loop (<= users)
    in_flight: float  # mean concurrency inside the thread-slot window
    conn_delay: float
    queues: tuple[float, ...]  # mean queue length per station


def _amva(
    model: ServiceModel, n: float, think: float
) -> tuple[float, float, float, float, list[float]]:
    """Schweitzer AMVA over the station chain for population ``n``.

    Returns (X, R_total, R_in_server, conn_delay, queues).  Multi-server
    stations use the Seidmann reduction (queueing on demand/servers, the
    rest of the no-contention service as pure delay); the connection
    overhead is an inner fixed point on the in-server concurrency.
    """
    stations = model.stations
    q = [0.0] * len(stations)
    conn_delay = model.conn.latency(0) if model.conn else 0.0
    x = 0.0
    factor = (n - 1) / n if n > 0 else 0.0
    for _ in range(400):
        r_total = model.pre_delay + model.post_delay + conn_delay
        r_in = conn_delay
        r_each = []
        for i, st in enumerate(stations):
            scale = 1.0 + st.convoy * _convoy_queue(model, st, q[i])
            if st.servers == 0:
                r = st.base_service * scale
            else:
                per_server = st.demand * scale / st.servers
                r = st.base_service * scale + per_server * q[i] * factor
            r_each.append(r)
            r_total += r
            if st.in_server:
                r_in += r
        x_new = n / (think + r_total)
        x = x_new if x == 0.0 else 0.5 * x + 0.5 * x_new
        converged = True
        for i, st in enumerate(stations):
            # Clamp to the population: a closed network can never queue
            # more than N requests anywhere, and the convoy feedback
            # (hold grows with queue, queue grows with hold) would
            # otherwise diverge past saturation instead of pinning the
            # fixed point at the population limit.  The station queue of
            # a saturated in-server station deliberately stands in for
            # the accept-queue/backlog wait too (the closed-network
            # identity N = X*(R+Z) forces the waiting somewhere), which
            # is why it is NOT capped at max_threads — only the convoy
            # scale is (see _convoy_queue).
            q_new = min(x * r_each[i], float(n))
            if abs(q_new - q[i]) > 1e-9 * (1.0 + q[i]):
                converged = False
            q[i] = 0.5 * q[i] + 0.5 * q_new
        if model.conn is not None:
            # The exact engine charges latency(active) after the request
            # takes its slot: an arrival sees the others (arrival theorem
            # -> factor) plus itself.
            active = min(x * r_in * factor + 1.0, float(model.max_threads))
            new_delay = model.conn.latency(active)
            if abs(new_delay - conn_delay) > 1e-12:
                converged = False
            conn_delay = 0.5 * conn_delay + 0.5 * new_delay
        if converged:
            break
    r_total = model.pre_delay + model.post_delay + conn_delay
    r_in = conn_delay
    for i, st in enumerate(stations):
        scale = 1.0 + st.convoy * _convoy_queue(model, st, q[i])
        if st.servers == 0:
            r = st.base_service * scale
        else:
            per_server = st.demand * scale / st.servers
            r = st.base_service * scale + per_server * q[i] * factor
        r_total += r
        if st.in_server:
            r_in += r
    x = n / (think + r_total)
    return x, r_total, r_in, conn_delay, q


def _convoy_queue(model: ServiceModel, st: Station, q: float) -> float:
    """The queue length a serialized hold actually convoys behind.

    An in-server station is driven by at most ``max_threads`` handler
    threads, so even when the MVA station queue inflates past that (it
    absorbs the accept-queue wait at saturation), the convoy scale must
    only see the thread-pool's worth of contenders.
    """
    if st.in_server:
        return min(q, float(model.max_threads))
    return q


def solve_meanfield(
    model: ServiceModel,
    users: int,
    *,
    think: float | None = None,
    retry_wait: float = 1.0,
) -> MeanFieldSolution:
    """Solve the closed network; cap the admitted population at the
    accept-queue limit and convert the excess into a refusal rate."""
    if users < 1:
        raise FidelityError(f"population must be >= 1, got {users}")
    z = 1.0 if think is None else think
    threads = float(model.max_threads)
    admitted = users
    x, r_total, r_in, conn_delay, q = _amva(model, users, z)
    r_srv = r_in  # in-server residence while holding a handler thread
    if x * r_in > threads:
        # The handler pool binds first: a request holds its thread
        # through the connection-overhead sleep and every in-server
        # station, so sustained throughput caps at threads / residence.
        # Find the largest closed population whose in-server concurrency
        # fits the pool (continuous bisection: an integer population grid
        # is too coarse when x*r_in crosses the pool size steeply) ...
        lo, hi = 1.0, float(users)  # x*r_in(lo) <= threads < x*r_in(hi)
        for _ in range(60):
            if hi - lo <= 1e-3 * hi:
                break
            mid = 0.5 * (lo + hi)
            xm, _, rm, _, _ = _amva(model, mid, z)
            if xm * rm > threads:
                hi = mid
            else:
                lo = mid
        x, r_total, r_in, conn_delay, q = _amva(model, lo, z)
        admitted = int(round(lo))
        r_srv = r_in
        # ... then fill the accept queue (backlog) with the next waiting
        # clients — they add a Little's-law wait to the response time and
        # count toward the in-flight total the admission rule sees —
        # and only the population beyond *that* cycles through refusals.
        backlog_occ = min(float(users - admitted), float(model.backlog))
        if x > 0.0 and backlog_occ > 0.0:
            backlog_wait = backlog_occ / x
            r_total += backlog_wait
            r_in += backlog_wait
            admitted = min(users, admitted + int(round(backlog_occ)))
    refusal_cycle = retry_wait + model.refusal_rtt
    refusal_rate = (users - admitted) / refusal_cycle if admitted < users else 0.0
    # Runnable threads on the monitored host: requests queued for its
    # CPU count, but threads sleeping through the connection-overhead
    # phase do not (and backlog waiters are blocked, not runnable), so
    # apportion the occupied thread pool by time *not* spent in the
    # connection phase.
    occupancy = min(x * r_srv, threads)
    runnable_cap = occupancy * max(0.0, r_srv - conn_delay) / r_srv if r_srv > 0 else 0.0
    load1 = 0.0
    cpu_seconds = 0.0
    for i, st in enumerate(model.stations):
        cpu_seconds += st.monitored_cpu * (1.0 + st.convoy * q[i])
        if st.load_queue:
            load1 += min(q[i], runnable_cap)
        elif st.load_util:
            demand = st.demand * (1.0 + st.convoy * q[i])
            busy = min(float(st.servers or 1), x * demand)
            load1 += busy * st.load_util
    cpu_pct = 100.0 * min(1.0, x * cpu_seconds / (model.cpus * model.cpu_rate))
    return MeanFieldSolution(
        throughput=x,
        response=r_total,
        load1=load1,
        cpu_pct=cpu_pct,
        refusal_rate=refusal_rate,
        admitted=admitted,
        in_flight=x * r_in,
        conn_delay=conn_delay,
        queues=tuple(q),
    )


def load1_ramp(warmup: float, window: float) -> float:
    """Window-mean convergence factor of the 1-minute load EMA.

    The exact tier's load1 is a 60 s exponential moving average started
    at zero (:mod:`repro.sim.loadavg`), so a measurement window early in
    the run reads only a fraction of the steady-state run queue.  The
    fast tiers compute steady-state load and scale it by the mean of
    ``1 - exp(-t/60)`` over the window — ~0.55 for the default (20, 60)
    schedule, ~0.96 for the paper-faithful ``REPRO_FULL`` one.
    """
    if window <= 0.0:
        return 1.0
    period = 60.0
    return 1.0 - (period / window) * (
        math.exp(-warmup / period) - math.exp(-(warmup + window) / period)
    )


# -- the fast-tier entry point ----------------------------------------------


def fast_point(
    plan: DeploymentPlan,
    *,
    system: str,
    x: float,
    users: int,
    tier: str | None = None,
    params: StudyParams | None = None,
    seed: int = 1,
    warmup: float | None = None,
    window: float | None = None,
) -> PointResult:
    """One figure point on a fast fidelity tier.

    ``tier`` defaults to the plan entry node's ``fidelity`` field; the
    result carries the tier and population on
    :attr:`~repro.core.runner.PointResult.fidelity` /
    :attr:`~repro.core.runner.PointResult.population`.
    """
    p = params or default_params()
    tier = tier or tier_for_plan(plan)
    if tier not in FAST_TIERS:
        raise FidelityError(
            f"fast_point needs a fast tier {FAST_TIERS}, got {tier!r} "
            "(the exact tier runs through repro.core.runner.drive)"
        )
    default_warmup, default_window = measurement_window()
    warmup = default_warmup if warmup is None else warmup
    window = default_window if window is None else window
    model = model_for_plan(plan, p)
    wp = p.workload
    if tier == "meanfield":
        sol = solve_meanfield(model, users, think=wp.think_time, retry_wait=wp.retry_wait)
        completed = int(round(sol.throughput * window))
        summary = MetricsSummary(
            throughput=sol.throughput,
            response_time=sol.response,
            load1=sol.load1 * load1_ramp(warmup, window),
            cpu_load=sol.cpu_pct,
            completed=completed,
            refused=int(round(sol.refusal_rate * window)),
            timeouts=0,
            errors=0,
            window=window,
            latency_p50=sol.response,
            latency_p95=sol.response,
        )
        return PointResult(
            system=system, x=x, summary=summary, sim_events=0,
            fidelity=tier, population=users,
        )
    from repro.sim.cohort import CohortEngine

    engine = CohortEngine(model, users, workload=wp, seed=seed)
    summary = engine.run(warmup=warmup, window=window)
    return PointResult(
        system=system, x=x, summary=summary, sim_events=engine.events,
        fidelity=tier, population=users,
    )


def projected_exact_cost(wall_small: float, users_small: int, users_big: int) -> float:
    """Conservative projection of the exact tier's wall-clock at scale.

    Exact-DES work grows at least linearly with the client population
    (every client is a process; every request a handful of heap events),
    so scaling a measured small-N wall time linearly *underestimates*
    the true large-N cost — which makes speedup claims against it
    conservative.
    """
    if users_small <= 0 or wall_small <= 0:
        raise ValueError("need a positive small-N measurement")
    return wall_small * (users_big / users_small)


