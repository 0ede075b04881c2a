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
tier compiles, and *recorded from its kernels*: the plan's own objects
go through the shared materialize/connect/expose phases, and a
recording interpreter of the op protocol drives the request the
caller's clients send (their payload, request size and placement come
from the caller) through the entry kernel once, on a symbolic clock.
What the ops spend becomes the stations (CPU demand per host, one
station per lock hold), ``KernelResponse.size`` the answer size, and
the ``KernelSpec`` the thread pool, accept queue and connection
overhead — a per-request cost is written once, in the kernel.  A tree
records one leaf aggregate and the fan-out path above it, never the
whole tree, so a 10^4-node tree model costs milliseconds.

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
from dataclasses import dataclass, replace

from repro.core.components import System
from repro.core.kernels import ops
from repro.core.kernels.build import connect_plan, expose_plan, materialize_plan
from repro.core.kernels.ops import KernelResponse, KernelSpec
from repro.core.metrics import MetricsSummary
from repro.core.params import StudyParams, default_params, measurement_window
from repro.core.runner import PointResult
from repro.core.topology.plan import (
    FIDELITY_TIERS,
    AggregateSpec,
    DeploymentPlan,
    EdgeKind,
    NodeSpec,
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
    "solve_meanfield",
    "host_load",
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


def require_plain_run(tier: str, *, adaptive: bool = False) -> None:
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
    response_bytes: int = 0  # what the client gets back

    @property
    def capacity(self) -> int:
        """The accept-queue refusal limit (threads + backlog)."""
        return self.max_threads + self.backlog


# -- the recording interpreter ------------------------------------------------


def _on_uc(host: str | None) -> bool:
    return host is not None and host.startswith("uc:")


def _host_cpus(p: StudyParams, host: str | None) -> tuple[int, float]:
    """(CPU count, CPU rate) of a testbed placement."""
    tb = p.testbed
    return (tb.uc_cpus, tb.uc_cpu_rate) if _on_uc(host) else (tb.lucky_cpus, tb.lucky_cpu_rate)


class _Target(_t.NamedTuple):
    """A call target while recording: an exposed kernel on its node, or
    the canned reply of a tree node's child, which is never walked."""

    spec: KernelSpec | None
    node: NodeSpec | None
    reply: KernelResponse | None = None


class _Recorder:
    """Interprets kernel ops on a symbolic clock, summing their costs per station.

    ``Compute`` adds to the CPU station of its service's host, divided by
    that host's CPU rate; a ``Held``, or a ``Busy`` between ``Acquire``
    and ``Release``, to one station per lock.  ``Call`` drives the
    callee; ``Fanout`` answers from the targets' canned replies.
    ``CLOCK`` reads 0 and ``QueueDepth`` reads ``depth``.
    """

    def __init__(self, p: StudyParams, server: NodeSpec, depth: int) -> None:
        self.p = p
        self.server = server  # its host is monitored, its handler the thread slot
        self.depth = depth
        # key -> [demand, servers, cpu_fraction (None: a CPU), host, in_server]
        self.costs: dict[str, list] = {}
        self.calls: list[tuple[int, int]] = []  # (request, reply) bytes per Call
        self.inbound = 0  # reply bytes the fan-outs collect
        self.read_depth = self.serialized = False
        # Filled in by _record:
        self.route: _Target | None = None  # where the client's request enters
        self.reply: KernelResponse | None = None  # what the client gets back
        self.admission: KernelSpec | None = None  # the server's thread pool and backlog
        self.stations: list[Station] = []

    def drive(
        self, target: _Target, payload: _t.Any, copies: int = 1, inside: bool = False
    ) -> KernelResponse:
        """Run ``target``'s handler on ``payload``; ``copies`` multiplies its servers."""
        assert target.spec is not None and target.node is not None
        host = target.node.host
        inside = inside or target.node.name == self.server.name
        cpus, rate = _host_cpus(self.p, host)
        held: list[str] = []
        gen = target.spec.handle(payload)
        value: _t.Any = None
        while True:
            try:
                op = gen.send(value)
            except StopIteration as stop:
                return stop.value
            value = None
            tag = op.tag
            if tag == ops.OP_COMPUTE:
                self._charge(f"{host}:cpu", op.seconds / rate, cpus * copies, None, host, inside)
            elif tag == ops.OP_CLOCK:
                value = 0.0
            elif tag == ops.OP_QUEUE_DEPTH:
                self.read_depth = True
                value = self.depth
            elif tag == ops.OP_ACQUIRE:
                self.serialized = True
                held.append(op.lock)
            elif tag == ops.OP_RELEASE:
                held.remove(op.lock)
            elif tag == ops.OP_BUSY or tag == ops.OP_HELD:
                lock = op.lock if tag == ops.OP_HELD else held[-1]
                self._charge(lock, op.hold, copies, op.cpu_fraction, host, inside)
            elif tag == ops.OP_CALL:
                reply = self.drive(op.target, op.payload, inside=inside)
                self.calls.append((op.size, reply.size))
                value = reply.value
            elif tag == ops.OP_FANOUT:
                value = [(True, t.reply.value) for t in op.targets]
                self.inbound += sum(t.reply.size for t in op.targets)
            else:
                raise FidelityError(f"kernel op {op!r} has no fast-tier model")

    def _charge(self, key, demand, servers, fraction, host, inside) -> None:
        cost = self.costs.setdefault(key, [0.0, servers, fraction, host, inside])
        cost[0] += demand

    def build(self, convoy: _t.Mapping[str, float]) -> list[Station]:
        """Stations in first-visit order; the monitored host's carry the load flags."""
        out = []
        for key, (demand, servers, fraction, host, inside) in self.costs.items():
            mon = host == self.server.host
            if fraction is None:
                out.append(Station(key, demand, servers, monitored_cpu=demand if mon else 0.0,
                                   load_queue=mon, in_server=inside))
            else:
                out.append(Station(key, demand, servers, convoy=convoy.get(key, 0.0),
                                   monitored_cpu=demand * fraction if mon else 0.0,
                                   load_util=fraction if mon else 0.0, in_server=inside))
        return out

    @property
    def cpu(self) -> float:
        return sum(st.demand for st in self.stations)


def _record(
    plan: DeploymentPlan,
    p: StudyParams,
    payload: _t.Any = None,
    children: _t.Mapping[str, _Target] | None = None,
) -> _Recorder:
    """Drive ``payload`` once through the route a client of ``plan`` takes.

    The plan's own objects are built by the shared compile phases and
    exposed with lock names as lock tokens; ``children`` pre-fills the
    call targets.  The server under study is :meth:`DeploymentPlan.server`.
    In the per-host mediator layout the request enters at one mediator,
    whose stations get one server per mediator.  The
    convoy coefficient is the one demand no op shows, so a request that
    reads a queue depth is driven again at depth 1, and each lock's
    convoy is ``hold(1) / hold(0) - 1``.
    """
    objects: dict[str, _t.Any] = {}
    extras: dict[str, _t.Any] = {}
    materialize_plan(plan, objects, extras)
    connect_plan(plan, objects, extras)
    targets = dict(children or {})
    for name, node, spec in expose_plan(
        plan, objects, extras, p, make_lock=lambda name: name, wire=False, services=targets
    ):
        targets[name] = _Target(spec, node)
    server = plan.server()
    mediators = plan.routed_mediators()
    copies = len(mediators) or 1
    rec = _Recorder(p, server, depth=0)
    rec.route = targets[mediators[0].name if mediators else plan.entry]
    rec.reply = rec.drive(rec.route, payload, copies)
    rec.admission = targets[server.name].spec
    convoy: dict[str, float] = {}
    if rec.read_depth:
        again = _Recorder(p, server, depth=1)
        again.drive(rec.route, payload, copies)
        for key, cost in rec.costs.items():
            if cost[2] is not None:
                convoy[key] = again.costs[key][0] / cost[0] - 1.0
    rec.stations = rec.build(convoy)
    return rec


# -- model construction ------------------------------------------------------


def _legs(
    p: StudyParams, request: int, response: int, *, wan: bool
) -> tuple[float, float, list[Station], float]:
    """(pre_delay, post_delay, network stations, return latency) of one hop.

    ``wan`` is a UC <-> ANL hop through the shared WAN link; otherwise
    both ends sit on one site's LAN.
    """
    tb = p.testbed
    latency = tb.wan_latency if wan else tb.lan_latency
    pre = latency + 2 * request / _NIC_RATE
    post = latency + response / _NIC_RATE
    stations = [Station("nic-out", demand=response / _NIC_RATE, in_server=False)]
    if wan:
        wan_rate = tb.wan_mbps * 1e6 / 8.0
        stations.append(Station("wan", demand=(request + response) / wan_rate, in_server=False))
    return pre, post, stations, latency


def _model(
    plan: DeploymentPlan,
    p: StudyParams,
    rec: _Recorder,
    stations: list[Station],
    legs: tuple[float, float, list[Station], float],
) -> ServiceModel:
    pre, post, net, back = legs
    spec = rec.admission
    assert spec is not None and rec.reply is not None
    cpus, rate = _host_cpus(p, rec.server.host)
    return ServiceModel(
        name=plan.name, stations=tuple(stations + net), pre_delay=pre, post_delay=post,
        conn=spec.conn_overhead, max_threads=spec.max_threads, backlog=spec.backlog,
        cpus=cpus, cpu_rate=rate, refusal_rtt=pre + back, response_bytes=rec.reply.size,
    )


def _flat_model(
    plan: DeploymentPlan, p: StudyParams, payload: _t.Any, request: int, clients: str
) -> ServiceModel:
    """One server, queried directly or through one mediator."""
    rec = _record(plan, p, payload)
    assert rec.route is not None and rec.reply is not None
    server_on_uc = _on_uc(rec.server.host)
    if not rec.calls:
        legs = _legs(p, request, rec.reply.size, wan=(clients == "uc") != server_on_uc)
        return _model(plan, p, rec, rec.stations, legs)
    # A mediator forwards the query over a hop of its own; the client's
    # hop to it is loopback when every client has a mediator on its own
    # host, an intra-site hop otherwise.
    ((request, response),) = rec.calls
    pre, post, net, back = _legs(
        p, request, response, wan=_on_uc(rec.route.node.host) != server_on_uc
    )
    hop = _SAME_SITE_LATENCY if rec.route.node.name == plan.entry else _LOOPBACK
    legs = (pre + hop, post + hop + rec.reply.size / _NIC_RATE, net, back)
    return _model(plan, p, rec, rec.stations, legs)


def _tree_shape(plan: DeploymentPlan) -> tuple[list[str], int, int, int]:
    """(fan-out path, fanout, leaf_aggregates, interior_aggregates) of a tree.

    Walks one root-to-leaf path of the (complete, symmetric) tree that
    :func:`repro.core.topology.catalog.hierarchy_plan` builds; the path
    holds the fan-out nodes from the root down, so the tree's depth is
    ``len(path) + 1``.
    """
    children: dict[str, list[str]] = {}
    for edge in plan.edges:
        if edge.kind is EdgeKind.AGGREGATION:
            children.setdefault(edge.target, []).append(edge.source)
    path: list[str] = []
    node = plan.entry
    while node in children:
        path.append(node)
        node = children[node][0]
    fanout = len(children[plan.entry])
    depth = len(path) + 1
    leaf_aggs = fanout ** (depth - 1)
    interior = sum(fanout**level for level in range(1, depth - 1))
    return path, fanout, leaf_aggs, interior


def _tree_model(
    plan: DeploymentPlan, p: StudyParams, payload: _t.Any, request: int, clients: str
) -> ServiceModel:
    """A fan-out tree from one recorded leaf and its recorded path to the root.

    The leaf is the entry of the depth-1 tree of the same fan-out; each
    fan-out node above it is recorded alone, its children answering with
    the reply recorded one level down, so no recording builds the tree.
    """
    from repro.core.topology.catalog import hierarchy_plan

    path, fanout, leaf_aggs, interior = _tree_shape(plan)
    depth = len(path) + 1
    tb = p.testbed
    pool_cpus = 6 * tb.lucky_cpus  # hierarchy_plan places non-top nodes on 6 Luckys
    levels = [_record(hierarchy_plan(plan.system.value.lower(), 1, fanout), p, payload)]
    for name in reversed(path):
        edges = plan.edges_to(name, EdgeKind.AGGREGATION)
        alone = replace(plan, nodes=(plan.node(name),), edges=tuple(edges), entry=name)
        canned = {edge.source: _Target(None, None, levels[-1].reply) for edge in edges}
        levels.append(_record(alone, p, payload, children=canned))
    leaf, top = levels[0], levels[-1]
    int_cost = levels[1].cpu if interior else 0.0
    # A leaf that serializes on a lock runs one query at a time.
    per_leaf = 1 if leaf.serialized else leaf.stations[0].servers
    stations = [
        *top.stations,
        Station("lan", demand=2 * (depth - 1) * tb.lan_latency, servers=0),
        Station("leaves", demand=leaf_aggs * leaf.cpu,
                servers=min(pool_cpus, max(1, leaf_aggs * per_leaf)), service=leaf.cpu),
    ]
    conn = leaf.admission.conn_overhead if leaf.admission is not None else None
    if conn is not None:
        # Every fan-out leg pays the leaf server's own connection set-up.
        stations.append(Station("leaf-conn", demand=conn.latency(1), servers=0))
    if interior:
        stations.append(
            Station("interior", demand=interior * int_cost, servers=pool_cpus,
                    service=max(0, depth - 2) * int_cost)
        )
    # Child replies funnel through the top node's NIC while the handler
    # thread is held (the fan-out happens inside _serve).
    stations.append(Station("top-nic-in", demand=top.inbound / _NIC_RATE, servers=1))
    assert top.reply is not None
    wan = (clients == "uc") != _on_uc(top.server.host)
    return _model(plan, p, top, stations, _legs(p, request, top.reply.size, wan=wan))


def model_for_plan(
    plan: DeploymentPlan, params: StudyParams | None = None, *,
    payload: _t.Any, request_size: int, clients: str = "uc",
) -> ServiceModel:
    """Build the fast-tier station model for a catalog plan.

    The caller says what its clients send: ``payload`` is driven through
    the plan's kernels, ``request_size`` bytes go on the wire, and
    ``clients`` (``"uc"`` or ``"lucky"``) places them — the series'
    ``Wiring`` row, as the exact tier's clients use it.

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
    if plan.system is System.MDS and isinstance(entry, AggregateSpec) and entry.variant == "default":
        raise FidelityError(
            f"plan {plan.name!r}: the exp4 GIIS aggregate (crash limits) "
            "needs the exact tier"
        )
    build = _tree_model if entry.variant == "fanout" else _flat_model
    return build(plan, p, payload, request_size, clients)


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

    Returns (X, R_total, R_in_server, conn_delay, queues); the connection
    overhead is an inner fixed point on the in-server concurrency.
    """
    q = [0.0] * len(model.stations)
    conn_delay = model.conn.latency(0) if model.conn else 0.0
    x = 0.0
    factor = (n - 1) / n if n > 0 else 0.0
    for _ in range(400):
        r_each, r_total, r_in = _residences(model, q, factor, conn_delay)
        x_new = n / (think + r_total)
        x = x_new if x == 0.0 else 0.5 * x + 0.5 * x_new
        converged = True
        for i in range(len(q)):
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
    _, r_total, r_in = _residences(model, q, factor, conn_delay)
    x = n / (think + r_total)
    return x, r_total, r_in, conn_delay, q


def _residences(
    model: ServiceModel, q: _t.Sequence[float], factor: float, conn_delay: float
) -> tuple[list[float], float, float]:
    """(per-station residence, total response, in-server residence) when an
    arrival sees queues ``q`` scaled by ``factor``.  Multi-server stations
    use the Seidmann reduction: queueing on demand/servers, the rest of
    the no-contention service as pure delay."""
    r_total = model.pre_delay + model.post_delay + conn_delay
    r_in = conn_delay
    r_each = []
    for st, qi in zip(model.stations, q):
        scale = 1.0 + st.convoy * _convoy_queue(model, st, qi)
        r = st.base_service * scale
        if st.servers != 0:
            r += st.demand * scale / st.servers * qi * factor
        r_each.append(r)
        r_total += r
        if st.in_server:
            r_in += r
    return r_each, r_total, r_in


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
    convoy_q = [_convoy_queue(model, st, qi) for st, qi in zip(model.stations, q)]
    load1, cpu_pct = host_load(model, x, q, convoy_q, runnable_cap)
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


def host_load(
    model: ServiceModel, x: float, queues: _t.Sequence[float],
    convoy_queues: _t.Sequence[float], runnable_cap: float,
) -> tuple[float, float]:
    """(steady-state load1, cpu%) of the monitored host, for both fast tiers.

    A CPU station adds its mean queue, up to ``runnable_cap`` runnable
    threads, to the run queue; a serialized hold adds the fraction of a
    thread it burns while busy, its hold scaled by its ``convoy_queues``.
    """
    load1 = 0.0
    cpu_seconds = 0.0
    for st, q, cq in zip(model.stations, queues, convoy_queues):
        scale = 1.0 + st.convoy * cq
        cpu_seconds += st.monitored_cpu * scale
        if st.load_queue:
            load1 += min(q, runnable_cap)
        elif st.load_util:
            load1 += min(float(st.servers or 1), x * (st.demand * scale)) * st.load_util
    cpu_pct = 100.0 * min(1.0, x * cpu_seconds / (model.cpus * model.cpu_rate))
    return load1, cpu_pct


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
    payload: _t.Any,
    request_size: int,
    clients: str = "uc",
    tier: str,
    params: StudyParams | None = None,
    seed: int = 1,
    warmup: float | None = None,
    window: float | None = None,
) -> PointResult:
    """One figure point on a fast fidelity tier.

    ``payload``, ``request_size`` and ``clients`` are the clients' facts
    (:func:`model_for_plan`).  ``tier`` is ``"cohort"`` or ``"meanfield"``;
    the result carries the tier and population on
    :attr:`~repro.core.runner.PointResult.fidelity` /
    :attr:`~repro.core.runner.PointResult.population`.
    """
    p = params or default_params()
    if tier not in FAST_TIERS:
        raise FidelityError(
            f"fast_point needs a fast tier {FAST_TIERS}, got {tier!r} "
            "(the exact tier runs through repro.core.runner.drive)"
        )
    default_warmup, default_window = measurement_window()
    warmup = default_warmup if warmup is None else warmup
    window = default_window if window is None else window
    model = model_for_plan(plan, p, payload=payload, request_size=request_size, clients=clients)
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


