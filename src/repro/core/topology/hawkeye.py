"""The Hawkeye adapter: plans onto Agent/Manager, ClassAd advertising.

The Manager plays both the aggregate and the directory role (Table 1);
its data plane is push-based, so the plan's edges compile into three
advertising styles:

* ``mode="local"`` — the Experiment-2 control plane: registered Agents
  synthesize Startd ads and hand them to a co-resident collector;
* ``mode="wire"`` — Experiment 4's ``hawkeye_advertise`` traffic:
  synthetic machine banks push ads through the Manager's ingest
  service at 30-second intervals;
* ``mode="resilient"`` — the fault experiments: advertisers carry a
  retry policy and delivery stats through Manager outages.
"""

from __future__ import annotations

import typing as _t

from repro.core.components import System
from repro.core.kernels.build import bank_placements
from repro.core.runner import ScenarioRun
from repro.core.topology.adapters import (
    CompileHooks,
    Deployment,
    PlanError,
    SystemAdapter,
    register_adapter,
    resolve_host,
)
from repro.core.topology.plan import DeploymentPlan, Edge, EdgeKind
from repro.errors import ReproError
from repro.hawkeye.advertise import synthesize_startd_ad
from repro.hawkeye.agent import Agent
from repro.hawkeye.manager import Manager
from repro.hawkeye.resilience import AdvertiserStats, resilient_advertiser
from repro.sim.rpc import Service, call

__all__ = ["HawkeyeAdapter"]


@register_adapter
class HawkeyeAdapter(SystemAdapter):
    system = System.HAWKEYE

    def activate(
        self, plan: DeploymentPlan, run: ScenarioRun, dep: Deployment, hooks: CompileHooks
    ) -> None:
        p = run.params.manager
        for edge in plan.edges:
            mode = edge.options.get("mode")
            if edge.kind is EdgeKind.REGISTRATION and mode == "local":
                self._spawn_local_advertiser(run, dep, edge, p)
            elif edge.kind is EdgeKind.REGISTRATION and mode == "resilient":
                self._spawn_resilient_advertiser(plan, run, dep, edge, hooks)
            elif edge.kind is EdgeKind.AGGREGATION and mode == "wire":
                self._spawn_wire_advertisers(plan, run, dep, edge, p)

    def _spawn_local_advertiser(
        self, run: ScenarioRun, dep: Deployment, edge: Edge, p: _t.Any
    ) -> None:
        """Experiment 2's in-process ad push (no wire, collector CPU only)."""
        agent: Agent = dep.objects[edge.source]
        manager: Manager = dep.objects[edge.target]
        manager_host = self.node_host(run, dep.plan.node(edge.target))
        interval = float(edge.options.get("interval", p.advertise_interval))
        ingest_cpu = p.ad_ingest_cpu

        def advertiser() -> _t.Generator:
            while True:
                yield run.sim.timeout(interval)
                ad, _answer = agent.make_startd_ad(now=run.sim.now)
                yield manager_host.compute(ingest_cpu)
                manager.receive_ad(ad, run.sim.now)

        run.sim.spawn(advertiser(), name=f"advertiser:{agent.machine}")

    def _spawn_resilient_advertiser(
        self,
        plan: DeploymentPlan,
        run: ScenarioRun,
        dep: Deployment,
        edge: Edge,
        hooks: CompileHooks,
    ) -> None:
        if hooks.advertise_retry is None:
            raise PlanError(
                f"edge {edge.source}->{edge.target} wants resilient advertisers; "
                "compile with an advertise_retry policy"
            )
        source = plan.node(edge.source)
        agent: Agent = dep.objects[edge.source]
        ingest = dep.services[f"{edge.target}:ingest"]
        st = AdvertiserStats(last_delivered=0.0)
        dep.extras.setdefault("advertiser_stats", []).append(st)
        label = edge.options.get("label", source.host or edge.source)
        run.sim.spawn(
            resilient_advertiser(
                run.sim,
                run.net,
                resolve_host(run, source.host or ""),
                ingest,
                agent,
                interval=float(edge.options.get("interval", 30.0)),
                retry=hooks.advertise_retry,
                stats=st,
            ),
            name=f"resilient-adv:{label}",
        )

    def _spawn_wire_advertisers(
        self, plan: DeploymentPlan, run: ScenarioRun, dep: Deployment, edge: Edge, p: _t.Any
    ) -> None:
        """Experiment 4's hawkeye_advertise pushes from a synthetic bank."""
        source = plan.node(edge.source)
        manager: Manager = dep.objects[edge.target]
        ingest: Service = dep.services[f"{edge.target}:ingest"]
        placements = bank_placements(source)
        machine_format = source.options.get("machine_format", source.name + "{i}")
        interval = float(edge.options.get("interval", p.advertise_interval))
        stream_key = edge.options.get("offset_stream", ("advertisers", source.name))
        rng = run.rng.stream(*stream_key)

        def advertiser(machine: str, host: _t.Any, offset: float) -> _t.Generator:
            local_rng = run.rng.stream("ad", machine)
            ad = synthesize_startd_ad(machine, local_rng, now=0.0)
            manager.receive_ad(ad, now=0.0)  # pool is warm at t=0
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
                        size=p.ad_wire_bytes,
                    )
                except ReproError:
                    pass  # a dropped ad is just a missed update
                yield run.sim.timeout(interval)

        for i in range(source.replicas):
            machine = machine_format.format(i=i)
            host = resolve_host(run, placements[i % len(placements)])
            offset = float(rng.uniform(0.0, interval))
            run.sim.spawn(advertiser(machine, host, offset), name=f"adv:{machine}")
