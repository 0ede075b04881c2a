"""The R-GMA adapter: plans onto ProducerServlet/Registry/ConsumerServlet.

R-GMA has no aggregate information server (Table 1's empty cell —
plan validation enforces it), but it has the study's only *mediator*:
the ConsumerServlet, an information server fronting another one.
Mediation edges carry the CS->PS hop and its retry attachment point;
registration edges attach producers to the Registry with leases.
"""

from __future__ import annotations

import typing as _t

from repro.core.components import System
from repro.core.runner import ScenarioRun
from repro.core.topology.adapters import (
    CompileHooks,
    Deployment,
    SystemAdapter,
    register_adapter,
)
from repro.core.topology.plan import DeploymentPlan, ServerSpec
from repro.rgma.producer_servlet import ProducerServlet

__all__ = ["RgmaAdapter"]


@register_adapter
class RgmaAdapter(SystemAdapter):
    system = System.RGMA

    def _finalize(self, plan: DeploymentPlan, run: ScenarioRun, dep: Deployment) -> None:
        super()._finalize(plan, run, dep)
        # Per-host mediator routing (the rgma-ps-lucky consumer layout):
        # when the entry is the anchor PS, clients talk to the mediator
        # co-located on their own node.
        mediators = [
            spec
            for spec in plan.nodes
            if isinstance(spec, ServerSpec) and spec.variant == "mediator"
        ]
        if mediators and plan.entry not in {spec.name for spec in mediators}:
            for spec in mediators:
                dep.routes[self.node_host(run, spec)] = dep.services[spec.name]

    def activate(
        self, plan: DeploymentPlan, run: ScenarioRun, dep: Deployment, hooks: CompileHooks
    ) -> None:
        for spec in plan.nodes:
            if not (
                isinstance(spec, ServerSpec)
                and spec.variant == "default"
                and spec.options.get("publisher")
            ):
                continue
            servlet: ProducerServlet = dep.objects[spec.name]
            host = self.node_host(run, spec)
            interval = float(spec.options.get("publish_interval", 30.0))

            def publisher(
                servlet: ProducerServlet = servlet, host=host, interval: float = interval
            ) -> _t.Generator:
                while True:
                    yield run.sim.timeout(interval)
                    count = servlet.publish_all(now=run.sim.now)
                    # Buffer inserts burn a little CPU on the servlet host.
                    yield host.compute(0.0008 * count)

            run.sim.spawn(publisher(), name=f"publisher:{servlet.name}")
