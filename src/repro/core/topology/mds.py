"""The MDS adapter: plans onto GRIS/GIIS, LDAP-style soft state.

MDS realizes Table 1 with two components: the GRIS (information
server; providers forked under slapd) and the GIIS, which plays both
the aggregate and the directory role.  Registration edges become
``giis.register`` soft-state entries; edges marked ``soft_state`` also
get an over-the-wire registrar loop plus the GIIS's registration
service and lease sweeper — the fault-experiment control plane.
"""

from __future__ import annotations

import typing as _t

from repro.core.components import System
from repro.core.runner import ScenarioRun
from repro.core.topology.adapters import (
    CompileHooks,
    Deployment,
    PlanError,
    SystemAdapter,
    register_adapter,
    resolve_host,
)
from repro.core.topology.plan import DeploymentPlan, EdgeKind
from repro.mds.giis import GIIS
from repro.mds.resilience import RegistrarStats, soft_state_registrar

__all__ = ["MdsAdapter"]


@register_adapter
class MdsAdapter(SystemAdapter):
    system = System.MDS

    # -- phase 4: background processes ---------------------------------------

    def activate(
        self, plan: DeploymentPlan, run: ScenarioRun, dep: Deployment, hooks: CompileHooks
    ) -> None:
        swept: list[str] = []
        # Scenario churn marks nodes down here; registrars consult it
        # through their gate, so a churned-out GRIS goes silent and its
        # lease expires server-side like a crashed daemon's.
        node_down: set[str] = dep.extras.setdefault("node_down", set())
        for edge in plan.edges:
            if edge.kind is not EdgeKind.REGISTRATION or not edge.options.get("soft_state"):
                continue
            if hooks.registration_retry is None:
                raise PlanError(
                    f"edge {edge.source}->{edge.target} wants soft-state registrars; "
                    "compile with a registration_retry policy"
                )
            source = plan.node(edge.source)
            label = edge.options.get("label", edge.source)
            reg_service = dep.services[f"{edge.target}:registration"]
            st = RegistrarStats(registered=True, last_confirmed=0.0)
            dep.extras.setdefault("registrar_stats", []).append(st)
            run.sim.spawn(
                soft_state_registrar(
                    run.sim,
                    run.net,
                    resolve_host(run, source.host or ""),
                    reg_service,
                    label,
                    interval=float(edge.options["interval"]),
                    ttl=float(edge.options["ttl"]),
                    retry=hooks.registration_retry,
                    stats=st,
                    gate=lambda node=edge.source: node not in node_down,
                ),
                name=f"registrar:{label}",
            )
            if edge.target not in swept:
                swept.append(edge.target)
        for target in swept:
            giis: GIIS = dep.objects[target]

            def lease_sweeper(giis: GIIS = giis) -> _t.Generator:
                while True:
                    yield run.sim.timeout(1.0)
                    giis.sweep(run.sim.now)

            run.sim.spawn(lease_sweeper(), name="giis-sweep")
