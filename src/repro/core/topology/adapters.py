"""Plan compilation onto the DES: the shared phases, wrapped and hosted.

:class:`SystemAdapter` compiles a validated
:class:`~repro.core.topology.plan.DeploymentPlan` against a fresh
:class:`~repro.core.runner.ScenarioRun`.  All four phases are
runtime-free and shared with the live plane
(:mod:`repro.core.kernels.build`); this runtime owns only the wrap and
the host:

1. **materialize** — build the functional objects (GRIS, Manager,
   ProducerServlet, ...) for every node spec, in declaration order;
2. **connect** — apply the plan's edges: registrations (with labels and
   TTLs), producer attachment, agent registration, then cache priming;
3. **expose** — the wrap: one :func:`~repro.core.desruntime.kernel_service`
   per yielded :class:`~repro.core.kernels.ops.KernelSpec`, with
   simulator :class:`~repro.sim.resources.Mutex` locks;
4. **activate** — the host: ``sim.spawn`` every background loop
   (publishers, advertisers, soft-state registrars, lease sweepers) on
   its testbed node through :func:`~repro.core.desruntime.interpret`,
   in an order that exactly matches the hand-written experiment oracle
   in ``tests/core/``, so a compiled deployment is event-for-event
   identical to it.

Retry policies for the plan's attachment points (CS->PS mediation,
soft-state registration, resilient advertising) are workload-dependent,
so the caller builds them and passes them into :func:`compile_plan`.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.core.desruntime import interpret, kernel_service
from repro.core.kernels.build import (
    activate_plan,
    connect_plan,
    expose_plan,
    materialize_plan,
)
from repro.core.runner import ScenarioRun
from repro.core.topology.plan import DeploymentPlan, NodeSpec, PlanError, ServerSpec
from repro.sim.host import Host
from repro.sim.resources import Mutex
from repro.sim.rpc import RetryPolicy, Service

__all__ = ["Deployment", "SystemAdapter", "compile_plan", "resolve_host"]


def resolve_host(run: ScenarioRun, placement: str) -> Host:
    """Map a plan placement string to a testbed Host."""
    if placement.startswith("uc:"):
        return run.testbed.uc[int(placement[3:])]
    return run.testbed.lucky[placement]


def _node_host(run: ScenarioRun, spec: NodeSpec) -> Host:
    if spec.host is None:
        raise PlanError(f"node {spec.name!r} needs a placement to expose a service")
    return resolve_host(run, spec.host)


@dataclass
class Deployment:
    """A compiled plan: live objects, services and routing, ready to drive."""

    plan: DeploymentPlan
    run: ScenarioRun
    objects: dict[str, _t.Any] = field(default_factory=dict)
    services: dict[str, Service] = field(default_factory=dict)
    entry: Service | None = None
    routes: dict[Host, Service] = field(default_factory=dict)
    extras: dict[str, _t.Any] = field(default_factory=dict)

    @property
    def routed(self) -> bool:
        """True when clients should be mapped to per-host mediators."""
        return bool(self.routes)

    def route(self, client: Host) -> Service:
        """The service a client on ``client`` should talk to."""
        service = self.routes.get(client, self.entry)
        assert service is not None
        return service

    def node_services(self, name: str) -> list[Service]:
        """All services a node exposes: primary first, then variants."""
        out = []
        if name in self.services:
            out.append(self.services[name])
        prefix = f"{name}:"
        out.extend(svc for key, svc in self.services.items() if key.startswith(prefix))
        return out

    @property
    def fault_targets(self) -> list[Service]:
        """The services of the plan's ``fault_target`` nodes: where a
        scenario's injected faults land."""
        return [
            svc
            for spec in self.plan.nodes
            if spec.fault_target
            for svc in self.node_services(spec.name)
        ]


class SystemAdapter:
    """The DES compiler: every system's plan through the four shared phases."""

    def compile(
        self,
        plan: DeploymentPlan,
        run: ScenarioRun,
        *,
        mediation_retry: RetryPolicy | None = None,
        registration_retry: RetryPolicy | None = None,
        advertise_retry: RetryPolicy | None = None,
    ) -> Deployment:
        plan.validate()
        dep = Deployment(plan=plan, run=run)
        materialize_plan(plan, dep.objects, dep.extras)
        connect_plan(plan, dep.objects, dep.extras)
        for name, spec, kernel_spec in expose_plan(
            plan,
            dep.objects,
            dep.extras,
            run.params,
            make_lock=lambda lock_name: Mutex(run.sim, name=lock_name),
            wire=False,
            mediation_retry=mediation_retry,
            services=dep.services,
        ):
            dep.services[name] = kernel_service(
                run.sim, run.net, _node_host(run, spec), kernel_spec
            )
        for name, placement, factory in activate_plan(
            plan,
            dep.objects,
            dep.extras,
            run.params,
            services=dep.services,
            stream=run.rng.stream,
            registration_retry=registration_retry,
            advertise_retry=advertise_retry,
        ):
            host = resolve_host(run, placement)
            run.sim.spawn(interpret(run.sim, run.net, host, factory), name=name)
        self._finalize(plan, run, dep)
        return dep

    @staticmethod
    def _finalize(plan: DeploymentPlan, run: ScenarioRun, dep: Deployment) -> None:
        if plan.entry not in dep.services:
            raise PlanError(
                f"plan {plan.name!r}: entry node {plan.entry!r} exposed no service"
            )
        dep.entry = dep.services[plan.entry]
        for spec in plan.nodes:
            if not spec.tracked:
                continue
            if spec.name in dep.services:
                run.services[spec.name] = dep.services[spec.name]
            prefix = f"{spec.name}:"
            for key, svc in dep.services.items():
                if key.startswith(prefix):
                    run.services[key] = svc
        # Per-host mediator routing (the rgma-ps-lucky consumer layout):
        # when the entry is not itself a mediator, clients talk to the
        # mediator co-located on their own node.
        mediators = [
            spec
            for spec in plan.nodes
            if isinstance(spec, ServerSpec) and spec.variant == "mediator"
        ]
        if mediators and plan.entry not in {spec.name for spec in mediators}:
            for spec in mediators:
                dep.routes[_node_host(run, spec)] = dep.services[spec.name]


_COMPILER = SystemAdapter()


def compile_plan(
    plan: DeploymentPlan,
    run: ScenarioRun,
    *,
    mediation_retry: RetryPolicy | None = None,
    registration_retry: RetryPolicy | None = None,
    advertise_retry: RetryPolicy | None = None,
) -> Deployment:
    """Compile ``plan`` into ``run``: wrapped services plus hosted loops."""
    return _COMPILER.compile(
        plan,
        run,
        mediation_retry=mediation_retry,
        registration_retry=registration_retry,
        advertise_retry=advertise_retry,
    )
