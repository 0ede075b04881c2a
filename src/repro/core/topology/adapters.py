"""Plan compilation: per-system adapters turn plans into running pieces.

A :class:`SystemAdapter` compiles a validated
:class:`~repro.core.topology.plan.DeploymentPlan` against a fresh
:class:`~repro.core.runner.ScenarioRun` in four phases.  The first three
are runtime-free and shared with the live plane
(:mod:`repro.core.kernels.build`):

1. **materialize** — build the functional objects (GRIS, Manager,
   ProducerServlet, ...) for every node spec, in declaration order;
2. **connect** — apply the plan's edges: registrations (with labels and
   TTLs), producer attachment, agent registration, then cache priming;
3. **expose** — pick the kernel behind every exposed node and side
   door; this runtime's whole share is the wrap, one
   :func:`~repro.core.desruntime.kernel_service` per yielded
   :class:`~repro.core.kernels.ops.KernelSpec`, with simulator
   :class:`~repro.sim.resources.Mutex` locks;
4. **activate** — the only per-system phase: spawn the background
   processes (publishers, advertisers, soft-state registrars, lease
   sweepers) in an order that exactly matches the hand-written
   experiment wiring (``tests/core/legacy_wiring.py``), so a compiled
   deployment is event-for-event identical to it.

Retry policies for the plan's attachment points (CS->PS mediation,
soft-state registration, resilient advertising) are workload-dependent,
so the caller builds them and passes them into :func:`compile_plan`.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.core.desruntime import kernel_service
from repro.core.kernels.build import connect_plan, expose_plan, materialize_plan
from repro.core.runner import ScenarioRun
from repro.core.topology.plan import DeploymentPlan, NodeSpec, PlanError
from repro.sim.host import Host
from repro.sim.resources import Mutex
from repro.sim.rpc import RetryPolicy, Service

if _t.TYPE_CHECKING:
    from repro.core.components import System

__all__ = [
    "CompileHooks",
    "Deployment",
    "SystemAdapter",
    "ADAPTERS",
    "register_adapter",
    "compile_plan",
    "resolve_host",
]


def resolve_host(run: ScenarioRun, placement: str) -> Host:
    """Map a plan placement string to a testbed Host."""
    if placement.startswith("uc:"):
        return run.testbed.uc[int(placement[3:])]
    return run.testbed.lucky[placement]


@dataclass(frozen=True)
class CompileHooks:
    """Workload-dependent knobs the caller wires into the compile.

    These are the plan's fault/retry attachment points: the retry
    policies ride RNG streams keyed by (system, users), which only the
    experiment driver knows.
    """

    mediation_retry: RetryPolicy | None = None  # R-GMA CS -> PS hop
    registration_retry: RetryPolicy | None = None  # MDS soft-state registrars
    advertise_retry: RetryPolicy | None = None  # Hawkeye resilient advertisers


@dataclass
class Deployment:
    """A compiled plan: live objects, services and routing, ready to drive."""

    plan: DeploymentPlan
    run: ScenarioRun
    objects: dict[str, _t.Any] = field(default_factory=dict)
    services: dict[str, Service] = field(default_factory=dict)
    entry: Service | None = None
    fault_services: list[Service] = field(default_factory=list)
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


class SystemAdapter:
    """Base compiler: the shared phases; subclasses add ``activate``."""

    system: _t.ClassVar["System"]

    def compile(
        self,
        plan: DeploymentPlan,
        run: ScenarioRun,
        hooks: CompileHooks | None = None,
    ) -> Deployment:
        if plan.system is not self.system:
            raise PlanError(
                f"{type(self).__name__} compiles {self.system.value} plans, "
                f"got a {plan.system.value} plan"
            )
        plan.validate()
        hooks = hooks or CompileHooks()
        dep = Deployment(plan=plan, run=run)
        materialize_plan(plan, dep.objects, dep.extras)
        connect_plan(plan, dep.objects, dep.extras)
        self.expose(plan, run, dep, hooks)
        self.activate(plan, run, dep, hooks)
        self._finalize(plan, run, dep)
        return dep

    def expose(
        self, plan: DeploymentPlan, run: ScenarioRun, dep: Deployment, hooks: CompileHooks
    ) -> None:
        """Wrap every kernel the shared expose phase yields in a Service."""
        for name, spec, kernel_spec in expose_plan(
            plan,
            dep.objects,
            dep.extras,
            run.params,
            make_lock=lambda lock_name: Mutex(run.sim, name=lock_name),
            wire=False,
            mediation_retry=hooks.mediation_retry,
            services=dep.services,
        ):
            dep.services[name] = kernel_service(
                run.sim, run.net, self.node_host(run, spec), kernel_spec
            )

    def activate(
        self, plan: DeploymentPlan, run: ScenarioRun, dep: Deployment, hooks: CompileHooks
    ) -> None:
        pass  # many plans have no background processes

    # Shared epilogue --------------------------------------------------------

    def _finalize(self, plan: DeploymentPlan, run: ScenarioRun, dep: Deployment) -> None:
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
        for spec in plan.nodes:
            if spec.fault_target:
                dep.fault_services.extend(dep.node_services(spec.name))

    # Helpers shared by the system adapters ---------------------------------

    @staticmethod
    def node_host(run: ScenarioRun, spec: NodeSpec) -> Host:
        if spec.host is None:
            raise PlanError(f"node {spec.name!r} needs a placement to expose a service")
        return resolve_host(run, spec.host)


ADAPTERS: dict["System", SystemAdapter] = {}


def register_adapter(cls: type[SystemAdapter]) -> type[SystemAdapter]:
    """Class decorator: register an adapter instance for its system."""
    ADAPTERS[cls.system] = cls()
    return cls


def compile_plan(
    plan: DeploymentPlan,
    run: ScenarioRun,
    *,
    mediation_retry: RetryPolicy | None = None,
    registration_retry: RetryPolicy | None = None,
    advertise_retry: RetryPolicy | None = None,
) -> Deployment:
    """Compile ``plan`` into ``run`` with the system's registered adapter."""
    try:
        adapter = ADAPTERS[plan.system]
    except KeyError:
        raise PlanError(
            f"no adapter registered for {plan.system.value}; "
            "import repro.core.topology to load the built-in adapters"
        ) from None
    hooks = CompileHooks(
        mediation_retry=mediation_retry,
        registration_retry=registration_retry,
        advertise_retry=advertise_retry,
    )
    return adapter.compile(plan, run, hooks)
