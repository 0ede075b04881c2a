"""Declarative deployment plans: Table 1 as buildable topology.

A :class:`DeploymentPlan` says *what* an experiment deploys — typed
node specs keyed by the paper's four functional roles, explicit edges
for the relationships the paper names (registration, aggregation,
mediation) plus collection (collector banks feeding a server), and
placement onto the Lucky/UC testbed.  It says nothing about *how* a
system realizes those roles: that is the compile phases' job
(:mod:`repro.core.kernels.build`, hosted on the DES by
:mod:`repro.core.topology.adapters`), which turn a validated plan into
functional objects, services, background loops (soft-state
registration, advertising, publishing) and retry attachment points.

Validation enforces Table 1 itself: asking R-GMA for an aggregate
information server is a :class:`PlanError`, exactly as the table's
empty cell says.
"""

from __future__ import annotations

import enum
import typing as _t
from dataclasses import dataclass, field

from repro.core.components import Role, System, component_for
from repro.core.testbed import LUCKY_NAMES

__all__ = [
    "PlanError",
    "FIDELITY_TIERS",
    "EdgeKind",
    "NodeSpec",
    "CollectorSpec",
    "ServerSpec",
    "AggregateSpec",
    "DirectorySpec",
    "Edge",
    "DeploymentPlan",
]


class PlanError(ValueError):
    """A deployment plan that cannot exist (Table 1 or structure says no)."""


# Simulation fidelity tiers a plan runs on (docs/FIDELITY.md):
#
# * ``exact``     — the discrete-event simulation, one process per client
#   and per request (the default; every committed figure table uses it);
# * ``cohort``    — numpy-vectorized client cohorts stepped in event
#   epochs against the same cost model (:mod:`repro.sim.cohort`);
# * ``meanfield`` — fixed-point throughput/response/load equations over
#   the same cost model (:mod:`repro.core.fidelity`), for populations no
#   per-client engine can reach.
FIDELITY_TIERS = ("exact", "cohort", "meanfield")


class EdgeKind(enum.Enum):
    """The relationships between Table-1 roles that plans can express."""

    COLLECTION = "collection"  # collector bank -> information server
    REGISTRATION = "registration"  # info server -> directory/aggregate (soft state)
    AGGREGATION = "aggregation"  # info server / child aggregate -> aggregate
    MEDIATION = "mediation"  # mediator -> information server (R-GMA CS -> PS)


@dataclass(frozen=True)
class NodeSpec:
    """One deployed component; subclasses pin the Table-1 role.

    ``host`` is a testbed placement — a Lucky shortname (``"lucky7"``)
    or ``"uc:<i>"`` for the i-th UC client machine — or None when the
    compiler places replicas itself (``options["hosts"]``) or the node
    never leaves its process (in-process pullers).

    ``replicas`` turns a spec into a bank (the paper's "multiple
    instances at each Lucky node"); per-replica names/hosts/seeds come
    from ``options`` format strings interpreted by the compiler.

    ``expose`` controls whether the node gets a network service of its
    own; ``tracked`` whether that service joins the run's crash
    accounting; ``fault_target`` marks where a scenario's
    :class:`~repro.core.scenario.model.FaultModel` lands (and which
    node is the server under study, :meth:`DeploymentPlan.server`).
    """

    name: str
    host: str | None = None
    variant: str = "default"
    seed: int = 0
    replicas: int = 1
    expose: bool = True
    tracked: bool = True
    fault_target: bool = False
    options: dict[str, _t.Any] = field(default_factory=dict)

    role: _t.ClassVar[Role]


@dataclass(frozen=True)
class CollectorSpec(NodeSpec):
    """An information-collector bank (providers / modules / producers)."""

    count: int = 10
    flavor: str = "replicated"  # "replicated" clones; "default" canonical set

    role: _t.ClassVar[Role] = Role.INFORMATION_COLLECTOR


@dataclass(frozen=True)
class ServerSpec(NodeSpec):
    """An information server (GRIS / ProducerServlet / Agent).

    ``variant="mediator"`` is the R-GMA ConsumerServlet (still an
    information server in Table-1 terms, fronting another one).
    ``cached``/``primed`` are the paper's cachettl knob and the
    prime-before-measuring step.
    """

    cached: bool = True
    primed: bool = False

    role: _t.ClassVar[Role] = Role.INFORMATION_SERVER


@dataclass(frozen=True)
class AggregateSpec(NodeSpec):
    """An aggregate information server (GIIS / Manager).

    Variants: ``default`` (the paper's serialized query-all backend),
    ``leaf`` (subtree aggregate with CPU-only assembly), ``fanout``
    (interior node forwarding to child aggregates concurrently).
    """

    primed: bool = False
    query_part: bool = False

    role: _t.ClassVar[Role] = Role.AGGREGATE_INFORMATION_SERVER


@dataclass(frozen=True)
class DirectorySpec(NodeSpec):
    """A directory server (GIIS / Registry / Manager)."""

    primed: bool = False

    role: _t.ClassVar[Role] = Role.DIRECTORY_SERVER


# Structural typing rules for edges: kind -> (allowed source roles,
# allowed target roles).
_EDGE_RULES: dict[EdgeKind, tuple[frozenset[Role], frozenset[Role]]] = {
    EdgeKind.COLLECTION: (
        frozenset({Role.INFORMATION_COLLECTOR}),
        frozenset({Role.INFORMATION_SERVER}),
    ),
    EdgeKind.REGISTRATION: (
        frozenset({Role.INFORMATION_SERVER}),
        frozenset({Role.DIRECTORY_SERVER, Role.AGGREGATE_INFORMATION_SERVER}),
    ),
    EdgeKind.AGGREGATION: (
        frozenset({Role.INFORMATION_SERVER, Role.AGGREGATE_INFORMATION_SERVER}),
        frozenset({Role.AGGREGATE_INFORMATION_SERVER}),
    ),
    EdgeKind.MEDIATION: (
        frozenset({Role.INFORMATION_SERVER}),
        frozenset({Role.INFORMATION_SERVER}),
    ),
}


@dataclass(frozen=True)
class Edge:
    """A typed relationship between two plan nodes.

    ``options`` carry the edge's protocol knobs — registration labels
    and TTLs, soft-state renewal intervals, advertise modes — which the
    compile phases interpret.
    """

    kind: EdgeKind
    source: str
    target: str
    options: dict[str, _t.Any] = field(default_factory=dict)


def _check_placement(where: str, placement: _t.Any) -> None:
    if not isinstance(placement, str):
        raise PlanError(f"{where}: placement must be a string, got {placement!r}")
    if placement.startswith("uc:"):
        try:
            index = int(placement[3:])
        except ValueError:
            index = -1
        if index < 0:
            raise PlanError(f"{where}: bad UC placement {placement!r} (want 'uc:<i>')")
        return
    if placement not in LUCKY_NAMES:
        raise PlanError(
            f"{where}: unknown testbed host {placement!r} "
            f"(Lucky nodes are {', '.join(LUCKY_NAMES)}; UC clients are 'uc:<i>')"
        )


@dataclass(frozen=True)
class DeploymentPlan:
    """A complete, validatable description of one deployment.

    ``entry`` names the node whose primary service the measured
    workload drives (the figure's server under study).
    """

    system: System
    name: str
    nodes: tuple[NodeSpec, ...]
    edges: tuple[Edge, ...] = ()
    entry: str = ""
    description: str = ""

    # -- lookups -----------------------------------------------------------

    def node(self, name: str) -> NodeSpec:
        for spec in self.nodes:
            if spec.name == name:
                return spec
        raise KeyError(f"plan {self.name!r} has no node {name!r}")

    def server(self) -> NodeSpec:
        """The server under study: the single ``fault_target`` node, else the entry."""
        (spec,) = [spec for spec in self.nodes if spec.fault_target] or [self.node(self.entry)]
        return spec

    def routed_mediators(self) -> list[NodeSpec]:
        """The mediators clients are routed to, one per mediator's host.

        When the plan has ``variant="mediator"`` servers and the entry is
        not one of them (the rgma-ps-lucky consumer layout), each client
        talks to the mediator co-located on its own node.  Otherwise
        nothing is routed and the list is empty.
        """
        mediators = [
            spec for spec in self.nodes if isinstance(spec, ServerSpec) and spec.variant == "mediator"
        ]
        if any(spec.name == self.entry for spec in mediators):
            return []
        return mediators

    def nodes_by_role(self, role: Role) -> list[NodeSpec]:
        return [spec for spec in self.nodes if spec.role is role]

    def edges_from(self, name: str, kind: EdgeKind | None = None) -> list[Edge]:
        return [
            e for e in self.edges if e.source == name and (kind is None or e.kind is kind)
        ]

    def edges_to(self, name: str, kind: EdgeKind | None = None) -> list[Edge]:
        return [
            e for e in self.edges if e.target == name and (kind is None or e.kind is kind)
        ]

    # -- validation --------------------------------------------------------

    def validate(self) -> "DeploymentPlan":
        """Raise :class:`PlanError` unless the plan can be deployed."""
        names: set[str] = set()
        for spec in self.nodes:
            if spec.name in names:
                raise PlanError(f"duplicate node name {spec.name!r}")
            names.add(spec.name)
            component = component_for(self.system, spec.role)
            if component is None:
                raise PlanError(
                    f"node {spec.name!r}: {self.system.value} has no "
                    f"{spec.role.value} (Table 1)"
                )
            if spec.replicas < 1:
                raise PlanError(f"node {spec.name!r}: replicas must be >= 1")
            if spec.host is not None:
                _check_placement(f"node {spec.name!r}", spec.host)
            for placement in spec.options.get("hosts", ()):
                _check_placement(f"node {spec.name!r} bank", placement)
        if not self.entry:
            raise PlanError(f"plan {self.name!r} has no entry node")
        if self.entry not in names:
            raise PlanError(f"entry {self.entry!r} is not a node of plan {self.name!r}")
        if self.node(self.entry).role is Role.INFORMATION_COLLECTOR:
            raise PlanError(f"entry {self.entry!r} is a collector; collectors serve no queries")
        for edge in self.edges:
            for endpoint in (edge.source, edge.target):
                if endpoint not in names:
                    raise PlanError(
                        f"edge {edge.kind.value} {edge.source}->{edge.target}: "
                        f"unknown node {endpoint!r}"
                    )
            src_roles, tgt_roles = _EDGE_RULES[edge.kind]
            if self.node(edge.source).role not in src_roles:
                raise PlanError(
                    f"edge {edge.kind.value} {edge.source}->{edge.target}: "
                    f"source role {self.node(edge.source).role.value!r} not allowed"
                )
            if self.node(edge.target).role not in tgt_roles:
                raise PlanError(
                    f"edge {edge.kind.value} {edge.source}->{edge.target}: "
                    f"target role {self.node(edge.target).role.value!r} not allowed"
                )
        return self

    # -- rendering ---------------------------------------------------------

    def describe(self) -> str:
        """Human-readable rendering (the ``repro-topology show`` output)."""
        lines = [f"plan {self.name!r} [{self.system.value}]"]
        if self.description:
            lines.append(f"  {self.description}")
        lines.append(f"entry: {self.entry}")
        lines.append("nodes:")
        for spec in self.nodes:
            component = component_for(self.system, spec.role) or "-"
            where = spec.host or ("bank" if spec.options.get("hosts") else "-")
            bits = [f"  {spec.name:<16} {spec.role.value} ({component}) @{where}"]
            if spec.variant != "default":
                bits.append(f"variant={spec.variant}")
            if spec.replicas != 1:
                bits.append(f"x{spec.replicas}")
            if isinstance(spec, CollectorSpec):
                bits.append(f"count={spec.count}")
            if not spec.expose and not isinstance(spec, CollectorSpec):
                bits.append("[in-process]")
            if spec.fault_target:
                bits.append("[fault-target]")
            lines.append(" ".join(bits))
        lines.append("edges:")
        for edge in self.edges:
            opts = ""
            if edge.options:
                opts = " {" + ", ".join(f"{k}={v}" for k, v in edge.options.items()) + "}"
            lines.append(f"  {edge.source} -> {edge.target}  [{edge.kind.value}]{opts}")
        return "\n".join(lines)
