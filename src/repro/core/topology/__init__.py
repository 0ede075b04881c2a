"""Declarative topology / deployment plane (Table 1 as code).

An experiment is a :class:`DeploymentPlan` — typed node specs keyed by
the paper's four functional roles, explicit registration / aggregation
/ mediation edges, and placement onto the Lucky/UC testbed — compiled
by :func:`compile_plan` into the repo's functional objects, simulated
:class:`~repro.sim.rpc.Service` instances and background processes.

The compiler re-exports resolve lazily (PEP 562) so the pure plan layer —
:mod:`~repro.core.topology.plan`, :mod:`~repro.core.topology.catalog`,
:mod:`~repro.core.topology.planfile` — stays importable without the
simulator; the runtime-agnostic kernels and the live plane depend on
that.
"""

import importlib

# Names served by the pure plan module (sim-free).
_PLAN_ATTRS = {
    "FIDELITY_TIERS",
    "AggregateSpec",
    "CollectorSpec",
    "DeploymentPlan",
    "DirectorySpec",
    "Edge",
    "EdgeKind",
    "NodeSpec",
    "PlanError",
    "ServerSpec",
}

# Names served by the DES compiler (pulls in the simulator).
_COMPILE_ATTRS = {"Deployment", "SystemAdapter", "compile_plan", "resolve_host"}

__all__ = sorted(_PLAN_ATTRS | _COMPILE_ATTRS)


def __getattr__(name: str):
    if name in _PLAN_ATTRS:
        module = importlib.import_module("repro.core.topology.plan")
    elif name in _COMPILE_ATTRS:
        module = importlib.import_module("repro.core.topology.adapters")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
