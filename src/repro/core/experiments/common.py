"""Shared point wiring and sweep-execution helpers.

:data:`WIRING` is the one table that turns a system name into a driven
point (plan, payload, request size, client placement, user cap) for the
Exp-1/2 series and the two control planes; client placement helpers
serve every experiment set.  :func:`sweep_points` is the one sweep loop
they all share — it fans independent points out through
:mod:`repro.core.parallel` (process pool + point cache) and merges the
results in submission order, byte-identical to a serial loop.

Passing ``adaptive=`` to :func:`sweep_points` (or to any experiment's
``sweep()``) switches the whole sweep to the adaptive measurement mode:
every point is replicated across seeds until its confidence interval
converges (:func:`repro.core.stats.adaptive_replications`), each
replication detecting its own steady-state window, and the reduced
:class:`~repro.core.runner.PointResult` reports replication means with
CI half-widths on :attr:`~repro.core.runner.PointResult.ci`.
"""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass, replace

from repro.core.parallel import PointSpec, run_specs
from repro.core.runner import PointResult, ScenarioRun
from repro.core.stats import (
    AdaptiveConfig,
    AdaptiveEstimate,
    adaptive_replications,
    summarize_replications,
)
from repro.core.testbed import assign_users_to_clients
from repro.core.topology.catalog import (
    advertise_fault_plan,
    exp1_plan,
    exp2_plan,
    registration_fault_plan,
)
from repro.core.topology.plan import DeploymentPlan
from repro.sim.host import Host

__all__ = [
    "UC_VARIANT_MAX_USERS",
    "WIRING",
    "Wiring",
    "wiring",
    "server_node",
    "within_cap",
    "sweep_points",
    "adaptive_sweep_points",
    "adaptive_point",
    "uc_clients",
    "lucky_clients",
]

# The paper could only drive ~100 UC consumers through one ConsumerServlet.
UC_VARIANT_MAX_USERS = 100


@dataclass(frozen=True)
class Wiring:
    """How one system name becomes a driven point.

    The server under study (the monitored host) is not listed: it is
    the host of the plan's single ``fault_target`` node
    (:func:`server_node`).
    """

    plan: _t.Callable[[str, int], DeploymentPlan]  # (system, seed) -> plan
    payload: dict[str, str]  # every user's request
    request_size: str  # the StudyParams section whose request_size users send
    clients: str = "uc"  # "uc", or "lucky": every Lucky node but the server's
    max_users: float = math.inf


_ALL = {"filter": "(objectclass=*)"}
_HOSTS = {"filter": "(objectclass=MdsHost)"}
_SQL = {"sql": "SELECT * FROM cpuLoad"}
_TABLE = {"table": "cpuLoad"}
_MACHINE = {"machine": "lucky4.mcs.anl.gov"}

WIRING: dict[str, Wiring] = {
    # Experiment 1 (Figures 5-8): information servers.
    "mds-gris-cache": Wiring(exp1_plan, _ALL, "gris"),
    "mds-gris-nocache": Wiring(exp1_plan, _ALL, "gris"),
    "hawkeye-agent": Wiring(exp1_plan, {"query": "status"}, "agent"),
    "rgma-ps-lucky": Wiring(exp1_plan, _SQL, "consumer_servlet", clients="lucky"),
    "rgma-ps-uc": Wiring(exp1_plan, _SQL, "consumer_servlet", max_users=UC_VARIANT_MAX_USERS),
    # Experiment 2 (Figures 9-12): directory servers.
    "mds-giis": Wiring(exp2_plan, _HOSTS, "giis"),
    "hawkeye-manager": Wiring(exp2_plan, _MACHINE, "manager"),
    "rgma-registry-lucky": Wiring(exp2_plan, _TABLE, "registry", clients="lucky"),
    "rgma-registry-uc": Wiring(exp2_plan, _TABLE, "registry", max_users=UC_VARIANT_MAX_USERS),
    # The control planes: directory queries while registrants keep
    # soft-state leases (MDS) or push ads over the wire (Hawkeye).
    "mds-registration": Wiring(lambda _, seed: registration_fault_plan(seed), _HOSTS, "giis"),
    "hawkeye-advertise": Wiring(lambda _, seed: advertise_fault_plan(seed), _MACHINE, "manager"),
}


def wiring(system: str) -> Wiring:
    """The :data:`WIRING` entry for ``system`` (ValueError naming the set)."""
    try:
        return WIRING[system]
    except KeyError:
        raise ValueError(f"unknown system {system!r}; pick from {tuple(WIRING)}") from None


def server_node(plan: DeploymentPlan) -> str:
    """The host of the plan's single ``fault_target`` node."""
    (target,) = [spec for spec in plan.nodes if spec.fault_target]
    assert target.host is not None
    return target.host


def within_cap(system: str, x_values: _t.Iterable[int]) -> list[int]:
    """The user counts ``system`` supports (the UC variants stop at 100)."""
    cap = wiring(system).max_users
    return [users for users in x_values if users <= cap]


def sweep_points(
    run_point: _t.Callable,
    points: _t.Sequence[_t.Sequence],
    *,
    point_kwargs: _t.Sequence[dict[str, _t.Any]] | None = None,
    jobs: int | None = None,
    adaptive: AdaptiveConfig | bool | None = None,
    **kwargs: _t.Any,
) -> list[_t.Any]:
    """Run ``run_point(*args, **kwargs)`` for every args-tuple in ``points``.

    Results come back index-aligned with ``points`` regardless of how
    they were produced (cache hit, pool worker, inline call), so every
    ``sweep()`` below is a thin shim over this helper.  ``point_kwargs``
    optionally layers per-point keyword overrides (the extensions
    sweeps vary ``params`` per point); ``jobs`` overrides the
    process-wide default (``REPRO_JOBS`` / ``repro-figures --jobs``).

    A truthy ``adaptive`` routes the sweep through
    :func:`adaptive_sweep_points` instead (replicated, CI-reported
    points); ``point_kwargs`` is not supported there.

    Keyword arguments whose value is ``None`` are dropped — every
    ``run_point`` keyword defaults to ``None``, so this normalizes the
    cache key without changing the call.
    """
    if adaptive:
        if point_kwargs is not None:
            raise ValueError("point_kwargs is not supported with adaptive sweeps")
        config = adaptive if isinstance(adaptive, AdaptiveConfig) else None
        return adaptive_sweep_points(run_point, points, config=config, jobs=jobs, **kwargs)
    if point_kwargs is not None and len(point_kwargs) != len(points):
        raise ValueError(
            f"point_kwargs length {len(point_kwargs)} != points length {len(points)}"
        )
    specs = []
    for i, args in enumerate(points):
        kw = {k: v for k, v in kwargs.items() if v is not None}
        if point_kwargs is not None:
            kw.update(point_kwargs[i])
        # fidelity="exact" means the same run as an omitted fidelity;
        # normalizing keeps cache keys identical to pre-fidelity sweeps.
        if kw.get("fidelity") == "exact":
            del kw["fidelity"]
        specs.append(PointSpec.from_call(run_point, tuple(args), kw))
    return run_specs(specs, jobs=jobs)


def _reduce_estimate(estimate: AdaptiveEstimate, config: AdaptiveConfig) -> PointResult:
    """Fold one point's replications into a single reported PointResult."""
    first = estimate.results[0]
    mean_summary, info, crashed = summarize_replications(
        estimate.results, config.confidence
    )
    info = replace(info, converged=estimate.converged)
    return replace(
        first,
        summary=mean_summary,
        crashed=crashed,
        sim_events=sum(r.sim_events for r in estimate.results),
        ci=info,
    )


def adaptive_sweep_points(
    run_point: _t.Callable,
    points: _t.Sequence[_t.Sequence],
    *,
    config: AdaptiveConfig | None = None,
    jobs: int | None = None,
    **kwargs: _t.Any,
) -> list[PointResult]:
    """Adaptive-mode sweep: replicate every point until its CI converges.

    Each args-tuple in ``points`` must end with the point's base seed
    (the :func:`sweep_points` convention).  Replication ``k`` re-runs
    the point with seed ``base + k * seed_stride`` and a detected
    steady-state window; replications fan out through
    :mod:`repro.core.parallel` batch by batch, so the stopping decision
    — and therefore the reported mean ± CI — is independent of worker
    count and scheduling.
    """
    cfg = config or AdaptiveConfig()
    clean = {k: v for k, v in kwargs.items() if v is not None}
    clean["adaptive"] = cfg
    out: list[PointResult] = []
    for args in points:
        *head, base_seed = args
        estimate = adaptive_replications(
            run_point,
            tuple(head),
            clean,
            base_seed=int(base_seed),
            config=cfg,
            jobs=jobs,
        )
        out.append(_reduce_estimate(estimate, cfg))
    return out


def adaptive_point(
    run_point: _t.Callable,
    *args: _t.Any,
    config: AdaptiveConfig | None = None,
    jobs: int | None = None,
    **kwargs: _t.Any,
) -> PointResult:
    """One adaptively-estimated point (``args`` ends with the base seed)."""
    return adaptive_sweep_points(
        run_point, [tuple(args)], config=config, jobs=jobs, **kwargs
    )[0]


def uc_clients(run: ScenarioRun, n_users: int) -> list[Host]:
    """Spread ``n_users`` over the 20 UC client machines (max 50 each)."""
    return assign_users_to_clients(
        n_users, run.testbed.uc, run.params.testbed.max_users_per_uc_machine
    )


def lucky_clients(run: ScenarioRun, n_users: int, exclude: _t.Sequence[str] = ()) -> list[Host]:
    """Spread users over Lucky nodes (the R-GMA local-consumer variant)."""
    nodes = [h for name, h in run.testbed.lucky.items() if name not in set(exclude)]
    return [nodes[i % len(nodes)] for i in range(n_users)]
