"""Shared point wiring and sweep-execution helpers.

The ``*_WIRING`` tables hold one :class:`Wiring` row of client facts
per legend entry of every plan-driven series, which the one point body
(:func:`repro.core.experiments.scenarios.run_wired`) runs with the
series' plan; :data:`WIRING` is the scenario plane's set (Exp 1/2 and
the two control planes).  :func:`sweep_points` is the one sweep loop
every series shares — it fans independent points out through
:mod:`repro.core.parallel` (process pool + point cache) and merges the
results in submission order, byte-identical to a serial loop.

Passing ``adaptive=True`` to :func:`sweep_points` (or to any
experiment's ``sweep()``) switches the whole sweep to the adaptive
measurement mode, one fixed rule (:mod:`repro.core.stats`): every point
is replicated across seeds until its throughput confidence interval
converges (:func:`repro.core.stats.adaptive_replications`), each
replication detecting its own steady-state window, and
:func:`adaptive_point` reduces them to one
:class:`~repro.core.runner.PointResult` of replication means with CI
half-widths on :attr:`~repro.core.runner.PointResult.ci`.
"""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass, fields, replace

from repro.core.metrics import MetricsSummary
from repro.core.parallel import PointSpec, run_specs
from repro.core.runner import PointResult, ScenarioRun
from repro.core.stats import ReplicationInfo, adaptive_replications, mean_ci
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
    "MAX_EXACT_USERS",
    "WIRING",
    "EXP1_WIRING",
    "EXP2_WIRING",
    "EXP3_WIRING",
    "EXP4_WIRING",
    "SCALE_WIRING",
    "TWO_LEVEL_WIRING",
    "Wiring",
    "wiring",
    "wired_plan",
    "server_node",
    "within_cap",
    "sweep_points",
    "adaptive_point",
    "uc_clients",
    "lucky_clients",
]

# The paper could only drive ~100 UC consumers through one ConsumerServlet.
UC_VARIANT_MAX_USERS = 100

# Guard rail: one exact point at 600 users already takes ~10 s; the
# paper's testbed never exceeded 600 either.  Past this, require an
# explicit fast tier instead of silently burning hours.
MAX_EXACT_USERS = 2_000


@dataclass(frozen=True)
class Wiring:
    """A series' client facts: what its users send and where they sit.

    The deployment is not listed: each series builds its own catalog
    plan, and the server under study is :func:`server_node` of it.
    """

    payload: dict[str, str]  # every user's request
    request_size: str  # the StudyParams section whose request_size users send
    clients: str = "uc"  # "uc", or "lucky": every Lucky node but the server's
    max_users: float = math.inf


_ALL = {"filter": "(objectclass=*)"}
_HOSTS = {"filter": "(objectclass=MdsHost)"}
_STATUS = {"query": "status"}
_SQL = {"sql": "SELECT * FROM cpuLoad"}
_TABLE = {"table": "cpuLoad"}
_MACHINE = {"machine": "lucky4.mcs.anl.gov"}
# Exp 4's worst case: "a constraint that was not met by any machine".
_NO_MATCH = {"constraint": "TARGET.CpuLoad > 50"}

# Experiment 1 (Figures 5-8): information servers.
EXP1_WIRING: dict[str, Wiring] = {
    "mds-gris-cache": Wiring(_ALL, "gris"),
    "mds-gris-nocache": Wiring(_ALL, "gris"),
    "hawkeye-agent": Wiring(_STATUS, "agent"),
    "rgma-ps-lucky": Wiring(_SQL, "consumer_servlet", clients="lucky"),
    "rgma-ps-uc": Wiring(_SQL, "consumer_servlet", max_users=UC_VARIANT_MAX_USERS),
}
# Experiment 2 (Figures 9-12): directory servers.
EXP2_WIRING: dict[str, Wiring] = {
    "mds-giis": Wiring(_HOSTS, "giis"),
    "hawkeye-manager": Wiring(_MACHINE, "manager"),
    "rgma-registry-lucky": Wiring(_TABLE, "registry", clients="lucky"),
    "rgma-registry-uc": Wiring(_TABLE, "registry", max_users=UC_VARIANT_MAX_USERS),
}

WIRING: dict[str, Wiring] = {
    **EXP1_WIRING,
    **EXP2_WIRING,
    # The control planes: directory queries while registrants keep
    # soft-state leases (MDS) or push ads over the wire (Hawkeye).
    "mds-registration": Wiring(_HOSTS, "giis"),
    "hawkeye-advertise": Wiring(_MACHINE, "manager"),
}

# Experiment 3 (Figures 13-16): the information servers again, the
# ProducerServlet "queried directly" (§3.5).
EXP3_WIRING: dict[str, Wiring] = {
    "mds-gris-cache": Wiring(_ALL, "gris"),
    "mds-gris-nocache": Wiring(_ALL, "gris"),
    "hawkeye-agent": Wiring(_STATUS, "agent"),
    "rgma-ps": Wiring(_SQL, "producer_servlet"),
}

# Experiment 4 (Figures 17-20): aggregate information servers.
EXP4_WIRING: dict[str, Wiring] = {
    "mds-giis-all": Wiring(_ALL, "giis"),
    "mds-giis-part": Wiring(_ALL, "giis"),
    "hawkeye-manager": Wiring(_NO_MATCH, "manager"),
}

# The aggregate trees: the scale grid and §4's two-level GIIS.
SCALE_WIRING: dict[str, Wiring] = {
    "mds": Wiring(_ALL, "giis"),
    "hawkeye": Wiring(_NO_MATCH, "manager"),
}
TWO_LEVEL_WIRING = Wiring(_ALL, "giis")


def wiring(system: str, table: _t.Mapping[str, Wiring] = WIRING) -> Wiring:
    """The row of ``table`` for ``system`` (ValueError naming the set)."""
    try:
        return table[system]
    except KeyError:
        raise ValueError(f"unknown system {system!r}; pick from {tuple(table)}") from None


def wired_plan(system: str, seed: int = 1) -> DeploymentPlan:
    """The catalog plan a :data:`WIRING` system compiles."""
    wiring(system)
    if system in EXP1_WIRING:
        return exp1_plan(system, seed)
    if system in EXP2_WIRING:
        return exp2_plan(system, seed)
    if system == "mds-registration":
        return registration_fault_plan(seed)
    return advertise_fault_plan(seed)


def server_node(plan: DeploymentPlan) -> str:
    """The host of the plan's server under study (:meth:`DeploymentPlan.server`)."""
    host = plan.server().host
    assert host is not None
    return host


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
    adaptive: bool = False,
    **kwargs: _t.Any,
) -> list[_t.Any]:
    """Run ``run_point(*args, **kwargs)`` for every args-tuple in ``points``.

    Results come back index-aligned with ``points`` regardless of how
    they were produced (cache hit, pool worker, inline call), so every
    ``sweep()`` below is a thin shim over this helper.  ``point_kwargs``
    optionally layers per-point keyword overrides (the extensions
    sweeps vary ``params`` per point); ``jobs`` overrides the
    process-wide default (``REPRO_JOBS`` / ``repro-figures --jobs``).

    ``adaptive`` measures every point with :func:`adaptive_point`
    instead (replicated, CI-reported points); ``point_kwargs`` is not
    supported there.

    Keyword arguments whose value is ``None`` are dropped — every
    ``run_point`` keyword defaults to ``None``, so this normalizes the
    cache key without changing the call.
    """
    if adaptive:
        if point_kwargs is not None:
            raise ValueError("point_kwargs is not supported with adaptive sweeps")
        return [adaptive_point(run_point, *args, jobs=jobs, **kwargs) for args in points]
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


_COUNTS = ("completed", "refused", "timeouts", "errors")


def adaptive_point(
    run_point: _t.Callable,
    *args: _t.Any,
    jobs: int | None = None,
    **kwargs: _t.Any,
) -> PointResult:
    """One point measured by the adaptive rule, reduced to replication means.

    ``args`` ends with the point's base seed (the :func:`sweep_points`
    convention).  :func:`~repro.core.stats.adaptive_replications` re-runs
    the point with ``adaptive=True`` (a detected steady-state window)
    until its throughput CI converges; replications fan out through
    :mod:`repro.core.parallel` batch by batch, so the stopping decision
    — and therefore the reported mean ± CI — is independent of worker
    count and scheduling.  The result is the first replication with
    every summary field replaced by its mean across replications
    (counts rounded), crashed when any replication crashed, and the
    CI half-widths on :attr:`~repro.core.runner.PointResult.ci`.
    """
    *head, base_seed = args
    kw = {k: v for k, v in kwargs.items() if v is not None}
    results, converged = adaptive_replications(
        run_point, tuple(head), {**kw, "adaptive": True}, int(base_seed), jobs=jobs
    )
    summaries = [r.summary for r in results]

    def mean(attr: str) -> float:
        return sum(getattr(s, attr) for s in summaries) / len(summaries)

    summary = MetricsSummary(
        **{f.name: round(mean(f.name)) if f.name in _COUNTS else mean(f.name)
           for f in fields(MetricsSummary)}
    )
    return replace(
        results[0],
        summary=summary,
        crashed=any(r.crashed for r in results),
        sim_events=sum(r.sim_events for r in results),
        ci=ReplicationInfo(
            replications=len(results),
            converged=converged,
            throughput_ci=mean_ci([s.throughput for s in summaries]).half_width,
            response_time_ci=mean_ci([s.response_time for s in summaries]).half_width,
        ),
    )


def uc_clients(run: ScenarioRun, n_users: int) -> list[Host]:
    """Spread ``n_users`` over the 20 UC client machines (max 50 each)."""
    return assign_users_to_clients(
        n_users, run.testbed.uc, run.params.testbed.max_users_per_uc_machine
    )


def lucky_clients(run: ScenarioRun, n_users: int, exclude: _t.Sequence[str] = ()) -> list[Host]:
    """Spread users over Lucky nodes (the R-GMA local-consumer variant)."""
    nodes = [h for name, h in run.testbed.lucky.items() if name not in set(exclude)]
    return [nodes[i % len(nodes)] for i in range(n_users)]
