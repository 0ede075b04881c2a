"""Scenario experiments: the one point body every wired system runs through.

:func:`run_wired` runs any :data:`~repro.core.experiments.common.WIRING`
system (the Exp-1/2 series plus the ``mds-registration`` and
``hawkeye-advertise`` control planes) under a
:class:`~repro.core.scenario.model.Scenario`: it compiles the system's
plan, installs the scenario's environment — churn, WAN weather, faults —
with :func:`~repro.core.scenario.apply.apply_scenario`, drives the
clients (arrival modulation and client mixes ride into
:func:`~repro.core.runner.drive`) and audits the run.  Figure points
(:func:`repro.core.experiments.exp1.run_point`, ``exp2.run_point``) are
the same body under :data:`~repro.core.scenario.model.PLAIN`; every
point returns a :class:`RunAudit` — the full server-side request
accounting the fuzzer's metamorphic invariants check
(:mod:`repro.core.scenario.fuzz`).

Scenarios are passed by registry name (:data:`NAMED_SCENARIOS`), by
``examples/*.scenario.json`` path, or as :class:`Scenario` objects
(the fuzzer's random draws).  All three forms are deterministic and
cache-friendly: a Scenario is a frozen dataclass, so the point cache
canonicalizes it field by field, and every retry policy a point uses is
built inside the point from it.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field, replace

from repro.core.experiments.common import (
    WIRING,
    lucky_clients,
    server_node,
    sweep_points,
    uc_clients,
    wiring,
    within_cap,
)
from repro.core.parallel import register_codec
from repro.core.params import StudyParams, default_params, measurement_window
from repro.core.runner import PointResult, ScenarioRun, drive, new_run
from repro.core.scenario.apply import ScenarioOps, apply_scenario
from repro.core.scenario.codec import load as load_scenario
from repro.core.scenario.model import (
    ArrivalModel,
    ChurnModel,
    MixComponent,
    Scenario,
    ScenarioError,
    WanWeather,
)
from repro.core.stats import AdaptiveConfig
from repro.core.topology import compile_plan
from repro.core.topology.adapters import Deployment
from repro.mds.giis import GIIS
from repro.mds.gris import GRIS
from repro.sim.rpc import CircuitBreaker, RetryPolicy

__all__ = [
    "NAMED_SCENARIOS",
    "SYSTEMS",
    "X_VALUES",
    "RunAudit",
    "ServiceAudit",
    "ScenarioPointResult",
    "default_retry_policy",
    "resolve_scenario",
    "run_scenario_point",
    "run_wired",
    "sweep",
    "format_scenario_table",
]

SYSTEMS = tuple(WIRING)

X_VALUES = (10, 100, 300)

# Slack after the last churn rejoin or outage restart before the
# recovery invariant looks for resumed completions (lease renew
# interval + one think time).
RECOVERY_SLACK = 4.0


def _flash_crowd() -> Scenario:
    return Scenario(
        name="flash-crowd",
        description="4x arrival spike mid-window (release-announcement rush)",
        arrivals=(ArrivalModel(kind="flash", at=30.0, duration=20.0, peak=4.0),),
    )


def _churn_diurnal() -> Scenario:
    return Scenario(
        name="churn-diurnal",
        description="day/night load swing while registrants churn",
        arrivals=(ArrivalModel(kind="diurnal", period=40.0, amplitude=0.4),),
        churn=ChurnModel(session_time=18.0, downtime=4.0, start=10.0, end=55.0),
    )


def _wan_weather() -> Scenario:
    return Scenario(
        name="wan-weather",
        description="correlated inter-site latency/loss episodes",
        wan=WanWeather(rate=0.05, mean_duration=6.0, extra_latency=0.04, loss=0.08),
    )


def _client_mix() -> Scenario:
    return Scenario(
        name="client-mix",
        description="heterogeneous users: steady, Poisson and heavy-tailed",
        mix=(
            MixComponent(fraction=0.5, pattern="constant"),
            MixComponent(fraction=0.3, pattern="exponential"),
            MixComponent(fraction=0.2, pattern="pareto"),
        ),
    )


NAMED_SCENARIOS: dict[str, _t.Callable[[], Scenario]] = {
    "flash-crowd": _flash_crowd,
    "churn-diurnal": _churn_diurnal,
    "wan-weather": _wan_weather,
    "client-mix": _client_mix,
}


def resolve_scenario(scenario: "Scenario | str") -> Scenario:
    """Registry name, ``*.scenario.json`` path, or Scenario instance."""
    if isinstance(scenario, Scenario):
        return scenario.validate()
    if scenario in NAMED_SCENARIOS:
        return NAMED_SCENARIOS[scenario]().validate()
    if scenario.endswith(".json"):
        return load_scenario(scenario)
    raise ScenarioError(
        f"unknown scenario {scenario!r}; pick from {tuple(NAMED_SCENARIOS)} "
        "or pass a *.scenario.json path"
    )


@register_codec
@dataclass(frozen=True)
class ServiceAudit:
    """One service's request accounting at the simulation horizon."""

    arrived: int
    refused: int
    completed: int
    errors: int
    dropped: int
    open_at_end: int  # connections still open (executing + accept queue)
    max_concurrent: int
    capacity: int  # max_threads + backlog
    down_at_end: bool

    @property
    def accounted(self) -> int:
        return self.refused + self.completed + self.errors + self.dropped + self.open_at_end


@register_codec
@dataclass(frozen=True)
class RunAudit:
    """Everything the metamorphic invariants need from one run."""

    horizon: float
    window_start: float
    window_end: float
    services: dict[str, ServiceAudit] = field(default_factory=dict)
    # Client-side outcome counts over the whole horizon.
    client_ok: int = 0
    client_refused: int = 0
    client_timeout: int = 0
    client_error: int = 0
    # Directory-cache counters summed over GIIS/GRIS objects.
    cache_hits: int = 0
    cache_lookups: int = 0
    # Scenario-ops counters (zero for scenario-free runs).
    churn_leaves: int = 0
    churn_rejoins: int = 0
    directory_unregisters: int = 0
    directory_registers: int = 0
    wan_episodes: int = 0
    messages_lost: int = 0
    last_churn_end: float = 0.0
    last_outage_end: float = 0.0
    # OK completions that *started* after the recovery point plus
    # RECOVERY_SLACK; -1 when neither churn nor an outage was scheduled.
    ok_after_recovery: int = -1
    # Control-plane counters (soft-state registrars, resilient
    # advertisers) for the plans that run those loops.
    control: dict[str, float] = field(default_factory=dict)

    @property
    def recovery_point(self) -> float:
        """When the last churn rejoin or injected restart happened."""
        return max(self.last_churn_end, self.last_outage_end)


@register_codec
@dataclass(frozen=True)
class ScenarioPointResult:
    """One (system, scenario, users) coordinate plus its audit."""

    system: str
    scenario: str
    x: float
    result: PointResult
    audit: RunAudit | None = None

    @property
    def throughput(self) -> float:
        return self.result.throughput

    @property
    def response_time(self) -> float:
        return self.result.response_time


def _audit_run(
    run: ScenarioRun,
    dep: Deployment,
    ops: ScenarioOps,
    *,
    horizon: float,
    window_start: float,
    control: dict[str, float],
) -> RunAudit:
    services = {}
    for name, svc in dep.services.items():
        services[name] = ServiceAudit(
            arrived=svc.stats.arrived,
            refused=svc.stats.refused,
            completed=svc.stats.completed,
            errors=svc.stats.errors,
            dropped=svc.stats.dropped,
            open_at_end=svc.concurrent,
            max_concurrent=svc.stats.max_concurrent,
            capacity=svc.max_threads + svc.backlog,
            down_at_end=svc.down or svc.crashed,
        )
    hits = lookups = 0
    for obj in dep.objects.values():
        for piece in obj if isinstance(obj, list) else (obj,):
            if isinstance(piece, (GIIS, GRIS)):
                hits += piece.cache.stats.hits
                lookups += piece.cache.stats.lookups
    outcomes = {"ok": 0, "refused": 0, "timeout": 0, "error": 0}
    recovered = max(ops.last_churn_end, ops.last_outage_end) + RECOVERY_SLACK
    ok_after = 0 if ops.churn_leaves or ops.outages else -1
    for record in run.log.records:
        outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1
        if ok_after >= 0 and record.outcome == "ok" and record.started > recovered:
            ok_after += 1
    return RunAudit(
        horizon=horizon,
        window_start=window_start,
        window_end=horizon,
        services=services,
        client_ok=outcomes["ok"],
        client_refused=outcomes["refused"],
        client_timeout=outcomes["timeout"],
        client_error=outcomes["error"],
        cache_hits=hits,
        cache_lookups=lookups,
        churn_leaves=ops.churn_leaves,
        churn_rejoins=ops.churn_rejoins,
        directory_unregisters=ops.directory_unregisters,
        directory_registers=ops.directory_registers,
        wan_episodes=ops.wan_episodes,
        messages_lost=ops.messages_lost,
        last_churn_end=ops.last_churn_end,
        last_outage_end=ops.last_outage_end,
        ok_after_recovery=ok_after,
        control=control,
    )


def default_retry_policy(rng: _t.Any, *, breaker: bool = True) -> RetryPolicy:
    """The client policy a scenario with faults arms.

    Capped exponential backoff with ±25 % jitter; the breaker trips
    after 5 consecutive failures and probes again 2 s later, which caps
    retry amplification during an outage at roughly one wire probe per
    breaker reset instead of 4 attempts per logical call.
    """
    cb = CircuitBreaker(failure_threshold=5, reset_timeout=2.0) if breaker else None
    return RetryPolicy(
        max_attempts=4,
        base_backoff=0.5,
        multiplier=2.0,
        max_backoff=8.0,
        jitter=0.25,
        breaker=cb,
        rng=rng,
    )


def _loop_retry(run: ScenarioRun, stream: str, users: int) -> RetryPolicy:
    """The small policy a control-plane loop (registrar, advertiser) retries with."""
    return RetryPolicy(
        max_attempts=3, base_backoff=0.5, max_backoff=4.0, rng=run.rng.stream(stream, str(users))
    )


def _control_counters(
    dep: Deployment, registrar: RetryPolicy, advertiser: RetryPolicy, horizon: float
) -> dict[str, float]:
    """What the plan's soft-state registrars and resilient advertisers did."""
    control: dict[str, float] = {}
    reg = dep.extras.get("registrar_stats", [])
    if reg:
        control.update(
            renewals=float(sum(st.renewals for st in reg)),
            re_registrations=float(sum(st.re_registrations for st in reg)),
            missed_cycles=float(sum(st.missed_cycles for st in reg)),
            registered_at_end=float(sum(st.registered for st in reg)),
            registrar_attempts=float(registrar.stats.attempts),
        )
    adv = dep.extras.get("advertiser_stats", [])
    if adv:
        control.update(
            ads_delivered=float(sum(st.delivered for st in adv)),
            ads_missed=float(sum(st.missed for st in adv)),
            max_staleness=max(max(st.max_gap, st.staleness(horizon)) for st in adv),
            advertiser_attempts=float(advertiser.stats.attempts),
        )
    return control


def run_wired(
    system: str,
    scenario: Scenario,
    users: int,
    seed: int = 1,
    *,
    params: StudyParams | None = None,
    warmup: float | None = None,
    window: float | None = None,
    adaptive: AdaptiveConfig | bool | None = None,
    fidelity: str | None = None,
) -> ScenarioPointResult:
    """One (system, scenario, users) coordinate: the one point body.

    Compiles the :data:`~repro.core.experiments.common.WIRING` plan for
    ``system``, applies ``scenario``, drives the clients and audits the
    run.  A scenario with faults arms the clients with
    :func:`default_retry_policy` and R-GMA's CS->PS hop with a small
    policy of its own; the control-plane loops always retry on theirs
    (plans without those loops never consult them).

    ``fidelity`` routes environment-free scenarios through the fast
    tiers: the scenario collapses to an *effective workload*
    (:meth:`Scenario.effective_workload`, which rejects churn, WAN and
    faults), and the audit is ``None`` because fast tiers model no
    per-request accounting.
    """
    wired = wiring(system)
    if users > wired.max_users:
        raise ValueError(f"{system} supports at most {wired.max_users} users")
    default_warmup, default_window = measurement_window()
    warmup = default_warmup if warmup is None else warmup
    window = default_window if window is None else window
    horizon = warmup + window
    plan = wired.plan(system, seed)

    if fidelity is not None and fidelity != "exact":
        from repro.core.fidelity import fast_point, require_plain_run

        require_plain_run(fidelity, adaptive=adaptive)
        base = params or default_params()
        eff = scenario.effective_workload(base.workload, warmup, horizon, tier=fidelity)
        result = fast_point(
            plan,
            system=system,
            x=users,
            users=users,
            tier=fidelity,
            params=replace(base, workload=eff),
            seed=seed,
            warmup=warmup,
            window=window,
        )
        return ScenarioPointResult(
            system=system, scenario=scenario.name, x=users, result=result, audit=None
        )

    node = server_node(plan)
    run = new_run(seed, params, monitored=(node,))
    key = (system, str(users))
    retry = mediation = None
    if scenario.faults is not None:
        # Every run under faults, faulted or its retry-only baseline,
        # draws backoff jitter from the stream the fault tables pin.
        retry = default_retry_policy(
            run.rng.stream("retry", *key, scenario.name, "faulted"),
            breaker=scenario.faults.breaker,
        )
        mediation = RetryPolicy(
            max_attempts=2, base_backoff=0.25, max_backoff=2.0, rng=run.rng.stream("cs-retry", *key)
        )
    registrar = _loop_retry(run, "registrar-retry", users)
    advertiser = _loop_retry(run, "advertiser-retry", users)
    dep = compile_plan(
        plan,
        run,
        mediation_retry=mediation,
        registration_retry=registrar,
        advertise_retry=advertiser,
    )
    ops = apply_scenario(scenario, run, dep, horizon=horizon, key=key)

    if wired.clients == "lucky":
        clients = lucky_clients(run, users, exclude=(node,))
    else:
        clients = uc_clients(run, users)
    assert dep.entry is not None
    result = drive(
        run,
        system=system,
        x=users,
        service=dep.entry,
        clients=clients,
        server_host=run.testbed.lucky[node],
        payload_fn=lambda uid: dict(wired.payload),
        request_size=getattr(run.params, wired.request_size).request_size,
        services_by_user=[dep.route(c) for c in clients] if dep.routed else None,
        warmup=warmup,
        window=window,
        retry=retry,
        adaptive=adaptive,
        scenario=scenario,
    )
    audit = _audit_run(
        run,
        dep,
        ops,
        horizon=horizon,
        window_start=warmup,
        control=_control_counters(dep, registrar, advertiser, horizon),
    )
    return ScenarioPointResult(
        system=system, scenario=scenario.name, x=users, result=result, audit=audit
    )


def run_scenario_point(
    system: str,
    scenario: "Scenario | str",
    users: int,
    seed: int = 1,
    *,
    params: StudyParams | None = None,
    warmup: float | None = None,
    window: float | None = None,
    fidelity: str | None = None,
) -> ScenarioPointResult:
    """One (system, scenario, users) coordinate (see :func:`run_wired`).

    ``scenario`` is a registry name, a ``*.scenario.json`` path or a
    :class:`Scenario`.
    """
    return run_wired(
        system,
        resolve_scenario(scenario),
        users,
        seed,
        params=params,
        warmup=warmup,
        window=window,
        fidelity=fidelity,
    )


def sweep(
    system: str,
    scenario: "Scenario | str",
    x_values: _t.Sequence[int] = X_VALUES,
    seed: int = 1,
    **kwargs: _t.Any,
) -> list[ScenarioPointResult]:
    """One scenario across the user counts ``system`` supports.

    Cached and fanned out like any sweep; the UC variants skip user
    counts past their cap, as the figure sweeps do.
    """
    sc = resolve_scenario(scenario)
    return sweep_points(
        run_scenario_point,
        [(system, sc, users, seed) for users in within_cap(system, x_values)],
        **kwargs,
    )


def format_scenario_table(rows: _t.Sequence[ScenarioPointResult]) -> str:
    """Fixed-width table of scenario-point metrics for benchmark output."""
    header = (
        f"{'system':<20} {'scenario':<16} {'users':>5} "
        f"{'tput':>8} {'resp':>8} {'churn':>6} {'lost':>5} {'ok':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        audit = r.audit
        churn = f"{audit.churn_leaves}/{audit.churn_rejoins}" if audit else "-"
        lost = str(audit.messages_lost) if audit else "-"
        ok = str(audit.client_ok) if audit else "-"
        lines.append(
            f"{r.system:<20} {r.scenario:<16} {r.x:>5.0f} "
            f"{r.result.throughput:>8.2f} {r.result.response_time:>8.4f} "
            f"{churn:>6} {lost:>5} {ok:>8}"
        )
    return "\n".join(lines)
