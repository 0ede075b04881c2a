"""Experiment orchestration: build a scenario, run it, reduce to metrics.

One :class:`ScenarioRun` couples a simulator, the Lucky/UC testbed, the
service under study and its workload.  :func:`drive` runs the
measurement schedule the paper used — warm-up, then a measurement
window whose completions and Ganglia samples are averaged — and returns
a :class:`PointResult` for one (system, x) coordinate of a figure.

Two measurement modes:

* **exact** (default) — the paper's fixed warm-up + window, byte-for-
  byte identical to every committed figure table;
* **adaptive** (``adaptive=True``) — the same simulated horizon, but
  the measurement window is *detected* from the run's own completion
  stream via changepoint analysis (:mod:`repro.core.stats`): the
  longest stable regime becomes the window, cutting warm-up ramp and
  edge effects without a hard-coded warm-up guess.  The detected
  boundaries travel on :attr:`PointResult.steady_state`.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field, replace

from repro.core.metrics import (
    MetricsSummary,
    RequestLog,
    ResilienceSummary,
    bucket_rates,
    resilience_summary,
    summarize,
)
from repro.core.stats import BUCKET, ReplicationInfo, SteadyStateInfo, detect_steady_state
from repro.core.params import StudyParams, WorkloadParams, default_params, measurement_window
from repro.core.scenario.model import PLAIN, Scenario
from repro.core.testbed import Testbed, build_testbed
from repro.core.workload import spawn_users
from repro.sim.engine import Simulator
from repro.sim.host import Host
from repro.sim.network import Network
from repro.sim.randomness import RngHub
from repro.sim.rpc import RetryPolicy, Service

__all__ = ["ScenarioRun", "PointResult", "new_run", "drive"]


@dataclass
class ScenarioRun:
    """Everything assembled for one experiment point."""

    sim: Simulator
    testbed: Testbed
    params: StudyParams
    rng: RngHub
    log: RequestLog = field(default_factory=RequestLog)
    services: dict[str, Service] = field(default_factory=dict)

    @property
    def net(self) -> Network:
        return self.testbed.net


@dataclass(frozen=True)
class PointResult:
    """One (system, x) coordinate of a figure, plus run diagnostics."""

    system: str
    x: float
    summary: MetricsSummary
    crashed: bool = False
    crash_reason: str | None = None
    sim_events: int = 0
    # Populated only for runs whose clients retry (scenarios with faults).
    resilience: ResilienceSummary | None = None
    # Populated only by the adaptive measurement mode: the detected
    # steady-state window of this run, and — once replications have
    # been reduced (experiments/common.py) — the CI across them.
    steady_state: SteadyStateInfo | None = None
    ci: ReplicationInfo | None = None
    # Simulation fidelity tier that produced this point ("exact" is the
    # per-client DES; fast tiers live in repro.core.fidelity) and the
    # client population it modelled (0 = same as the sweep's x value).
    fidelity: str = "exact"
    population: int = 0

    # Figure-series accessors (Figures 5-20 plot these four metrics).
    @property
    def throughput(self) -> float:
        return self.summary.throughput

    @property
    def response_time(self) -> float:
        return self.summary.response_time

    @property
    def load1(self) -> float:
        return self.summary.load1

    @property
    def cpu_load(self) -> float:
        return self.summary.cpu_load


def new_run(
    seed: int,
    params: StudyParams | None = None,
    *,
    monitored: tuple[str, ...] | None = None,
) -> ScenarioRun:
    """Fresh simulator + testbed for one experiment point."""
    params = params or default_params()
    sim = Simulator()
    testbed = build_testbed(sim, params.testbed, monitored=monitored)
    return ScenarioRun(sim=sim, testbed=testbed, params=params, rng=RngHub(seed))


def drive(
    run: ScenarioRun,
    *,
    system: str,
    x: float,
    service: Service,
    clients: _t.Sequence[Host],
    server_host: Host,
    payload_fn: _t.Callable[[int], _t.Any],
    request_size: int,
    services_by_user: _t.Sequence[Service] | None = None,
    workload: WorkloadParams | None = None,
    warmup: float | None = None,
    window: float | None = None,
    retry: RetryPolicy | None = None,
    adaptive: bool = False,
    scenario: Scenario = PLAIN,
) -> PointResult:
    """Run the workload and reduce the window to one figure point.

    ``scenario`` applies the workload-side generative models: arrival
    modulation scales every user's think time over simulated time, and a
    client mix splits the population across think patterns (group 0
    draws from the stream ``("workload", system, x)``, so a mix-free
    scenario draws exactly what :data:`PLAIN` does).  Churn, WAN weather
    and faults are environment models — install them with
    :func:`repro.core.scenario.apply.apply_scenario` before calling.

    ``retry`` gives every user process client-side resilience; the
    result then carries a :class:`ResilienceSummary` measured against
    the scenario's outages.

    ``adaptive`` switches this run to the detected steady-state window
    (:func:`~repro.core.stats.detect_steady_state`); the simulated
    horizon is unchanged, so adaptive and exact runs of the same point
    cost the same.
    """
    default_warmup, default_window = measurement_window()
    warmup = default_warmup if warmup is None else warmup
    window = default_window if window is None else window
    wp = workload or run.params.workload
    think_scale = scenario.think_scale if scenario.arrivals else None
    first = 0
    for index, (count, group_wp) in enumerate(scenario.component_workloads(wp, len(clients))):
        # Only extra mix groups get their own streams, so a scenario
        # without a mix perturbs nothing.
        parts = ("workload", system, str(x)) + ((f"mix{index}",) if index else ())
        spawn_users(
            run.sim,
            run.net,
            clients[first : first + count],
            service,
            log=run.log,
            wp=group_wp,
            rng=run.rng.stream(*parts),
            payload_fn=payload_fn,
            request_size=request_size,
            services_by_user=(
                services_by_user[first : first + count]
                if services_by_user is not None
                else None
            ),
            retry=retry,
            think_scale=think_scale,
            first_id=first,
        )
        first += count
    horizon = warmup + window
    run.sim.run(until=horizon)

    start, end = warmup, horizon
    steady_info = None
    if adaptive:
        detected = detect_steady_state(bucket_rates(run.log.records, 0.0, horizon, BUCKET), BUCKET)
        if detected.stable:
            start, end = detected.window_start, detected.window_end
        # An unstable run keeps the configured window; report the one measured.
        steady_info = replace(detected, window_start=start, window_end=end)

    summary = summarize(run.log, run.testbed.monitor, server_host, start, end)
    crashed = service.crashed or any(s.crashed for s in run.services.values())
    reason = service.crash_reason or next(
        (s.crash_reason for s in run.services.values() if s.crash_reason), None
    )
    resilience = None
    if retry is not None:
        outages = scenario.faults.outages if scenario.faults is not None else ()
        resilience = resilience_summary(
            run.log,
            window_start=start,
            window_end=end,
            outages=[o for o in outages if o.end > start and o.start < end],
            retry_stats=retry.stats,
        )
    return PointResult(
        system=system,
        x=x,
        summary=summary,
        crashed=crashed,
        crash_reason=reason,
        sim_events=run.sim.events_processed,
        resilience=resilience,
        steady_state=steady_info,
    )
