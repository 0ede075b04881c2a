"""Generative scenario models: churn, diurnal load, flash crowds, WAN weather, faults.

The paper measures steady state under fixed user counts; the deployments
it studied were dominated by *dynamics* — R-GMA's "first results after
deployment" reports registrant churn and correlated degradation as the
operational killers.  A :class:`Scenario` bundles five generative models
into one declarative, seeded description of those dynamics:

* **arrival modulation** — diurnal sinusoids and flash-crowd spikes that
  scale the closed-loop think time of every user over simulated time
  (:class:`ArrivalModel`);
* **registrant churn** — servers leaving and rejoining mid-window,
  driving real register/unregister traffic through the per-system
  directory machinery (:class:`ChurnModel`);
* **WAN weather** — correlated inter-site latency/loss episodes layered
  onto :class:`~repro.sim.network.Network` (:class:`WanWeather`);
* **client mixes** — heterogeneous user populations split across the
  think-time patterns of :data:`~repro.core.workload.THINK_PATTERNS`
  (:class:`MixComponent`);
* **faults** — crash/restart outages, connection drops and handler
  stalls on the plan's fault targets, with clients that retry through
  them (:class:`FaultModel`).

Everything here is deliberately simulator-free: the same models drive
the exact DES (:mod:`repro.core.scenario.apply`), the fast fidelity
tiers (via :meth:`Scenario.effective_workload`) and the live asyncio
plane's load generator (:mod:`repro.live.loadgen`).  All randomness is
drawn from generators the caller derives from the scenario seed, so a
scenario is exactly reproducible and independent of worker count.
"""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass, replace

import numpy as np

from repro.core.params import WorkloadParams
from repro.core.workload import THINK_PATTERNS

__all__ = [
    "ScenarioError",
    "ArrivalModel",
    "ChurnEvent",
    "ChurnModel",
    "WanEpisode",
    "WanWeather",
    "MixComponent",
    "Outage",
    "FaultModel",
    "Scenario",
    "PLAIN",
]

# The modulation floor: a rate factor never drops below this, so think
# times stay finite however the models compose.
_MIN_RATE = 0.05

ARRIVAL_KINDS = ("diurnal", "flash")


class ScenarioError(ValueError):
    """A scenario that cannot exist (bad shape, or an invalid tier ask)."""


@dataclass(frozen=True)
class ArrivalModel:
    """One multiplicative modulation of the instantaneous arrival rate.

    ``kind="diurnal"`` is a sinusoid: rate factor
    ``1 + amplitude * sin(2*pi*(t/period + phase))`` — the day/night load
    swing GridMonitor reports, compressed to simulation-window periods.

    ``kind="flash"`` is a flash crowd: outside ``[at, at+duration]`` the
    factor is 1; inside, it ramps linearly to ``peak`` over the first
    ``ramp`` fraction of the episode, holds, and decays over the last
    ``ramp`` fraction — the arrival spike a release announcement or a
    failure-triggered dashboard rush produces.

    A factor of ``f`` divides every sampled think time by ``f``: users
    query ``f`` times faster at the peak.  Factors from multiple models
    multiply.
    """

    kind: str
    # diurnal fields
    period: float = 60.0
    amplitude: float = 0.5
    phase: float = 0.0
    # flash fields
    at: float = 0.0
    duration: float = 0.0
    peak: float = 4.0
    ramp: float = 0.25

    def validate(self) -> "ArrivalModel":
        if self.kind not in ARRIVAL_KINDS:
            raise ScenarioError(
                f"unknown arrival kind {self.kind!r}; pick from {ARRIVAL_KINDS}"
            )
        if self.kind == "diurnal":
            if self.period <= 0:
                raise ScenarioError(f"diurnal period must be positive: {self.period}")
            if not 0.0 <= self.amplitude < 1.0:
                raise ScenarioError(
                    f"diurnal amplitude must be in [0, 1): {self.amplitude}"
                )
        else:
            if self.duration <= 0:
                raise ScenarioError(f"flash duration must be positive: {self.duration}")
            if self.peak < 1.0:
                raise ScenarioError(f"flash peak must be >= 1: {self.peak}")
            if not 0.0 < self.ramp <= 0.5:
                raise ScenarioError(f"flash ramp must be in (0, 0.5]: {self.ramp}")
        return self

    def rate(self, t: float) -> float:
        """The instantaneous rate factor at simulated time ``t``."""
        if self.kind == "diurnal":
            return 1.0 + self.amplitude * math.sin(
                2.0 * math.pi * (t / self.period + self.phase)
            )
        # flash crowd
        dt = t - self.at
        if dt < 0.0 or dt > self.duration:
            return 1.0
        edge = self.ramp * self.duration
        if dt < edge:
            frac = dt / edge
        elif dt > self.duration - edge:
            frac = (self.duration - dt) / edge
        else:
            frac = 1.0
        return 1.0 + (self.peak - 1.0) * frac


@dataclass(frozen=True)
class ChurnEvent:
    """One node's leave/rejoin pair on the scenario timeline."""

    node: str
    leave: float
    rejoin: float


@dataclass(frozen=True)
class ChurnModel:
    """Registrant churn: servers leaving and rejoining mid-window.

    Each candidate node runs independent up/down sessions: up-times are
    exponential with mean ``session_time``, down-times exponential with
    mean ``downtime`` (floored at ``min_downtime``).  Leave events are
    drawn inside ``[start, end]`` only, so a run whose horizon extends
    past ``end`` always gets a churn-free recovery tail — the window the
    recovery invariant measures.

    ``targets`` restricts churn to named plan nodes; empty means every
    eligible node (every exposed non-collector service of the compiled
    deployment).
    """

    session_time: float = 30.0
    downtime: float = 8.0
    min_downtime: float = 1.0
    start: float = 0.0
    end: float | None = None
    targets: tuple[str, ...] = ()

    def validate(self) -> "ChurnModel":
        if self.session_time <= 0:
            raise ScenarioError(f"session_time must be positive: {self.session_time}")
        if self.downtime <= 0 or self.min_downtime < 0:
            raise ScenarioError(
                f"downtime must be positive: {self.downtime}/{self.min_downtime}"
            )
        if self.end is not None and self.end <= self.start:
            raise ScenarioError(f"churn window is empty: [{self.start}, {self.end}]")
        return self

    def events(
        self,
        nodes: _t.Sequence[str],
        horizon: float,
        rng_for: _t.Callable[[str], np.random.Generator],
    ) -> list[ChurnEvent]:
        """The deterministic churn timeline for ``nodes``.

        Each node draws from its own named stream (``rng_for(node)``), so
        adding or filtering nodes never perturbs the others' sessions.
        """
        end = horizon if self.end is None else min(self.end, horizon)
        out: list[ChurnEvent] = []
        for node in nodes:
            if self.targets and node not in self.targets:
                continue
            rng = rng_for(node)
            t = self.start
            while True:
                t += float(rng.exponential(self.session_time))
                if t >= end:
                    break
                down = max(self.min_downtime, float(rng.exponential(self.downtime)))
                out.append(ChurnEvent(node=node, leave=t, rejoin=t + down))
                t += down
        out.sort(key=lambda e: (e.leave, e.node))
        return out

    def last_end(self, events: _t.Sequence[ChurnEvent]) -> float:
        """Rejoin time of the final churn event (0.0 when none fired)."""
        return max((e.rejoin for e in events), default=0.0)


@dataclass(frozen=True)
class WanEpisode:
    """One correlated degradation window on the inter-site path."""

    start: float
    duration: float
    extra_latency: float = 0.05
    loss: float = 0.05

    @property
    def end(self) -> float:
        return self.start + self.duration

    def validate(self) -> "WanEpisode":
        if self.duration <= 0:
            raise ScenarioError(f"episode duration must be positive: {self.duration}")
        if self.extra_latency < 0:
            raise ScenarioError(f"negative extra latency: {self.extra_latency}")
        if not 0.0 <= self.loss < 1.0:
            raise ScenarioError(f"loss probability out of range: {self.loss}")
        return self


@dataclass(frozen=True)
class WanWeather:
    """Correlated WAN latency/loss episodes between client and server sites.

    Either list explicit ``episodes`` or let the model draw them: episode
    gaps are exponential at ``rate`` per second inside ``[start, end]``,
    durations exponential with mean ``mean_duration``, and each episode
    jitters ``extra_latency``/``loss`` by ±50 %.  Generated and explicit
    episodes are merged and made non-overlapping in time order.
    """

    episodes: tuple[WanEpisode, ...] = ()
    rate: float = 0.0
    mean_duration: float = 8.0
    extra_latency: float = 0.05
    loss: float = 0.05
    start: float = 0.0
    end: float | None = None

    def validate(self) -> "WanWeather":
        if self.rate < 0:
            raise ScenarioError(f"negative episode rate: {self.rate}")
        if self.rate > 0 and self.mean_duration <= 0:
            raise ScenarioError(f"mean_duration must be positive: {self.mean_duration}")
        if self.extra_latency < 0:
            raise ScenarioError(f"negative extra latency: {self.extra_latency}")
        if not 0.0 <= self.loss < 1.0:
            raise ScenarioError(f"loss probability out of range: {self.loss}")
        for ep in self.episodes:
            ep.validate()
        return self

    def draw(self, horizon: float, rng: np.random.Generator) -> tuple[WanEpisode, ...]:
        """Explicit plus generated episodes, time-sorted and disjoint."""
        end = horizon if self.end is None else min(self.end, horizon)
        drawn: list[WanEpisode] = list(self.episodes)
        if self.rate > 0:
            t = self.start
            while True:
                t += float(rng.exponential(1.0 / self.rate))
                if t >= end:
                    break
                duration = max(0.5, float(rng.exponential(self.mean_duration)))
                drawn.append(
                    WanEpisode(
                        start=t,
                        duration=duration,
                        extra_latency=self.extra_latency
                        * float(rng.uniform(0.5, 1.5)),
                        loss=min(0.95, self.loss * float(rng.uniform(0.5, 1.5))),
                    )
                )
                t += duration
        drawn.sort(key=lambda e: e.start)
        disjoint: list[WanEpisode] = []
        cursor = 0.0
        for ep in drawn:
            start = max(ep.start, cursor)
            if start >= ep.end:
                continue
            disjoint.append(replace(ep, start=start, duration=ep.end - start))
            cursor = ep.end
        return tuple(disjoint)


@dataclass(frozen=True)
class MixComponent:
    """One slice of a heterogeneous client population.

    ``fraction`` of the users run ``pattern`` (any key of
    :data:`~repro.core.workload.THINK_PATTERNS`) with an optional
    ``think_time`` override; unset fields inherit the run's base
    :class:`~repro.core.params.WorkloadParams`.
    """

    fraction: float
    pattern: str = "constant"
    think_time: float | None = None

    def validate(self) -> "MixComponent":
        if not 0.0 < self.fraction <= 1.0:
            raise ScenarioError(f"mix fraction out of range: {self.fraction}")
        if self.pattern not in THINK_PATTERNS:
            raise ScenarioError(
                f"unknown think pattern {self.pattern!r}; "
                f"pick from {tuple(THINK_PATTERNS)}"
            )
        if self.think_time is not None and self.think_time <= 0:
            raise ScenarioError(f"think_time must be positive: {self.think_time}")
        return self

    def workload(self, base: WorkloadParams) -> WorkloadParams:
        """The component's effective workload over the run's base one."""
        return replace(
            base,
            pattern=self.pattern,
            think_time=self.think_time if self.think_time is not None else base.think_time,
        )


@dataclass(frozen=True)
class Outage:
    """One crash/restart window: down at ``start``, back at ``end``."""

    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class FaultModel:
    """Injected failures on the plan's ``fault_target`` nodes.

    ``outages`` crash every target service at each window's start and
    restart it at its end; ``drop`` resets that fraction of arriving
    connections; ``stall`` holds that fraction of admitted requests on
    their handler thread for ``stall_seconds`` (a hung provider).

    A fault model also arms the clients: users retry with capped
    exponential backoff behind a circuit breaker (``breaker=False``
    leaves the breaker out), R-GMA's ConsumerServlet retries its hop to
    the ProducerServlet, and every point reports a resilience summary.
    ``FaultModel()`` — retries on, nothing injected — is the clean
    baseline a faulted run is measured against.
    """

    outages: tuple[Outage, ...] = ()
    drop: float = 0.0
    stall: float = 0.0
    stall_seconds: float = 1.0
    breaker: bool = True

    def validate(self) -> "FaultModel":
        for outage in self.outages:
            if outage.duration <= 0:
                raise ScenarioError(f"outage duration must be positive: {outage}")
        for a, b in zip(self.outages, self.outages[1:]):
            if b.start < a.end:
                raise ScenarioError(f"outages must be in time order and disjoint: {a} and {b}")
        if not 0.0 <= self.drop <= 1.0:
            raise ScenarioError(f"drop probability out of range: {self.drop}")
        if not 0.0 <= self.stall <= 1.0:
            raise ScenarioError(f"stall probability out of range: {self.stall}")
        if self.stall_seconds < 0:
            raise ScenarioError(f"stall_seconds must be non-negative: {self.stall_seconds}")
        return self


@dataclass(frozen=True)
class Scenario:
    """A declarative, seeded bundle of the five generative models.

    ``plan`` optionally names the deployment this scenario is written
    against — a catalog entry or an ``examples/*.plan`` path — which the
    CI ``scenario-check`` job compiles the pair against.  An empty model
    (no arrivals, churn, wan, mix or faults) is valid and changes
    nothing: :data:`PLAIN` is the one every figure point runs under.
    """

    name: str
    description: str = ""
    seed: int = 0
    plan: str = ""
    arrivals: tuple[ArrivalModel, ...] = ()
    churn: ChurnModel | None = None
    wan: WanWeather | None = None
    mix: tuple[MixComponent, ...] = ()
    faults: FaultModel | None = None

    # -- validation --------------------------------------------------------

    def validate(self) -> "Scenario":
        if not self.name:
            raise ScenarioError("a scenario needs a name")
        for model in self.arrivals:
            model.validate()
        if self.churn is not None:
            self.churn.validate()
        if self.wan is not None:
            self.wan.validate()
        if self.mix:
            for comp in self.mix:
                comp.validate()
            total = sum(c.fraction for c in self.mix)
            if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
                raise ScenarioError(f"mix fractions must sum to 1, got {total:g}")
        if self.faults is not None:
            self.faults.validate()
        return self

    # -- arrival modulation ------------------------------------------------

    def rate_factor(self, t: float) -> float:
        """The combined (multiplicative) arrival-rate factor at ``t``."""
        factor = 1.0
        for model in self.arrivals:
            factor *= model.rate(t)
        return max(factor, _MIN_RATE)

    def mean_rate_factor(self, start: float, end: float, steps: int = 256) -> float:
        """Window-averaged rate factor (midpoint rule on a fixed grid)."""
        if end <= start:
            return 1.0
        dt = (end - start) / steps
        return (
            sum(self.rate_factor(start + (i + 0.5) * dt) for i in range(steps)) / steps
        )

    def think_scale(self, t: float) -> float:
        """The think-time multiplier at ``t`` (1/rate factor)."""
        return 1.0 / self.rate_factor(t)

    # -- population partitioning -------------------------------------------

    def partition(self, n_users: int) -> list[tuple[int, MixComponent]]:
        """Split ``n_users`` across the mix (largest-remainder rounding).

        With no mix, the whole population runs the base workload as one
        component of fraction 1.
        """
        if not self.mix:
            return [(n_users, MixComponent(fraction=1.0))] if n_users else []
        counts = [int(math.floor(c.fraction * n_users)) for c in self.mix]
        remainders = sorted(
            range(len(self.mix)),
            key=lambda i: (self.mix[i].fraction * n_users) - counts[i],
            reverse=True,
        )
        short = n_users - sum(counts)
        for i in remainders[:short]:
            counts[i] += 1
        return [(count, comp) for count, comp in zip(counts, self.mix) if count > 0]

    def component_workloads(
        self, base: WorkloadParams, n_users: int
    ) -> list[tuple[int, WorkloadParams]]:
        """(count, workload) pairs for spawning the mixed population."""
        if not self.mix:
            return [(n_users, base)] if n_users else []
        return [(count, comp.workload(base)) for count, comp in self.partition(n_users)]

    # -- fast-tier projection ----------------------------------------------

    def requires_exact(self) -> list[str]:
        """The environment models only the exact DES can honour."""
        features = []
        if self.churn is not None:
            features.append("churn")
        if self.wan is not None:
            features.append("wan")
        if self.faults is not None:
            features.append("faults")
        return features

    def effective_workload(
        self, base: WorkloadParams, start: float, end: float, *, tier: str = "meanfield"
    ) -> WorkloadParams:
        """The steady-state workload a fast tier should solve with.

        Arrival modulation becomes a window-mean think-time scale; a
        client mix becomes its population-weighted mean think time.  The
        cohort tier additionally needs one shared think *pattern* (its
        vectorized sampler runs one pattern per engine); heterogeneous-
        pattern mixes raise :class:`ScenarioError` there.  Churn, WAN
        weather and faults are event-level models with no steady-state
        equivalent: :meth:`requires_exact` names them, and this raises
        :class:`ScenarioError` for any scenario that uses one.
        """
        blocked = self.requires_exact()
        if blocked:
            raise ScenarioError(
                f"scenario {self.name!r} uses {', '.join(blocked)}; fast tiers "
                "model steady state only — those models need the exact DES tier"
            )
        think = base.think_time
        pattern = base.pattern
        if self.mix:
            think = sum(
                c.fraction * (c.think_time if c.think_time is not None else base.think_time)
                for c in self.mix
            )
            patterns = {c.pattern for c in self.mix}
            if len(patterns) == 1:
                pattern = next(iter(patterns))
            elif tier == "cohort":
                raise ScenarioError(
                    f"scenario {self.name!r} mixes think patterns {sorted(patterns)}; "
                    "the cohort tier runs a single pattern — use meanfield or exact"
                )
        scale = self.mean_rate_factor(start, end)
        return replace(base, think_time=think / scale, pattern=pattern)


#: The scenario that changes nothing: every plain figure point runs under it.
PLAIN = Scenario(name="plain")
