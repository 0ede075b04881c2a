"""A seeded metamorphic fuzzer for the scenario plane.

Randomized testing for a simulator has an oracle problem: no one knows
the "right" throughput of a random deployment under a random flash
crowd.  What we *do* know are properties that must hold for every
(plan family, scenario) pair the validity rules admit:

* **conservation** — every connection a service accepted is accounted
  for: ``arrived == refused + completed + errors + dropped + open``;
* **capacity** — concurrency never exceeds ``max_threads + backlog``
  (the invariant a churn/fault double-free breaks first);
* **goodput <= offered** — clients cannot report more OK completions
  than servers completed;
* **cache bounds** — ``0 <= hits <= lookups`` on every directory cache;
* **churn bookkeeping** — rejoins never outnumber leaves,
  re-registrations never outnumber unregistrations, and no service is
  still down at the horizon once every churned node has rejoined and
  every injected outage has ended (the churn x crash no-double-free
  check);
* **recovery** — if churn and outages ended comfortably before the
  horizon, OK completions resumed afterwards;

plus two *metamorphic* relations between deliberately-related runs:

* **monotone load** — doubling the closed-loop population must not
  collapse throughput unless contention signals (refusals, timeouts,
  errors) rise with it (fault-free scenarios; under faults the doubled
  run is held to the single-run invariants);
* **time extension** — lengthening the measurement window of an
  environment-free scenario (no churn/WAN/faults, whose events depend on
  the horizon or the clients' retries) only appends events: every
  monotone counter is ``>=`` its shorter-run value.

:func:`run_fuzz` draws ``count`` cases from streams keyed only by
``(seed, index)`` — fully deterministic, independent of worker count —
and checks each.  Faults (outages, drops, stalls, the breaker) come
from a stream of their own, so adding them left every other draw
unchanged.  :func:`minimize` shrinks a failing case model by
model for the committed repro corpus (``tests/fuzz_corpus/``), which
:func:`load_case` replays.
"""

from __future__ import annotations

import json
import typing as _t
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.experiments.common import wiring
from repro.core.experiments.scenarios import (
    RECOVERY_SLACK,
    SYSTEMS,
    RunAudit,
    run_scenario_point,
)
from repro.core.params import default_params
from repro.core.scenario import codec
from repro.core.scenario.model import (
    ArrivalModel,
    ChurnModel,
    FaultModel,
    MixComponent,
    Outage,
    Scenario,
    ScenarioError,
    WanWeather,
)
from repro.core.workload import THINK_PATTERNS
from repro.sim.randomness import RngHub

__all__ = [
    "FuzzCase",
    "CaseReport",
    "FuzzReport",
    "audit_violations",
    "draw_case",
    "check_case",
    "run_fuzz",
    "minimize",
    "case_to_doc",
    "case_from_doc",
    "save_case",
    "load_case",
]

#: Relative throughput slack before "monotone load" counts as violated
#: (absorbs closed-loop sampling noise near the saturation knee).
MONOTONE_TOLERANCE = 0.10

#: Window stretch factor for the time-extension relation.
EXTENSION_FACTOR = 1.5

#: The systems cases are drawn from: every wired system but
#: hawkeye-advertise, which joined the table after the corpus was
#: drawn; leaving it out keeps every seed mapped to the case it drew.
_DRAWN = tuple(s for s in SYSTEMS if s != "hawkeye-advertise")


@dataclass(frozen=True)
class FuzzCase:
    """One randomly drawn (plan family, scenario, load) coordinate."""

    system: str
    users: int
    seed: int  # run seed (RngHub of the simulation itself)
    warmup: float
    window: float
    scenario: Scenario

    @property
    def label(self) -> str:
        return f"{self.system}/{self.scenario.name} x{self.users} seed={self.seed}"


@dataclass(frozen=True)
class CaseReport:
    """One checked case: empty ``violations`` means every invariant held."""

    case: FuzzCase
    violations: tuple[str, ...] = ()
    throughput: float = 0.0
    client_ok: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class FuzzReport:
    """A whole fuzz run; ``failures`` drives the CI exit code."""

    seed: int
    count: int
    reports: list[CaseReport] = field(default_factory=list)

    @property
    def failures(self) -> list[CaseReport]:
        return [r for r in self.reports if not r.ok]


# -- case generation ---------------------------------------------------------


def _round(x: float, places: int = 3) -> float:
    """Shorten drawn floats so corpus files stay readable and stable."""
    return round(float(x), places)


def _draw_faults(rng: np.random.Generator, warmup: float, window: float) -> FaultModel | None:
    if rng.random() >= 0.45:
        return None
    outages = []
    t = warmup
    for _ in range(int(rng.integers(1, 3)) if rng.random() < 0.8 else 0):
        start = _round(t + rng.uniform(0.5, 0.3 * window))
        outages.append(Outage(start=start, duration=_round(rng.uniform(1.0, 0.2 * window))))
        t = outages[-1].end
    return FaultModel(
        outages=tuple(outages),
        drop=_round(rng.uniform(0.0, 0.2)) if rng.random() < 0.3 else 0.0,
        stall=_round(rng.uniform(0.0, 0.3)) if rng.random() < 0.3 else 0.0,
        stall_seconds=_round(rng.uniform(0.2, 2.0)),
        breaker=bool(rng.random() < 0.8),
    )


def _draw_scenario(
    rng: np.random.Generator,
    name: str,
    warmup: float,
    window: float,
    faults_rng: np.random.Generator,
) -> Scenario:
    horizon = warmup + window
    arrivals: list[ArrivalModel] = []
    for _ in range(int(rng.integers(0, 3))):
        if rng.random() < 0.5:
            arrivals.append(
                ArrivalModel(
                    kind="diurnal",
                    period=_round(rng.uniform(15.0, 60.0)),
                    amplitude=_round(rng.uniform(0.0, 0.8)),
                    phase=_round(rng.uniform(0.0, 1.0)),
                )
            )
        else:
            arrivals.append(
                ArrivalModel(
                    kind="flash",
                    at=_round(rng.uniform(warmup, warmup + 0.5 * window)),
                    duration=_round(rng.uniform(3.0, 0.5 * window)),
                    peak=_round(rng.uniform(1.5, 5.0)),
                    ramp=_round(rng.uniform(0.1, 0.5)),
                )
            )

    churn = None
    if rng.random() < 0.45:
        start = _round(rng.uniform(2.0, 0.4 * horizon))
        churn = ChurnModel(
            session_time=_round(rng.uniform(6.0, 20.0)),
            downtime=_round(rng.uniform(2.0, 6.0)),
            start=start,
            end=_round(start + rng.uniform(0.3, 0.7) * window),
        )

    wan = None
    if rng.random() < 0.45:
        wan = WanWeather(
            rate=_round(rng.uniform(0.02, 0.12)),
            mean_duration=_round(rng.uniform(2.0, 6.0)),
            extra_latency=_round(rng.uniform(0.01, 0.08)),
            loss=_round(rng.uniform(0.0, 0.2)),
        )

    mix: tuple[MixComponent, ...] = ()
    if rng.random() < 0.4:
        k = int(rng.integers(2, 4))
        weights = rng.random(k) + 0.2
        fractions = weights / weights.sum()
        patterns = tuple(THINK_PATTERNS)
        mix = tuple(
            MixComponent(
                fraction=float(fractions[i]),
                pattern=patterns[int(rng.integers(0, len(patterns)))],
            )
            for i in range(k)
        )

    return Scenario(
        name=name,
        seed=int(rng.integers(0, 2**16)),
        arrivals=tuple(arrivals),
        churn=churn,
        wan=wan,
        mix=mix,
        faults=_draw_faults(faults_rng, warmup, window),
    ).validate()


def draw_case(seed: int, index: int) -> FuzzCase:
    """The ``index``-th case of fuzz run ``seed`` — a pure function.

    Every draw comes from the streams ``("fuzz", seed, index)`` and
    ``("fuzz", seed, index, "faults")``, so case *i* is identical however
    many workers run and whatever order cases execute in.
    """
    hub = RngHub(seed)
    rng = hub.stream("fuzz", str(seed), str(index))
    system = _DRAWN[int(rng.integers(0, len(_DRAWN)))]
    users = min(int(rng.integers(4, 25)), wiring(system).max_users)
    warmup = 4.0
    window = _round(rng.uniform(12.0, 20.0), 1)
    return FuzzCase(
        system=system,
        users=users,
        seed=int(rng.integers(1, 7)),
        warmup=warmup,
        window=window,
        scenario=_draw_scenario(
            rng,
            f"fuzz-{seed}-{index}",
            warmup,
            window,
            hub.stream("fuzz", str(seed), str(index), "faults"),
        ),
    )


# -- invariants --------------------------------------------------------------


def audit_violations(audit: RunAudit, *, min_tail: float = 0.0) -> list[str]:
    """Single-run invariant violations in one :class:`RunAudit`.

    ``min_tail`` is the churn-free tail (beyond ``RECOVERY_SLACK``) a run
    must have before the recovery invariant applies — callers that know
    the scenario derive it from the worst think-time stretch over the
    tail (:func:`check_case`), since a diurnal trough can legitimately
    hold every user silent for ``think_time / MIN_RATE`` seconds.
    """
    v: list[str] = []
    for name, s in audit.services.items():
        if s.arrived != s.accounted:
            v.append(
                f"conservation: {name} arrived {s.arrived} != "
                f"refused {s.refused} + completed {s.completed} + errors {s.errors}"
                f" + dropped {s.dropped} + open {s.open_at_end}"
            )
        if s.max_concurrent > s.capacity:
            v.append(
                f"capacity: {name} max_concurrent {s.max_concurrent} "
                f"> capacity {s.capacity}"
            )
        if min(s.arrived, s.refused, s.completed, s.errors, s.dropped, s.open_at_end) < 0:
            v.append(f"negative-counter: {name} {s}")
    completed = sum(s.completed for s in audit.services.values())
    if audit.client_ok > completed:
        v.append(
            f"goodput: clients report {audit.client_ok} OK "
            f"but services completed only {completed}"
        )
    if not 0 <= audit.cache_hits <= audit.cache_lookups:
        v.append(
            f"cache-bounds: hits {audit.cache_hits} "
            f"outside [0, lookups {audit.cache_lookups}]"
        )
    if audit.churn_rejoins > audit.churn_leaves:
        v.append(
            f"churn-bookkeeping: {audit.churn_rejoins} rejoins "
            f"> {audit.churn_leaves} leaves"
        )
    if audit.directory_registers > audit.directory_unregisters:
        v.append(
            f"churn-bookkeeping: {audit.directory_registers} re-registers "
            f"> {audit.directory_unregisters} unregisters"
        )
    released = (
        audit.churn_rejoins == audit.churn_leaves and audit.last_outage_end < audit.horizon
    )
    if (audit.churn_leaves or audit.last_outage_end) and released:
        stuck = [n for n, s in audit.services.items() if s.down_at_end]
        if stuck:
            v.append(
                f"stuck-down: every churned node rejoined and every outage ended "
                f"but {stuck} still down at the horizon (unbalanced fail/restore?)"
            )
    if (
        audit.ok_after_recovery == 0
        and released
        and audit.recovery_point + RECOVERY_SLACK + min_tail < audit.horizon
    ):
        v.append(
            f"recovery: churn and outages ended at t={audit.recovery_point:.1f} "
            f"(horizon {audit.horizon:.1f}) but no OK completion started after "
            f"t={audit.recovery_point + RECOVERY_SLACK:.1f}"
        )
    return v


def _recovery_tail(case: FuzzCase, audit: RunAudit, response_time: float) -> float:
    """The disruption-free tail a run needs before recovery is *expected*.

    A closed-loop user must first drain whatever request was in flight
    when churn or the last outage ended (~one response time), wait one
    (modulated) think time, then start AND finish a new request before
    the horizon — on a saturated system (the uncached GRIS serves in
    >10 s) that is two more response times than an idle one.
    """
    start = audit.recovery_point + RECOVERY_SLACK
    if start >= audit.horizon:
        return 0.0
    span = audit.horizon - start
    scale = max(
        case.scenario.think_scale(start + span * i / 16.0) for i in range(17)
    )
    think = default_params().workload.think_time
    return scale * think + 2.0 * response_time + 2.0


def check_case(case: FuzzCase, *, metamorphic: bool = True) -> CaseReport:
    """Run one case (plus its metamorphic partners) against the invariants."""
    base = run_scenario_point(
        case.system,
        case.scenario,
        case.users,
        case.seed,
        warmup=case.warmup,
        window=case.window,
    )
    assert base.audit is not None
    min_tail = _recovery_tail(case, base.audit, base.result.response_time)
    violations = audit_violations(base.audit, min_tail=min_tail)

    if metamorphic:
        # Monotone load: double the population (respecting validity caps).
        doubled_users = min(2 * case.users, wiring(case.system).max_users)
        if doubled_users > case.users:
            doubled = run_scenario_point(
                case.system,
                case.scenario,
                doubled_users,
                case.seed,
                warmup=case.warmup,
                window=case.window,
            )
            assert doubled.audit is not None
            violations += audit_violations(
                doubled.audit,
                min_tail=_recovery_tail(case, doubled.audit, doubled.result.response_time),
            )
            contention = lambda a: a.client_refused + a.client_timeout + a.client_error  # noqa: E731
            # Under faults the outage windows and the users' one shared
            # circuit breaker, not the population, gate what is offered
            # (and retries hide refusals), so only the doubled run's own
            # invariants apply there.
            if (
                case.scenario.faults is None
                and doubled.result.throughput
                < base.result.throughput * (1.0 - MONOTONE_TOLERANCE)
                and contention(doubled.audit) <= contention(base.audit)
            ):
                violations.append(
                    f"monotone-load: {doubled_users} users move "
                    f"{doubled.result.throughput:.2f} q/s vs "
                    f"{base.result.throughput:.2f} at {case.users}, "
                    "with no rise in contention signals"
                )

        # Time extension: only environment-free scenarios have the prefix
        # property (churn/WAN event draws depend on the horizon, and
        # retries under faults change what clients send).
        if not case.scenario.requires_exact():
            longer = run_scenario_point(
                case.system,
                case.scenario,
                case.users,
                case.seed,
                warmup=case.warmup,
                window=_round(case.window * EXTENSION_FACTOR, 1),
            )
            assert longer.audit is not None
            violations += audit_violations(
                longer.audit,
                min_tail=_recovery_tail(case, longer.audit, longer.result.response_time),
            )
            short_total = base.audit.client_ok + base.audit.client_refused
            long_total = longer.audit.client_ok + longer.audit.client_refused
            if long_total < short_total:
                violations.append(
                    f"time-extension: stretching the window shrank resolved "
                    f"requests {short_total} -> {long_total}"
                )
            for name, s in base.audit.services.items():
                s2 = longer.audit.services.get(name)
                if s2 is not None and s2.arrived < s.arrived:
                    violations.append(
                        f"time-extension: {name} arrivals shrank "
                        f"{s.arrived} -> {s2.arrived} in the longer run"
                    )

    return CaseReport(
        case=case,
        violations=tuple(violations),
        throughput=base.result.throughput,
        client_ok=base.audit.client_ok,
    )


def run_fuzz(
    seed: int,
    count: int = 10,
    *,
    metamorphic: bool = True,
    log: _t.Callable[[str], None] | None = None,
) -> FuzzReport:
    """Draw and check ``count`` cases; deterministic for a given ``seed``."""
    report = FuzzReport(seed=seed, count=count)
    for index in range(count):
        case = draw_case(seed, index)
        result = check_case(case, metamorphic=metamorphic)
        report.reports.append(result)
        if log is not None:
            status = "ok" if result.ok else f"FAIL ({len(result.violations)})"
            log(f"[{index + 1}/{count}] {case.label}: {status}")
            for violation in result.violations:
                log(f"    {violation}")
    return report


# -- shrinking ---------------------------------------------------------------


def _shrink_candidates(case: FuzzCase) -> _t.Iterator[FuzzCase]:
    """Simpler variants of ``case``, most aggressive first."""
    sc = case.scenario
    if sc.faults is not None:
        yield replace(case, scenario=replace(sc, faults=None))
    if sc.wan is not None:
        yield replace(case, scenario=replace(sc, wan=None))
    if sc.churn is not None:
        yield replace(case, scenario=replace(sc, churn=None))
    if sc.mix:
        yield replace(case, scenario=replace(sc, mix=()))
    for i in range(len(sc.arrivals)):
        trimmed = sc.arrivals[:i] + sc.arrivals[i + 1 :]
        yield replace(case, scenario=replace(sc, arrivals=trimmed))
    if case.users > 4:
        yield replace(case, users=max(4, case.users // 2))
    if case.window > 8.0:
        yield replace(case, window=_round(max(8.0, case.window / 2), 1))


def minimize(case: FuzzCase, *, metamorphic: bool = True, max_runs: int = 40) -> FuzzCase:
    """Greedily shrink a failing case while it keeps failing.

    Budgeted at ``max_runs`` candidate evaluations; returns the smallest
    still-failing case found (possibly the input itself if nothing
    simpler reproduces).
    """
    if check_case(case, metamorphic=metamorphic).ok:
        raise ScenarioError(f"cannot minimize a passing case: {case.label}")
    runs = 0
    while runs < max_runs:
        for candidate in _shrink_candidates(case):
            runs += 1
            if not check_case(candidate, metamorphic=metamorphic).ok:
                case = candidate
                break
            if runs >= max_runs:
                break
        else:
            break
    return case


# -- corpus I/O --------------------------------------------------------------

_CASE_FIELDS = ("system", "users", "seed", "warmup", "window", "scenario")


def case_to_doc(case: FuzzCase) -> dict:
    """A JSON-ready document for one case (the corpus file format)."""
    return {
        "system": case.system,
        "users": case.users,
        "seed": case.seed,
        "warmup": case.warmup,
        "window": case.window,
        "scenario": json.loads(codec.dumps(case.scenario)),
    }


def case_from_doc(doc: dict) -> FuzzCase:
    unknown = set(doc) - set(_CASE_FIELDS)
    if unknown:
        raise ScenarioError(f"unknown fuzz-case fields: {sorted(unknown)}")
    missing = [k for k in _CASE_FIELDS if k not in doc]
    if missing:
        raise ScenarioError(f"fuzz case missing fields: {missing}")
    return FuzzCase(
        system=str(doc["system"]),
        users=int(doc["users"]),
        seed=int(doc["seed"]),
        warmup=float(doc["warmup"]),
        window=float(doc["window"]),
        scenario=codec.loads(json.dumps(doc["scenario"])),
    )


def save_case(case: FuzzCase, path: str | Path) -> None:
    Path(path).write_text(json.dumps(case_to_doc(case), indent=2) + "\n")


def load_case(path: str | Path) -> FuzzCase:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: fuzz case must be a JSON object")
    return case_from_doc(doc)
