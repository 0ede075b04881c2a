"""Fault experiments — the paper's sweeps re-run under injected failures.

The paper measures how the three systems *saturate*; operational
reports from the same era (R-GMA deployment notes, MDS production
experience) say the dominant field problem was services *failing* —
registry restarts, hung servlets, dropped connections.  A fault
experiment is a scenario sweep: :func:`fault_scenario` builds the
canonical crash/restart schedule as a
:class:`~repro.core.scenario.model.Scenario` with a
:class:`~repro.core.scenario.model.FaultModel`, and :func:`sweep` runs
each user count twice through
:func:`~repro.core.experiments.scenarios.run_scenario_point` — once
with retries armed but nothing injected, once faulted — and pairs the
results into goodput, retry amplification and time-to-recover.

Any system of :data:`~repro.core.experiments.common.WIRING` works; the
outages land on its plan's ``fault_target`` node (for the R-GMA
variants, the ProducerServlet).  Two entries exist for this purpose:

* ``mds-registration``  — GIIS on lucky0 with five GRIS keeping their
  soft-state registrations alive over the wire; a GIIS outage expires
  leases and forces re-registration on restart;
* ``hawkeye-advertise`` — Manager on lucky3 with six Agents pushing
  Startd ads through the ingest service; a collector outage costs
  dropped ads and pool staleness.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field, replace

from repro.core.experiments.common import sweep_points, within_cap
from repro.core.experiments.scenarios import X_VALUES, resolve_scenario, run_scenario_point
from repro.core.parallel import register_codec
from repro.core.runner import PointResult
from repro.core.scenario.model import FaultModel, Outage, Scenario, ScenarioError

__all__ = [
    "SCHEDULES",
    "FaultPointResult",
    "fault_scenario",
    "format_fault_table",
    "sweep",
]

SCHEDULES = ("outage", "flapping")


def fault_scenario(kind: str, warmup: float, window: float) -> Scenario:
    """The two canonical fault shapes, scaled to the measurement window.

    * ``outage``   — one crash a quarter into the window, down for 20 %
      of it (a service restart mid-measurement);
    * ``flapping`` — three short outages a quarter-window apart (a
      service caught in a crash loop).

    The scenario is named after ``kind``; tune drops, stalls or the
    breaker with ``dataclasses.replace`` on its ``faults``.
    """
    if kind == "outage":
        outages = (Outage(warmup + 0.25 * window, 0.2 * window),)
    elif kind == "flapping":
        first, duration, period = warmup + 0.15 * window, 0.06 * window, 0.25 * window
        outages = tuple(Outage(first + i * period, duration) for i in range(3))
    else:
        raise ValueError(f"unknown fault schedule {kind!r}; pick from {SCHEDULES}")
    return Scenario(name=kind, faults=FaultModel(outages=outages)).validate()


@register_codec
@dataclass(frozen=True)
class FaultPointResult:
    """A baseline/faulted pair for one (system, users, schedule) point."""

    system: str
    x: float
    schedule: str
    baseline: PointResult  # same scenario, retry policy on, nothing injected
    faulted: PointResult
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def no_fault_goodput(self) -> float:
        assert self.baseline.resilience is not None
        return self.baseline.resilience.goodput

    @property
    def recovered_fraction(self) -> float:
        """Post-restart success rate as a fraction of no-fault goodput."""
        assert self.faulted.resilience is not None
        base = self.no_fault_goodput
        return self.faulted.resilience.post_outage_rate / base if base else 0.0

    @property
    def retry_amplification(self) -> float:
        assert self.faulted.resilience is not None
        return self.faulted.resilience.retry_amplification

    @property
    def recovery_time(self) -> float | None:
        assert self.faulted.resilience is not None
        return self.faulted.resilience.recovery_time


def sweep(
    system: str,
    scenario: "Scenario | str",
    x_values: _t.Sequence[int] = X_VALUES,
    seed: int = 1,
    **kwargs: _t.Any,
) -> list[FaultPointResult]:
    """Baseline/faulted pairs for one system across user counts.

    The baseline is ``scenario`` with its faults reduced to the bare
    retry policy (same breaker setting), so its goodput is the recovery
    yardstick.  Both halves of every pair are ordinary scenario points,
    so the sweep fans out and caches like any figure sweep; ``extras``
    carries the faulted run's control-plane counters.
    """
    faulted = resolve_scenario(scenario)
    if faulted.faults is None:
        raise ScenarioError(f"scenario {faulted.name!r} injects no faults")
    baseline = replace(faulted, faults=FaultModel(breaker=faulted.faults.breaker))
    xs = within_cap(system, x_values)
    points = sweep_points(
        run_scenario_point,
        [(system, sc, users, seed) for users in xs for sc in (baseline, faulted)],
        **kwargs,
    )
    pairs = []
    for users, clean, hit in zip(xs, points[::2], points[1::2]):
        assert hit.audit is not None
        pairs.append(
            FaultPointResult(
                system=system,
                x=users,
                schedule=faulted.name,
                baseline=clean.result,
                faulted=hit.result,
                extras=dict(hit.audit.control),
            )
        )
    return pairs


def format_fault_table(rows: _t.Sequence[FaultPointResult]) -> str:
    """Fixed-width table of the resilience metrics for benchmark output."""
    header = (
        f"{'system':<20} {'users':>5} {'schedule':>8} "
        f"{'goodput0':>9} {'goodput':>9} {'recov%':>7} "
        f"{'amp':>6} {'t_recover':>9} {'downtime':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        res = r.faulted.resilience
        assert res is not None
        t_rec = "never" if res.recovery_time is None else f"{res.recovery_time:.1f}"
        lines.append(
            f"{r.system:<20} {r.x:>5.0f} {r.schedule:>8} "
            f"{r.no_fault_goodput:>9.2f} {res.goodput:>9.2f} "
            f"{100 * r.recovered_fraction:>6.1f}% "
            f"{r.retry_amplification:>6.2f} {t_rec:>9} {res.downtime:>8.1f}"
        )
    return "\n".join(lines)
