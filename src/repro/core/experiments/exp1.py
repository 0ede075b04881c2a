"""Experiment Set 1 — information-server scalability with users (§3.3).

Reproduces Figures 5-8: throughput, response time, load1 and CPU load
of the three information servers as 1-600 concurrent users query them.

The five series of the figures:

* ``mds-gris-cache``   — GRIS on lucky7, 10 providers, data always cached;
* ``mds-gris-nocache`` — same, data never cached;
* ``hawkeye-agent``    — Agent on lucky4 (Manager on lucky3);
* ``rgma-ps-uc``       — ProducerServlet on lucky3, consumers at UC through
  a single ConsumerServlet (the paper could drive at most ~100-120 users
  this way);
* ``rgma-ps-lucky``    — same servlet, consumers on the Lucky nodes with a
  ConsumerServlet per node (up to 600 users).

Each point is the one point body,
:func:`repro.core.experiments.scenarios.run_wired`, under the empty
scenario: the system's :func:`~repro.core.topology.catalog.exp1_plan`
with its :data:`~repro.core.experiments.common.EXP1_WIRING` row.
"""

from __future__ import annotations

import typing as _t

from repro.core.experiments.common import EXP1_WIRING, sweep_points, wiring, within_cap
from repro.core.experiments.scenarios import run_wired
from repro.core.params import StudyParams
from repro.core.runner import PointResult
from repro.core.scenario.model import PLAIN
from repro.core.topology.catalog import exp1_plan

__all__ = ["SYSTEMS", "X_VALUES", "run_point", "sweep"]

SYSTEMS = tuple(EXP1_WIRING)

# The user counts of Figures 5-8.
X_VALUES = (1, 10, 50, 100, 200, 300, 400, 500, 600)


def run_point(
    system: str,
    users: int,
    seed: int = 1,
    *,
    params: StudyParams | None = None,
    warmup: float | None = None,
    window: float | None = None,
    adaptive: bool = False,
    fidelity: str | None = None,
) -> PointResult:
    """Measure one (system, users) coordinate of Figures 5-8.

    ``fidelity`` selects the simulation tier (``docs/FIDELITY.md``):
    ``None``/``"exact"`` run the per-client DES unchanged; ``"cohort"``
    and ``"meanfield"`` route the same deployment plan through
    :func:`repro.core.fidelity.fast_point`.  Fast tiers model the
    steady-state query path only, so they reject adaptive runs.  The
    same point under a scenario (faults, churn, ...) is
    :func:`repro.core.experiments.scenarios.run_scenario_point`.
    """
    return run_wired(
        exp1_plan(system, seed), wiring(system, EXP1_WIRING), PLAIN, users, seed,
        label=system, x=users, params=params, warmup=warmup, window=window,
        adaptive=adaptive, fidelity=fidelity,
    ).result


def sweep(
    system: str,
    x_values: _t.Sequence[int] = X_VALUES,
    seed: int = 1,
    **kwargs: _t.Any,
) -> list[PointResult]:
    """Full series for one figure legend entry (the UC variant stops at 100)."""
    return sweep_points(
        run_point, [(system, users, seed) for users in within_cap(system, x_values)], **kwargs
    )
