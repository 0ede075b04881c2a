"""Experiment Set 3 — information-server scalability with collectors (§3.5).

Reproduces Figures 13-16: 10 concurrent users query each information
server while the number of information collectors grows from the
default (10 providers / 11 modules / 10 producers) to 90.

Series:

* ``mds-gris-cache``   — GRIS with data always in cache;
* ``mds-gris-nocache`` — GRIS re-running every provider per query;
* ``hawkeye-agent``    — Agent with vmstat-clone modules;
* ``rgma-ps``          — ProducerServlet queried directly.

Each point is :func:`repro.core.experiments.scenarios.run_wired` on
the system's :func:`~repro.core.topology.catalog.exp3_plan` (the
collector count sizes its collector bank) with its ``EXP3_WIRING`` row.
"""

from __future__ import annotations

import typing as _t

from repro.core.experiments.common import EXP3_WIRING, sweep_points, wiring
from repro.core.experiments.scenarios import run_wired
from repro.core.params import StudyParams
from repro.core.runner import PointResult
from repro.core.scenario.model import PLAIN
from repro.core.topology.catalog import exp3_plan

__all__ = ["SYSTEMS", "X_VALUES", "USERS", "run_point", "sweep"]

SYSTEMS = tuple(EXP3_WIRING)

# Collector counts on the x-axis of Figures 13-16.
X_VALUES = (10, 30, 50, 70, 90)

# "10 concurrent users sent queries" (§3.5).
USERS = 10


def run_point(
    system: str,
    collectors: int,
    seed: int = 1,
    *,
    users: int = USERS,
    params: StudyParams | None = None,
    warmup: float | None = None,
    window: float | None = None,
    adaptive: bool = False,
    fidelity: str | None = None,
) -> PointResult:
    """Measure one (system, collectors) coordinate of Figures 13-16.

    ``fidelity`` selects the simulation tier exactly as in
    :func:`repro.core.experiments.exp1.run_point`; the x axis stays the
    collector count, with ``users`` clients driving the fast model.
    """
    return run_wired(
        exp3_plan(system, collectors, seed), wiring(system, EXP3_WIRING), PLAIN, users, seed,
        label=system, x=collectors, params=params, warmup=warmup, window=window,
        adaptive=adaptive, fidelity=fidelity,
    ).result


def sweep(
    system: str,
    x_values: _t.Sequence[int] = X_VALUES,
    seed: int = 1,
    **kwargs: _t.Any,
) -> list[PointResult]:
    """Full series for one figure legend entry."""
    return sweep_points(
        run_point, [(system, collectors, seed) for collectors in x_values], **kwargs
    )
