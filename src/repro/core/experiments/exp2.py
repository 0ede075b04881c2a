"""Experiment Set 2 — directory-server scalability with users (§3.4).

Reproduces Figures 9-12: the MDS GIIS (cachettl set very large, so the
directory function is isolated), the Hawkeye Manager (6 Agents
advertising) and the R-GMA Registry (5 ProducerServlets x 10 producers
registered), queried by 1-600 concurrent users.

Series:

* ``mds-giis``           — GIIS on lucky0, 5 GRIS (lucky3-7) registered;
* ``hawkeye-manager``    — Manager on lucky3, 6 Agents x 11 modules;
* ``rgma-registry-lucky``— Registry on lucky1, consumers on Lucky nodes;
* ``rgma-registry-uc``   — Registry on lucky1, consumers at UC (<=100).

Each point is :func:`repro.core.experiments.scenarios.run_wired` on
the system's :func:`~repro.core.topology.catalog.exp2_plan` with its
``EXP2_WIRING`` row, exactly as in :mod:`~repro.core.experiments.exp1`.
"""

from __future__ import annotations

import typing as _t

from repro.core.experiments.common import EXP2_WIRING, sweep_points, wiring, within_cap
from repro.core.experiments.scenarios import run_wired
from repro.core.params import StudyParams
from repro.core.runner import PointResult
from repro.core.scenario.model import PLAIN
from repro.core.topology.catalog import exp2_plan

__all__ = ["SYSTEMS", "X_VALUES", "run_point", "sweep"]

SYSTEMS = tuple(EXP2_WIRING)

# The user counts of Figures 9-12 (the paper's x-axis tick labels).
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
    """Measure one (system, users) coordinate of Figures 9-12.

    ``fidelity`` selects the simulation tier exactly as in
    :func:`repro.core.experiments.exp1.run_point`.
    """
    return run_wired(
        exp2_plan(system, seed), wiring(system, EXP2_WIRING), PLAIN, users, seed,
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
