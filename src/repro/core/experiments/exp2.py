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

Each point is :func:`repro.core.experiments.scenarios.run_wired` under
the empty scenario, exactly as in :mod:`~repro.core.experiments.exp1`.
"""

from __future__ import annotations

import typing as _t

from repro.core.experiments.common import sweep_points, within_cap
from repro.core.experiments.scenarios import run_wired
from repro.core.params import StudyParams
from repro.core.runner import PointResult
from repro.core.scenario.model import PLAIN
from repro.core.stats import AdaptiveConfig

__all__ = ["SYSTEMS", "X_VALUES", "run_point", "sweep"]

SYSTEMS = (
    "mds-giis",
    "hawkeye-manager",
    "rgma-registry-lucky",
    "rgma-registry-uc",
)

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
    adaptive: AdaptiveConfig | bool | None = None,
    fidelity: str | None = None,
) -> PointResult:
    """Measure one (system, users) coordinate of Figures 9-12.

    ``fidelity`` selects the simulation tier exactly as in
    :func:`repro.core.experiments.exp1.run_point`.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown exp2 system {system!r}; pick from {SYSTEMS}")
    return run_wired(
        system,
        PLAIN,
        users,
        seed,
        params=params,
        warmup=warmup,
        window=window,
        adaptive=adaptive,
        fidelity=fidelity,
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
