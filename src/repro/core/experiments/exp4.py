"""Experiment Set 4 — aggregate-information-server scalability (§3.6).

Reproduces Figures 17-20: 10 concurrent users query the aggregate
servers while the number of aggregated information servers grows.

Series:

* ``mds-giis-all``     — GIIS queried for *all* data of every registered
  GRIS; the paper could drive at most 200 GRIS this way before the GIIS
  crashed, which the sweep reproduces as DNF points;
* ``mds-giis-part``    — GIIS queried for a portion of the data; worked
  to 500 registered GRIS;
* ``hawkeye-manager``  — Manager receiving ``hawkeye_advertise`` Startd
  ads from up to 1000 simulated machines at 30-second intervals while
  users issue worst-case (match-nothing) constraint queries.

R-GMA has no aggregate information server (Table 1), so — exactly like
the paper — it has no series here; asking the topology plane for one
raises :class:`~repro.core.topology.plan.PlanError`.

Each point is :func:`repro.core.experiments.scenarios.run_wired` on
the system's :func:`~repro.core.topology.catalog.exp4_plan` (the GRIS
bank and the advertiser pool are replicated node specs) with its
``EXP4_WIRING`` row.
"""

from __future__ import annotations

import typing as _t

from repro.core.experiments.common import EXP4_WIRING, sweep_points, wiring
from repro.core.experiments.scenarios import run_wired
from repro.core.params import StudyParams
from repro.core.runner import PointResult
from repro.core.scenario.model import PLAIN
from repro.core.topology.catalog import exp4_plan

__all__ = ["SYSTEMS", "X_VALUES", "USERS", "run_point", "sweep"]

SYSTEMS = tuple(EXP4_WIRING)

# Information-server counts per series (the paper's observed limits).
X_VALUES: dict[str, tuple[int, ...]] = {
    "mds-giis-all": (10, 50, 100, 200, 300),  # 300 crashes, as observed
    "mds-giis-part": (10, 50, 100, 200, 300, 400, 500),
    "hawkeye-manager": (10, 100, 200, 400, 600, 800, 1000),
}

USERS = 10


def run_point(
    system: str,
    servers: int,
    seed: int = 1,
    *,
    users: int = USERS,
    params: StudyParams | None = None,
    warmup: float | None = None,
    window: float | None = None,
    adaptive: bool = False,
) -> PointResult:
    """Measure one (system, servers) coordinate of Figures 17-20."""
    return run_wired(
        exp4_plan(system, servers, seed), wiring(system, EXP4_WIRING), PLAIN, users, seed,
        label=system, x=servers, params=params, warmup=warmup, window=window, adaptive=adaptive,
    ).result


def sweep(
    system: str,
    x_values: _t.Sequence[int] | None = None,
    seed: int = 1,
    **kwargs: _t.Any,
) -> list[PointResult]:
    """Full series for one figure legend entry (crashes become DNF points)."""
    values = tuple(x_values) if x_values is not None else X_VALUES[system]
    return sweep_points(run_point, [(system, servers, seed) for servers in values], **kwargs)
