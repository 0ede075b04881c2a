"""The declarative scenario plane: generative dynamics over deployments.

``repro.core.scenario`` turns the paper's static measurement points
into *scenarios*: seeded, declarative JSON bundles of diurnal/flash
arrival modulation, registrant churn, correlated WAN weather,
heterogeneous client mixes and injected faults (:mod:`~repro.core.scenario.model`), with a
strict codec (:mod:`~repro.core.scenario.codec`), DES installation
(:mod:`~repro.core.scenario.apply`), a metamorphic fuzzer
(:mod:`~repro.core.scenario.fuzz`) and the ``repro-scenario`` CLI
(:mod:`~repro.core.scenario.cli`).  See docs/SCENARIOS.md.
"""

import typing as _t

from repro.core.scenario.codec import dump, dumps, load, loads
from repro.core.scenario.model import (
    ArrivalModel,
    ChurnEvent,
    ChurnModel,
    FaultModel,
    MixComponent,
    Outage,
    PLAIN,
    Scenario,
    ScenarioError,
    WanEpisode,
    WanWeather,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.scenario.apply import (  # noqa: F401
        ScenarioOps,
        apply_scenario,
        churn_candidates,
    )

# The apply module installs scenarios on the exact DES and so imports
# the simulator; resolve its names lazily to keep ``import
# repro.core.scenario`` (and therefore :mod:`repro.live`) sim-free.
_APPLY_EXPORTS = ("ScenarioOps", "apply_scenario", "churn_candidates")


def __getattr__(name: str) -> _t.Any:
    if name in _APPLY_EXPORTS:
        from repro.core.scenario import apply

        return getattr(apply, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArrivalModel",
    "ChurnEvent",
    "ChurnModel",
    "FaultModel",
    "MixComponent",
    "Outage",
    "PLAIN",
    "Scenario",
    "ScenarioError",
    "ScenarioOps",
    "WanEpisode",
    "WanWeather",
    "apply_scenario",
    "churn_candidates",
    "dump",
    "dumps",
    "load",
    "loads",
]
