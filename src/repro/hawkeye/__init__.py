"""Hawkeye: Modules, Agents, Manager and Trigger ClassAds (paper §2.3).

Functional re-implementation of the Condor project's pool monitoring
tool: module sensors produce ClassAd fragments, Agents integrate them
into Startd ads and push them to the Manager's indexed resident
database; Trigger ClassAds automate problem detection via matchmaking.
Timing is charged by the simulation layer (``repro.core``).
"""

from repro.hawkeye.advertise import synthesize_startd_ad
from repro.hawkeye.agent import MAX_MODULES, Agent, AgentAnswer
from repro.hawkeye.manager import Manager, ManagerAnswer
from repro.hawkeye.modules import (
    DEFAULT_MODULE_NAMES,
    Module,
    make_default_modules,
    replicated_modules,
)
from repro.hawkeye.resilience import AdvertiserStats, resilient_advertiser
from repro.hawkeye.triggers import Trigger, TriggerEngine, TriggerFiring

__all__ = [
    "Module",
    "make_default_modules",
    "replicated_modules",
    "DEFAULT_MODULE_NAMES",
    "Agent",
    "AgentAnswer",
    "MAX_MODULES",
    "Manager",
    "ManagerAnswer",
    "Trigger",
    "TriggerEngine",
    "TriggerFiring",
    "synthesize_startd_ad",
    "AdvertiserStats",
    "resilient_advertiser",
]
