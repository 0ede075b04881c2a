"""``hawkeye_advertise``: inject Startd ClassAds directly into a Manager.

Experiment 4 simulated "the large number of Agents (computers) in a
pool by using the 'hawkeye_advertise' command to send Startd ClassAds
at 30-second intervals to the collector machine" (paper §3.6).  This
module provides the same capability: synthesize a plausible Startd ad
for a fictitious machine and deliver it to a Manager.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.classad import ClassAd
from repro.core.draws import DrawPlan, Integers, Uniform
from repro.hawkeye.manager import Manager

__all__ = ["synthesize_startd_ad", "advertise", "AdvertiserFleet"]


_BASE_ATTRS = 10  # the fixed Startd attributes, CpuLoad among them


@functools.lru_cache(maxsize=None)
def _readings(nattrs: int) -> DrawPlan:
    """CpuLoad, then one ``hawkeye_metric<i>`` per attribute past the base."""
    return DrawPlan([Uniform(0.0, 2.0, 3)] + [Integers(0, 10_000)] * (nattrs - _BASE_ATTRS))


def synthesize_startd_ad(
    machine: str, rng: np.random.Generator, now: float = 0.0, nattrs: int = 40
) -> ClassAd:
    """A fake—but schema-complete—Startd ad for ``machine``."""
    cpu_load, *metrics = _readings(nattrs).draw(rng)
    ad = ClassAd(
        {
            "MyType": "Machine",
            "TargetType": "Job",
            "Name": machine,
            "Machine": machine,
            "OpSys": "LINUX",
            "Arch": "INTEL",
            "Memory": 512,
            "Cpus": 2,
            "CpuLoad": cpu_load,
            "LastHeardFrom": now,
        }
    )
    for i, value in enumerate(metrics):
        ad[f"hawkeye_metric{i}"] = value
    return ad


def advertise(manager: Manager, machine: str, rng: np.random.Generator, now: float = 0.0) -> ClassAd:
    """Build and deliver one Startd ad (one ``hawkeye_advertise`` run)."""
    ad = synthesize_startd_ad(machine, rng, now)
    manager.receive_ad(ad, now=now)
    return ad


class AdvertiserFleet:
    """A set of simulated machines advertising on a fixed interval."""

    def __init__(self, manager: Manager, count: int, *, seed: int = 0, interval: float = 30.0) -> None:
        self.manager = manager
        self.machines = [f"sim{i:04d}.pool" for i in range(count)]
        self.interval = interval
        self._rng = np.random.default_rng(seed)
        self.rounds = 0

    def advertise_round(self, now: float = 0.0) -> int:
        """One advertise cycle for every simulated machine."""
        for machine in self.machines:
            advertise(self.manager, machine, self._rng, now)
        self.rounds += 1
        return len(self.machines)

    @property
    def ads_per_second(self) -> float:
        """Mean background ad arrival rate this fleet generates."""
        return len(self.machines) / self.interval
