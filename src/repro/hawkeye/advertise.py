"""``hawkeye_advertise``'s payload: a synthetic Startd ClassAd.

Experiment 4 simulated "the large number of Agents (computers) in a
pool by using the 'hawkeye_advertise' command to send Startd ClassAds
at 30-second intervals to the collector machine" (paper §3.6).  This
module synthesizes a plausible Startd ad for a fictitious machine; the
advertising loop that delivers it to a Manager is the plan's advertiser
(:func:`repro.core.kernels.build.activate_plan`).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.classad import ClassAd
from repro.core.draws import DrawPlan, Integers, Uniform

__all__ = ["synthesize_startd_ad"]


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
