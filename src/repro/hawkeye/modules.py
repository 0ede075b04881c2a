"""Hawkeye Modules — sensors advertising resource information as ClassAds.

"A Module is simply a sensor that advertises resource information in a
ClassAd format" (paper §2.3).  A standard install runs 11 Modules
(§3.5); Experiment 3 scales the count using "multiple instances of the
'vmstat' Module", which :func:`replicated_modules` reproduces.
"""

from __future__ import annotations

import typing as _t

from repro.core.draws import Integers, Uniform

__all__ = ["Module", "NOW", "make_default_modules", "replicated_modules", "DEFAULT_MODULE_NAMES"]

# The 11 modules of a standard Hawkeye install (paper §3.4: "11 default
# Modules").
DEFAULT_MODULE_NAMES = (
    "vmstat",
    "df",
    "memory",
    "network",
    "users",
    "processes",
    "uptime",
    "swap",
    "os",
    "filesystem",
    "condor_view",
)

# CPU seconds to execute one module sensor (forking vmstat and parsing
# its output); drives the Agent's per-query refresh cost.
DEFAULT_EXEC_COST = 0.02

NOW = object()  # a plan value: the query's clock reading


# What each sensor reports after its ``<name>_LastUpdate``: attribute
# suffix and value, a constant or a draw.  Unknown sensors report one
# ``Value``; every module pads to ``nattrs`` with ``extra<i>`` draws.
_SENSORS: dict[str, tuple[tuple[str, _t.Any], ...]] = {
    "vmstat": (
        ("CpuLoad", Uniform(0.0, 2.0, 3)),
        ("CpuIdle", Integers(0, 100)),
        ("ContextSwitches", Integers(100, 50_000)),
    ),
    "df": (("DiskTotalMB", 17_000), ("DiskFreeMB", Integers(1_000, 16_000))),
    "memory": (("TotalMB", 512), ("FreeMB", Integers(32, 480))),
    "network": (("RxKBps", Uniform(0.0, 12_500.0, 1)), ("TxKBps", Uniform(0.0, 12_500.0, 1))),
    "users": (("LoggedIn", Integers(0, 12)),),
    "processes": (("Total", Integers(40, 300)), ("Running", Integers(1, 10))),
    "uptime": (("Days", Integers(0, 365)),),
    "swap": (("TotalMB", 1024), ("FreeMB", Integers(100, 1000))),
    "os": (("OpSys", "LINUX"), ("KernelVersion", "2.4.10")),
    "filesystem": (("Mounts", Integers(2, 12)),),
    "condor_view": (("JobsRunning", Integers(0, 4)), ("JobsIdle", Integers(0, 50))),
}
_GENERIC = (("Value", Integers(0, 10_000)),)
_EXTRA = Integers(0, 10_000)


class Module:
    """One sensor producing a ClassAd fragment.

    Attribute names never depend on the readings, so the sensor's
    ``plan`` — ``(display, key, spec)`` per attribute, in fragment order,
    ``spec`` being a constant, :data:`NOW`, :class:`Integers` or
    :class:`Uniform` — is fixed here; the Agent draws the values.
    """

    def __init__(self, name: str, *, exec_cost: float = DEFAULT_EXEC_COST, nattrs: int = 8) -> None:
        self.name = name
        self.exec_cost = exec_cost
        self.nattrs = nattrs
        sensor = _SENSORS.get(name.split("#")[0], _GENERIC)  # replicas are "vmstat#3"
        attrs = [("LastUpdate", NOW), *sensor]
        attrs += [(f"extra{i}", _EXTRA) for i in range(nattrs - len(attrs))]
        self.plan: tuple[tuple[str, str, _t.Any], ...] = tuple(
            (f"{name}_{suffix}", f"{name}_{suffix}".lower(), spec) for suffix, spec in attrs
        )


def make_default_modules(exec_cost: float = DEFAULT_EXEC_COST) -> list[Module]:
    """The 11 modules of a standard Hawkeye install."""
    return [Module(name, exec_cost=exec_cost) for name in DEFAULT_MODULE_NAMES]


def replicated_modules(count: int, exec_cost: float = DEFAULT_EXEC_COST) -> list[Module]:
    """``count`` modules, cloning vmstat beyond the 11 defaults (paper §3.5)."""
    modules = make_default_modules(exec_cost=exec_cost)
    if count <= len(modules):
        return modules[:count]
    for i in range(count - len(modules)):
        modules.append(Module(f"vmstat#{i}", exec_cost=exec_cost))
    return modules
