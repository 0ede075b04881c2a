"""Reference Hawkeye Agent: one scalar numpy call per reading.

This is how the Agent built its Startd ad before it compiled a skeleton
and drew in batches: every module fills a fresh fragment ad through its
sensor's filler, and every fragment is ``update()``d into the Startd ad.
The differential tests hold the Agent to these bytes, counts and
generator states.
"""

from __future__ import annotations

import numpy as np

from repro.classad import ClassAd


def collect(module, machine: str, rng: np.random.Generator, now: float = 0.0) -> ClassAd:
    """Run one sensor: a fresh ClassAd fragment."""
    name = module.name
    prefix = name.split("#")[0]  # replicas are "vmstat#3"
    ad = ClassAd({f"{name}_LastUpdate": now})
    _FILLERS.get(prefix, _fill_generic)(ad, name, machine, rng)
    i = 0
    while len(ad) < module.nattrs:
        ad[f"{name}_extra{i}"] = int(rng.integers(0, 10_000))
        i += 1
    return ad


def integrate(modules, machine: str, rng: np.random.Generator, now: float = 0.0):
    """``(ad, modules_run, exec_cost, integration_ops)`` of one Agent query."""
    startd = ClassAd(
        {
            "MyType": "Machine",
            "TargetType": "Job",
            "Name": machine,
            "Machine": machine,
            "OpSys": "LINUX",
            "Arch": "INTEL",
            "LastHeardFrom": now,
        }
    )
    modules_run, exec_cost, integration_ops = 0, 0.0, 0
    for module in modules:
        fragment = collect(module, machine, rng, now)
        integration_ops += len(startd) + len(fragment)
        startd.update(fragment)
        modules_run += 1
        exec_cost += module.exec_cost
    return startd, modules_run, exec_cost, integration_ops


def synthesize_startd_ad(machine: str, rng: np.random.Generator, now: float = 0.0, nattrs=40):
    """``hawkeye_advertise``'s fake Startd ad, one scalar call per reading."""
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
            "CpuLoad": round(float(rng.uniform(0.0, 2.0)), 3),
            "LastHeardFrom": now,
        }
    )
    i = 0
    while len(ad) < nattrs:
        ad[f"hawkeye_metric{i}"] = int(rng.integers(0, 10_000))
        i += 1
    return ad


def _fill_vmstat(ad, name, machine, rng):
    ad[f"{name}_CpuLoad"] = round(float(rng.uniform(0.0, 2.0)), 3)
    ad[f"{name}_CpuIdle"] = int(rng.integers(0, 100))
    ad[f"{name}_ContextSwitches"] = int(rng.integers(100, 50_000))


def _fill_df(ad, name, machine, rng):
    ad[f"{name}_DiskTotalMB"] = 17_000
    ad[f"{name}_DiskFreeMB"] = int(rng.integers(1_000, 16_000))


def _fill_memory(ad, name, machine, rng):
    ad[f"{name}_TotalMB"] = 512
    ad[f"{name}_FreeMB"] = int(rng.integers(32, 480))


def _fill_network(ad, name, machine, rng):
    ad[f"{name}_RxKBps"] = round(float(rng.uniform(0, 12_500)), 1)
    ad[f"{name}_TxKBps"] = round(float(rng.uniform(0, 12_500)), 1)


def _fill_users(ad, name, machine, rng):
    ad[f"{name}_LoggedIn"] = int(rng.integers(0, 12))


def _fill_processes(ad, name, machine, rng):
    ad[f"{name}_Total"] = int(rng.integers(40, 300))
    ad[f"{name}_Running"] = int(rng.integers(1, 10))


def _fill_uptime(ad, name, machine, rng):
    ad[f"{name}_Days"] = int(rng.integers(0, 365))


def _fill_swap(ad, name, machine, rng):
    ad[f"{name}_TotalMB"] = 1024
    ad[f"{name}_FreeMB"] = int(rng.integers(100, 1000))


def _fill_os(ad, name, machine, rng):
    ad[f"{name}_OpSys"] = "LINUX"
    ad[f"{name}_KernelVersion"] = "2.4.10"


def _fill_filesystem(ad, name, machine, rng):
    ad[f"{name}_Mounts"] = int(rng.integers(2, 12))


def _fill_condor_view(ad, name, machine, rng):
    ad[f"{name}_JobsRunning"] = int(rng.integers(0, 4))
    ad[f"{name}_JobsIdle"] = int(rng.integers(0, 50))


def _fill_generic(ad, name, machine, rng):
    ad[f"{name}_Value"] = int(rng.integers(0, 10_000))


_FILLERS = {
    "vmstat": _fill_vmstat,
    "df": _fill_df,
    "memory": _fill_memory,
    "network": _fill_network,
    "users": _fill_users,
    "processes": _fill_processes,
    "uptime": _fill_uptime,
    "swap": _fill_swap,
    "os": _fill_os,
    "filesystem": _fill_filesystem,
    "condor_view": _fill_condor_view,
}
