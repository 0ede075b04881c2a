"""Reference MDS information provider: one scalar numpy call per reading.

This is how a provider built its entry before each provider shape was
fixed once and drawn in one batch: the entry is parsed from its DN text
with the validity attributes, the kind's filler ``put``s the rest one
scalar ``rng.integers`` at a time, and generic metrics pad it to
``nattrs``.  The differential tests hold
:class:`repro.mds.InformationProvider` to these entries, lengths, counts
and generator states.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.ldap.entry import Entry
from repro.ldap.schema import device_dn_text
from repro.mds.providers import DEFAULT_EXEC_COST


class InformationProvider:
    """One data source feeding a GRIS."""

    def __init__(
        self,
        name: str,
        objectclass: str,
        *,
        exec_cost: float = DEFAULT_EXEC_COST,
        nattrs: int = 14,
    ) -> None:
        self.name = name
        self.objectclass = objectclass
        self.exec_cost = exec_cost
        self.nattrs = nattrs
        self.invocations = 0

    def produce(self, hostname: str, rng: np.random.Generator, now: float = 0.0) -> list[Entry]:
        """Run the provider: returns fresh entries for ``hostname``."""
        self.invocations += 1
        entry = Entry(
            device_dn_text(hostname, self.name),
            {
                "objectclass": ["MdsDevice", self.objectclass],
                "Mds-validfrom": f"{now:.0f}",
                "Mds-validto": f"{now + 30.0:.0f}",
                "Mds-keepto": f"{now + 60.0:.0f}",
            },
        )
        self._fill(entry, hostname, rng)
        # Pad to the configured attribute count with generic metrics.
        i = 0
        while entry.nattrs < self.nattrs:
            entry.put(f"Mds-{self.name}-metric{i}", f"{rng.integers(0, 10_000)}")
            i += 1
        return [entry]

    def _fill(self, entry: Entry, hostname: str, rng: np.random.Generator) -> None:
        """Provider-specific attributes; subclass hook."""
        fillers: dict[str, _t.Callable[[Entry, str, np.random.Generator], None]] = {
            "cpu": _fill_cpu,
            "memory": _fill_memory,
            "filesystem": _fill_filesystem,
            "network": _fill_network,
            "os": _fill_os,
            "cpu-free": _fill_cpu_free,
            "memory-vm": _fill_memory_vm,
            "storage": _fill_storage,
            "queue": _fill_queue,
            "software": _fill_software,
        }
        base_kind = self.name.split("#")[0]  # replicas are "memory#17"
        fillers.get(base_kind, _fill_generic)(entry, hostname, rng)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<InformationProvider {self.name}>"


def _fill_cpu(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Cpu-model", "Pentium III (Coppermine)")
    entry.put("Mds-Cpu-speedMHz", "1133")
    entry.put("Mds-Cpu-Total-count", "2")
    entry.put("Mds-Cpu-cache-l2kB", "512")


def _fill_memory(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Memory-Ram-Total-sizeMB", "512")
    entry.put("Mds-Memory-Ram-sizeMB", str(int(rng.integers(100, 480))))


def _fill_filesystem(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Fs-Total-sizeMB", "17000")
    entry.put("Mds-Fs-freeMB", str(int(rng.integers(2_000, 15_000))))
    entry.put("Mds-Fs-mount", "/home")


def _fill_network(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Net-name", "eth0")
    entry.put("Mds-Net-AdminStatus", "UP")
    entry.put("Mds-Net-speedMbps", "100")
    entry.put("Mds-Net-addr", f"140.221.9.{rng.integers(1, 254)}")


def _fill_os(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Os-name", "Linux")
    entry.put("Mds-Os-release", "2.4.10")
    entry.put("Mds-Host-hn", hostname)


def _fill_cpu_free(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Cpu-Free-1minX100", str(int(rng.integers(0, 200))))
    entry.put("Mds-Cpu-Free-5minX100", str(int(rng.integers(0, 200))))
    entry.put("Mds-Cpu-Free-15minX100", str(int(rng.integers(0, 200))))


def _fill_memory_vm(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Memory-Vm-Total-sizeMB", "1024")
    entry.put("Mds-Memory-Vm-sizeMB", str(int(rng.integers(200, 1000))))


def _fill_storage(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Storage-dev", "/dev/sda")
    entry.put("Mds-Storage-sizeGB", "18")


def _fill_queue(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Queue-name", "default")
    entry.put("Mds-Queue-length", str(int(rng.integers(0, 30))))


def _fill_software(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Software-deployment", "globus-2.0")
    entry.put("Mds-Software-release", "2.1")


def _fill_generic(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Generic-value", str(int(rng.integers(0, 10_000))))
