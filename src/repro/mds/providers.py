"""MDS information providers — the lowest level of the MDS hierarchy.

An information provider is a small program the GRIS executes to obtain a
batch of LDAP entries about one aspect of a resource (paper §2.1).  A
default MDS 2.1 install runs 10 of them (§3.5); Experiment 3 scales the
count to 90 by cloning the memory provider, which
:func:`replicated_providers` reproduces.

Providers here generate real entries (with plausible MDS attribute
vocabularies) from a seeded RNG, and carry an ``exec_cost`` — the CPU
seconds the provider script takes — which the uncached GRIS pays on
every query.  What a run re-reads is the readings: an entry's shape
(attribute names and spellings, constants, draw ranges) depends only on
the provider's name, object class and attribute count, so it is fixed
once per such shape and shared by every provider that has it, and a run
costs one batch of draws (:mod:`repro.core.draws`) plus one pass that
builds the entry.
"""

from __future__ import annotations

import functools
import typing as _t

import numpy as np

from repro.core.draws import DrawPlan, Integers
from repro.ldap.dn import DN
from repro.ldap.entry import Entry
from repro.ldap.schema import DEVICE_OBJECTCLASSES, host_dn_text

__all__ = [
    "InformationProvider",
    "make_default_providers",
    "replicated_providers",
    "DEFAULT_PROVIDER_NAMES",
]

# The 10 providers of a default MDS 2.1 install (paper §3.5).
DEFAULT_PROVIDER_NAMES = (
    "cpu",
    "memory",
    "filesystem",
    "network",
    "os",
    "cpu-free",
    "memory-vm",
    "storage",
    "queue",
    "software",
)

# Cost of forking + running one provider script, in CPU seconds.  The
# paper's uncached GRIS sustains <2 queries/s with 10 providers (Fig. 5),
# which this value (x10 providers, serialized) reproduces.
DEFAULT_EXEC_COST = 0.05

HOST = object()  # a device value: the name of the host the provider runs on

# What each provider reports after its object classes, validity window
# and device name: attribute and value, a value being a constant, HOST,
# a draw, or a ``(prefix, draw)`` pair.  Unknown providers report one
# ``Mds-Generic-value``; every provider pads to ``nattrs`` attributes
# with ``Mds-<name>-metric<i>`` draws.
_DEVICES: dict[str, tuple[tuple[str, _t.Any], ...]] = {
    "cpu": (
        ("Mds-Cpu-model", "Pentium III (Coppermine)"),
        ("Mds-Cpu-speedMHz", "1133"),
        ("Mds-Cpu-Total-count", "2"),
        ("Mds-Cpu-cache-l2kB", "512"),
    ),
    "memory": (("Mds-Memory-Ram-Total-sizeMB", "512"), ("Mds-Memory-Ram-sizeMB", Integers(100, 480))),
    "filesystem": (
        ("Mds-Fs-Total-sizeMB", "17000"),
        ("Mds-Fs-freeMB", Integers(2_000, 15_000)),
        ("Mds-Fs-mount", "/home"),
    ),
    "network": (
        ("Mds-Net-name", "eth0"),
        ("Mds-Net-AdminStatus", "UP"),
        ("Mds-Net-speedMbps", "100"),
        ("Mds-Net-addr", ("140.221.9.", Integers(1, 254))),
    ),
    "os": (("Mds-Os-name", "Linux"), ("Mds-Os-release", "2.4.10"), ("Mds-Host-hn", HOST)),
    "cpu-free": (
        ("Mds-Cpu-Free-1minX100", Integers(0, 200)),
        ("Mds-Cpu-Free-5minX100", Integers(0, 200)),
        ("Mds-Cpu-Free-15minX100", Integers(0, 200)),
    ),
    "memory-vm": (("Mds-Memory-Vm-Total-sizeMB", "1024"), ("Mds-Memory-Vm-sizeMB", Integers(200, 1000))),
    "storage": (("Mds-Storage-dev", "/dev/sda"), ("Mds-Storage-sizeGB", "18")),
    "queue": (("Mds-Queue-name", "default"), ("Mds-Queue-length", Integers(0, 30))),
    "software": (("Mds-Software-deployment", "globus-2.0"), ("Mds-Software-release", "2.1")),
}
_GENERIC = (("Mds-Generic-value", Integers(0, 10_000)),)
_METRIC = Integers(0, 10_000)
# A run's texts: now, now + 30 and now + 60 for these, then the host, then the draws.
_VALIDITY = ("Mds-validfrom", "Mds-validto", "Mds-keepto")
_HOST, _DRAWN = len(_VALIDITY), len(_VALIDITY) + 1


class _Shape:
    """One provider shape's entry, fixed: keys in attribute order, their
    spellings, the constant values, and which slot takes a validity text,
    the host name or which draw.  A later binding of a key overwrites an
    earlier one in place, as ``Entry.put`` does; every draw is still made."""

    def __init__(self, name: str, objectclass: str, nattrs: int) -> None:
        # key -> (display, constant values, the run's text to take or -1, its prefix)
        slots: dict[str, tuple[str, tuple[str, ...], int, str]] = {
            "objectclass": ("objectclass", ("MdsDevice", objectclass), -1, "")
        }
        for source, display in enumerate(_VALIDITY):
            slots[display.lower()] = (display, (), source, "")
        specs: list[Integers] = []

        def put(display: str, value: _t.Any) -> None:
            constants, source, prefix = (), -1, ""
            if isinstance(value, str):
                constants = (value,)
            elif value is HOST:
                source = _HOST
            else:  # a draw, or a (prefix, draw) pair
                prefix, spec = ("", value) if isinstance(value, Integers) else value
                source = _DRAWN + len(specs)
                specs.append(spec)
            slots[display.lower()] = (display, constants, source, prefix)

        put("Mds-Device-name", name)  # the RDN attribute
        for display, value in _DEVICES.get(name.split("#")[0], _GENERIC):  # replicas are "memory#17"
            put(display, value)
        i = 0
        while len(slots) < nattrs:
            put(f"Mds-{name}-metric{i}", _METRIC)
            i += 1
        self.keys = tuple(slots)
        self.display = {key: display for key, (display, *_rest) in slots.items()}
        self.constants = tuple(constants for _display, constants, *_rest in slots.values())
        self.fills = tuple(
            (slot, source, prefix)
            for slot, (_display, _constants, source, prefix) in enumerate(slots.values())
            if source >= 0
        )
        self.draws = DrawPlan(specs)
        # ldif_length() less the DN and the run's texts (their prefixes counted)
        self.length = len("dn: ") + sum(
            (len(display) + len("\n: ")) * max(1, len(constants)) + sum(map(len, constants)) + len(prefix)
            for display, constants, _source, prefix in slots.values()
        )

    def build(self, dn: DN, dn_length: int, hostname: str, rng: np.random.Generator, now: float) -> Entry:
        """A fresh entry: one batch of draws and one pass over the slots,
        with its ``ldif_length()`` memo filled."""
        texts = [f"{now:.0f}", f"{now + 30.0:.0f}", f"{now + 60.0:.0f}", hostname]
        texts += map(str, self.draws.draw(rng))
        values = [list(constants) for constants in self.constants]
        length = self.length + dn_length
        for slot, source, prefix in self.fills:
            text = texts[source]
            values[slot] = [prefix + text]
            length += len(text)
        entry = Entry.__new__(Entry)
        entry.dn, entry._ldif_len = dn, length
        entry._attrs = dict(zip(self.keys, values))
        entry._display = self.display.copy()
        return entry


_shape = functools.lru_cache(maxsize=None)(_Shape)


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
        self._dn: tuple[str, str, DN, int] | None = None  # host, name, device DN, its length

    def produce(self, hostname: str, rng: np.random.Generator, now: float = 0.0) -> list[Entry]:
        """Run the provider: returns fresh entries for ``hostname``."""
        self.invocations += 1
        named = self._dn
        if named is None or named[0] != hostname or named[1] != self.name:
            dn = DN.parse(host_dn_text(hostname)).child("Mds-Device-name", self.name)
            named = self._dn = (hostname, self.name, dn, len(str(dn)))
        shape = _shape(self.name, self.objectclass, self.nattrs)
        return [shape.build(named[2], named[3], hostname, rng, now)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<InformationProvider {self.name}>"


def make_default_providers(exec_cost: float = DEFAULT_EXEC_COST) -> list[InformationProvider]:
    """The 10 providers of a stock MDS 2.1 install."""
    return [
        InformationProvider(name, DEVICE_OBJECTCLASSES[name], exec_cost=exec_cost)
        for name in DEFAULT_PROVIDER_NAMES
    ]


def replicated_providers(
    count: int, exec_cost: float = DEFAULT_EXEC_COST
) -> list[InformationProvider]:
    """``count`` providers, cloning the memory provider beyond the 10 defaults.

    Mirrors the paper's Experiment 3 methodology: "we modified the
    default memory information provider and added copies of the new
    version to simulate the expanded information providers" (§3.5).
    """
    providers = make_default_providers(exec_cost=exec_cost)
    if count <= len(providers):
        return providers[:count]
    for i in range(count - len(providers)):
        providers.append(
            InformationProvider(f"memory#{i}", "MdsMemory", exec_cost=exec_cost)
        )
    return providers
