"""Shared cost-model primitives for the service adapters.

Every system in the study serializes some back end — slapd's provider
execution, the ProducerServlet's buffer database, the Manager's
collector — and the paper's load1 *drop* past saturation falls out of
how that serialized hold is split between runnable CPU time and blocked
I/O time (DESIGN.md §2).  This module is the single home for that split.

:class:`ConnectionOverhead` lives here too (it used to be defined in
:mod:`repro.sim.rpc`): it is pure arithmetic shared by *both* runtimes
— the DES charges it as a simulated delay, the live asyncio plane
(:mod:`repro.live`) sleeps it for real — so it must not drag the
simulator into the import graph of the runtime-agnostic kernels.
This module imports nothing from :mod:`repro.sim` at runtime.
"""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.host import Host
    from repro.sim.resources import Mutex

__all__ = ["ConnectionOverhead", "busy_split", "held"]


@dataclass(frozen=True)
class ConnectionOverhead:
    """Concurrency-dependent per-request latency ``L(c)``.

    ``L(c) = base + extra * (1 - exp(-c / scale))`` where ``c`` is the
    number of connections open at the server when the request is
    admitted.  This phenomenological stand-in for connection management
    plus GSI-handshake cost reproduces the GRIS-cache response plateau
    (~4 s for >=50 users, Figure 6) while remaining sub-second at 10
    users (Figure 14).  See DESIGN.md §2.
    """

    base: float = 0.0
    extra: float = 0.0
    scale: float = 20.0

    def latency(self, connections: int) -> float:
        """Latency charged to a request admitted with ``connections`` open."""
        if self.extra == 0.0:
            return self.base
        return self.base + self.extra * (1.0 - math.exp(-connections / self.scale))


def busy_split(
    sim: "Simulator", host: "Host", hold: float, cpu_fraction: float
) -> _t.Generator:
    """Spend ``hold`` seconds, ``cpu_fraction`` of it runnable on ``host``.

    The CPU part shows up in the host's run queue (load1, CPU load); the
    remainder is blocked I/O — the process sleeps, exactly like a slapd
    worker waiting on disk.
    """
    cpu_part = hold * cpu_fraction
    io_part = hold - cpu_part
    if cpu_part > 0:
        yield host.compute(cpu_part)
    if io_part > 0:
        yield sim.timeout(io_part)


def held(
    sim: "Simulator", host: "Host", mutex: "Mutex", hold: float, cpu_fraction: float
) -> _t.Generator:
    """Hold ``mutex`` for ``hold`` seconds, part CPU, part blocked I/O."""
    yield mutex.acquire()
    try:
        yield from busy_split(sim, host, hold, cpu_fraction)
    finally:
        mutex.release()
