"""Discrete-event simulation substrate for the monitoring-services study.

Public surface:

* :class:`Simulator` — event loop and clock;
* :class:`Event`, :class:`Timeout`, :class:`Process` — control flow;
* :class:`Resource`, :class:`Mutex`, :class:`Store` — shared resources;
* :class:`ProcessorSharing` — fluid CPU/NIC model;
* :class:`Host`, :class:`Network` — the testbed fabric;
* :class:`Service`, :func:`call` — RPC with thread pools and backlogs;
* :class:`RetryPolicy`, :class:`CircuitBreaker` — client-side resilience;
* :class:`DropInjector`, :class:`StallInjector` — per-request fault injection;
* :class:`Ganglia` — the monitoring pipeline of the paper;
* :class:`RngHub` — named reproducible random streams.
"""

from repro.sim.engine import Simulator
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.faults import DropInjector, FaultInjector, StallInjector
from repro.sim.host import Host
from repro.sim.loadavg import LoadAverage
from repro.sim.monitor import Ganglia, HostSample
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.randomness import RngHub, stable_hash
from repro.sim.resources import Mutex, Resource, Store
from repro.sim.rpc import (
    CircuitBreaker,
    ConnectionOverhead,
    Request,
    Response,
    RetryPolicy,
    RetryStats,
    Service,
    call,
)
from repro.sim.sharing import ProcessorSharing, PsSnapshot

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Process",
    "Resource",
    "Mutex",
    "Store",
    "ProcessorSharing",
    "PsSnapshot",
    "Host",
    "LoadAverage",
    "Network",
    "Service",
    "Request",
    "Response",
    "ConnectionOverhead",
    "CircuitBreaker",
    "RetryPolicy",
    "RetryStats",
    "call",
    "DropInjector",
    "StallInjector",
    "FaultInjector",
    "Ganglia",
    "HostSample",
    "RngHub",
    "stable_hash",
]
