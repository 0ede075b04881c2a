"""The kernel operation protocol: what a service kernel may ask of its runtime.

A kernel's ``handle(payload)`` is a generator that yields *operations*
— small descriptions of runtime effects (spend CPU, read the clock,
take a lock, call another service) — and receives the operation's
result back at the ``yield``.  The kernel itself never touches a
runtime: the DES adapter (:mod:`repro.core.desruntime`) maps each op
onto simulator events, and the live plane (:mod:`repro.live`) maps the
same ops onto asyncio primitives and real sockets.  That is the whole
trick behind "one plan, two runtimes": the service logic is written
once, here, against this protocol.

Locks and call targets are *opaque tokens* owned by the runtime: the
DES injects :class:`repro.sim.resources.Mutex` objects and
:class:`repro.sim.rpc.Service` targets, the live plane injects
``LiveLock`` objects and async client stubs.  A kernel only threads
them through ops, so this module imports nothing from either runtime.

Ops carry integer ``tag`` attributes so runtime dispatch is a flat
compare chain rather than ``isinstance`` checks — the DES interpreter
sits on the hot path of every simulated request.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

__all__ = [
    "OP_COMPUTE",
    "OP_CLOCK",
    "OP_ACQUIRE",
    "OP_RELEASE",
    "OP_BUSY",
    "OP_HELD",
    "OP_QUEUE_DEPTH",
    "OP_CALL",
    "OP_FANOUT",
    "OP_CRASH",
    "Compute",
    "Clock",
    "CLOCK",
    "Acquire",
    "Release",
    "Busy",
    "Held",
    "QueueDepth",
    "Call",
    "Fanout",
    "CrashSelf",
    "KernelResponse",
    "KernelSpec",
    "KernelHandler",
]

OP_COMPUTE = 0
OP_CLOCK = 1
OP_ACQUIRE = 2
OP_RELEASE = 3
OP_BUSY = 4
OP_HELD = 5
OP_QUEUE_DEPTH = 6
OP_CALL = 7
OP_FANOUT = 8
OP_CRASH = 9


class Compute:
    """Spend ``seconds`` of runnable CPU time on the service's host."""

    __slots__ = ("seconds",)
    tag = OP_COMPUTE

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds


class Clock:
    """Read the runtime's current time; the yield returns ``now``."""

    __slots__ = ()
    tag = OP_CLOCK


#: The one :class:`Clock` instance — ``now = yield CLOCK``.
CLOCK = Clock()


class Acquire:
    """Block until ``lock`` (an opaque runtime token) is held."""

    __slots__ = ("lock",)
    tag = OP_ACQUIRE

    def __init__(self, lock: _t.Any) -> None:
        self.lock = lock


class Release:
    """Release a lock previously taken with :class:`Acquire`."""

    __slots__ = ("lock",)
    tag = OP_RELEASE

    def __init__(self, lock: _t.Any) -> None:
        self.lock = lock


class Busy:
    """Spend ``hold`` seconds, ``cpu_fraction`` of it runnable CPU.

    The remainder is blocked I/O — on the DES this is what makes host
    load1 *drop* past saturation (DESIGN.md §2); the live plane simply
    sleeps the whole hold.
    """

    __slots__ = ("hold", "cpu_fraction")
    tag = OP_BUSY

    def __init__(self, hold: float, cpu_fraction: float) -> None:
        self.hold = hold
        self.cpu_fraction = cpu_fraction


class Held:
    """:class:`Acquire` + :class:`Busy` + guaranteed release."""

    __slots__ = ("lock", "hold", "cpu_fraction")
    tag = OP_HELD

    def __init__(self, lock: _t.Any, hold: float, cpu_fraction: float) -> None:
        self.lock = lock
        self.hold = hold
        self.cpu_fraction = cpu_fraction


class QueueDepth:
    """Read how many waiters are queued on ``lock`` (no blocking)."""

    __slots__ = ("lock",)
    tag = OP_QUEUE_DEPTH

    def __init__(self, lock: _t.Any) -> None:
        self.lock = lock


class Call:
    """Issue a request to another service and return its answer value.

    ``target`` is an opaque runtime token (a simulated Service or a live
    client stub); ``retry`` is an optional runtime-owned retry policy
    threaded through untouched.
    """

    __slots__ = ("target", "payload", "size", "retry")
    tag = OP_CALL

    def __init__(
        self, target: _t.Any, payload: _t.Any, size: int, retry: _t.Any = None
    ) -> None:
        self.target = target
        self.payload = payload
        self.size = size
        self.retry = retry


class Fanout:
    """Call every target concurrently; returns ``[(ok, value), ...]``.

    Order matches ``targets``.  ``ok`` is False when that leg failed
    (refused/timed out/crashed), in which case ``value`` describes the
    failure and must not be trusted as an answer.
    """

    __slots__ = ("targets", "payload", "size")
    tag = OP_FANOUT

    def __init__(self, targets: _t.Sequence[_t.Any], payload: _t.Any, size: int) -> None:
        self.targets = targets
        self.payload = payload
        self.size = size


class CrashSelf:
    """Take this service down: mark it crashed and fail the request.

    The runtime records ``reason`` against the service and raises a
    crash error carrying ``message`` through the kernel (so pending
    ``finally`` blocks run) and on to the client.
    """

    __slots__ = ("reason", "message")
    tag = OP_CRASH

    def __init__(self, reason: str, message: str) -> None:
        self.reason = reason
        self.message = message


@dataclass
class KernelResponse:
    """What a kernel returns: an answer value plus its wire size.

    ``value`` is the small structured answer the DES carries between
    simulated services; ``size`` drives simulated/real transfer costs.
    ``wire`` is the full serialized body (LDIF, encoded SQL result,
    ClassAd text) as the bytes the listener writes, unchanged, to the
    socket; it is only populated when the kernel was built with
    ``wire=True`` — the DES must not pay for bytes it never looks at.
    """

    value: _t.Any
    size: int
    wire: bytes | None = None


#: A kernel handler: payload in, generator of ops out, KernelResponse returned.
KernelHandler = _t.Callable[[_t.Any], _t.Generator[_t.Any, _t.Any, KernelResponse]]


@dataclass(frozen=True)
class KernelSpec:
    """Everything a runtime needs to host one kernel as a service.

    ``conn_overhead`` is a :class:`repro.core.costmodel.ConnectionOverhead`
    or None; ``max_threads``/``backlog`` bound concurrent admissions and
    the accept queue in *both* runtimes (the live plane emulates refusal
    the same way the simulated Service does).
    """

    name: str
    handle: KernelHandler
    max_threads: int
    backlog: int
    conn_overhead: _t.Any = None
