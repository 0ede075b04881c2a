"""Request/response messaging between simulated hosts.

A :class:`Service` lives on a host and processes requests through a
bounded thread pool with a bounded accept backlog.  Connections beyond
``max_threads + backlog`` are refused — clients see
:class:`~repro.errors.ServiceUnavailableError` — which is the mechanism
that reproduces the paper's directory-server saturation (successful
queries stay fast while throughput flat-lines, Figures 9–10).

Handlers are generator functions ``handler(service, request) -> Response``
that may yield any simulation event (CPU work, mutex acquisition, nested
RPCs...).  Client-side deadlines are supported: on timeout the *client*
stops waiting but the server keeps burning resources on the abandoned
request, exactly like a real overloaded server.

A request is one generator frame, :func:`_lifecycle`.  Without a
deadline it runs inside the client's own frame, between two plain events
at the keys a worker process would take (its boot and its completion),
so it spawns nothing and leaves no garbage for the cyclic collector.  An
attempt with a deadline spawns the lifecycle as a worker process, which
is what lets the server outlive the client's wait.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

import numpy as np

from repro.core.admission import Admission, ServiceStats
from repro.core.costmodel import ConnectionOverhead
from repro.errors import (
    CircuitOpenError,
    RequestTimeoutError,
    ServiceUnavailableError,
    SimulationError,
)
from repro.sim.events import Event
from repro.sim.host import Host
from repro.sim.network import Network

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.faults import FaultInjector

__all__ = [
    "Request",
    "Response",
    "Service",
    "ServiceStats",
    "ConnectionOverhead",
    "CircuitBreaker",
    "RetryPolicy",
    "RetryStats",
    "call",
]


@dataclass(slots=True)
class Request:
    """A message delivered to a service handler."""

    payload: _t.Any
    size: int
    client: Host
    issued_at: float


@dataclass(slots=True)
class Response:
    """What a handler returns: a value plus its wire size in bytes.

    Both message classes use slots: one of each is allocated per
    simulated RPC, where dict-backed instances were measurable.
    """

    value: _t.Any
    size: int = 1024


# ConnectionOverhead (repro.core.costmodel) and ServiceStats
# (repro.core.admission) are shared with the live asyncio runtime, which
# must import without the simulator; they are re-exported here.


class CircuitBreaker:
    """Client-side circuit breaker over a flaky service.

    Classic three-state machine: *closed* passes calls through and
    counts consecutive failures; after ``failure_threshold`` of them it
    trips *open* and rejects calls outright (:class:`CircuitOpenError`)
    for ``reset_timeout`` seconds; then one *half-open* probe is let
    through — success closes the circuit, failure re-opens it.

    Time is always passed in by the caller (``sim.now``); the breaker
    itself holds no reference to the simulator, so one instance can be
    shared by every user process of a run.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, *, failure_threshold: int = 5, reset_timeout: float = 30.0) -> None:
        if failure_threshold < 1:
            raise SimulationError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise SimulationError("reset_timeout must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.trips = 0
        self.rejections = 0

    def allow(self, now: float) -> bool:
        """Whether a call may proceed at ``now`` (may move open->half-open)."""
        if self.state == self.OPEN:
            if now - self.opened_at >= self.reset_timeout:
                self.state = self.HALF_OPEN
                return True
            self.rejections += 1
            return False
        return True

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        self.state = self.CLOSED

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN or self.consecutive_failures >= self.failure_threshold:
            if self.state != self.OPEN:
                self.trips += 1
            self.state = self.OPEN
            self.opened_at = now


@dataclass
class RetryStats:
    """Cumulative accounting for one :class:`RetryPolicy` instance."""

    calls: int = 0  # logical calls issued through the policy
    attempts: int = 0  # wire attempts (>= calls)
    retries: int = 0  # attempts beyond the first
    succeeded: int = 0
    exhausted: int = 0  # calls that failed after max_attempts
    breaker_rejections: int = 0  # calls fast-failed by an open breaker
    backoff_time: float = 0.0  # total seconds slept between attempts

    @property
    def amplification(self) -> float:
        """Wire attempts per logical call (1.0 = no retries needed)."""
        return self.attempts / self.calls if self.calls else 0.0


class RetryPolicy:
    """Pluggable client-side resilience for :func:`call`.

    Retries :class:`ServiceUnavailableError` and
    :class:`RequestTimeoutError` up to ``max_attempts`` total tries with
    capped exponential backoff (``base * multiplier**k``, at most
    ``max_backoff``) and multiplicative jitter drawn from ``rng``.  An
    optional per-try deadline bounds each wire attempt, and an optional
    :class:`CircuitBreaker` fast-fails calls while the service looks
    dead — capping retry amplification during an outage.

    One policy instance is meant to be shared by all the client
    processes of a scenario; its :class:`RetryStats` then measure the
    run-level retry amplification the fault experiments report.
    """

    def __init__(
        self,
        *,
        max_attempts: int = 4,
        base_backoff: float = 0.5,
        multiplier: float = 2.0,
        max_backoff: float = 15.0,
        jitter: float = 0.25,
        per_try_timeout: float | None = None,
        breaker: CircuitBreaker | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if max_attempts < 1:
            raise SimulationError("max_attempts must be >= 1")
        if base_backoff < 0 or max_backoff < 0:
            raise SimulationError("backoff times must be non-negative")
        if not 0.0 <= jitter < 1.0:
            raise SimulationError("jitter must be in [0, 1)")
        self.max_attempts = max_attempts
        self.base_backoff = base_backoff
        self.multiplier = multiplier
        self.max_backoff = max_backoff
        self.jitter = jitter
        self.per_try_timeout = per_try_timeout
        self.breaker = breaker
        self.rng = rng
        self.stats = RetryStats()

    def backoff(self, retry_index: int) -> float:
        """Sleep before retry number ``retry_index`` (1-based)."""
        if retry_index < 1:
            raise SimulationError("retry_index is 1-based")
        raw = min(
            self.base_backoff * self.multiplier ** (retry_index - 1), self.max_backoff
        )
        if self.jitter and self.rng is not None:
            raw *= 1.0 + float(self.rng.uniform(-self.jitter, self.jitter))
        return raw


HandlerFn = _t.Callable[["Service", Request], _t.Generator]


class Service:
    """A network service bound to a host.

    Parameters
    ----------
    handler:
        Generator function ``(service, request) -> Response``.
    max_threads:
        Handlers running concurrently; further connections queue.
    backlog:
        Accept-queue depth; connections past ``max_threads + backlog``
        are refused.
    conn_overhead:
        Optional :class:`ConnectionOverhead` latency model.
    """

    def __init__(
        self,
        sim: "Simulator",
        net: Network,
        host: Host,
        name: str,
        handler: HandlerFn,
        *,
        max_threads: int = 32,
        backlog: int = 512,
        conn_overhead: ConnectionOverhead | None = None,
    ) -> None:
        if max_threads < 1:
            raise SimulationError("max_threads must be >= 1")
        self.sim = sim
        self.net = net
        self.host = host
        self.name = name
        self.handler = handler
        self.max_threads = max_threads
        self.backlog = backlog
        self.conn_overhead = conn_overhead
        self.crashed = False
        self.crash_reason: str | None = None
        self.down = False
        self.down_reason: str | None = None
        self._down_depth = 0
        self.outage_log: list[tuple[float, float]] = []  # (down_at, up_at)
        self.faults: "FaultInjector | None" = None
        # The admission rule (threads, accept queue, overhead, stats) is
        # shared with the live runtime; this class only does the waiting.
        self.admission = Admission(max_threads, backlog, conn_overhead)
        self.stats = self.admission.stats
        self._down_at: float | None = None

    # -- inspection ----------------------------------------------------------
    @property
    def active(self) -> int:
        """Handlers currently executing."""
        return self.admission.active

    @property
    def queued(self) -> int:
        """Connections accepted but waiting for a handler thread."""
        return self.admission.queued

    @property
    def concurrent(self) -> int:
        """Open connections (executing + accept queue)."""
        return self.admission.open

    # -- lifecycle ----------------------------------------------------------
    def crash(self, reason: str) -> None:
        """Mark the service dead; all future requests are refused.

        Mirrors the hard failures the paper reports (GIIS beyond 200
        registered GRIS, Startd beyond 98 modules).
        """
        self.crashed = True
        self.crash_reason = reason

    def fail(self, reason: str) -> None:
        """Take the service down *temporarily* (crash/restart injection).

        New connections are refused while down; requests already
        admitted keep running, like a daemon wedged behind its accept
        loop.  :meth:`restore` brings the service back.

        Outages are *depth-counted*: independent controllers (a fault
        schedule and scenario churn, say) may overlap, and the service
        only comes back once every outstanding :meth:`fail` has been
        matched by a :meth:`restore` — the first restore must not revive
        a server another controller still holds down.
        """
        self._down_depth += 1
        if self.down:
            return
        self.down = True
        self.down_reason = reason
        self._down_at = self.sim.now

    def restore(self) -> None:
        """Undo one :meth:`fail`; the service revives at depth zero."""
        if not self.down:
            return
        self._down_depth -= 1
        if self._down_depth > 0:
            return
        self.down = False
        self.down_reason = None
        if self._down_at is not None:
            self.outage_log.append((self._down_at, self.sim.now))
            self._down_at = None

    @property
    def available(self) -> bool:
        """Whether a new connection would even be considered."""
        return not (self.crashed or self.down)


def call(
    sim: "Simulator",
    net: Network,
    client: Host,
    service: Service,
    payload: _t.Any,
    *,
    size: int = 512,
    timeout: float | None = None,
    retry: RetryPolicy | None = None,
) -> _t.Generator:
    """Issue a blocking RPC from a client process; use with ``yield from``.

    Returns the handler's response value.  Raises
    :class:`ServiceUnavailableError` when refused and
    :class:`RequestTimeoutError` when the client deadline passes (the
    server keeps processing the abandoned request).

    With a :class:`RetryPolicy`, refusals and timeouts are retried with
    capped exponential backoff; ``timeout`` (or the policy's
    ``per_try_timeout``, which wins) bounds each individual attempt.
    A policy with an open circuit breaker fast-fails with
    :class:`CircuitOpenError` without touching the wire.
    """
    if retry is None:
        if timeout is not None:
            value = yield from _attempt(sim, net, client, service, payload, size, timeout)
            return value
        # Without a deadline only this client waits on the request, so it
        # runs in this frame, between two events at the keys a spawned
        # worker would take: its boot and its completion.
        yield Event(sim).succeed()
        done = Event(sim)
        try:
            value = yield from _lifecycle(sim, net, client, service, payload, size)
        except Exception as exc:  # any request failure, delivered as the worker's was
            done.fail(exc)
        else:
            done.succeed(value)
        try:
            value = yield done
        finally:
            # A failed ``done`` holds the error, whose traceback holds this
            # frame: drop it so a refusal falls to reference counting.
            del done
        return value

    per_try = retry.per_try_timeout if retry.per_try_timeout is not None else timeout
    breaker = retry.breaker
    stats = retry.stats
    stats.calls += 1
    failures = 0
    while True:
        if breaker is not None and not breaker.allow(sim.now):
            stats.breaker_rejections += 1
            raise CircuitOpenError(
                f"circuit open for {service.name} "
                f"(tripped {breaker.trips}x, retry after {breaker.reset_timeout:g}s)"
            )
        stats.attempts += 1
        try:
            value = yield from call(sim, net, client, service, payload, size=size, timeout=per_try)
        except (ServiceUnavailableError, RequestTimeoutError) as exc:
            if breaker is not None:
                breaker.record_failure(sim.now)
            failures += 1
            if failures >= retry.max_attempts:
                stats.exhausted += 1
                raise
            delay = retry.backoff(failures)
            stats.retries += 1
            stats.backoff_time += delay
            if delay > 0:
                yield sim.timeout(delay)
            continue
        if breaker is not None:
            breaker.record_success(sim.now)
        stats.succeeded += 1
        return value


def _attempt(
    sim: "Simulator",
    net: Network,
    client: Host,
    service: Service,
    payload: _t.Any,
    size: int,
    timeout: float,
) -> _t.Generator:
    """One wire attempt under a client deadline.

    The request runs in a worker process of its own, so that when the
    deadline wins the server keeps burning on the abandoned request.
    """
    worker = sim.spawn(_lifecycle(sim, net, client, service, payload, size), name=f"rpc:{service.name}")
    deadline = sim.timeout(timeout)
    try:
        yield sim.any_of((worker, deadline))
    except SimulationError:
        raise
    if worker.triggered:
        if worker.ok:
            return worker.value
        raise worker.value
    raise RequestTimeoutError(f"call to {service.name} exceeded {timeout:g}s")


def _lifecycle(
    sim: "Simulator",
    net: Network,
    client: Host,
    service: Service,
    payload: _t.Any,
    size: int,
) -> _t.Generator:
    """One request end to end: out, admission, handler, reply back."""
    request = Request(payload=payload, size=size, client=client, issued_at=sim.now)
    yield from net.transfer(client, service.host, size)
    admission = service.admission
    admission.arrive()
    # Fast path: a healthy service with no fault injector attached skips
    # the per-condition checks (and the injector's RNG draw) entirely.
    faults = service.faults
    if service.crashed or service.down or faults is not None:
        if service.crashed:
            admission.refuse()
            raise ServiceUnavailableError(
                f"service {service.name} crashed: {service.crash_reason}"
            )
        if service.down:
            admission.refuse(sim.now)
            raise ServiceUnavailableError(
                f"service {service.name} down: {service.down_reason}"
            )
        if faults.drop_request():
            admission.stats.dropped += 1
            raise ServiceUnavailableError(f"service {service.name} dropped the connection")
    if admission.full():
        admission.refuse(sim.now)
        # TCP RST back to the client is effectively free but not instant.
        yield from net.transfer(service.host, client, 64)
        raise ServiceUnavailableError(f"service {service.name} refused connection (backlog full)")

    # Admitted: wait for a handler thread, then hold it until the handler
    # returns.
    slot = Event(sim)
    if admission.enter(slot):
        slot.succeed()
    yield slot
    started = sim.now
    ok = False
    try:
        if faults is not None:
            # Injected stall: the handler thread is held the whole time,
            # so stalls eat pool capacity like real hung providers do.
            stall = faults.stall_delay()
            if stall > 0:
                yield sim.timeout(stall)
        delay = admission.overhead()
        if delay > 0:
            yield sim.timeout(delay)
        response = yield from service.handler(service, request)
        if not isinstance(response, Response):
            raise SimulationError(
                f"handler of service {service.name!r} returned {type(response).__name__}, "
                "expected Response"
            )
        ok = True
    except SimulationError:
        # Crashes, upstream refusals/timeouts mid-handler (mediator
        # chains during faults or churn) and engine errors end the
        # connection as an error and propagate to the client.
        raise
    except Exception as exc:
        # A handler is arbitrary code: anything else it raises is the error
        # reply a real server sends back (the live runtime does the same).
        response = Response(value=exc, size=256)
    finally:
        waiter = admission.leave(ok, sim.now - started)
        if waiter is not None:
            waiter.succeed()
    yield from net.transfer(service.host, client, response.size)
    if isinstance(response.value, Exception):
        raise response.value
    return response.value
