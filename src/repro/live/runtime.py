"""The asyncio runtime: the same kernels as real concurrent services.

The DES interprets kernel ops as simulator events
(:mod:`repro.core.desruntime`); this module interprets the *same* ops as
asyncio primitives — ``Compute``/``Busy``/``Held`` become real sleeps
(scaled by ``time_scale``), locks become :class:`LiveLock` wrappers
around :class:`asyncio.Lock`, and ``Call``/``Fanout`` become awaited
requests on co-hosted :class:`LiveService` instances.

Time runs in *model seconds*: :class:`LiveClock` reads
``(monotonic - epoch) / time_scale``, and every modeled duration sleeps
``duration * time_scale`` wall seconds.  With ``time_scale=1.0`` the
live plane runs in real time; smaller values compress the model clock
so a 60-model-second window fits a short CI job.  Domain state (cache
TTLs, leases, ad staleness) sees only model seconds, so both runtimes
age the same objects at the same model rate.

This module must import cleanly with :mod:`repro.sim` absent
(``tests/live/test_import_clean.py`` enforces it) — the DES twin
harness (:mod:`repro.live.twin`) imports the simulator lazily.
"""

from __future__ import annotations

import asyncio
import time
import typing as _t

import numpy as np

from repro.core.admission import Admission
from repro.core.kernels import (
    KernelResponse,
    KernelSpec,
    activate_plan,
    connect_plan,
    expose_plan,
    materialize_plan,
)
from repro.core.kernels.ops import (
    OP_ACQUIRE,
    OP_BUSY,
    OP_CALL,
    OP_CLOCK,
    OP_COMPUTE,
    OP_CRASH,
    OP_FANOUT,
    OP_HELD,
    OP_QUEUE_DEPTH,
    OP_RELEASE,
)
from repro.core.params import StudyParams, default_params
from repro.core.stablehash import stable_hash
from repro.core.topology.plan import DeploymentPlan, PlanError
from repro.errors import ServiceCrashError, ServiceUnavailableError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.live.protocols import Listener

__all__ = [
    "LiveClock",
    "LiveLock",
    "LiveService",
    "LiveDeployment",
    "interpret",
    "AsyncioRuntime",
]


class LiveClock:
    """Model time for the live plane: wall seconds over ``time_scale``."""

    def __init__(self, time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self.time_scale = time_scale
        self._epoch = time.monotonic()

    def now(self) -> float:
        """Current model time in seconds since the runtime started."""
        return (time.monotonic() - self._epoch) / self.time_scale

    def wall(self, model_seconds: float) -> float:
        """Wall-clock seconds corresponding to ``model_seconds``."""
        return model_seconds * self.time_scale

    async def sleep(self, model_seconds: float) -> None:
        if model_seconds > 0:
            await asyncio.sleep(model_seconds * self.time_scale)


class LiveLock:
    """The live plane's opaque lock token: asyncio.Lock + queue depth.

    Mirrors the two properties kernels rely on from the DES Mutex: FIFO
    mutual exclusion and a readable ``queue_length`` (how many requests
    are waiting — the convoy terms feed on it).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = asyncio.Lock()
        self._waiters = 0

    @property
    def queue_length(self) -> int:
        return self._waiters

    async def acquire(self) -> None:
        self._waiters += 1
        try:
            await self._lock.acquire()
        finally:
            self._waiters -= 1

    def release(self) -> None:
        self._lock.release()


class LiveService:
    """One kernel hosted as an in-process async service.

    Admission is the DES Service's, literally: both own a
    :class:`~repro.core.admission.Admission` and this class only does
    the waiting — a future per queued request.  At most ``max_threads``
    requests run concurrently, up to ``backlog`` more wait for a slot,
    and past that the request is *refused*
    (:class:`ServiceUnavailableError` — a RST on the wire).
    """

    def __init__(self, spec: KernelSpec, clock: LiveClock) -> None:
        self.spec = spec
        self.name = spec.name
        self.clock = clock
        self.admission = Admission(spec.max_threads, spec.backlog, spec.conn_overhead)
        self.stats = self.admission.stats
        self.crashed = False
        self.crash_reason: str | None = None

    @property
    def requests(self) -> int:
        return self.stats.arrived

    @property
    def refusals(self) -> int:
        return self.stats.refused

    async def request(self, payload: _t.Any) -> KernelResponse:
        """Admit and serve one request; returns the full KernelResponse."""
        admission, clock = self.admission, self.clock
        admission.arrive()
        if self.crashed:
            admission.refuse()
            raise ServiceUnavailableError(f"service {self.name} is down")
        if admission.full():
            admission.refuse(clock.now())
            raise ServiceUnavailableError(
                f"service {self.name} refused connection (accept queue full)"
            )
        slot = asyncio.get_running_loop().create_future()
        if not admission.enter(slot):
            try:
                await slot
            except asyncio.CancelledError:
                if slot.done() and not slot.cancelled():
                    # Cancelled with the slot already handed over: pass it on.
                    self._leave(False, 0.0)
                else:
                    admission.abandon(slot)
                raise
        started = clock.now()
        ok = False
        try:
            await clock.sleep(admission.overhead())
            response = await interpret(self.spec.handle(payload), clock, self)
            ok = True
            return response
        finally:
            self._leave(ok, clock.now() - started)

    def _leave(self, ok: bool, busy: float) -> None:
        waiter = self.admission.leave(ok, busy)
        if waiter is not None:
            waiter.set_result(None)


async def interpret(
    gen: _t.Generator, clock: LiveClock, service: LiveService | None = None
) -> _t.Any:
    """Interpret an op stream on asyncio (see desruntime); return its value.

    With a ``service`` this serves one request of that service's kernel;
    without one it hosts a background loop from
    :func:`~repro.core.kernels.build.activate_plan`.  ``Call`` ignores
    the op's ``retry``: a live call is one attempt.
    """
    try:
        op = gen.send(None)
        while True:
            value: _t.Any = None
            try:
                tag = op.tag
                if tag == OP_COMPUTE:
                    await clock.sleep(op.seconds)
                elif tag == OP_CLOCK:
                    value = clock.now()
                elif tag == OP_HELD:
                    await op.lock.acquire()
                    try:
                        await clock.sleep(op.hold)
                    finally:
                        op.lock.release()
                elif tag == OP_QUEUE_DEPTH:
                    value = op.lock.queue_length
                elif tag == OP_ACQUIRE:
                    await op.lock.acquire()
                elif tag == OP_RELEASE:
                    op.lock.release()
                elif tag == OP_BUSY:
                    await clock.sleep(op.hold)
                elif tag == OP_CALL:
                    value = (await op.target.request(op.payload)).value
                elif tag == OP_FANOUT:
                    answers = await asyncio.gather(
                        *(target.request(op.payload) for target in op.targets),
                        return_exceptions=True,
                    )
                    value = [
                        (False, a)
                        if isinstance(a, BaseException)
                        else (True, a.value)
                        for a in answers
                    ]
                elif tag == OP_CRASH:
                    service.crashed = True
                    service.crash_reason = op.reason
                    raise ServiceCrashError(op.message)
                else:  # pragma: no cover - kernels only yield known ops
                    raise TypeError(f"unknown kernel op {op!r}")
            except BaseException as exc:
                # Run the kernel's finallys (they may hand back a Release,
                # which the next loop iteration executes synchronously).
                op = gen.throw(exc)
                continue
            op = gen.send(value)
    except StopIteration as stop:
        return stop.value


class LiveDeployment:
    """A compiled plan's live services, listeners and background loops.

    ``services`` maps node names (plus ``"<node>:ingest"`` side doors)
    to :class:`LiveService`; after :meth:`start`, ``ports`` maps every
    listening service to its bound TCP port (port 0 at bind time — the
    OS picks, the handle reports).  ``loops`` is what
    :func:`~repro.core.kernels.build.activate_plan` yielded:
    :meth:`start` runs each as a task through :func:`interpret`, and
    :meth:`stop` cancels them and closes listeners; start/stop may be
    repeated.
    """

    def __init__(
        self,
        plan: DeploymentPlan,
        objects: dict[str, _t.Any],
        extras: dict[str, _t.Any],
        services: dict[str, LiveService],
        clock: LiveClock,
        *,
        entry: str | None,
        host: str = "127.0.0.1",
        loops: tuple[tuple[str, str, _t.Callable[[], _t.Generator]], ...] = (),
    ) -> None:
        self.plan = plan
        self.objects = objects
        self.extras = extras
        self.services = services
        self.clock = clock
        self.entry = entry
        self.host = host
        self.loops = loops
        self.ports: dict[str, int] = {}
        self._servers: list[Listener] = []
        self._tasks: list[asyncio.Task] = []
        self.running = False

    @property
    def entry_service(self) -> LiveService:
        if self.entry is None:
            raise PlanError(f"plan {self.plan.name!r} has no entry node")
        return self.services[self.entry]

    async def start(self) -> "LiveDeployment":
        """Bind one listener per exposed service and start every loop."""
        if self.running:
            raise RuntimeError(f"deployment {self.plan.name!r} already running")
        from repro.live.protocols import server_for  # cycle-free at runtime

        for name, service in self.services.items():
            server = await server_for(self.plan.system, service, self.host)
            self._servers.append(server)
            self.ports[name] = server.sockets[0].getsockname()[1]
        for _name, _placement, factory in self.loops:
            self._tasks.append(asyncio.ensure_future(interpret(factory(), self.clock)))
        self.running = True
        return self

    async def stop(self) -> None:
        """Cancel the loops, close listeners, leave the deployment reusable.

        A loop that died of anything but its cancellation is a bug in
        it: the first such error is re-raised once every listener is
        closed.
        """
        for task in self._tasks:
            task.cancel()
        outcomes = await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        self.ports.clear()
        self.running = False
        for outcome in outcomes:
            if isinstance(outcome, BaseException) and not isinstance(
                outcome, asyncio.CancelledError
            ):
                raise outcome

    async def __aenter__(self) -> "LiveDeployment":
        return await self.start()

    async def __aexit__(self, *exc: _t.Any) -> None:
        await self.stop()


def _stream(*names: str) -> np.random.Generator:
    """The live plane's named random stream: sim-free, hash-seed independent."""
    return np.random.default_rng(stable_hash(*names))


class AsyncioRuntime:
    """Compile a :class:`DeploymentPlan` to live asyncio services.

    All four compile phases are *shared* with the DES
    (:mod:`repro.core.kernels.build`), so both runtimes serve the same
    domain objects through the same kernels and run the same background
    loops.  This runtime's share is the wrap — :class:`LiveLock` tokens,
    ``wire=True`` (real bytes go on real sockets) and a
    :class:`LiveService` per kernel — and the host: each loop runs as a
    task at every :meth:`LiveDeployment.start`.  Loops draw from
    sim-free streams seeded by :func:`~repro.core.stablehash.stable_hash`
    of their names, and carry no retry policy.
    """

    def __init__(
        self,
        params: StudyParams | None = None,
        *,
        time_scale: float = 1.0,
        host: str = "127.0.0.1",
    ) -> None:
        self.params = params or default_params()
        self.time_scale = time_scale
        self.host = host

    def compile(self, plan: DeploymentPlan) -> LiveDeployment:
        objects: dict[str, _t.Any] = {}
        extras: dict[str, _t.Any] = {}
        materialize_plan(plan, objects, extras)
        connect_plan(plan, objects, extras)
        clock = LiveClock(self.time_scale)
        services: dict[str, LiveService] = {}
        for name, _spec, kernel_spec in expose_plan(
            plan,
            objects,
            extras,
            self.params,
            make_lock=LiveLock,
            wire=True,
            services=services,
        ):
            services[name] = LiveService(kernel_spec, clock)
        loops = activate_plan(
            plan, objects, extras, self.params, services=services, stream=_stream
        )
        return LiveDeployment(
            plan,
            objects,
            extras,
            services,
            clock,
            entry=plan.entry,
            host=self.host,
            loops=tuple(loops),
        )
