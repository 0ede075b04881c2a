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
from repro.core.components import System
from repro.core.kernels import (
    KernelResponse,
    KernelSpec,
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
from repro.core.topology.plan import DeploymentPlan, EdgeKind, PlanError, ServerSpec
from repro.errors import ReproError, ServiceCrashError, ServiceUnavailableError

__all__ = [
    "LiveClock",
    "LiveLock",
    "LiveService",
    "LiveDeployment",
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
            response = await self._drive(payload)
            ok = True
            return response
        finally:
            self._leave(ok, clock.now() - started)

    def _leave(self, ok: bool, busy: float) -> None:
        waiter = self.admission.leave(ok, busy)
        if waiter is not None:
            waiter.set_result(None)

    async def _drive(self, payload: _t.Any) -> KernelResponse:
        """Interpret the kernel's op stream on asyncio (see desruntime)."""
        gen = self.spec.handle(payload)
        try:
            op = gen.send(None)
        except StopIteration as stop:
            return stop.value
        while True:
            value: _t.Any = None
            try:
                tag = op.tag
                if tag == OP_COMPUTE:
                    await self.clock.sleep(op.seconds)
                elif tag == OP_CLOCK:
                    value = self.clock.now()
                elif tag == OP_HELD:
                    await op.lock.acquire()
                    try:
                        await self.clock.sleep(op.hold)
                    finally:
                        op.lock.release()
                elif tag == OP_QUEUE_DEPTH:
                    value = op.lock.queue_length
                elif tag == OP_ACQUIRE:
                    await op.lock.acquire()
                elif tag == OP_RELEASE:
                    op.lock.release()
                elif tag == OP_BUSY:
                    await self.clock.sleep(op.hold)
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
                    self.crashed = True
                    self.crash_reason = op.reason
                    raise ServiceCrashError(op.message)
                else:  # pragma: no cover - kernels only yield known ops
                    raise TypeError(f"unknown kernel op {op!r}")
            except BaseException as exc:
                # Run the kernel's finallys (they may hand back a Release,
                # which the next loop iteration executes synchronously).
                try:
                    op = gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
                continue
            try:
                op = gen.send(value)
            except StopIteration as stop:
                return stop.value


class LiveDeployment:
    """A compiled plan's live services, listeners and background tasks.

    ``services`` maps node names (plus ``"<node>:ingest"`` side doors)
    to :class:`LiveService`; after :meth:`start`, ``ports`` maps every
    listening service to its bound TCP port (port 0 at bind time — the
    OS picks, the handle reports).  :meth:`stop` cancels background
    tasks and closes listeners; start/stop may be repeated.
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
        skipped: tuple[str, ...] = (),
    ) -> None:
        self.plan = plan
        self.objects = objects
        self.extras = extras
        self.services = services
        self.clock = clock
        self.entry = entry
        self.host = host
        self.skipped = skipped
        self.ports: dict[str, int] = {}
        self._servers: list[asyncio.base_events.Server] = []
        self._tasks: list[asyncio.Task] = []
        self.running = False

    @property
    def entry_service(self) -> LiveService:
        if self.entry is None:
            raise PlanError(f"plan {self.plan.name!r} has no entry node")
        return self.services[self.entry]

    async def start(self) -> "LiveDeployment":
        """Bind one listener per exposed service and spawn feeders."""
        if self.running:
            raise RuntimeError(f"deployment {self.plan.name!r} already running")
        from repro.live.protocols import server_for  # cycle-free at runtime

        for name, service in self.services.items():
            server = await server_for(self.plan.system, service, self.host)
            self._servers.append(server)
            self.ports[name] = server.sockets[0].getsockname()[1]
        for factory in self._background_factories():
            self._tasks.append(asyncio.ensure_future(factory()))
        self.running = True
        return self

    async def stop(self) -> None:
        """Cancel feeders, close listeners, leave the deployment reusable."""
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        self.ports.clear()
        self.running = False

    async def __aenter__(self) -> "LiveDeployment":
        return await self.start()

    async def __aexit__(self, *exc: _t.Any) -> None:
        await self.stop()

    # -- background data planes (the live analogue of phase 4) --------------

    def _background_factories(self) -> list[_t.Callable[[], _t.Coroutine]]:
        out: list[_t.Callable[[], _t.Coroutine]] = []
        plan, clock = self.plan, self.clock
        if plan.system is System.RGMA:
            for spec in plan.nodes:
                if (
                    isinstance(spec, ServerSpec)
                    and spec.variant == "default"
                    and spec.options.get("publisher")
                ):
                    servlet = self.objects[spec.name]
                    interval = float(spec.options.get("publish_interval", 30.0))

                    async def publisher(servlet=servlet, interval=interval) -> None:
                        while True:
                            await clock.sleep(interval)
                            servlet.publish_all(now=clock.now())

                    out.append(publisher)
        if plan.system is System.HAWKEYE:
            for edge in plan.edges:
                mode = edge.options.get("mode")
                if edge.kind is EdgeKind.REGISTRATION and mode == "local":
                    agent = self.objects[edge.source]
                    manager = self.objects[edge.target]
                    interval = float(edge.options.get("interval", 30.0))

                    async def advertiser(
                        agent=agent, manager=manager, interval=interval
                    ) -> None:
                        while True:
                            await clock.sleep(interval)
                            ad, _answer = agent.make_startd_ad(now=clock.now())
                            manager.receive_ad(ad, clock.now())

                    out.append(advertiser)
                elif edge.kind is EdgeKind.AGGREGATION and mode == "wire":
                    out.extend(self._wire_advertisers(edge))
        return out

    def _wire_advertisers(self, edge: _t.Any) -> list[_t.Callable[[], _t.Coroutine]]:
        """Synthetic machine banks pushing ads through the ingest port."""
        from repro.hawkeye.advertise import synthesize_startd_ad

        source = self.plan.node(edge.source)
        ingest = self.services[f"{edge.target}:ingest"]
        machine_format = source.options.get("machine_format", source.name + "{i}")
        interval = float(edge.options.get("interval", 30.0))
        clock = self.clock
        offsets = np.random.default_rng(source.seed or 1).uniform(
            0.0, interval, size=source.replicas
        )

        def make(machine: str, offset: float) -> _t.Callable[[], _t.Coroutine]:
            async def advertiser() -> None:
                rng = np.random.default_rng(stable_hash(machine))
                ad = synthesize_startd_ad(machine, rng, now=0.0)
                self.objects[edge.target].receive_ad(ad, now=0.0)  # warm pool
                await clock.sleep(offset)
                while True:
                    ad = synthesize_startd_ad(machine, rng, now=clock.now())
                    try:
                        await ingest.request({"ad": ad})
                    except (ReproError, OSError, asyncio.IncompleteReadError):
                        pass  # a dropped ad is just a missed update
                    await clock.sleep(interval)

            return advertiser

        return [
            make(machine_format.format(i=i), float(offsets[i]))
            for i in range(source.replicas)
        ]


class AsyncioRuntime:
    """Compile a :class:`DeploymentPlan` to live asyncio services.

    The materialize, connect and expose phases are *shared* with the DES
    (:mod:`repro.core.kernels.build`), so both runtimes serve the same
    domain objects through the same kernels; this runtime's share of
    expose is the wrap — :class:`LiveLock` tokens, ``wire=True`` (real
    bytes go on real sockets) and a :class:`LiveService` per kernel.

    DES-only control planes (soft-state registrars, resilient
    advertisers) are skipped and reported on ``deployment.skipped`` —
    they model client-side behavior the live load generator owns; the
    server-side doors they talk to (``:registration``, ``:ingest``) are
    served.
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
        skipped: list[str] = []
        for edge in plan.edges:
            if edge.options.get("soft_state"):
                skipped.append(f"soft-state registrar {edge.source}->{edge.target}")
            if edge.options.get("mode") == "resilient":
                skipped.append(f"resilient advertiser {edge.source}->{edge.target}")
        return LiveDeployment(
            plan,
            objects,
            extras,
            services,
            clock,
            entry=plan.entry,
            host=self.host,
            skipped=tuple(skipped),
        )
