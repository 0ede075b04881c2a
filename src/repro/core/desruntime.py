"""The DES runtime: kernels interpreted as simulator events.

:func:`interpret` is the one op interpreter.  :func:`kernel_service`
wraps a :class:`~repro.core.kernels.ops.KernelSpec` in a
:class:`~repro.sim.rpc.Service` whose handler *is* that interpreter over
the kernel's op stream, and the compiler spawns every background loop
of :func:`~repro.core.kernels.build.activate_plan` through it too.  Each
op maps onto exactly the simulator yields the pre-kernel inline code
performed, so a kernelized service or loop is event-for-event identical
to its ancestor (the topology equivalence and figure-pinning tests
enforce this byte-identity).

Two properties of the interpreter are load-bearing:

* pure reads (``CLOCK``, ``QueueDepth``) create *no* simulator events —
  they answer from ``sim.now`` / ``lock.queue_length`` synchronously;
* exceptions raised while executing an op (refusals, timeouts, crash
  injection arriving at a yield) are thrown *into* the kernel generator
  so its ``try/finally`` blocks run.  Kernel finallys only ever yield
  :class:`~repro.core.kernels.ops.Release`, which executes without
  yielding to the simulator — that keeps cleanup legal even when the
  delivered exception is ``GeneratorExit``.
"""

from __future__ import annotations

import typing as _t
from functools import partial

from repro.core.costmodel import busy_split, held
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
    KernelSpec,
)
from repro.errors import ServiceCrashError
from repro.sim.rpc import Response, Service, call

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.host import Host
    from repro.sim.network import Network

__all__ = ["interpret", "kernel_service"]


def interpret(
    sim: "Simulator",
    net: "Network",
    host: "Host",
    start: _t.Callable[[], _t.Generator],
    service: Service | None = None,
) -> _t.Generator:
    """Run the op generator ``start()`` on ``host`` as simulator yields.

    With a ``service`` this is a request handler: ``start`` is a kernel's
    ``handle`` bound to the payload, and the :class:`KernelResponse`
    comes back as a :class:`Response`.  Without one it hosts a
    background loop from :func:`~repro.core.kernels.build.activate_plan`
    (``start`` is the loop's factory) and returns whatever the loop
    returns.  The op generator is made here, after this one, so a
    collected simulation closes this interpreter first and the kernel's
    cleanup ``Release`` still runs through it.
    """
    gen = start()
    try:
        op = gen.send(None)
        while True:
            value: _t.Any = None
            try:
                tag = op.tag
                if tag == OP_COMPUTE:
                    yield host.compute(op.seconds)
                elif tag == OP_CLOCK:
                    value = sim.now
                elif tag == OP_HELD:
                    yield from held(sim, host, op.lock, op.hold, op.cpu_fraction)
                elif tag == OP_QUEUE_DEPTH:
                    value = op.lock.queue_length
                elif tag == OP_ACQUIRE:
                    yield op.lock.acquire()
                elif tag == OP_RELEASE:
                    op.lock.release()
                elif tag == OP_BUSY:
                    yield from busy_split(sim, host, op.hold, op.cpu_fraction)
                elif tag == OP_CALL:
                    value = yield from call(
                        sim, net, host, op.target, op.payload, size=op.size, retry=op.retry
                    )
                elif tag == OP_FANOUT:
                    workers = [
                        sim.spawn(
                            call(sim, net, host, target, op.payload, size=op.size),
                            name=f"fan:{target.name}",
                        )
                        for target in op.targets
                    ]
                    yield sim.all_of(workers)
                    value = [(w.ok, w.value) for w in workers]
                elif tag == OP_CRASH:
                    service.crash(op.reason)
                    raise ServiceCrashError(op.message)
                else:  # pragma: no cover - kernels only yield known ops
                    raise TypeError(f"unknown kernel op {op!r}")
            except BaseException as exc:
                # Run the kernel's finallys; a cleanup op (Release) may
                # come back, in which case the loop executes it and the
                # original exception resumes at the next send().
                op = gen.throw(exc)
                continue
            op = gen.send(value)
    except StopIteration as stop:
        if service is None:
            return stop.value
        kr = stop.value
        return Response(value=kr.value, size=kr.size)


def kernel_service(
    sim: "Simulator", net: "Network", host: "Host", spec: KernelSpec
) -> Service:
    """Host ``spec``'s kernel as a simulated network service."""
    handle = spec.handle

    def handler(service: Service, request: _t.Any) -> _t.Generator:
        return interpret(sim, net, host, partial(handle, request.payload), service)

    return Service(
        sim,
        net,
        host,
        spec.name,
        handler,
        max_threads=spec.max_threads,
        backlog=spec.backlog,
        conn_overhead=spec.conn_overhead,
    )
