"""The request path leaves nothing that only the cyclic collector can free.

A plain ``call`` (no deadline) runs in its client's frame and spawns no
worker process, and a process that has finished drops its own resume
callback, so with the collector disabled a finished request leaves no
``Process`` behind, and a refused one leaves no error behind.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.desruntime import kernel_service
from repro.core.kernels.ops import CLOCK, Compute, KernelResponse, KernelSpec
from repro.sim import Host, Network, Response, Service, Simulator, call
from repro.errors import ServiceUnavailableError
from repro.sim.process import Process

CALLS = 500


def _count(kind: type) -> int:
    return sum(1 for obj in gc.get_objects() if isinstance(obj, kind))


def _processes() -> int:
    return _count(Process)


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _echo_service(sim, net, server):
    def handler(service, request):
        yield service.host.compute(0.001)
        return Response(value=request.payload, size=256)

    return Service(sim, net, server, "echo", handler)


def _kernel_service(sim, net, server):
    def handle(payload):
        yield Compute(0.001)
        yield CLOCK
        return KernelResponse(value=payload, size=128)

    return kernel_service(sim, net, server, KernelSpec("probe", handle, max_threads=4, backlog=16))


@pytest.mark.parametrize("make_service", [_echo_service, _kernel_service])
def test_plain_calls_leave_no_process_behind(collector_off, make_service):
    before = _processes()
    sim = Simulator()
    net = Network(sim, default_latency=1e-3)
    server = Host(sim, "server", site="anl")
    client = Host(sim, "client", site="uc")
    service = make_service(sim, net, server)
    done: list[int] = []

    def user():
        for i in range(CALLS):
            done.append((yield from call(sim, net, client, service, i)))

    proc = sim.spawn(user())
    sim.run()
    assert done == list(range(CALLS))
    assert not proc.alive
    # The finished client is the only process left, and only because
    # this frame still holds it.
    assert _processes() - before == 1


def test_finished_process_is_freed_by_reference_counting(collector_off):
    before = _processes()
    sim = Simulator()

    def ticker():
        yield sim.timeout(1.0)
        return "done"

    def failing():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    ok = sim.spawn(ticker())
    bad = sim.spawn(failing())
    sim.run()
    assert ok.value == "done" and isinstance(bad.value, ValueError)
    assert _processes() - before == 2
    del ok
    assert _processes() - before == 1


def test_refused_plain_calls_leave_no_error_behind(collector_off):
    before = _count(ServiceUnavailableError)
    sim = Simulator()
    net = Network(sim, default_latency=1e-3)
    server = Host(sim, "server", site="anl")
    client = Host(sim, "client", site="uc")

    def handler(service, request):
        yield service.host.compute(0.01)
        return Response(value=request.payload, size=256)

    service = Service(sim, net, server, "narrow", handler, max_threads=1, backlog=0)
    refused: list[int] = []

    def user(n):
        for i in range(50):
            try:
                yield from call(sim, net, client, service, i)
            except ServiceUnavailableError:
                refused.append(n)

    for n in range(8):
        sim.spawn(user(n))
    sim.run()
    assert len(refused) > 100
    assert _count(ServiceUnavailableError) == before
