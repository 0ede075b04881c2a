"""Kernels driven directly, with a scripted runtime.

The op protocol is the contract both runtimes interpret; these tests
play runtime themselves — feeding scripted values back into the kernel
generator — to pin the protocol down independently of either
interpreter: op sequences, clock plumbing, lock discipline under
exceptions, and the wire/size split in responses.
"""

import pytest

from repro.core.kernels.mds import GrisKernel
from repro.core.kernels.ops import (
    CLOCK,
    OP_ACQUIRE,
    OP_BUSY,
    OP_CLOCK,
    OP_COMPUTE,
    OP_RELEASE,
    Compute,
    KernelResponse,
    KernelSpec,
)
from repro.core.topology.catalog import exp1_plan
from repro.core.kernels.build import connect_plan, materialize_plan
from repro.ldap.ldif import from_ldif


class FakeLock:
    """An opaque lock token that just records traffic."""

    def __init__(self):
        self.events = []
        self.queue_length = 0

    def acquire(self):
        self.events.append("acquire")

    def release(self):
        self.events.append("release")


class ScriptedRuntime:
    """A synchronous interpreter: advances a fake clock, records ops."""

    def __init__(self, start=100.0):
        self.now = start
        self.ops = []

    def drive(self, gen):
        try:
            op = gen.send(None)
        except StopIteration as stop:
            return [], stop.value
        while True:
            self.ops.append(op)
            value = None
            tag = op.tag
            if tag == OP_CLOCK:
                value = self.now
            elif tag in (OP_COMPUTE, OP_BUSY):
                self.now += op.seconds if tag == OP_COMPUTE else op.hold
            elif tag == OP_ACQUIRE:
                op.lock.acquire()
            elif tag == OP_RELEASE:
                op.lock.release()
            try:
                op = gen.send(value)
            except StopIteration as stop:
                return self.ops, stop.value


def _gris_kernel(wire=False, cached=True):
    objects, extras = {}, {}
    plan = exp1_plan("mds-gris-cache" if cached else "mds-gris-nocache")
    materialize_plan(plan, objects, extras)
    connect_plan(plan, objects, extras)
    from repro.core.params import default_params

    lock = FakeLock()
    kernel = GrisKernel(
        objects[plan.entry], default_params().gris, providers_lock=lock, wire=wire
    )
    return kernel, lock


def test_gris_cold_cache_takes_the_providers_lock():
    # nocache mode: zero TTL, every query re-runs the providers.
    kernel, lock = _gris_kernel(cached=False)
    rt = ScriptedRuntime()
    ops, response = rt.drive(kernel.handle({"filter": "(objectclass=*)"}))
    tags = [op.tag for op in ops]
    # Cold cache: admission compute, clock, lock, recheck, provider
    # re-run (busy), clock, release, per-entry compute.
    assert tags == [
        OP_COMPUTE, OP_CLOCK, OP_ACQUIRE, OP_CLOCK,
        OP_BUSY, OP_CLOCK, OP_RELEASE, OP_COMPUTE,
    ]
    assert lock.events == ["acquire", "release"]
    assert isinstance(response, KernelResponse)
    assert response.value["entries"] > 0
    assert response.value["fetched"] > 0
    assert response.size > 0
    assert response.wire is None  # wire bodies are opt-in


def test_gris_warm_cache_skips_the_lock():
    # cache mode primes at materialization with an infinite TTL: the
    # fast path never touches the providers lock.
    kernel, lock = _gris_kernel(cached=True)
    ops, response = ScriptedRuntime().drive(kernel.handle(None))
    tags = [op.tag for op in ops]
    assert OP_ACQUIRE not in tags and OP_BUSY not in tags
    assert lock.events == []
    assert response.value["fetched"] == 0  # nothing stale re-fetched


def test_gris_wire_body_matches_entry_count():
    kernel, _lock = _gris_kernel(wire=True)
    _ops, response = ScriptedRuntime().drive(kernel.handle(None))
    assert isinstance(response.wire, bytes)  # what the socket sends, already encoded
    assert len(from_ldif(response.wire.decode())) == response.value["entries"]


def test_exception_thrown_mid_kernel_still_releases_the_lock():
    # The runtime contract: timeouts/crashes are thrown INTO the kernel
    # generator so its try/finally runs; the finally may yield Release
    # ops, which the runtime executes before re-raising.
    kernel, lock = _gris_kernel(cached=False)
    gen = kernel.handle(None)
    op = gen.send(None)          # Compute
    op = gen.send(None)          # CLOCK
    assert op is CLOCK
    op = gen.send(50.0)          # cold cache -> Acquire
    assert op.tag == OP_ACQUIRE
    lock.acquire()
    op = gen.send(None)          # inside the critical section (CLOCK)
    cleanup = gen.throw(RuntimeError("request timed out"))
    assert cleanup.tag == OP_RELEASE
    lock.release()
    with pytest.raises(RuntimeError, match="timed out"):
        gen.send(None)           # resuming after cleanup re-raises
    assert lock.events == ["acquire", "release"]


def test_kernel_spec_carries_admission_parameters():
    kernel, _lock = _gris_kernel()
    spec = kernel.spec()
    assert isinstance(spec, KernelSpec)
    p = kernel.params
    assert spec.max_threads == p.max_threads
    assert spec.backlog == p.backlog
    assert spec.conn_overhead is p.conn_overhead
    assert spec.handle == kernel.handle  # bound-method equality


def test_plain_generator_kernels_need_no_runtime():
    # A kernel with no time-advancing ops runs to completion on a bare
    # scripted loop -- nothing about the protocol requires a simulator.
    def handle(payload):
        yield Compute(0.0)
        return KernelResponse(value=payload, size=1)

    _ops, response = ScriptedRuntime().drive(handle({"echo": 1}))
    assert response.value == {"echo": 1}
