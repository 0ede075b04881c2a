"""Tests for the trace-driven (open-loop) workload."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import OUTCOME_OK, RequestLog
from repro.core.trace_workload import (
    TraceEntry,
    dump_trace,
    load_trace,
    replay_trace,
    synthesize_poisson_trace,
)
from repro.errors import ReproError
from repro.sim import Host, Network, Response, Service, Simulator


def test_load_trace_with_header_and_payload():
    text = "time,user,payload\n0.5,1,SELECT *\n0.1,2,\n"
    entries = load_trace(text)
    assert entries[0] == TraceEntry(0.1, 2, "")
    assert entries[1] == TraceEntry(0.5, 1, "SELECT *")


def test_load_trace_headerless():
    entries = load_trace("1.0,3\n2.0,4\n")
    assert [e.user for e in entries] == [3, 4]


@pytest.mark.parametrize("bad", ["", "nonsense\n", "1.0\n", "x,y\n", "-1.0,2\n"])
def test_load_trace_rejects_malformed(bad):
    with pytest.raises(ReproError):
        load_trace(bad)


def test_dump_load_roundtrip():
    entries = [TraceEntry(0.25, 7, "q1"), TraceEntry(1.5, 8, "")]
    assert load_trace(dump_trace(entries)) == entries


def test_synthesize_poisson_rate():
    rng = np.random.default_rng(0)
    entries = synthesize_poisson_trace(rate=50.0, duration=100.0, users=10, rng=rng)
    assert 4000 < len(entries) < 6000  # ~5000 arrivals
    assert all(0 <= e.time < 100.0 for e in entries)
    assert {e.user for e in entries} <= set(range(10))


def test_synthesize_rejects_bad_args():
    rng = np.random.default_rng(0)
    with pytest.raises(ReproError):
        synthesize_poisson_trace(0.0, 10.0, 1, rng)


def make_stack(delay=0.1, max_threads=64):
    sim = Simulator()
    net = Network(sim)
    server = Host(sim, "server")
    clients = [Host(sim, f"c{i}") for i in range(3)]

    def handler(service, request):
        yield sim.timeout(delay)
        return Response(value=request.payload, size=128)

    service = Service(sim, net, server, "svc", handler, max_threads=max_threads)
    return sim, net, clients, service


def test_replay_issues_at_recorded_times():
    sim, net, clients, service = make_stack()
    log = RequestLog()
    entries = [TraceEntry(1.0, 0), TraceEntry(2.5, 1), TraceEntry(2.5, 2)]
    scheduled = replay_trace(sim, net, entries, service, clients, log=log)
    sim.run(until=10.0)
    assert scheduled == 3
    oks = [r for r in log.records if r.outcome == OUTCOME_OK]
    assert sorted(round(r.started, 3) for r in oks) == [1.0, 2.5, 2.5]


def test_replay_open_loop_does_not_backoff():
    """Open loop: arrivals keep coming even when the server is drowning."""
    sim, net, clients, service = make_stack(delay=5.0, max_threads=1)
    log = RequestLog()
    entries = [TraceEntry(0.1 * i, i) for i in range(20)]
    replay_trace(sim, net, entries, service, clients, log=log)
    sim.run(until=3.0)
    # All 20 arrived within 2 s even though barely any completed.
    assert service.stats.arrived == 20
    assert service.stats.completed == 0


def test_replay_payload_fn():
    sim, net, clients, service = make_stack()
    log = RequestLog()
    entries = [TraceEntry(0.0, 0, "42")]
    replay_trace(
        sim, net, entries, service, clients,
        log=log, payload_fn=lambda e: {"n": int(e.payload)},
    )
    sim.run(until=5.0)
    assert log.records[0].outcome == OUTCOME_OK


def test_replay_requires_clients():
    sim, net, _clients, service = make_stack()
    with pytest.raises(ReproError):
        replay_trace(sim, net, [], service, [], log=RequestLog())


def test_replay_against_experiment_service():
    """End to end: a Poisson trace against a real GRIS service."""
    from repro.core.desruntime import kernel_service
    from repro.core.kernels import GrisKernel
    from repro.core.runner import new_run
    from repro.mds.gris import GRIS
    from repro.mds.providers import replicated_providers
    from repro.sim.resources import Mutex

    run = new_run(seed=5, monitored=("lucky7",))
    gris = GRIS("lucky7.mcs.anl.gov", replicated_providers(10), cachettl=float("inf"), seed=5)
    gris.search(now=0.0)  # prime the cache before measurement
    host = run.testbed.lucky["lucky7"]
    kernel = GrisKernel(gris, run.params.gris, providers_lock=Mutex(run.sim, name="providers"))
    service = kernel_service(run.sim, run.net, host, kernel.spec())
    rng = np.random.default_rng(5)
    entries = synthesize_poisson_trace(rate=20.0, duration=30.0, users=40, rng=rng)
    log = RequestLog()
    replay_trace(run.sim, run.net, entries, service, run.testbed.uc, log=log)
    run.sim.run(until=60.0)
    oks = log.count(OUTCOME_OK)
    assert oks > 0.9 * len(entries)  # 20 q/s is well within the cached GRIS


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 100).map(lambda f: round(f, 3)), st.integers(0, 99)),
        min_size=1,
        max_size=40,
    )
)
def test_property_dump_load_roundtrip(pairs):
    entries = sorted(
        (TraceEntry(t, u) for t, u in pairs), key=lambda e: (e.time, e.user)
    )
    assert load_trace(dump_trace(entries)) == entries
