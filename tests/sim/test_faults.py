"""Tests for fault injection (crash/restart, drops, stalls) and the
client-side resilience layer (retry, backoff, circuit breaker).

Everything here is deterministic: backoff jitter and injector decisions
come from seeded generators, and the crash windows are explicit.
"""

import numpy as np
import pytest

from repro.core.experiments.faults import fault_scenario
from repro.core.scenario.model import FaultModel, Outage, ScenarioError
from repro.errors import (
    CircuitOpenError,
    RequestTimeoutError,
    ServiceUnavailableError,
    SimulationError,
)
from repro.sim import (
    CircuitBreaker,
    DropInjector,
    FaultInjector,
    Host,
    Network,
    Response,
    RetryPolicy,
    Service,
    Simulator,
    StallInjector,
    call,
)


def setup_pair(sim, dwell=0.01, **service_kwargs):
    net = Network(sim, default_latency=1e-3)
    server = Host(sim, "server", site="anl")
    client = Host(sim, "client", site="uc")

    def handler(service, request):
        yield service.sim.timeout(dwell)
        return Response(value={"echo": request.payload}, size=1024)

    svc = Service(sim, net, server, "echo", handler, **service_kwargs)
    return net, server, client, svc


def crash_between(sim, svc, start, end, reason="injected fault"):
    """Take ``svc`` down over ``[start, end)``, as a scenario outage does."""

    def controller():
        yield sim.timeout(start)
        svc.fail(reason)
        yield sim.timeout(end - start)
        svc.restore()

    sim.spawn(controller())


# -- backoff / policy ---------------------------------------------------------


def test_backoff_sequence_without_jitter():
    policy = RetryPolicy(
        max_attempts=8, base_backoff=0.5, multiplier=2.0, max_backoff=15.0, jitter=0.0
    )
    assert [policy.backoff(i) for i in range(1, 8)] == [
        0.5, 1.0, 2.0, 4.0, 8.0, 15.0, 15.0,  # capped at max_backoff
    ]


def test_backoff_jitter_reproducible_from_seed():
    mk = lambda seed: RetryPolicy(jitter=0.25, rng=np.random.default_rng(seed))  # noqa: E731
    a = [mk(7).backoff(i) for i in range(1, 6)]
    b = [mk(7).backoff(i) for i in range(1, 6)]
    c = [mk(8).backoff(i) for i in range(1, 6)]
    assert a == b
    assert a != c
    for i, value in enumerate(a, start=1):
        raw = min(0.5 * 2.0 ** (i - 1), 15.0)
        assert raw * 0.75 <= value <= raw * 1.25


def test_policy_validation():
    with pytest.raises(SimulationError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(SimulationError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(SimulationError):
        RetryPolicy(base_backoff=-1.0)
    with pytest.raises(SimulationError):
        RetryPolicy().backoff(0)


# -- retry loop ---------------------------------------------------------------


def test_retry_exhausts_against_down_service():
    sim = Simulator()
    net, _, client, svc = setup_pair(sim)
    svc.fail("maintenance")
    policy = RetryPolicy(max_attempts=3, base_backoff=0.1, jitter=0.0)
    outcomes = []

    def user(sim):
        try:
            yield from call(sim, net, client, svc, "x", retry=policy)
        except ServiceUnavailableError as exc:
            outcomes.append(str(exc))

    sim.spawn(user(sim))
    sim.run()
    assert outcomes and "maintenance" in outcomes[0]
    assert policy.stats.calls == 1
    assert policy.stats.attempts == 3
    assert policy.stats.retries == 2
    assert policy.stats.exhausted == 1
    assert policy.stats.succeeded == 0
    assert policy.stats.amplification == 3.0


def test_retry_recovers_after_restart():
    sim = Simulator()
    net, _, client, svc = setup_pair(sim)
    crash_between(sim, svc, 0.0, 2.0, "bounce")
    # Attempts near t=0 and t=1 hit the outage; the t=3 one succeeds.
    policy = RetryPolicy(max_attempts=4, base_backoff=1.0, multiplier=2.0, jitter=0.0)
    results = []

    def user(sim):
        value = yield from call(sim, net, client, svc, "x", retry=policy)
        results.append((sim.now, value))

    sim.spawn(user(sim))
    sim.run()
    assert results and results[0][1] == {"echo": "x"}
    assert policy.stats.attempts == 3
    assert policy.stats.succeeded == 1
    assert policy.stats.backoff_time == pytest.approx(3.0)
    assert svc.outage_log == [(0.0, 2.0)]
    assert not svc.down


def test_abandoned_retries_still_burn_server_threads():
    """Every timed-out attempt keeps its server thread to completion."""
    sim = Simulator()
    net, _, client, svc = setup_pair(sim, dwell=5.0, max_threads=8)
    policy = RetryPolicy(max_attempts=3, base_backoff=0.0, per_try_timeout=1.0)
    outcomes = []

    def user(sim):
        try:
            yield from call(sim, net, client, svc, "x", retry=policy)
        except RequestTimeoutError:
            outcomes.append(sim.now)

    sim.spawn(user(sim))
    sim.run()
    assert outcomes == [pytest.approx(3.0, abs=0.1)]
    assert policy.stats.attempts == 3
    # The server finished all three abandoned requests anyway.
    assert svc.stats.completed == 3


# -- circuit breaker ----------------------------------------------------------


def test_breaker_state_machine():
    breaker = CircuitBreaker(failure_threshold=2, reset_timeout=5.0)
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.allow(0.0)
    breaker.record_failure(0.0)
    assert breaker.state == CircuitBreaker.CLOSED
    breaker.record_failure(1.0)
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.trips == 1
    assert not breaker.allow(2.0)  # still inside reset_timeout
    assert breaker.rejections == 1
    assert breaker.allow(6.5)  # half-open probe
    assert breaker.state == CircuitBreaker.HALF_OPEN
    breaker.record_failure(6.6)  # probe failed: straight back to open
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.trips == 2
    assert breaker.allow(12.0)
    breaker.record_success(12.1)
    assert breaker.state == CircuitBreaker.CLOSED


def test_breaker_fast_fails_without_wire_attempts():
    sim = Simulator()
    net, _, client, svc = setup_pair(sim)
    svc.fail("dead")
    breaker = CircuitBreaker(failure_threshold=2, reset_timeout=100.0)
    policy = RetryPolicy(max_attempts=1, base_backoff=0.0, breaker=breaker)
    outcomes = []

    def user(sim):
        for _ in range(5):
            try:
                yield from call(sim, net, client, svc, "x", retry=policy)
            except CircuitOpenError:
                outcomes.append("open")
            except ServiceUnavailableError:
                outcomes.append("refused")
            yield sim.timeout(1.0)

    sim.spawn(user(sim))
    sim.run()
    # Two real failures trip the breaker; the rest never reach the wire.
    assert outcomes == ["refused", "refused", "open", "open", "open"]
    assert policy.stats.attempts == 2
    assert policy.stats.breaker_rejections == 3
    assert svc.stats.arrived == 2


def test_breaker_half_open_probe_recovers():
    sim = Simulator()
    net, _, client, svc = setup_pair(sim)
    crash_between(sim, svc, 0.0, 3.0)
    breaker = CircuitBreaker(failure_threshold=2, reset_timeout=2.0)
    policy = RetryPolicy(max_attempts=1, base_backoff=0.0, breaker=breaker)
    outcomes = []

    def user(sim):
        for _ in range(6):
            try:
                yield from call(sim, net, client, svc, "x", retry=policy)
                outcomes.append("ok")
            except ServiceUnavailableError:  # includes CircuitOpenError
                outcomes.append("fail")
            yield sim.timeout(1.0)

    sim.spawn(user(sim))
    sim.run()
    # Down 0-3s: two failures trip it, t=2 rejected, t=3+ service is back
    # and the half-open probe closes the circuit again.
    assert outcomes[:2] == ["fail", "fail"]
    assert "ok" in outcomes
    assert breaker.state == CircuitBreaker.CLOSED
    assert policy.stats.succeeded >= 1


# -- schedules and injectors --------------------------------------------------


def test_schedule_queries():
    # The canonical shapes, scaled to a 10 s warm-up + 40 s window.
    flapping = fault_scenario("flapping", 10.0, 40.0).faults.outages
    assert [o.start for o in flapping] == [16.0, 26.0, 36.0]
    assert sum(o.duration for o in flapping) == pytest.approx(3 * 2.4)
    assert flapping[-1].end == pytest.approx(38.4)
    (outage,) = fault_scenario("outage", 10.0, 40.0).faults.outages
    assert outage == Outage(20.0, 8.0)
    assert outage.end == 28.0


def test_schedule_validation():
    with pytest.raises(ScenarioError):
        FaultModel(outages=(Outage(0.0, 0.0),)).validate()
    with pytest.raises(ScenarioError):
        FaultModel(outages=(Outage(0.0, 5.0), Outage(3.0, 1.0))).validate()
    with pytest.raises(ScenarioError):
        FaultModel(outages=(Outage(5.0, 1.0), Outage(0.0, 1.0))).validate()
    with pytest.raises(ScenarioError):
        FaultModel(drop=1.5).validate()
    with pytest.raises(ScenarioError):
        FaultModel(stall=0.5, stall_seconds=-1.0).validate()


def test_drop_injector_deterministic():
    decisions = lambda seed: [  # noqa: E731
        DropInjector(0.5, np.random.default_rng(seed)).should_drop() for _ in range(1)
    ]
    a = DropInjector(0.5, np.random.default_rng(3))
    b = DropInjector(0.5, np.random.default_rng(3))
    seq_a = [a.should_drop() for _ in range(50)]
    seq_b = [b.should_drop() for _ in range(50)]
    assert seq_a == seq_b
    assert a.dropped + a.passed == 50
    assert 0 < a.dropped < 50
    assert decisions(3) == seq_a[:1]


def test_stall_injector_always_and_never():
    always = StallInjector(1.0, 2.5, np.random.default_rng(0))
    never = StallInjector(0.0, 2.5, np.random.default_rng(0))
    assert [always.sample() for _ in range(3)] == [2.5, 2.5, 2.5]
    assert always.stalled == 3
    assert [never.sample() for _ in range(3)] == [0.0, 0.0, 0.0]
    assert never.stalled == 0


def test_injector_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(SimulationError):
        DropInjector(1.5, rng)
    with pytest.raises(SimulationError):
        StallInjector(0.5, -1.0, rng)


# -- injected faults ----------------------------------------------------------


def test_outage_window_refuses_then_recovers():
    sim = Simulator()
    net, _, client, svc = setup_pair(sim)
    crash_between(sim, svc, 1.0, 3.0, "oom kill")
    outcomes = []

    def probe(sim, at):
        yield sim.timeout(at)
        try:
            yield from call(sim, net, client, svc, "x")
            outcomes.append((at, "ok"))
        except ServiceUnavailableError as exc:
            outcomes.append((at, "down" if "oom kill" in str(exc) else "refused"))

    for at in (0.5, 1.5, 2.5, 3.5):
        sim.spawn(probe(sim, at))
    sim.run()
    assert outcomes == [(0.5, "ok"), (1.5, "down"), (2.5, "down"), (3.5, "ok")]
    assert svc.stats.refused == 2
    assert svc.outage_log == [(1.0, 3.0)]


def test_drop_plan_resets_connections():
    sim = Simulator()
    net, _, client, svc = setup_pair(sim)
    svc.faults = FaultInjector(drop=DropInjector(1.0, np.random.default_rng(1)))
    outcomes = []

    def user(sim):
        try:
            yield from call(sim, net, client, svc, "x")
        except ServiceUnavailableError as exc:
            outcomes.append(str(exc))

    sim.spawn(user(sim))
    sim.run()
    assert outcomes and "dropped" in outcomes[0]
    assert svc.stats.dropped == 1
    assert svc.stats.completed == 0


def test_stall_plan_holds_handler_thread():
    sim = Simulator()
    net, _, client, svc = setup_pair(sim, dwell=0.0, max_threads=1, backlog=10)
    stall = StallInjector(1.0, 2.0, np.random.default_rng(1))
    svc.faults = FaultInjector(stall=stall)
    done = []

    def user(sim):
        yield from call(sim, net, client, svc, "x")
        done.append(sim.now)

    sim.spawn(user(sim))
    sim.spawn(user(sim))
    sim.run()
    # One thread, 2 s injected stall each: the second call queues behind
    # the first's stall, so completions land near 2 s and 4 s.
    assert done[0] == pytest.approx(2.0, abs=0.1)
    assert done[1] == pytest.approx(4.0, abs=0.1)
    assert stall.stalled == 2
