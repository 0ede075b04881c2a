"""Tests for the DES core: clock, ordering, events, run(until)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    done = []

    def proc(sim):
        yield sim.timeout(2.5)
        done.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert done == [2.5]


def test_timeout_carries_value():
    sim = Simulator()
    seen = []

    def proc(sim):
        value = yield sim.timeout(1.0, value="payload")
        seen.append(value)

    sim.spawn(proc(sim))
    sim.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.spawn(proc(sim, 3.0, "c"))
    sim.spawn(proc(sim, 1.0, "a"))
    sim.spawn(proc(sim, 2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abcde":
        sim.spawn(proc(sim, tag))
    sim.run()
    assert order == list("abcde")


def test_run_until_stops_and_pins_clock():
    sim = Simulator()
    fired = []

    def proc(sim):
        while True:
            yield sim.timeout(10.0)
            fired.append(sim.now)

    sim.spawn(proc(sim))
    sim.run(until=35.0)
    assert fired == [10.0, 20.0, 30.0]
    assert sim.now == 35.0


def test_run_until_in_past_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_run_until_exact_boundary_event_fires():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(5.0)
        fired.append(sim.now)

    sim.spawn(proc(sim))
    sim.run(until=5.0)
    assert fired == [5.0]


def test_event_succeed_delivers_value():
    sim = Simulator()
    event = sim.event()
    got = []

    def waiter(sim):
        value = yield event
        got.append(value)

    def trigger(sim):
        yield sim.timeout(1.0)
        event.succeed(42)

    sim.spawn(waiter(sim))
    sim.spawn(trigger(sim))
    sim.run()
    assert got == [42]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    event = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield event
        except ValueError as exc:
            caught.append(str(exc))

    def trigger(sim):
        yield sim.timeout(1.0)
        event.fail(ValueError("boom"))

    sim.spawn(waiter(sim))
    sim.spawn(trigger(sim))
    sim.run()
    assert caught == ["boom"]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)
    with pytest.raises(SimulationError):
        event.fail(ValueError())


def test_event_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_fail_requires_exception_instance():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")  # type: ignore[arg-type]


def test_events_processed_counter():
    sim = Simulator()

    def proc(sim):
        for _ in range(5):
            yield sim.timeout(1.0)

    sim.spawn(proc(sim))
    sim.run()
    assert sim.events_processed >= 5


def test_any_of_fires_on_first():
    sim = Simulator()
    results = []

    def proc(sim):
        t1 = sim.timeout(5.0, "slow")
        t2 = sim.timeout(2.0, "fast")
        yield sim.any_of((t1, t2))
        results.append((sim.now, t1.triggered, t2.triggered))

    sim.spawn(proc(sim))
    sim.run(until=3.0)
    assert results == [(2.0, False, True)]


def test_all_of_waits_for_all():
    sim = Simulator()
    results = []

    def proc(sim):
        t1 = sim.timeout(5.0, "slow")
        t2 = sim.timeout(2.0, "fast")
        got = yield sim.all_of((t1, t2))
        results.append((sim.now, got[t1], got[t2]))

    sim.spawn(proc(sim))
    sim.run()
    assert results == [(5.0, "slow", "fast")]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.all_of(())
        seen.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert seen == [0.0]

