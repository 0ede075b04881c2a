"""Tests for Mutex semantics."""

import pytest

from repro.errors import SimulationError
from repro.sim import Mutex, Simulator


def test_mutex_serializes():
    sim = Simulator()
    mtx = Mutex(sim)
    spans = []

    def worker(sim):
        yield mtx.acquire()
        start = sim.now
        yield sim.timeout(1.0)
        mtx.release()
        spans.append((start, sim.now))

    for _ in range(5):
        sim.spawn(worker(sim))
    sim.run()
    # No two critical sections overlap.
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2


def test_fifo_ordering():
    sim = Simulator()
    mtx = Mutex(sim)
    order = []

    def worker(sim, tag, arrive):
        yield sim.timeout(arrive)
        yield mtx.acquire()
        order.append(tag)
        yield sim.timeout(5.0)
        mtx.release()

    sim.spawn(worker(sim, "first", 0.0))
    sim.spawn(worker(sim, "second", 1.0))
    sim.spawn(worker(sim, "third", 2.0))
    sim.run()
    assert order == ["first", "second", "third"]


def test_release_hands_off_to_waiter_without_barging():
    """A release with waiters passes the lock straight on: an acquire in
    the same instant queues behind the waiter instead of taking it."""
    sim = Simulator()
    mtx = Mutex(sim)
    order = []

    def holder(sim):
        yield mtx.acquire()
        yield sim.timeout(5.0)
        mtx.release()
        yield mtx.acquire()
        order.append(("holder again", sim.now))
        mtx.release()

    def waiter(sim):
        yield sim.timeout(1.0)
        yield mtx.acquire()
        order.append(("waiter", sim.now))
        yield sim.timeout(5.0)
        mtx.release()

    sim.spawn(holder(sim))
    sim.spawn(waiter(sim))
    sim.run()
    assert order == [("waiter", 5.0), ("holder again", 10.0)]


def test_release_without_hold_raises():
    sim = Simulator()
    mtx = Mutex(sim)
    with pytest.raises(SimulationError):
        mtx.release()


def test_queue_length_and_in_use():
    sim = Simulator()
    mtx = Mutex(sim)
    observed = []

    def holder(sim):
        yield mtx.acquire()
        yield sim.timeout(10.0)
        mtx.release()

    def waiter(sim):
        yield mtx.acquire()
        mtx.release()

    def observer(sim):
        yield sim.timeout(5.0)
        observed.append(mtx.queue_length)
        yield sim.timeout(10.0)
        observed.append(mtx.queue_length)
        probe = mtx.acquire()  # free again: granted on the spot
        observed.append(probe.triggered)
        mtx.release()

    sim.spawn(holder(sim))
    sim.spawn(waiter(sim))
    sim.spawn(observer(sim))
    sim.run()
    assert observed == [1, 0, True]
