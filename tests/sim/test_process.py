"""Tests for generator-based processes: return values, failures, waiting."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_process_return_value_becomes_event_value():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)
        return "result"

    proc = sim.spawn(worker(sim))
    sim.run()
    assert proc.ok and proc.value == "result"


def test_waiting_on_another_process():
    sim = Simulator()
    log = []

    def child(sim):
        yield sim.timeout(2.0)
        return 99

    def parent(sim):
        value = yield sim.spawn(child(sim))
        log.append((sim.now, value))

    sim.spawn(parent(sim))
    sim.run()
    assert log == [(2.0, 99)]


def test_waiting_on_already_finished_process():
    sim = Simulator()
    log = []

    def child(sim):
        yield sim.timeout(1.0)
        return "done"

    def parent(sim, child_proc):
        yield sim.timeout(5.0)
        value = yield child_proc
        log.append((sim.now, value))

    child_proc = sim.spawn(child(sim))
    sim.spawn(parent(sim, child_proc))
    sim.run()
    assert log == [(5.0, "done")]


def test_process_exception_fails_the_event():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("kaput")

    def parent(sim, child_proc):
        with pytest.raises(RuntimeError, match="kaput"):
            yield child_proc
        return "handled"

    child_proc = sim.spawn(bad(sim))
    parent_proc = sim.spawn(parent(sim, child_proc))
    sim.run()
    assert parent_proc.value == "handled"


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 42

    proc = sim.spawn(bad(sim))
    sim.run()
    assert not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_alive_flag():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(5.0)

    proc = sim.spawn(worker(sim))
    assert proc.alive
    sim.run()
    assert not proc.alive


def test_process_with_immediate_return():
    sim = Simulator()

    def instant(sim):
        return "now"
        yield  # pragma: no cover - makes it a generator

    proc = sim.spawn(instant(sim))
    sim.run()
    assert proc.value == "now"
