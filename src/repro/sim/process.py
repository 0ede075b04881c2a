"""Generator-based simulated processes.

A process wraps a Python generator: every value the generator yields must
be an :class:`~repro.sim.events.Event` (processes themselves are events, so
``yield other_process`` waits for it).  When the generator returns, the
process event succeeds with the return value; an uncaught exception fails
it.
"""

from __future__ import annotations

import typing as _t

from repro.errors import SimulationError
from repro.sim.events import PROCESSED, Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

__all__ = ["Process"]


class Process(Event):
    """A running generator inside the simulation; also an awaitable event."""

    __slots__ = ("name", "_generator", "_alive", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: _t.Generator, name: str | None = None) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"spawn() needs a generator, got {type(generator).__name__}; "
                "did you forget to call the process function?"
            )
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._alive = True
        # One bound method for the process's whole life: every yield would
        # otherwise allocate a fresh ``self._resume`` bound-method object.
        self._resume_cb = self._resume
        # Kick off at the current time via a zero-delay bootstrap event.
        boot = Event(sim)
        boot.callbacks.append(self._resume_cb)
        boot.succeed()

    # -- lifecycle ---------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return self._alive

    # -- engine callback ----------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        generator = self._generator
        try:
            if trigger._ok:
                target = generator.send(trigger._value)
            else:
                target = generator.throw(trigger._value)
        except StopIteration as stop:
            self._alive = False
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._alive = False
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self._alive = False
            err = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield events"
            )
            generator.close()
            self.fail(err)
            return
        if target._state == PROCESSED:
            # Already done: resume on a fresh zero-delay event carrying its
            # outcome so execution order stays deterministic.
            relay = Event(self.sim)
            relay.callbacks.append(self._resume_cb)
            if target._ok:
                relay.succeed(target._value)
            else:
                relay.fail(target._value)
            return
        target.callbacks.append(self._resume_cb)
