"""Core event primitives for the discrete-event simulation engine.

An :class:`Event` is a one-shot occurrence with a value (or an exception).
Processes (see :mod:`repro.sim.process`) wait on events by yielding them.
The design follows the classic SimPy model: events move through three
states (pending → triggered → processed) and run their callbacks exactly
once, when the engine pops them off the schedule.
"""

from __future__ import annotations

import typing as _t
from heapq import heappush

from repro.errors import SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

__all__ = ["Event", "Timeout", "AnyOf", "AllOf", "PENDING", "TRIGGERED", "PROCESSED"]

PENDING = 0
TRIGGERED = 1
PROCESSED = 2


class Event:
    """A one-shot occurrence inside a :class:`~repro.sim.engine.Simulator`.

    Callbacks are callables taking the event itself; they run when the
    engine processes the event.  ``succeed``/``fail`` trigger the event,
    which schedules it at the current simulation time.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[_t.Callable[["Event"], None]] = []
        self._value: _t.Any = None
        self._ok: bool = True
        self._state: int = PENDING

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have run callbacks yet)."""
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True when the event succeeded (valid only after triggering)."""
        return self._ok

    @property
    def value(self) -> _t.Any:
        """The event's value; raises if the event has not triggered yet."""
        if self._state == PENDING:
            raise SimulationError("event value read before it triggered")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: _t.Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != PENDING:
            raise SimulationError("event triggered twice")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        # Book the heap slot at the current time: triggering is the
        # engine's hottest entry point, so there is no helper call.
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap, (sim._now, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if self._state != PENDING:
            raise SimulationError("event triggered twice")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap, (sim._now, seq, self))
        return self

    # -- engine hook ---------------------------------------------------------
    def _process(self) -> None:
        """Run callbacks; called exactly once by the engine."""
        self._state = PROCESSED
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at t={self.sim.now:.6g}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` seconds after creation.

    The event stays *pending* until the engine processes it, so
    ``triggered`` answers "has the delay elapsed?".  Processing jumps
    straight to *processed* (a superset of *triggered*), so the base
    ``_process`` applies unchanged.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: _t.Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Event.__init__ unrolled: timeouts are the most-allocated object
        # in a run and the super() dispatch is measurable.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = PENDING
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap, (sim._now + delay, seq, self))


class _Condition(Event):
    """Shared machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: "Simulator", events: _t.Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = tuple(events)
        self._pending = 0
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
            if event.processed:
                self._observe(event)
            else:
                self._pending += 1
                event.callbacks.append(self._observe)
        if self._state == PENDING and self._initially_done():
            self.succeed(self._result())

    def _observe(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._pending -= 1
        if self._done(event):
            self.succeed(self._result())

    # Subclass hooks ---------------------------------------------------------
    def _initially_done(self) -> bool:
        raise NotImplementedError

    def _done(self, event: Event) -> bool:
        raise NotImplementedError

    def _result(self) -> _t.Any:
        return {e: e.value for e in self._events if e.triggered and e.ok}


class AnyOf(_Condition):
    """Triggers as soon as any child event triggers (or any fails)."""

    __slots__ = ()

    def _initially_done(self) -> bool:
        return any(e.processed and e.ok for e in self._events)

    def _done(self, event: Event) -> bool:
        return True


class AllOf(_Condition):
    """Triggers when every child event has triggered successfully."""

    __slots__ = ()

    def _initially_done(self) -> bool:
        return self._pending == 0

    def _done(self, event: Event) -> bool:
        return self._pending == 0
