"""The discrete-event simulation engine.

:class:`Simulator` owns the clock and the event schedule (a binary heap).
It is deliberately small: all behaviour lives in events, processes and
resources layered on top.  The engine is fully deterministic — ties in
time are broken by insertion order — which makes every experiment in the
study exactly reproducible from its seed.

Performance notes (the ledger's traced ``sim.engine.*`` metrics time
this loop; ``python -m cProfile -m repro.core.figures 5`` breaks it
down): the schedule entries are plain ``(time, seq, event)`` tuples —
CPython's tuple free list makes them both cheaper to allocate and
faster to compare than reusable list slots, which we measured before
choosing.  The sequence counter is a bare int (``itertools.count`` pays
a C-call per event), and :meth:`run` pops and dispatches inline so
the hot loop touches no method descriptors.  None of this changes
scheduling order: every event is still assigned the same ``(time,
seq)`` key it always was, which is what keeps the committed figure
tables byte-identical.
"""

from __future__ import annotations

import typing as _t
from heapq import heappop

from repro.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process

__all__ = ["Simulator"]


class Simulator:
    """Event loop, clock and factory for simulation primitives.

    Example
    -------
    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield sim.timeout(3.0)
    ...     return sim.now
    >>> p = sim.spawn(hello(sim))
    >>> sim.run()
    >>> p.value
    3.0
    """

    def __init__(self) -> None:
        self._now = 0.0
        # Entries are ``(time, seq, item)``; an item is an Event or a PS
        # queue's timer, anything with a ``_process()`` the loop calls.
        self._heap: list[tuple[float, int, _t.Any]] = []
        self._seq = 0
        self._processed = 0

    # -- clock ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events the engine has processed (for profiling)."""
        return self._processed

    # -- primitive factories ----------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def spawn(self, generator: _t.Generator, name: str | None = None) -> Process:
        """Start a new process executing ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: _t.Iterable[Event]) -> AnyOf:
        """Event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: _t.Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- main loop ------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        """Run until the schedule drains, or until time ``until``.

        When ``until`` is given the clock is advanced exactly to ``until``
        even if the last event fires earlier, so periodic samplers can rely
        on the final timestamp.
        """
        heap = self._heap
        pop = heappop
        processed = self._processed
        if until is None:
            try:
                while heap:
                    when, _seq, event = pop(heap)
                    self._now = when
                    processed += 1
                    event._process()
            finally:
                self._processed = processed
            return
        if until < self._now:
            raise SimulationError(f"run(until={until}) is in the past (now={self._now})")
        try:
            while heap and heap[0][0] <= until:
                when, _seq, event = pop(heap)
                self._now = when
                processed += 1
                event._process()
        finally:
            self._processed = processed
        self._now = until
