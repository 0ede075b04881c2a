"""The one shared resource: a FIFO mutex.

Every server in the study serialises its back end on one lock, so a
:class:`Mutex` is the only resource the models need.  Processes blocked
on it are *not runnable* — they do not appear in the host's run queue —
which is exactly the mechanism behind the paper's observation that host
load1 *drops* past the saturation threshold ("a large percentage of the
processes were blocked waiting for resources", Section 3.3).
"""

from __future__ import annotations

import typing as _t
from collections import deque

from repro.errors import SimulationError
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

__all__ = ["Mutex"]


class Mutex:
    """A single-slot lock granted in FIFO order — the serialized back end
    of the cost models.

    Usage inside a process::

        yield mutex.acquire()
        try:
            ...critical section...
        finally:
            mutex.release()
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._held = False
        self._waiters: deque[Event] = deque()

    @property
    def queue_length(self) -> int:
        """Number of processes blocked waiting for the lock."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Event that fires once the lock is granted to the caller."""
        event = Event(self.sim)
        if not self._held and not self._waiters:
            self._held = True
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Give the lock up; hands it straight to the longest waiter, if any."""
        if not self._held:
            raise SimulationError(f"release() of mutex {self.name!r} that is not held")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._held = False
