"""The one admission rule: thread pool, accept queue, connection overhead.

A service admits a connection the way the paper's servers do (Figures
9-10: refusals past the accept queue; Figure 6: per-connection overhead
growing with the connections being serviced).  :class:`Admission` is
that rule as a sim-free, clock-free state machine; both runtimes own
one per service — :class:`repro.sim.rpc.Service` parks an ``Event`` per
queued connection, :class:`repro.live.runtime.LiveService` an asyncio
future — and neither evaluates the rule itself:

1. :meth:`arrive` counts the connection;
2. an unavailable (crashed / down) service, or one for which
   :meth:`full` holds (``active + queued >= max_threads + backlog``),
   refuses it — :meth:`refuse`;
3. :meth:`enter` takes one of ``max_threads`` handler slots, or parks
   the caller's waiter token in FIFO order;
4. once the slot is held, :meth:`overhead` is the connection overhead,
   computed from ``active`` (a queued-but-unaccepted socket costs the
   server nothing yet) and charged while holding the slot;
5. :meth:`leave` records exactly one of ``completed`` / ``errors``,
   accrues ``busy_time`` and hands the slot to the oldest waiter.

So ``arrived == refused + dropped + completed + errors + open`` holds
at every instant, on either runtime.
"""

from __future__ import annotations

import typing as _t
from collections import deque
from dataclasses import dataclass, field

__all__ = ["Admission", "ServiceStats"]


@dataclass
class ServiceStats:
    """Cumulative request accounting for one service."""

    arrived: int = 0
    refused: int = 0
    completed: int = 0
    errors: int = 0
    dropped: int = 0  # connections reset by an injected transient fault
    busy_time: float = 0.0
    max_concurrent: int = 0
    refusal_log: list[float] = field(default_factory=list)


class Admission:
    """Admission state of one service; waiter tokens are runtime-owned."""

    __slots__ = ("max_threads", "backlog", "conn_overhead", "active", "waiters", "stats")

    def __init__(self, max_threads: int, backlog: int, conn_overhead: _t.Any = None) -> None:
        self.max_threads = max_threads
        self.backlog = backlog
        self.conn_overhead = conn_overhead
        self.active = 0
        self.waiters: deque[_t.Any] = deque()
        self.stats = ServiceStats()

    @property
    def queued(self) -> int:
        """Connections accepted but waiting for a handler slot."""
        return len(self.waiters)

    @property
    def open(self) -> int:
        """Open connections (executing + accept queue)."""
        return self.active + len(self.waiters)

    def arrive(self) -> None:
        self.stats.arrived += 1

    def full(self) -> bool:
        """Whether the accept queue has no room for one more connection."""
        return self.active + len(self.waiters) >= self.max_threads + self.backlog

    def refuse(self, now: float | None = None) -> None:
        """Count a refusal; ``now`` puts it on the refusal log."""
        self.stats.refused += 1
        if now is not None:
            self.stats.refusal_log.append(now)

    def enter(self, waiter: _t.Any) -> bool:
        """Take a handler slot; False means ``waiter`` was queued for one."""
        stats = self.stats
        concurrent = self.active + len(self.waiters) + 1
        if concurrent > stats.max_concurrent:
            stats.max_concurrent = concurrent
        if self.active < self.max_threads:
            self.active += 1
            return True
        self.waiters.append(waiter)
        return False

    def overhead(self) -> float:
        """Connection-overhead seconds for the slot holder calling this."""
        if self.conn_overhead is None:
            return 0.0
        return self.conn_overhead.latency(self.active)

    def leave(self, ok: bool, busy: float) -> _t.Any:
        """End a slot holder's request; returns the waiter to wake, if any.

        The slot passes straight to the oldest waiter (``active`` does
        not dip), so a later arrival cannot overtake the queue.
        """
        stats = self.stats
        if ok:
            stats.completed += 1
        else:
            stats.errors += 1
        stats.busy_time += busy
        if self.waiters:
            return self.waiters.popleft()
        self.active -= 1
        return None

    def abandon(self, waiter: _t.Any) -> None:
        """A queued connection went away before it got a slot."""
        self.waiters.remove(waiter)
        self.stats.errors += 1
