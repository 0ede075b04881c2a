"""Egalitarian processor-sharing queues in O(log n) per event.

Both simulated CPUs and network interfaces are modelled as
processor-sharing (PS) servers: ``servers`` units each serving at
``rate`` work-units per second, shared equally among all jobs present
(each job receives ``rate * min(1, servers/n)``).  PS is the standard
fluid model for both time-sliced CPUs and fair-share TCP bandwidth, and
it is what produces the emergent saturation behaviour the paper reports.

Implementation uses the classic *virtual time* trick: because every job
receives the same instantaneous rate, a single monotone virtual clock
``V(t) = ∫ rate_per_job dt`` orders completions.  A job of size ``w``
arriving when the clock reads ``V0`` finishes when ``V`` reaches
``V0 + w``.  Jobs live in a min-heap keyed by that target, so arrivals
and departures cost O(log n) instead of the naive O(n) rescan — this is
the hot path of the whole simulation.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass
from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

__all__ = ["ProcessorSharing", "PsSnapshot"]

# Tolerance when matching virtual-time targets at completion instants.
_VT_EPS = 1e-9


class _PsTimer:
    """Completion timer that dispatches straight into its PS queue.

    Nothing ever waits on a PS timer, so it is not an event: it carries
    no callbacks, value or state, only the queue and the token it was
    armed with.  It still takes one ``(time, seq)`` schedule entry per
    (re)arm, and a stale timer still fires, and is counted, as a no-op.
    """

    __slots__ = ("_ps", "_token")

    def __init__(self, sim: "Simulator", delay: float, ps: "ProcessorSharing", token: int) -> None:
        # ``delay`` is >= 0 by construction at the re-arm sites in
        # serve()/_on_timer().
        self._ps = ps
        self._token = token
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap, (sim._now + delay, seq, self))

    def _process(self) -> None:
        self._ps._on_timer(self._token)


@dataclass(frozen=True)
class PsSnapshot:
    """Point-in-time statistics of a PS queue (integrals since t=0)."""

    time: float
    jobs: int
    busy_integral: float  # ∫ min(n, servers)/servers dt  — utilization
    jobs_integral: float  # ∫ n dt                        — mean concurrency
    completed: int
    work_completed: float


class ProcessorSharing:
    """A multi-server egalitarian processor-sharing queue.

    Parameters
    ----------
    rate:
        Work units served per second *per server* (CPU-seconds/second for
        a CPU core, bytes/second for a NIC).
    servers:
        Number of identical servers; with ``n > servers`` jobs each job
        gets ``rate * servers / n``.
    """

    def __init__(self, sim: "Simulator", rate: float, servers: int = 1, name: str = "") -> None:
        if rate <= 0:
            raise SimulationError(f"PS rate must be positive, got {rate}")
        if servers < 1:
            raise SimulationError(f"PS servers must be >= 1, got {servers}")
        self.sim = sim
        self.rate = float(rate)
        self.servers = int(servers)
        self.name = name
        self._vt = 0.0
        self._last_t = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._timer_token = 0
        # statistics
        self._busy_int = 0.0
        self._jobs_int = 0.0
        self._completed = 0
        self._work_completed = 0.0

    # -- inspection --------------------------------------------------------
    @property
    def jobs(self) -> int:
        """Number of jobs currently in service."""
        return len(self._heap)

    def snapshot(self) -> PsSnapshot:
        """Advance internal clocks to *now* and return cumulative stats."""
        self._advance(self.sim.now)
        return PsSnapshot(
            time=self.sim.now,
            jobs=len(self._heap),
            busy_integral=self._busy_int,
            jobs_integral=self._jobs_int,
            completed=self._completed,
            work_completed=self._work_completed,
        )

    # -- core mechanics ---------------------------------------------------------
    def _advance(self, t: float) -> None:
        """Roll the virtual clock and stat integrals forward to ``t``.

        Cold-path copy (snapshot()); the hot entry points below inline
        this body.
        """
        dt = t - self._last_t
        if dt <= 0:
            return
        n = len(self._heap)
        if n:
            servers = self.servers
            self._busy_int += (min(n, servers) / servers) * dt
            self._jobs_int += n * dt
            self._vt += (self.rate * min(1.0, servers / n)) * dt
        self._last_t = t

    def _on_timer(self, token: int) -> None:
        # The two hottest entry points (here and serve()) inline
        # _advance/_reschedule bodies: together they fire ~2x per
        # simulated job and the method-call overhead was the top
        # remaining cost in the engine profile.  The min()/max() calls
        # are replaced by branches whose both arms evaluate the exact
        # float expressions of the original _advance()/_reschedule()
        # bodies — bit-equal results, so event timestamps (and figure
        # tables) cannot move.  The timer delay keeps the historical
        # (now + eta) - now double rounding for the same reason.
        heap = self._heap
        if token != self._timer_token or not heap:
            return  # stale timer: state changed since it was armed
        sim = self.sim
        now = sim._now
        dt = now - self._last_t
        if dt > 0:
            n = len(heap)
            servers = self.servers
            if n >= servers:
                self._busy_int += dt
                self._vt += (self.rate * (servers / n)) * dt
            else:
                self._busy_int += (n / servers) * dt
                self._vt += self.rate * dt
            self._jobs_int += n * dt
            self._last_t = now
        # The earliest job completes exactly now; clamp away fp drift.
        vt = self._vt
        head = heap[0][0]
        if head > vt:
            vt = self._vt = head
        cutoff = vt + _VT_EPS
        completed = self._completed
        while heap and heap[0][0] <= cutoff:
            _target, _seq, event = heappop(heap)
            completed += 1
            event.succeed()
        self._completed = completed
        token = self._timer_token = self._timer_token + 1
        if not heap:
            return
        n = len(heap)
        servers = self.servers
        rate = self.rate if n <= servers else self.rate * (servers / n)
        eta = max(0.0, (heap[0][0] - self._vt) / rate)
        _PsTimer(sim, (now + eta) - now, self, token)

    # -- public operation ----------------------------------------------------
    def serve(self, work: float) -> Event:
        """Event that fires once ``work`` units have been served.

        Zero (or negative) work completes immediately without joining the
        queue.
        """
        sim = self.sim
        event = Event(sim)
        if work <= 0:
            event.succeed()
            return event
        # _advance/_reschedule inlined; see the note in _on_timer.
        heap = self._heap
        now = sim._now
        dt = now - self._last_t
        if dt > 0:
            n = len(heap)
            if n:
                servers = self.servers
                if n >= servers:
                    self._busy_int += dt
                    self._vt += (self.rate * (servers / n)) * dt
                else:
                    self._busy_int += (n / servers) * dt
                    self._vt += self.rate * dt
                self._jobs_int += n * dt
            self._last_t = now
        self._work_completed += work  # counted at admission; conserved at completion
        seq = self._seq
        self._seq = seq + 1
        heappush(heap, (self._vt + work, seq, event))
        token = self._timer_token = self._timer_token + 1
        n = len(heap)
        servers = self.servers
        rate = self.rate if n <= servers else self.rate * (servers / n)
        eta = max(0.0, (heap[0][0] - self._vt) / rate)
        _PsTimer(sim, (now + eta) - now, self, token)
        return event
