"""Cohort-vectorized client engine: the ``cohort`` fidelity tier.

The exact engine simulates one generator per client and a handful of
heap events per request — faithful, but capped around 10^3 clients.
This engine steps the *whole client population* as numpy arrays through
the station chain of a :class:`~repro.core.fidelity.ServiceModel` in
event epochs:

* every client has one pending fire time; each epoch processes the
  batch of clients firing inside a short horizon slice (shorter than
  the minimum think/retry cycle, so no client can fire twice per epoch
  and per-station arrival order stays globally nondecreasing);
* each station is an exact constant-service FIFO queue: the ``c``-server
  recurrence ``D_k = max(R_k, D_{k-c}) + s`` is evaluated in closed form
  per residue class with ``cummax``, with the last departure per server
  carried between epochs;
* serialized holds inflate with their own measured queue (the convoy
  model), and the connection overhead is charged from the measured
  in-server concurrency of the previous epoch — both one-epoch-lagged
  estimates of quantities the exact engine tracks per event;
* accept-queue refusal replays the exact engine's admission rule
  against the measured in-server population (previous epochs via a
  sorted outstanding-departures array, the same epoch via a tentative
  pass plus one repair pass), and refused clients retry after
  ``retry_wait`` without thinking, like real clients;
* think times, start spread and think jitter are sampled vectorially
  from one seeded generator, so a point is deterministic per seed
  (epoch partitioning — hence RNG consumption order — is itself
  deterministic).

Conservation is structural: every fired request is classified as
completed or refused in the epoch that processes it, so
``issued == completed_total + refused_total`` always holds — the
metamorphic guarantee the validation tests pin down.
"""

from __future__ import annotations

import heapq
import typing as _t

import numpy as np

from repro.core.metrics import MetricsSummary, StreamingLatency

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard (fidelity -> cohort)
    from repro.core.fidelity import ServiceModel, Station
    from repro.core.params import WorkloadParams

__all__ = ["CohortEngine"]


class _StationState:
    """Mutable queueing state of one station across epochs."""

    __slots__ = ("station", "free", "last_q", "sojourn_window", "mode", "extra", "q_cap")

    def __init__(self, station: "Station", q_cap: float = float("inf")) -> None:
        self.station = station
        self.q_cap = q_cap  # convoy queue can't exceed the thread pool
        self.last_q = 0.0  # mean queue over the previous epoch (convoy feedback)
        self.sojourn_window = 0.0  # sum of sojourn times of window completions
        base = station.base_service
        if station.servers == 0:
            self.mode = "delay"
            self.free = np.zeros(0)
            self.extra = 0.0
        elif station.service is not None and base < station.demand:
            # Fan-out pool: the request's work spreads over the pool, so
            # queueing happens at the aggregate rate (demand/servers per
            # request, one logical server) while the no-contention
            # latency stays the station's service time.
            self.mode = "pool"
            self.free = np.zeros(1)
            self.extra = max(0.0, base - station.demand / station.servers)
        else:
            self.mode = "fifo"
            self.free = np.zeros(station.servers)
            self.extra = 0.0

    def clone(self) -> "_StationState":
        other = _StationState.__new__(_StationState)
        other.station = self.station
        other.free = self.free.copy()
        other.last_q = self.last_q
        other.sojourn_window = self.sojourn_window
        other.mode = self.mode
        other.extra = self.extra
        other.q_cap = self.q_cap
        return other

    def scale(self) -> float:
        return 1.0 + self.station.convoy * min(self.last_q, self.q_cap)

    def step(self, arrivals: np.ndarray) -> np.ndarray:
        """Departure times for ``arrivals`` (sorted nondecreasing)."""
        st = self.station
        scale = self.scale()
        if self.mode == "delay":
            return arrivals + st.base_service * scale
        if self.mode == "pool":
            s = (st.demand / st.servers) * scale
            dep = _fifo(self.free, arrivals, s)
            return dep + self.extra * scale
        return _fifo(self.free, arrivals, st.demand * scale)


def _fifo(free: np.ndarray, arrivals: np.ndarray, service: float) -> np.ndarray:
    """Exact c-server FIFO with constant service time, vectorized.

    ``free`` holds each server's next-free time (mutated in place).
    With identical service times the k-th arrival in FIFO order is
    served by server ``k mod c`` once ``free`` is sorted ascending, and
    within one residue class the single-server recurrence
    ``D_i = max(R_i, D_{i-1}) + s`` has the closed form
    ``D_i = (i+1)s + max(cummax(R_m - m*s)_i, carry)``.
    """
    c = len(free)
    m = len(arrivals)
    dep = np.empty(m)
    free.sort()
    for j in range(c):
        a = arrivals[j::c]
        if len(a) == 0:
            break
        i = np.arange(len(a))
        env = np.maximum.accumulate(a - i * service)
        d = (i + 1) * service + np.maximum(env, free[j])
        dep[j::c] = d
        free[j] = d[-1]
    return dep


class CohortEngine:
    """Run one population against one :class:`ServiceModel`.

    ``run`` executes the warm-up + measurement schedule and returns the
    same :class:`~repro.core.metrics.MetricsSummary` shape the exact
    tier produces; cumulative counters (``issued``, ``completed_total``,
    ``refused_total``) cover the whole horizon for conservation checks.
    """

    def __init__(
        self,
        model: "ServiceModel",
        users: int,
        *,
        workload: "WorkloadParams",
        seed: int = 1,
    ) -> None:
        if users < 1:
            raise ValueError(f"population must be >= 1, got {users}")
        self.model = model
        self.users = users
        self.wp = workload
        self.rng = np.random.default_rng(seed)
        self.events = 0
        self.issued = 0
        self.completed_total = 0
        self.refused_total = 0
        stations = model.stations
        in_flags = [st.in_server for st in stations]
        first_in = in_flags.index(True) if any(in_flags) else len(stations)
        last_in = (len(in_flags) - 1 - in_flags[::-1].index(True)) if any(in_flags) else -1
        self._pre = stations[:first_in]
        self._in = stations[first_in : last_in + 1]
        self._post = stations[last_in + 1 :]

    # -- the schedule -------------------------------------------------------

    def run(self, *, warmup: float, window: float) -> MetricsSummary:
        model = self.model
        wp = self.wp
        n = self.users
        horizon = warmup + window
        # Epoch slice: shorter than the shortest client cycle, so one
        # fire per client per epoch and cross-epoch FIFO order.
        dt = 0.4 * min(wp.think_time * (1.0 - wp.think_jitter), wp.retry_wait)
        dt = max(dt, 1e-3)
        can_refuse = n >= model.capacity
        # Per-request concurrency (for the connection overhead and the
        # admission rule) is tracked through the in-server departure
        # times of earlier requests; skip the bookkeeping entirely when
        # neither mechanism can fire.
        track = can_refuse or model.conn is not None
        # Handler-thread gate: a request holds one of max_threads pool
        # threads through the connection-overhead sleep and the station
        # chain, so when the population can outnumber the pool, admitted
        # requests queue for a thread before the conn phase (the exact
        # engine's _slot_waiters).  Modelled as a min-heap of per-thread
        # free times; pool turnover bounds the per-epoch loop size.
        gate: list[float] | None = None
        if track and model.conn is not None and n >= model.max_threads:
            gate = [0.0] * model.max_threads
        hold_lag = 0.0  # mean post-conn in-server residence, one epoch lagged
        next_fire = self.rng.uniform(0.0, wp.start_spread, n)

        pre = [_StationState(st) for st in self._pre]
        # Only max_threads requests exist past the accept queue, so an
        # in-server convoy can never see more waiters than that.
        srv = [_StationState(st, q_cap=float(model.max_threads)) for st in self._in]
        post = [_StationState(st) for st in self._post]
        hist = StreamingLatency()
        completed = 0
        refused = 0
        conn_lag = model.conn.latency(0) if model.conn is not None else 0.0
        conn_window = 0.0  # summed conn delays of in-window admissions
        outstanding = np.zeros(0)  # in-server departure times (sorted)

        while True:
            t0 = float(next_fire.min())
            if t0 > horizon:
                break
            mask = next_fire <= t0 + dt
            idx = np.nonzero(mask)[0]
            fires = next_fire[idx]
            order = np.argsort(fires, kind="stable")
            idx = idx[order]
            fires = fires[order]
            m = len(idx)
            self.issued += m
            self.events += m * (len(model.stations) + 2)
            in_window = (fires >= warmup) & (fires <= horizon)

            t = fires + model.pre_delay
            for state in pre:
                dep = state.step(t)
                state.sojourn_window += float(((dep - t) * in_window).sum())
                state.last_q = float((dep - t).sum()) / dt
                t = dep
            arrive = t

            admitted = np.ones(m, dtype=bool)
            conn_vec = np.zeros(m)
            if track:
                outstanding = outstanding[outstanding > t0]
                # Tentative pass on cloned state: who would still be in
                # the server when each request arrives?  This replays
                # the exact engine's per-request concurrency counter.
                t_tent = arrive + conn_lag
                for state in srv:
                    t_tent = state.clone().step(t_tent)
                prev_in = len(outstanding) - np.searchsorted(
                    outstanding, arrive, side="right"
                )
                done_before = np.searchsorted(t_tent, arrive, side="right")
                in_flight = np.maximum(prev_in + np.arange(m) - done_before, 0)
                if can_refuse:
                    admitted = in_flight < model.capacity
                    n_ref = int((~admitted).sum())
                    if n_ref:
                        self.refused_total += n_ref
                        # Refusals are logged at the time the server
                        # turns the request away, like the exact log.
                        ref_at = arrive[~admitted]
                        refused += int(
                            ((ref_at >= warmup) & (ref_at <= horizon)).sum()
                        )
                        # arrive already includes the request path; a
                        # refusal costs only the return leg + the wait.
                        back = max(0.0, model.refusal_rtt - model.pre_delay)
                        next_fire[idx[~admitted]] = (
                            arrive[~admitted] + back + wp.retry_wait
                        )
                if model.conn is not None:
                    cn = model.conn
                    # The exact engine charges latency(self._active)
                    # *after* the request takes its slot, so the count
                    # includes the request itself: others + 1.
                    active = np.minimum(in_flight + 1, model.max_threads)
                    conn_vec = cn.base + cn.extra * (1.0 - np.exp(-active / cn.scale))
                    if len(conn_vec):
                        conn_lag = float(conn_vec.mean())

            if gate is not None:
                adm_arrive = arrive[admitted]
                adm_conn = conn_vec[admitted]
                start = np.empty(len(adm_arrive))
                for k in range(len(adm_arrive)):
                    free = heapq.heappop(gate)
                    s = adm_arrive[k] if adm_arrive[k] >= free else free
                    start[k] = s
                    heapq.heappush(gate, s + adm_conn[k] + hold_lag)
                served = start + adm_conn
            else:
                served = arrive[admitted] + conn_vec[admitted]
            served_fires = fires[admitted]
            served_window = in_window[admitted]
            conn_window += float((conn_vec[admitted] * served_window).sum())
            srv_entry = served
            for state in srv:
                dep = state.step(served)
                state.sojourn_window += float(((dep - served) * served_window).sum())
                state.last_q = float((dep - served).sum()) / dt
                served = dep
            if len(served):
                hold_lag = float((served - srv_entry).mean())
            if track and len(served):
                outstanding = np.sort(np.concatenate([outstanding, served]))
            for state in post:
                dep = state.step(served)
                state.sojourn_window += float(((dep - served) * served_window).sum())
                state.last_q = float((dep - served).sum()) / dt
                served = dep
            finish = served + model.post_delay

            latencies = finish - served_fires
            self.completed_total += len(finish)
            # Completions are logged at finish time (the exact engine's
            # request log does the same), so long-running requests that
            # straddle the warm-up boundary still count.
            counted = (finish >= warmup) & (finish <= horizon)
            if counted.any():
                completed += int(counted.sum())
                _fill_histogram(hist, latencies[counted])
            think = wp.think_time * (
                1.0 + self.rng.uniform(-wp.think_jitter, wp.think_jitter, len(finish))
            )
            next_fire[idx[admitted]] = finish + think

        return self._summarize(
            hist, completed, refused, warmup, window,
            pre + srv + post, srv, conn_window,
        )

    # -- reduction ----------------------------------------------------------

    def _summarize(
        self,
        hist: StreamingLatency,
        completed: int,
        refused: int,
        warmup: float,
        window: float,
        states: list[_StationState],
        srv_states: list[_StationState],
        conn_window: float,
    ) -> MetricsSummary:
        from repro.core.fidelity import host_load, load1_ramp

        model = self.model
        x = completed / window
        # Mean concurrencies over the window by Little's law: requests
        # inside the thread-slot window, and those asleep in the
        # connection-overhead phase (not runnable).
        q_conn = conn_window / window
        q_in = q_conn + sum(s.sojourn_window for s in srv_states) / window
        # Occupied handler threads, apportioned by time *not* spent
        # asleep in the connection phase (sleepers are not runnable).
        occupancy = min(q_in, float(model.max_threads))
        runnable_cap = occupancy * (1.0 - q_conn / q_in) if q_in > 0 else 0.0
        queues = [state.sojourn_window / window for state in states]
        convoy_queues = [min(q, state.q_cap) for q, state in zip(queues, states)]
        load1, cpu_pct = host_load(model, x, queues, convoy_queues, runnable_cap)
        return MetricsSummary(
            throughput=x,
            response_time=hist.mean,
            load1=load1 * load1_ramp(warmup, window),
            cpu_load=cpu_pct,
            completed=completed,
            refused=refused,
            timeouts=0,
            errors=0,
            window=window,
            latency_p50=hist.quantile(0.5),
            latency_p95=hist.quantile(0.95),
        )


def _fill_histogram(hist: StreamingLatency, values: np.ndarray) -> None:
    """Vectorized bulk version of :meth:`StreamingLatency.add`."""
    hist.count += len(values)
    hist.total += float(values.sum())
    hist.min = min(hist.min, float(values.min()))
    hist.max = max(hist.max, float(values.max()))
    clipped = np.maximum(values, hist.lo)
    index = ((np.log(clipped) - hist._log_lo) * hist._inv_width).astype(int)
    np.clip(index, 0, len(hist.counts) - 1, out=index)
    for bucket, count in zip(*np.unique(index, return_counts=True)):
        hist.counts[int(bucket)] += int(count)
