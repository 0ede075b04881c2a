"""Performance metrics (paper §3.2).

* **throughput** — "the average number of requests (or queries)
  processed by a service component per second";
* **response time** — "the average amount of time (in seconds) required
  for a service component to handle a request sent from a user";
* **load** — percent CPU in user+system mode (from the Ganglia monitor);
* **load1** — the one-minute load average.

:class:`RequestLog` accumulates per-request records during a run;
:func:`summarize` reduces the measurement window to one
:class:`MetricsSummary`, averaging "over all the values recorded during
the time span" exactly as the paper does.
"""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass, field

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.scenario.model import Outage
    from repro.sim.host import Host
    from repro.sim.monitor import Ganglia
    from repro.sim.rpc import RetryStats

__all__ = [
    "RequestRecord",
    "RequestLog",
    "MetricsSummary",
    "StreamingLatency",
    "bucket_rates",
    "summarize",
    "ResilienceSummary",
    "resilience_summary",
]

OUTCOME_OK = "ok"
OUTCOME_REFUSED = "refused"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_ERROR = "error"


@dataclass(frozen=True)
class RequestRecord:
    """One client-observed request."""

    user: int
    started: float
    finished: float
    outcome: str

    @property
    def duration(self) -> float:
        return self.finished - self.started


@dataclass
class RequestLog:
    """Append-only log of request records for one run."""

    records: list[RequestRecord] = field(default_factory=list)

    def add(self, user: int, started: float, finished: float, outcome: str) -> None:
        self.records.append(RequestRecord(user, started, finished, outcome))

    def in_window(self, start: float, end: float) -> list[RequestRecord]:
        """Records *completing* inside [start, end]."""
        return [r for r in self.records if start <= r.finished <= end]

    def count(self, outcome: str) -> int:
        return sum(1 for r in self.records if r.outcome == outcome)


class StreamingLatency:
    """Streaming percentile accumulator over a log-spaced histogram.

    Latencies are folded in one at a time — O(1) per observation, fixed
    memory — instead of appending to a list that must be sorted at
    reduction time.  Quantiles come from the cumulative histogram with
    geometric interpolation inside the hit bucket; exact ``min``/``max``
    tighten the extreme quantiles.  The default range (100 µs .. 10 ks,
    512 buckets) spans everything the study produces at ~3.6% relative
    resolution per bucket, which is far below run-to-run noise.
    """

    __slots__ = ("lo", "hi", "counts", "count", "total", "min", "max", "_log_lo", "_inv_width")

    def __init__(self, lo: float = 1e-4, hi: float = 1e4, buckets: int = 512) -> None:
        if not (0 < lo < hi) or buckets < 2:
            raise ValueError(f"bad histogram shape: lo={lo} hi={hi} buckets={buckets}")
        self.lo = lo
        self.hi = hi
        self.counts = [0] * buckets
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self._log_lo = math.log(lo)
        self._inv_width = buckets / (math.log(hi) - self._log_lo)

    def add(self, value: float) -> None:
        """Fold one latency observation into the histogram."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= self.lo:
            index = 0
        else:
            index = int((math.log(value) - self._log_lo) * self._inv_width)
            last = len(self.counts) - 1
            if index > last:
                index = last
        self.counts[index] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1) of the observations."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            seen += bucket_count
            if seen >= rank:
                # Geometric midpoint-ish interpolation inside the bucket,
                # clamped to the exact observed extremes.
                edge = 1.0 / self._inv_width
                low = math.exp(self._log_lo + index * edge)
                high = math.exp(self._log_lo + (index + 1) * edge)
                fraction = 1.0 - (seen - rank) / bucket_count
                estimate = low * (high / low) ** fraction
                return min(max(estimate, self.min), self.max)
        return self.max

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)


@dataclass(frozen=True)
class MetricsSummary:
    """The four figures' worth of numbers for one experiment point."""

    throughput: float  # successful queries per second
    response_time: float  # mean seconds per successful query
    load1: float  # server host one-minute load average
    cpu_load: float  # server host CPU percent
    completed: int
    refused: int
    timeouts: int
    errors: int
    window: float
    # Streaming-histogram latency percentiles over successful queries in
    # the window.  Not part of any paper figure (tables stay byte-for-
    # byte); carried with the point through the result codec.
    latency_p50: float = 0.0
    latency_p95: float = 0.0


@dataclass(frozen=True)
class ResilienceSummary:
    """Fault-experiment metrics reported alongside the paper's four.

    * **goodput** — successful queries per second over the whole
      measurement window, outage included (unlike ``throughput``, which
      the paper computes over a healthy window);
    * **retry amplification** — wire attempts per logical request; the
      retry storm a fault provokes, and what the circuit breaker caps;
    * **recovery_time** — seconds after the last injected restart until
      the per-second success rate is back to ``recovery_fraction`` of
      its pre-fault level (None when it never recovers, 0.0 when the
      dip never reached the threshold).
    """

    goodput: float
    pre_outage_rate: float  # successful q/s before the first outage
    during_outage_rate: float  # successful q/s inside outage windows
    post_outage_rate: float  # successful q/s after the last restart
    recovery_time: float | None
    downtime: float  # injected outage seconds inside the window
    logical_calls: int
    attempts: int
    retries: int
    exhausted: int
    breaker_rejections: int
    backoff_time: float

    @property
    def retry_amplification(self) -> float:
        return self.attempts / self.logical_calls if self.logical_calls else 0.0


def bucket_rates(
    records: _t.Sequence[RequestRecord], start: float, end: float, bucket: float
) -> list[float]:
    """Successful completions per second, bucketed over [start, end).

    This is the metric stream the adaptive measurement mode feeds to
    :func:`repro.core.stats.detect_steady_state` (and what
    :func:`resilience_summary` computes recovery over).
    """
    n = max(1, int((end - start) / bucket + 0.5))
    counts = [0] * n
    for r in records:
        if r.outcome == OUTCOME_OK and start <= r.finished < end:
            counts[min(n - 1, int((r.finished - start) / bucket))] += 1
    return [c / bucket for c in counts]


def resilience_summary(
    log: RequestLog,
    *,
    window_start: float,
    window_end: float,
    outages: _t.Sequence[Outage] = (),
    retry_stats: RetryStats | None = None,
    bucket: float = 1.0,
    recovery_fraction: float = 0.8,
    smoothing: int = 5,
) -> ResilienceSummary:
    """Reduce one faulted run to goodput / amplification / recovery.

    The rates are computed from 1 s success buckets; recovery is the
    first time after the last restart when the ``smoothing``-bucket
    rolling mean regains ``recovery_fraction`` of the pre-outage rate.
    """
    window = window_end - window_start
    if window <= 0:
        raise ValueError(f"empty measurement window [{window_start}, {window_end}]")
    records = log.in_window(window_start, window_end)
    successes = [r for r in records if r.outcome == OUTCOME_OK]
    goodput = len(successes) / window

    first_down = min((o.start for o in outages), default=window_end)
    last_up = max((o.end for o in outages), default=window_start)
    downtime = sum(
        max(0.0, min(o.end, window_end) - max(o.start, window_start)) for o in outages
    )

    def rate(span_start: float, span_end: float) -> float:
        span = span_end - span_start
        if span <= 0:
            return 0.0
        return sum(1 for r in successes if span_start <= r.finished < span_end) / span

    pre = rate(window_start, min(first_down, window_end))
    during = (
        sum(1 for r in successes if any(o.start <= r.finished < o.end for o in outages))
        / downtime
        if downtime > 0
        else 0.0
    )
    post = rate(max(last_up, window_start), window_end)

    recovery: float | None
    if not outages:
        recovery = 0.0
    else:
        recovery = None
        rates = bucket_rates(successes, window_start, window_end, bucket)
        threshold = recovery_fraction * pre
        from_bucket = max(0, int((last_up - window_start) / bucket))
        for i in range(from_bucket, len(rates)):
            lo = max(0, i - smoothing + 1)
            rolling = sum(rates[lo : i + 1]) / (i + 1 - lo)
            if rolling >= threshold:
                recovery = max(0.0, (window_start + (i + 1) * bucket) - last_up)
                break

    from repro.sim.rpc import RetryStats  # runtime-only: module stays sim-free at import

    rs = retry_stats or RetryStats()
    return ResilienceSummary(
        goodput=goodput,
        pre_outage_rate=pre,
        during_outage_rate=during,
        post_outage_rate=post,
        recovery_time=recovery,
        downtime=downtime,
        logical_calls=rs.calls,
        attempts=rs.attempts,
        retries=rs.retries,
        exhausted=rs.exhausted,
        breaker_rejections=rs.breaker_rejections,
        backoff_time=rs.backoff_time,
    )


def summarize(
    log: RequestLog,
    monitor: Ganglia,
    server_host: Host,
    window_start: float,
    window_end: float,
) -> MetricsSummary:
    """Reduce one run's raw records to the paper's reported metrics."""
    window = window_end - window_start
    if window <= 0:
        raise ValueError(f"empty measurement window [{window_start}, {window_end}]")
    in_window = log.in_window(window_start, window_end)
    successes = [r for r in in_window if r.outcome == OUTCOME_OK]
    throughput = len(successes) / window
    response = (
        sum(r.duration for r in successes) / len(successes) if successes else 0.0
    )
    latency = StreamingLatency()
    for r in successes:
        latency.add(r.duration)
    cpu_load, load1 = monitor.window_average(server_host, window_start, window_end)
    return MetricsSummary(
        throughput=throughput,
        response_time=response,
        load1=load1,
        cpu_load=cpu_load,
        completed=len(successes),
        refused=sum(1 for r in in_window if r.outcome == OUTCOME_REFUSED),
        timeouts=sum(1 for r in in_window if r.outcome == OUTCOME_TIMEOUT),
        errors=sum(1 for r in in_window if r.outcome == OUTCOME_ERROR),
        window=window,
        latency_p50=latency.p50,
        latency_p95=latency.p95,
    )
