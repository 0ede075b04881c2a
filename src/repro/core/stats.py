"""Statistical measurement rigor: changepoints, steady state, adaptive CIs.

The paper fixes a warm-up period, measures one 600 s window and reports
single-run means; SHARP-style methodology (PELT changepoint detection +
the "Adaptive stopping rule for performance measurements") replaces
both with *detected* steady state and *replication until convergence*.
This module supplies the machinery of that one rule, consumed in two
places:

* :func:`detect_steady_state` — find the longest stable regime of a run
  from its own metric stream (bucketed completion rates) instead of
  trusting the configured warm-up
  (:func:`repro.core.runner.drive` with ``adaptive=True``);
* :func:`adaptive_replications` — fan seeded replications of one sweep
  point out through :mod:`repro.core.parallel` until the confidence
  interval on throughput converges (or the replication cap is hit)
  (:func:`repro.core.experiments.common.adaptive_point`).

The rule has nothing to set: its values are the module constants below.
Everything here is dependency-free offline math over plain sequences;
:mod:`repro.core.parallel` is imported lazily by the replication
controller only, so the module stays importable from anywhere in the
core without cycles.
"""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass

__all__ = [
    "ConfidenceInterval",
    "ReplicationInfo",
    "SteadyStateInfo",
    "adaptive_replications",
    "default_penalty",
    "detect_steady_state",
    "mean_ci",
    "pelt_changepoints",
    "robust_noise_sigma2",
    "segment_means",
    "t_critical",
]

# The stopping rule: replicate a point until the 95% CI half-width on its
# throughput is at most REL_PRECISION of the mean, starting with
# MIN_REPLICATIONS and adding BATCH per round up to MAX_REPLICATIONS.
# Replication k of a point seeded s runs with seed s + k * SEED_STRIDE.
REL_PRECISION = 0.05
MIN_REPLICATIONS = 3
MAX_REPLICATIONS = 10
BATCH = 2
SEED_STRIDE = 1009
# The steady-state detector: completion rates are bucketed BUCKET
# seconds wide; a regime needs MIN_SEGMENT buckets, and the longest one
# must cover MIN_FRACTION of the run to count as steady.
BUCKET = 1.0
MIN_SEGMENT = 5
MIN_FRACTION = 0.25


# -- changepoint detection (PELT) ---------------------------------------------
#
# Killick/Fearnhead/Eckley's Pruned Exact Linear Time search over a
# piecewise-constant-mean model: segment cost is the sum of squared
# deviations from the segment mean (computable in O(1) from prefix
# sums), and each accepted changepoint pays a fixed penalty.  Pruning
# keeps the candidate-start set small, so typical series (tens to a few
# hundred points) solve in well under a millisecond.


def robust_noise_sigma2(values: _t.Sequence[float]) -> float:
    """Noise variance estimated from successive differences.

    For i.i.d. noise around a piecewise-constant signal the differences
    ``d_i = x_{i+1} - x_i`` are ~ N(0, 2 sigma^2) away from the (few)
    shift points; the *median* of ``d_i^2`` ignores those shifts.  With
    median(chi^2_1) ~= 0.4549, sigma^2 ~= median(d^2) / 0.9098.
    """
    n = len(values)
    if n < 2:
        return 0.0
    diffs = sorted((values[i + 1] - values[i]) ** 2 for i in range(n - 1))
    mid = len(diffs) // 2
    if len(diffs) % 2:
        med = diffs[mid]
    else:
        med = 0.5 * (diffs[mid - 1] + diffs[mid])
    return med / 0.9098


def default_penalty(values: _t.Sequence[float], beta: float = 3.0) -> float:
    """BIC-style penalty ``beta * sigma^2 * ln n`` with a noise floor.

    The floor (a tiny fraction of the mean magnitude, squared) keeps a
    noiseless series from getting a zero penalty — a constant series
    must yield *no* changepoints, while an exact single step must still
    be cheap enough to detect.
    """
    n = len(values)
    if n < 2:
        return math.inf
    sigma2 = robust_noise_sigma2(values)
    scale = sum(abs(v) for v in values) / n
    floor = (1e-4 * scale) ** 2 + 1e-12
    return beta * max(sigma2, floor) * math.log(n)


def pelt_changepoints(
    values: _t.Sequence[float],
    penalty: float | None = None,
    min_size: int = 2,
) -> list[int]:
    """Changepoint indices of ``values`` under a piecewise-constant model.

    Returns the sorted list of segment-start indices *after* each shift
    (``[]`` when the series is best explained by one segment): a return
    of ``[k]`` means segments ``values[:k]`` and ``values[k:]``.

    ``penalty`` defaults to :func:`default_penalty`; ``min_size`` is the
    minimum points per segment.  Series shorter than ``2 * min_size``
    cannot contain a changepoint and return ``[]``.
    """
    n = len(values)
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    if n < 2 * min_size:
        return []
    if penalty is None:
        penalty = default_penalty(values)
    if not math.isfinite(penalty):
        return []

    # Prefix sums for O(1) segment SSE.
    s1 = [0.0] * (n + 1)
    s2 = [0.0] * (n + 1)
    for i, v in enumerate(values):
        s1[i + 1] = s1[i] + v
        s2[i + 1] = s2[i] + v * v

    def cost(i: int, j: int) -> float:
        """SSE of values[i:j] around its own mean."""
        m = j - i
        total = s1[j] - s1[i]
        return (s2[j] - s2[i]) - total * total / m

    # f[t]: optimal cost of values[:t]; prev[t]: last segment start.
    f = [math.inf] * (n + 1)
    f[0] = -penalty
    prev = [0] * (n + 1)
    candidates = [0]
    for t in range(min_size, n + 1):
        best, best_s = math.inf, 0
        for s in candidates:
            if t - s < min_size:
                continue
            c = f[s] + cost(s, t) + penalty
            if c < best:
                best, best_s = c, s
        f[t] = best
        prev[t] = best_s
        # Prune starts that can never win again (PELT inequality).
        candidates = [s for s in candidates if f[s] + cost(s, t) <= f[t]]
        candidates.append(t - min_size + 1)

    # Backtrack the optimal segmentation.
    cps: list[int] = []
    t = n
    while t > 0:
        s = prev[t]
        if s > 0:
            cps.append(s)
        t = s
    cps.reverse()
    return cps


def segment_means(
    values: _t.Sequence[float], changepoints: _t.Sequence[int]
) -> list[tuple[int, int, float]]:
    """``(start, end, mean)`` per segment implied by ``changepoints``."""
    bounds = [0, *changepoints, len(values)]
    out = []
    for i in range(len(bounds) - 1):
        lo, hi = bounds[i], bounds[i + 1]
        seg = values[lo:hi]
        out.append((lo, hi, sum(seg) / len(seg) if seg else 0.0))
    return out


# -- steady-state detection ---------------------------------------------------


@dataclass(frozen=True)
class SteadyStateInfo:
    """The measurement window of one run (attached to PointResult).

    ``window_start``/``window_end`` are in the stream's time units;
    ``stable`` is False when no segment long enough to trust was found,
    in which case :func:`detect_steady_state` reports the whole series
    and :func:`repro.core.runner.drive` the configured window it kept.
    """

    window_start: float
    window_end: float
    stable: bool
    changepoints: int  # how many regime shifts the stream contained


def detect_steady_state(values: _t.Sequence[float], dt: float) -> SteadyStateInfo:
    """Find the longest stable regime of a bucketed metric series.

    ``values[i]`` covers ``[i*dt, (i+1)*dt)``.  PELT segments the
    series; the longest segment is the steady state, its boundaries
    become the measurement window.  The detection is rejected
    (``stable=False``, full-span window returned) when the longest
    segment covers less than :data:`MIN_FRACTION` of the series — a run
    that noisy has no steady state worth trusting.
    """
    n = len(values)
    if n < 2 * MIN_SEGMENT:
        return SteadyStateInfo(0.0, n * dt, stable=False, changepoints=0)
    cps = pelt_changepoints(values, min_size=MIN_SEGMENT)
    lo, hi, _level = max(segment_means(values, cps), key=lambda s: (s[1] - s[0], -s[0]))
    if hi - lo < max(MIN_SEGMENT, MIN_FRACTION * n):
        return SteadyStateInfo(0.0, n * dt, stable=False, changepoints=len(cps))
    return SteadyStateInfo(lo * dt, hi * dt, stable=True, changepoints=len(cps))


# -- confidence intervals -----------------------------------------------------

# Two-sided 95% Student-t critical values, df 1..30, then the normal limit.
_T_LIMIT = 1.960
_T_TABLE = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def t_critical(df: int) -> float:
    """Two-sided 95% Student-t critical value."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    return _T_TABLE[df - 1] if df <= len(_T_TABLE) else _T_LIMIT


@dataclass(frozen=True)
class ConfidenceInterval:
    """Mean ± 95% half-width over ``n`` observations."""

    mean: float
    half_width: float
    n: int

    @property
    def relative(self) -> float:
        """Half-width as a fraction of the mean (inf for a zero mean)."""
        if self.mean == 0.0:
            return 0.0 if self.half_width == 0.0 else math.inf
        return self.half_width / abs(self.mean)


def mean_ci(values: _t.Sequence[float]) -> ConfidenceInterval:
    """Student-t 95% confidence interval on the mean of ``values``."""
    n = len(values)
    if n == 0:
        raise ValueError("mean_ci needs at least one observation")
    mean = sum(values) / n
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=math.inf, n=1)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return ConfidenceInterval(mean=mean, half_width=t_critical(n - 1) * math.sqrt(var / n), n=n)


# -- the replication controller -----------------------------------------------


@dataclass(frozen=True)
class ReplicationInfo:
    """How one reported point was estimated (attached to PointResult)."""

    replications: int
    converged: bool
    throughput_ci: float  # 95% CI half-width on throughput (q/s)
    response_time_ci: float  # 95% CI half-width on response time (s)


def adaptive_replications(
    fn: _t.Callable,
    args: _t.Sequence,
    kwargs: dict[str, _t.Any],
    base_seed: int,
    *,
    jobs: int | None = None,
) -> tuple[list[_t.Any], bool]:
    """Replicate ``fn(*args, seed_k, **kwargs)`` until its throughput CI converges.

    Returns the replications' results and whether the CI converged
    before :data:`MAX_REPLICATIONS`.  ``fn`` must be a module-level
    sweep-point function (the :class:`~repro.core.parallel.PointSpec`
    contract); the seed of replication ``k`` is
    ``base_seed + k * SEED_STRIDE``, appended to ``args``.  Each batch
    fans out through :func:`repro.core.parallel.run_specs`, so
    replications parallelize and individually hit the point cache; the
    stopping rule is applied between batches, making the replication
    count — and therefore the result — independent of worker
    scheduling.
    """
    from repro.core.parallel import PointSpec, run_specs  # lazy: avoids a cycle

    results: list[_t.Any] = []
    while True:
        done = len(results)
        want = MIN_REPLICATIONS if not done else min(BATCH, MAX_REPLICATIONS - done)
        specs = [
            PointSpec.from_call(fn, (*args, base_seed + k * SEED_STRIDE), kwargs)
            for k in range(done, done + want)
        ]
        results.extend(run_specs(specs, jobs=jobs))
        converged = mean_ci([r.throughput for r in results]).relative <= REL_PRECISION
        if converged or len(results) >= MAX_REPLICATIONS:
            return results, converged
