"""Statistical measurement rigor: changepoints, steady state, adaptive CIs.

The paper fixes a warm-up period, measures one 600 s window and reports
single-run means; SHARP-style methodology (PELT changepoint detection +
the "Adaptive stopping rule for performance measurements") replaces
both with *detected* steady state and *replication until convergence*.
This module supplies the machinery, consumed in two places:

* :func:`detect_steady_state` — find the warm-up / cool-down boundaries
  of a run from its own metric stream (bucketed completion rates)
  instead of trusting the configured warm-up
  (:func:`repro.core.runner.drive` with ``adaptive=``);
* :func:`adaptive_replications` — fan seeded replications of one sweep
  point out through :mod:`repro.core.parallel` until the confidence
  interval on the chosen metric converges (or a replication cap is
  hit), reporting mean ± CI half-width
  (:func:`repro.core.experiments.common.adaptive_sweep_points`).

For a *fixed* replication budget rather than a precision target,
:func:`replicate_point` runs a point once per seed and
:func:`summarize_replicates` reduces the four figure metrics to
mean ± half-width — through the same :func:`mean_ci` as everything
else, so there is one way to compute a confidence interval.

Everything here is dependency-free offline math over plain sequences;
:mod:`repro.core.parallel` is imported lazily by the replication
controller only, so the module stays importable from anywhere in the
core without cycles.
"""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass, replace

__all__ = [
    "AdaptiveConfig",
    "AdaptiveEstimate",
    "ConfidenceInterval",
    "ReplicateStat",
    "ReplicationInfo",
    "SteadyState",
    "SteadyStateInfo",
    "adaptive_replications",
    "default_penalty",
    "detect_steady_state",
    "mean_ci",
    "pelt_changepoints",
    "replicate_point",
    "robust_noise_sigma2",
    "segment_means",
    "summarize_replicates",
    "t_critical",
]


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
class SteadyState:
    """Steady-state boundaries detected from one run's metric stream.

    ``start``/``end`` are in the stream's time units (bucket edges);
    ``stable`` is False when no segment long enough to trust was found,
    in which case callers should keep their configured window.
    """

    start: float
    end: float
    stable: bool
    changepoints: tuple[float, ...] = ()
    level: float = 0.0  # mean of the chosen segment


def detect_steady_state(
    values: _t.Sequence[float],
    *,
    dt: float = 1.0,
    origin: float = 0.0,
    penalty: float | None = None,
    min_size: int = 5,
    min_fraction: float = 0.25,
) -> SteadyState:
    """Find the longest stable regime of a bucketed metric series.

    ``values[i]`` covers ``[origin + i*dt, origin + (i+1)*dt)``.  PELT
    segments the series; the longest segment is the steady state, its
    boundaries become the measurement window.  The detection is
    rejected (``stable=False``, full-span window returned) when the
    longest segment covers less than ``min_fraction`` of the series —
    a run that noisy has no steady state worth trusting.
    """
    n = len(values)
    span_end = origin + n * dt
    if n < 2 * min_size:
        return SteadyState(start=origin, end=span_end, stable=False)
    cps = pelt_changepoints(values, penalty=penalty, min_size=min_size)
    segments = segment_means(values, cps)
    lo, hi, level = max(segments, key=lambda s: (s[1] - s[0], -s[0]))
    stable = (hi - lo) >= max(min_size, min_fraction * n)
    if not stable:
        return SteadyState(
            start=origin,
            end=span_end,
            stable=False,
            changepoints=tuple(origin + c * dt for c in cps),
        )
    return SteadyState(
        start=origin + lo * dt,
        end=origin + hi * dt,
        stable=True,
        changepoints=tuple(origin + c * dt for c in cps),
        level=level,
    )


# -- confidence intervals -----------------------------------------------------

# Two-sided Student-t critical values, df 1..30, then the normal limit.
_T_TABLE: dict[float, tuple[float, tuple[float, ...]]] = {
    0.90: (
        1.645,
        (6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
         1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
         1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697),
    ),
    0.95: (
        1.960,
        (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
         2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
         2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042),
    ),
    0.99: (
        2.576,
        (63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
         3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
         2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750),
    ),
}


def t_critical(df: int, confidence: float = 0.95) -> float:
    """Two-sided Student-t critical value (tabulated confidences only)."""
    if confidence not in _T_TABLE:
        raise ValueError(
            f"confidence must be one of {sorted(_T_TABLE)}, got {confidence}"
        )
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    limit, table = _T_TABLE[confidence]
    return table[df - 1] if df <= len(table) else limit


@dataclass(frozen=True)
class ConfidenceInterval:
    """Mean ± half-width at ``confidence`` over ``n`` observations."""

    mean: float
    half_width: float
    n: int
    confidence: float = 0.95

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    @property
    def relative(self) -> float:
        """Half-width as a fraction of the mean (inf for a zero mean)."""
        if self.mean == 0.0:
            return 0.0 if self.half_width == 0.0 else math.inf
        return self.half_width / abs(self.mean)

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.half_width:.3f} (n={self.n})"


#: The name the fixed-budget replication helpers give the same interval.
ReplicateStat = ConfidenceInterval


def mean_ci(values: _t.Sequence[float], confidence: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval on the mean of ``values``."""
    n = len(values)
    if n == 0:
        raise ValueError("mean_ci needs at least one observation")
    mean = sum(values) / n
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=math.inf, n=1, confidence=confidence)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    hw = t_critical(n - 1, confidence) * math.sqrt(var / n)
    return ConfidenceInterval(mean=mean, half_width=hw, n=n, confidence=confidence)


# -- fixed-budget replication -------------------------------------------------


def replicate_point(
    run_point: _t.Callable[..., _t.Any],
    system: str,
    x: int,
    *,
    seeds: _t.Iterable[int] = range(1, 6),
    **kwargs: _t.Any,
) -> list[_t.Any]:
    """Run one experiment point once per seed."""
    return [run_point(system, x, seed, **kwargs) for seed in seeds]


def summarize_replicates(points: _t.Sequence[_t.Any]) -> dict[str, ReplicateStat]:
    """Per-metric mean ± 95% CI over replicated ``PointResult``s.

    Crashed replicates are excluded (a DNF has no metrics); if *all*
    replicates crashed, every stat is NaN with n=0.
    """
    alive = [p for p in points if not p.crashed]
    out: dict[str, ReplicateStat] = {}
    for name in ("throughput", "response_time", "load1", "cpu_load"):
        if alive:
            out[name] = mean_ci([getattr(p, name) for p in alive])
        else:
            out[name] = ReplicateStat(math.nan, math.nan, 0)
    return out


# -- adaptive replication controller ------------------------------------------


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive measurement mode.

    Replications stop as soon as the ``confidence`` CI half-width on
    ``metric`` falls below ``rel_precision`` of the mean (after at
    least ``min_replications``), or hard-stop at ``max_replications``.
    ``batch`` replications are launched per round so the fan-out
    through :mod:`repro.core.parallel` keeps workers busy.
    ``seed_stride`` separates replication seeds from the base seed —
    replication ``k`` of a point seeded ``s`` runs with
    ``s + k * seed_stride``.
    """

    rel_precision: float = 0.05
    confidence: float = 0.95
    min_replications: int = 3
    max_replications: int = 10
    batch: int = 2
    metric: str = "throughput"
    seed_stride: int = 1009
    # Steady-state detection inside each replication (see runner.drive).
    bucket: float = 1.0

    def __post_init__(self) -> None:
        if self.min_replications < 2:
            raise ValueError("min_replications must be >= 2 (a CI needs variance)")
        if self.max_replications < self.min_replications:
            raise ValueError("max_replications must be >= min_replications")
        if not 0.0 < self.rel_precision < 1.0:
            raise ValueError(f"rel_precision must be in (0, 1), got {self.rel_precision}")


@dataclass(frozen=True)
class ReplicationInfo:
    """How one reported point was estimated (attached to PointResult)."""

    replications: int
    converged: bool
    confidence: float
    throughput_ci: float  # CI half-width on throughput (q/s)
    response_time_ci: float  # CI half-width on response time (s)


@dataclass(frozen=True)
class SteadyStateInfo:
    """Detected measurement window of one run (attached to PointResult)."""

    warmup: float  # detected warm-up end (window start)
    window_start: float
    window_end: float
    stable: bool
    changepoints: int  # how many regime shifts the stream contained


@dataclass(frozen=True)
class AdaptiveEstimate:
    """Replication-until-convergence result for one sweep point."""

    results: tuple  # the individual replication PointResults
    ci: ConfidenceInterval  # on the stopping metric
    converged: bool

    @property
    def replications(self) -> int:
        return len(self.results)


def _metric_value(result: _t.Any, metric: str) -> float:
    value = getattr(result, metric)
    return float(value)


def adaptive_replications(
    fn: _t.Callable,
    args: _t.Sequence,
    kwargs: dict[str, _t.Any] | None = None,
    *,
    base_seed: int = 1,
    seed_kw: str | None = None,
    config: AdaptiveConfig | None = None,
    jobs: int | None = None,
) -> AdaptiveEstimate:
    """Replicate ``fn(*args, seed_k, **kwargs)`` until its CI converges.

    ``fn`` must be a module-level sweep-point function (the
    :class:`~repro.core.parallel.PointSpec` contract).  The seed of
    replication ``k`` is ``base_seed + k * config.seed_stride`` and is
    passed positionally appended to ``args`` unless ``seed_kw`` names a
    keyword.  Each batch fans out through
    :func:`repro.core.parallel.run_specs`, so replications parallelize
    and individually hit the point cache; the stopping rule is applied
    between batches, making the replication count — and therefore the
    result — independent of worker scheduling.
    """
    from repro.core.parallel import PointSpec, run_specs  # lazy: avoids a cycle

    cfg = config or AdaptiveConfig()
    kwargs = dict(kwargs or {})

    def spec_for(k: int) -> "PointSpec":
        seed = base_seed + k * cfg.seed_stride
        if seed_kw is None:
            return PointSpec.from_call(fn, (*args, seed), kwargs)
        return PointSpec.from_call(fn, tuple(args), {**kwargs, seed_kw: seed})

    results: list[_t.Any] = []
    while True:
        want = cfg.min_replications if not results else min(
            cfg.batch, cfg.max_replications - len(results)
        )
        specs = [spec_for(len(results) + i) for i in range(want)]
        results.extend(run_specs(specs, jobs=jobs))
        ci = mean_ci(
            [_metric_value(r, cfg.metric) for r in results], confidence=cfg.confidence
        )
        converged = ci.relative <= cfg.rel_precision
        if converged or len(results) >= cfg.max_replications:
            return AdaptiveEstimate(results=tuple(results), ci=ci, converged=converged)


# Re-exported convenience: summaries averaged across replications live
# with the metrics types, but the reduction is statistical, so it sits
# here next to the CI machinery that annotates it.


def summarize_replications(
    results: _t.Sequence[_t.Any], confidence: float = 0.95
) -> tuple[_t.Any, ReplicationInfo, bool]:
    """Mean summary + CI info across replication PointResults.

    Returns ``(mean_summary, info, crashed_any)`` where
    ``mean_summary`` is a :class:`~repro.core.metrics.MetricsSummary`
    whose float fields are replication means (counts are rounded
    means), built from the first result's summary via
    :func:`dataclasses.replace` so new fields inherit sensibly.
    """
    if not results:
        raise ValueError("summarize_replications needs at least one result")
    summaries = [r.summary for r in results]
    n = len(summaries)

    def fmean(attr: str) -> float:
        return sum(getattr(s, attr) for s in summaries) / n

    def imean(attr: str) -> int:
        return round(sum(getattr(s, attr) for s in summaries) / n)

    mean_summary = replace(
        summaries[0],
        throughput=fmean("throughput"),
        response_time=fmean("response_time"),
        load1=fmean("load1"),
        cpu_load=fmean("cpu_load"),
        completed=imean("completed"),
        refused=imean("refused"),
        timeouts=imean("timeouts"),
        errors=imean("errors"),
        window=fmean("window"),
        latency_p50=fmean("latency_p50"),
        latency_p95=fmean("latency_p95"),
    )
    throughput_ci = mean_ci([s.throughput for s in summaries], confidence)
    response_ci = mean_ci([s.response_time for s in summaries], confidence)
    info = ReplicationInfo(
        replications=n,
        converged=True,  # caller overrides from the controller's verdict
        confidence=confidence,
        throughput_ci=0.0 if n < 2 else throughput_ci.half_width,
        response_time_ci=0.0 if n < 2 else response_ci.half_width,
    )
    return mean_summary, info, any(r.crashed for r in results)
