"""Unit tests for :mod:`repro.core.stats` (changepoints, steady state, CIs).

Everything here is offline math over synthetic series, so the tests pin
exact behaviour: a constant series yields no changepoints, an exact
single step is found at the right index, and short series never produce
spurious detections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import pytest

from repro.core.stats import (
    MAX_REPLICATIONS,
    MIN_REPLICATIONS,
    REL_PRECISION,
    SEED_STRIDE,
    adaptive_replications,
    default_penalty,
    detect_steady_state,
    mean_ci,
    pelt_changepoints,
    robust_noise_sigma2,
    segment_means,
    t_critical,
)

# Deterministic ±2% jitter around 100 (no random module: fixed values).
NOISY_FLAT = [100.0, 101.2, 99.1, 100.5, 98.8, 101.9, 99.6, 100.3, 100.9, 99.4]


# -- changepoint detection ----------------------------------------------------


def test_constant_series_has_no_changepoints():
    assert pelt_changepoints([5.0] * 50) == []


def test_zero_series_has_no_changepoints():
    assert pelt_changepoints([0.0] * 20) == []


def test_single_exact_step_found_at_index():
    series = [1.0] * 20 + [2.0] * 20
    assert pelt_changepoints(series) == [20]


def test_two_steps_found():
    series = [1.0] * 15 + [5.0] * 15 + [2.0] * 15
    assert pelt_changepoints(series) == [15, 30]


def test_short_series_returns_empty():
    assert pelt_changepoints([]) == []
    assert pelt_changepoints([1.0]) == []
    assert pelt_changepoints([1.0, 9.0]) == [] # < 2 * min_size
    assert pelt_changepoints([1.0, 9.0, 9.0], min_size=2) == []


def test_all_noise_yields_no_changepoints():
    assert pelt_changepoints(NOISY_FLAT * 3) == []


def test_noisy_step_is_still_detected():
    lo = [v * 1.0 for v in NOISY_FLAT]
    hi = [v * 2.0 for v in NOISY_FLAT]
    cps = pelt_changepoints(lo + hi)
    assert cps == [len(lo)]


def test_min_size_respected():
    # A one-point spike cannot form its own segment at min_size=5.
    series = [1.0] * 10 + [50.0] + [1.0] * 10
    for cp in pelt_changepoints(series, min_size=5):
        assert cp >= 5
    with pytest.raises(ValueError):
        pelt_changepoints(series, min_size=0)


def test_segment_means_partition():
    segs = segment_means([1.0, 1.0, 3.0, 3.0], [2])
    assert segs == [(0, 2, 1.0), (2, 4, 3.0)]


def test_robust_noise_ignores_shifts():
    # One large shift must not inflate the noise estimate.
    series = [1.0] * 20 + [100.0] * 20
    assert robust_noise_sigma2(series) == 0.0
    assert robust_noise_sigma2([1.0]) == 0.0


def test_default_penalty_short_series_infinite():
    assert math.isinf(default_penalty([1.0]))


# -- steady-state detection ---------------------------------------------------


def test_steady_state_on_ramp_plateau():
    # 10 s warm-up ramp, then a flat plateau: the window is the plateau.
    ramp = [float(i) for i in range(10)]
    plateau = [10.0] * 30
    ss = detect_steady_state(ramp + plateau, 1.0)
    assert ss.stable
    assert ss.window_end == 40.0
    assert 8.0 <= ss.window_start <= 12.0
    assert ss.changepoints >= 1


def test_steady_state_constant_series_is_whole_span():
    ss = detect_steady_state([7.0] * 20, 2.0)
    assert ss.stable
    assert (ss.window_start, ss.window_end) == (0.0, 40.0)
    assert ss.changepoints == 0


def test_steady_state_short_series_not_stable():
    ss = detect_steady_state([1.0, 2.0, 3.0], 1.0)
    assert not ss.stable
    assert (ss.window_start, ss.window_end) == (0.0, 3.0)  # fallback: full span


def test_steady_state_rejects_fragmented_series():
    # Alternating regimes leave no segment covering a quarter of the run.
    series = ([1.0] * 6 + [9.0] * 6) * 4
    ss = detect_steady_state(series, 1.0)
    assert not ss.stable
    assert ss.changepoints == 7
    assert (ss.window_start, ss.window_end) == (0.0, float(len(series)))


# -- confidence intervals -----------------------------------------------------


def test_t_critical_values():
    assert t_critical(1) == pytest.approx(12.706)
    assert t_critical(9) == pytest.approx(2.262)
    assert t_critical(12) == pytest.approx(2.179)  # its own row, not df=15's 2.131
    assert t_critical(15) == pytest.approx(2.131)
    assert t_critical(1000) == pytest.approx(1.960)
    with pytest.raises(ValueError):
        t_critical(0)


def test_mean_ci_known_values():
    ci = mean_ci([10.0, 12.0, 14.0])
    assert ci.mean == pytest.approx(12.0)
    # s = 2, hw = t(2, .95) * 2 / sqrt(3) = 4.303 * 1.1547
    assert ci.half_width == pytest.approx(4.303 * 2.0 / math.sqrt(3.0), rel=1e-6)
    assert ci.n == 3
    assert ci.relative == pytest.approx(ci.half_width / 12.0)


def test_mean_ci_single_observation_is_infinite():
    ci = mean_ci([5.0])
    assert ci.mean == 5.0
    assert math.isinf(ci.half_width)
    with pytest.raises(ValueError):
        mean_ci([])


def test_mean_ci_zero_mean_relative():
    ci = mean_ci([-1.0, 1.0])
    assert ci.mean == 0.0
    assert math.isinf(ci.relative)
    assert mean_ci([0.0, 0.0]).relative == 0.0


# -- adaptive replication controller ------------------------------------------


@dataclass(frozen=True)
class _FakePoint:
    throughput: float
    seed: int


# Module-level on purpose: the PointSpec contract requires an importable
# callable.  Deterministic "noise" derived from the seed.
def fake_point(base: float, spread: float, seed: int) -> _FakePoint:
    return _FakePoint(base + spread * ((seed * 7919) % 11 - 5) / 5.0, seed)


def test_adaptive_replications_converges_on_quiet_metric():
    results, converged = adaptive_replications(fake_point, (100.0, 0.5), {}, 3, jobs=1)
    assert converged
    assert len(results) == MIN_REPLICATIONS  # the minimum was already enough
    # Replication k of a point seeded 3 runs with seed 3 + k * SEED_STRIDE.
    assert [r.seed for r in results] == [3 + k * SEED_STRIDE for k in range(MIN_REPLICATIONS)]
    ci = mean_ci([r.throughput for r in results])
    assert ci.relative <= REL_PRECISION
    assert ci.mean == pytest.approx(100.0, rel=0.02)


def test_adaptive_replications_caps_on_noisy_metric():
    results, converged = adaptive_replications(fake_point, (100.0, 40.0), {}, 1, jobs=1)
    assert not converged
    assert len(results) == MAX_REPLICATIONS  # hard cap
    assert mean_ci([r.throughput for r in results]).relative > REL_PRECISION
