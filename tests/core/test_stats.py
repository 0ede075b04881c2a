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
    AdaptiveConfig,
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
    ss = detect_steady_state(ramp + plateau, dt=1.0)
    assert ss.stable
    assert ss.end == 40.0
    assert 8.0 <= ss.start <= 12.0
    assert ss.level == pytest.approx(10.0, rel=0.1)


def test_steady_state_constant_series_is_whole_span():
    ss = detect_steady_state([7.0] * 20, dt=2.0, origin=4.0)
    assert ss.stable
    assert (ss.start, ss.end) == (4.0, 44.0)
    assert ss.changepoints == ()


def test_steady_state_short_series_not_stable():
    ss = detect_steady_state([1.0, 2.0, 3.0], dt=1.0)
    assert not ss.stable
    assert (ss.start, ss.end) == (0.0, 3.0)  # fallback: full span


def test_steady_state_rejects_fragmented_series():
    # Alternating regimes leave no segment >= min_fraction of the run.
    series = ([1.0] * 6 + [9.0] * 6) * 4
    ss = detect_steady_state(series, dt=1.0, min_size=5, min_fraction=0.5)
    assert not ss.stable
    assert (ss.start, ss.end) == (0.0, float(len(series)))


# -- confidence intervals -----------------------------------------------------


def test_t_critical_values():
    assert t_critical(1, 0.95) == pytest.approx(12.706)
    assert t_critical(9, 0.95) == pytest.approx(2.262)
    assert t_critical(1000, 0.95) == pytest.approx(1.960)
    assert t_critical(5, 0.99) == pytest.approx(4.032)
    with pytest.raises(ValueError):
        t_critical(0)
    with pytest.raises(ValueError):
        t_critical(5, 0.42)


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


# Module-level on purpose: the PointSpec contract requires an importable
# callable.  Deterministic "noise" derived from the seed.
def fake_point(base: float, spread: float, seed: int) -> _FakePoint:
    return _FakePoint(throughput=base + spread * ((seed * 7919) % 11 - 5) / 5.0)


def test_adaptive_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(min_replications=1)
    with pytest.raises(ValueError):
        AdaptiveConfig(max_replications=2, min_replications=3)
    with pytest.raises(ValueError):
        AdaptiveConfig(rel_precision=0.0)


def test_adaptive_replications_converges_on_quiet_metric():
    cfg = AdaptiveConfig(rel_precision=0.10, min_replications=3, max_replications=10)
    est = adaptive_replications(fake_point, (100.0, 0.5), base_seed=1, config=cfg, jobs=1)
    assert est.converged
    assert est.replications == 3  # the minimum was already enough
    assert est.ci.relative <= 0.10
    assert est.ci.mean == pytest.approx(100.0, rel=0.02)


def test_adaptive_replications_caps_on_noisy_metric():
    cfg = AdaptiveConfig(rel_precision=0.01, min_replications=3, max_replications=6)
    est = adaptive_replications(fake_point, (100.0, 40.0), base_seed=1, config=cfg, jobs=1)
    assert not est.converged
    assert est.replications == 6  # hard cap
    assert est.ci.n == 6


def test_adaptive_replications_seed_kw_and_stride():
    cfg = AdaptiveConfig(rel_precision=0.5, min_replications=2, max_replications=4,
                         seed_stride=10)
    est = adaptive_replications(
        fake_point, (50.0, 0.0), base_seed=3, seed_kw="seed", config=cfg, jobs=1
    )
    assert est.converged
    assert all(r.throughput == 50.0 for r in est.results)
