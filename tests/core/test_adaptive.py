"""Adaptive measurement mode: wiring, determinism and default-mode purity.

The adaptive mode must (a) leave the exact mode byte-identical — same
``PointResult`` with ``ci``/``steady_state`` unset — (b) produce the
same reported mean ± CI regardless of worker count (the stopping rule
runs between batches), and (c) attach honest estimation metadata that
survives the point codec.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import parallel
from repro.core.experiments import exp1
from repro.core.experiments.common import adaptive_point, adaptive_sweep_points
from repro.core.figures import points_to_series
from repro.core.params import measurement_window
from repro.core.runner import PointResult
from repro.core.stats import AdaptiveConfig

# Short windows keep each replication ~100 ms; rel_precision is loose so
# the quiet metric converges at min_replications.
CFG = AdaptiveConfig(
    rel_precision=0.25, min_replications=2, max_replications=4, batch=2, bucket=1.0
)
FAST = dict(warmup=2.0, window=10.0)


@pytest.fixture(autouse=True)
def _serial_default():
    parallel.configure(jobs=1, cache_dir=None)
    yield
    parallel.configure(jobs=None, cache_dir=None)


def test_exact_mode_unchanged_by_default():
    point = exp1.run_point("mds-gris-cache", 10, 1, **FAST)
    assert point.ci is None
    assert point.steady_state is None


def test_runner_defaults_warmup_window_from_params():
    # drive() falls back to measurement_window() when warmup/window are
    # omitted — the point reports the configured window's span.
    _warmup, window = measurement_window()
    point = exp1.run_point("mds-gris-cache", 5, 1)
    assert point.summary.window == pytest.approx(window)
    explicit = exp1.run_point("mds-gris-cache", 5, 1, warmup=2.0, window=9.0)
    assert explicit.summary.window == pytest.approx(9.0)


def test_adaptive_drive_attaches_steady_state():
    point = exp1.run_point("mds-gris-cache", 10, 1, adaptive=CFG, **FAST)
    assert point.steady_state is not None
    info = point.steady_state
    assert info.window_end <= FAST["warmup"] + FAST["window"]
    assert info.window_start < info.window_end
    if info.stable:
        # The detected window replaced the configured one.
        assert point.summary.window == pytest.approx(
            info.window_end - info.window_start
        )


def test_adaptive_drive_is_deterministic():
    a = exp1.run_point("mds-gris-cache", 10, 1, adaptive=CFG, **FAST)
    b = exp1.run_point("mds-gris-cache", 10, 1, adaptive=CFG, **FAST)
    assert a == b


def test_adaptive_point_reports_ci():
    point = adaptive_point(exp1.run_point, "mds-gris-cache", 10, 1, config=CFG, **FAST)
    assert point.ci is not None
    assert point.ci.replications >= CFG.min_replications
    assert point.ci.confidence == CFG.confidence
    assert point.ci.throughput_ci >= 0.0
    # The reported summary is a replication mean, not the first run.
    assert point.summary.throughput > 0.0


def test_adaptive_sweep_independent_of_worker_count():
    points = [("mds-gris-cache", users, 1) for users in (5, 10)]
    serial = adaptive_sweep_points(exp1.run_point, points, config=CFG, jobs=1, **FAST)
    pooled = adaptive_sweep_points(exp1.run_point, points, config=CFG, jobs=4, **FAST)
    assert serial == pooled


def test_adaptive_vs_exact_share_the_scenario():
    # Same seed, same horizon: the adaptive point's first replication is
    # the exact run re-windowed, so throughputs must be comparable.
    exact = exp1.run_point("mds-gris-cache", 10, 1, **FAST)
    adaptive = adaptive_point(
        exp1.run_point, "mds-gris-cache", 10, 1, config=CFG, **FAST
    )
    assert adaptive.summary.throughput == pytest.approx(
        exact.summary.throughput, rel=0.25
    )
    assert adaptive.x == exact.x
    assert adaptive.system == exact.system


def test_sweep_rejects_point_kwargs_with_adaptive():
    from repro.core.experiments.common import sweep_points

    with pytest.raises(ValueError):
        sweep_points(
            exp1.run_point,
            [("mds-gris-cache", 5, 1)],
            point_kwargs=[{}],
            adaptive=True,
        )


def test_figure_series_annotates_ci_only_in_adaptive_mode():
    exact = exp1.run_point("mds-gris-cache", 10, 1, **FAST)
    series = points_to_series("s", [exact], "throughput")
    assert series.ci == {}
    adaptive = adaptive_point(exp1.run_point, "mds-gris-cache", 10, 1, config=CFG, **FAST)
    series = points_to_series("s", [adaptive], "throughput")
    assert series.ci == {10: adaptive.ci.throughput_ci}


def test_adaptive_point_result_round_trips_json_codec():
    # Adaptive results flow through the parallel layer's codec (pool
    # transport and point cache), so the new nested dataclasses must
    # survive a JSON round trip exactly.
    point = adaptive_point(exp1.run_point, "mds-gris-cache", 5, 1, config=CFG, **FAST)
    payload = parallel.encode_result(point)
    restored = parallel.decode_result(payload)
    assert isinstance(restored, PointResult)
    assert restored == point
    assert dataclasses.asdict(restored.ci) == dataclasses.asdict(point.ci)
