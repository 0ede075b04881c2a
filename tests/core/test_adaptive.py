"""Adaptive measurement mode: wiring, determinism and default-mode purity.

The adaptive mode must (a) leave the exact mode byte-identical — same
``PointResult`` with ``ci``/``steady_state`` unset — (b) produce the
same reported mean ± CI regardless of worker count (the stopping rule
runs between batches), (c) attach honest estimation metadata that
survives the point codec, and (d) leave the cache keys of every
non-adaptive point where they were.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import parallel
from repro.core.experiments import common, exp1, exp4, scale
from repro.core.experiments.common import adaptive_point, sweep_points
from repro.core.figures import points_to_series
from repro.core.params import measurement_window
from repro.core.runner import PointResult
from repro.core.stats import MIN_REPLICATIONS

# Short windows keep each replication ~100 ms.
FAST = dict(warmup=2.0, window=10.0)


@pytest.fixture(autouse=True)
def _serial_default():
    # configure() also drops the worker pool: a pooled test here forks
    # workers that see this test's patches, and leaves none behind.
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
    point = exp1.run_point("mds-gris-cache", 10, 1, adaptive=True, **FAST)
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
    a = exp1.run_point("mds-gris-cache", 10, 1, adaptive=True, **FAST)
    b = exp1.run_point("mds-gris-cache", 10, 1, adaptive=True, **FAST)
    assert a == b


def test_adaptive_point_reports_ci():
    point = adaptive_point(exp1.run_point, "mds-gris-cache", 10, 1, **FAST)
    assert point.ci is not None
    assert point.ci.replications >= MIN_REPLICATIONS
    assert point.ci.throughput_ci >= 0.0
    # The reported summary is a replication mean, not the first run.
    assert point.summary.throughput > 0.0


def test_adaptive_sweep_independent_of_worker_count():
    points = [("mds-gris-cache", users, 1) for users in (5, 10)]
    serial = sweep_points(exp1.run_point, points, adaptive=True, jobs=1, **FAST)
    pooled = sweep_points(exp1.run_point, points, adaptive=True, jobs=4, **FAST)
    assert serial == pooled


def test_adaptive_vs_exact_share_the_scenario():
    # Same seed, same horizon: the adaptive point's first replication is
    # the exact run re-windowed, so throughputs must be comparable.
    exact = exp1.run_point("mds-gris-cache", 10, 1, **FAST)
    adaptive = adaptive_point(exp1.run_point, "mds-gris-cache", 10, 1, **FAST)
    assert adaptive.summary.throughput == pytest.approx(
        exact.summary.throughput, rel=0.25
    )
    assert adaptive.x == exact.x
    assert adaptive.system == exact.system


def test_sweep_rejects_point_kwargs_with_adaptive():
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
    adaptive = adaptive_point(exp1.run_point, "mds-gris-cache", 10, 1, **FAST)
    series = points_to_series("s", [adaptive], "throughput")
    assert series.ci == {10: adaptive.ci.throughput_ci}


def test_adaptive_point_result_round_trips_json_codec(tmp_path):
    # Adaptive results flow through the point cache's JSON codec, so the
    # new nested dataclasses must survive a put and a get exactly.
    point = adaptive_point(exp1.run_point, "mds-gris-cache", 5, 1, **FAST)
    cache = parallel.PointCache(tmp_path)
    spec = parallel.PointSpec.from_call(exp1.run_point, ("mds-gris-cache", 5, 1), FAST)
    key = cache.key_for(spec)
    assert cache.put(key, spec, point)
    hit, restored = cache.get(key)
    assert hit
    assert isinstance(restored, PointResult)
    assert restored == point
    assert dataclasses.asdict(restored.ci) == dataclasses.asdict(point.ci)


def _specs_of(monkeypatch, module, sweep) -> list:
    """The PointSpecs ``sweep()`` hands ``module.run_specs`` (nothing runs)."""
    captured: list = []

    def capture(specs, jobs=None):
        captured.extend(specs)
        raise _Captured

    monkeypatch.setattr(module, "run_specs", capture)
    with pytest.raises(_Captured):
        sweep()
    return captured


class _Captured(Exception):
    pass


def test_cache_keys_of_exact_points_stay_put(monkeypatch):
    # The point cache addresses each point by its canonical call, so these
    # literals are the keys warm caches hold: an exact point never carries
    # an ``adaptive`` entry, not even ``False``.
    calls = [
        spec.canonical_call()
        for sweep in (
            lambda: exp1.sweep("mds-gris-cache", x_values=(10,), seed=1, warmup=5.0, window=20.0),
            lambda: exp4.sweep("mds-giis-part", x_values=(10,), seed=2, warmup=5.0, window=20.0),
            lambda: scale.sweep_scale(
                "mds", 1, depths=(2,), fanouts=(4,), users=1000, fidelity="meanfield"
            ),
        )
        for spec in _specs_of(monkeypatch, common, sweep)
    ]
    assert calls == [
        {"fn": "repro.core.experiments.exp1:run_point",
         "args": ["mds-gris-cache", 10, 1], "kwargs": {"warmup": 5.0, "window": 20.0}},
        {"fn": "repro.core.experiments.exp4:run_point",
         "args": ["mds-giis-part", 10, 2], "kwargs": {"warmup": 5.0, "window": 20.0}},
        {"fn": "repro.core.experiments.scale:run_scale_point",
         "args": ["mds", 2, 4, 1], "kwargs": {"fidelity": "meanfield", "users": 1000}},
    ]
    # An adaptive replication says so, and carries its own seed.
    (first, *_rest) = _specs_of(
        monkeypatch, parallel,
        lambda: exp1.sweep("mds-gris-cache", x_values=(10,), seed=1, adaptive=True, **FAST),
    )
    assert first.canonical_call()["kwargs"] == {"adaptive": True, **FAST}
    assert first.canonical_call()["args"] == ["mds-gris-cache", 10, 1]
