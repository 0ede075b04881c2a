"""Parallel-vs-serial identity over the real experiment sweeps.

The whole parallel/caching layer rests on one invariant: a sweep's
result sequence — and therefore every rendered figure table — is
byte-identical whether the points ran serially, on a process pool, or
out of the point cache.  These tests pin that invariant for every
experiment set with reduced grids and short measurement windows.
"""

from __future__ import annotations

import pytest

from repro.core import parallel
from repro.core.experiments import exp1, exp2, exp3, exp4, faults, scale, scenarios
from repro.core.figures import points_to_series
from repro.core.results import Figure

FAST = dict(warmup=1.0, window=4.0)

# (experiment module, systems, x values) — two systems per set keeps the
# matrix honest (different topologies) while the suite stays quick.
SWEEPS = [
    (exp1, ("mds-gris-cache", "rgma-ps-lucky"), (1, 10)),
    (exp2, ("mds-giis", "rgma-registry-lucky"), (1, 10)),
    (exp3, ("hawkeye-agent", "rgma-ps"), (10, 30)),
    (exp4, ("mds-giis-all", "hawkeye-manager"), (10, 50)),
]


def render(exp, system, points) -> str:
    figure = Figure(number=0, title="t", xlabel="x", ylabel="y")
    figure.series.append(points_to_series(system, points, "throughput"))
    return figure.to_table()


@pytest.mark.parametrize("exp,systems,xs", SWEEPS, ids=lambda v: getattr(v, "__name__", None))
def test_parallel_matches_serial(exp, systems, xs):
    for system in systems:
        serial = exp.sweep(system, x_values=xs, seed=1, **FAST)
        pooled = exp.sweep(system, x_values=xs, seed=1, jobs=2, **FAST)
        assert serial == pooled
        assert render(exp, system, serial) == render(exp, system, pooled)


@pytest.mark.parametrize("exp,systems,xs", SWEEPS, ids=lambda v: getattr(v, "__name__", None))
def test_cached_rerun_matches_and_skips_work(exp, systems, xs, tmp_path):
    system = systems[0]
    cold = exp.sweep(system, x_values=xs, seed=1, **dict(FAST, jobs=1))
    parallel.configure(cache_dir=tmp_path / "pc")
    try:
        first = exp.sweep(system, x_values=xs, seed=1, **FAST)
        assert parallel.last_stats().cache_hits == 0
        warm = exp.sweep(system, x_values=xs, seed=1, **FAST)
        stats = parallel.last_stats()
    finally:
        parallel.configure(cache_dir="")
    assert stats.executed == 0
    assert stats.cache_hits == len(xs)
    assert cold == first == warm
    assert render(exp, system, cold) == render(exp, system, warm)


def test_fault_sweep_parallel_and_cached(tmp_path):
    """A faulted scenario sweeps like any other: its retry policies are
    built inside each point, so it pools and caches."""
    kwargs = dict(warmup=5.0, window=15.0)
    outage = faults.fault_scenario("outage", **kwargs)
    serial = scenarios.sweep("mds-gris-cache", outage, x_values=(10,), seed=1, **kwargs)
    pooled = scenarios.sweep("mds-gris-cache", outage, x_values=(10,), seed=1, jobs=2, **kwargs)
    assert serial == pooled
    assert serial[0].result.resilience.downtime == pytest.approx(3.0)
    parallel.configure(cache_dir=tmp_path / "pc")
    try:
        scenarios.sweep("mds-gris-cache", outage, x_values=(10,), seed=1, **kwargs)
        warm = scenarios.sweep("mds-gris-cache", outage, x_values=(10,), seed=1, **kwargs)
        stats = parallel.last_stats()
    finally:
        parallel.configure(cache_dir="")
    assert stats.cache_hits == 1 and stats.executed == 0
    assert warm == serial
    assert scenarios.format_scenario_table(warm) == scenarios.format_scenario_table(serial)


def test_scale_sweep_parallel_and_cached(tmp_path):
    kwargs = dict(depths=(1,), fanouts=(2, 4), warmup=1.0, window=4.0)
    serial = scale.sweep_scale("mds", seed=1, **kwargs)
    pooled = scale.sweep_scale("mds", seed=1, jobs=2, **kwargs)
    assert serial == pooled
    parallel.configure(cache_dir=tmp_path / "pc")
    try:
        scale.sweep_scale("mds", seed=1, **kwargs)
        warm = scale.sweep_scale("mds", seed=1, **kwargs)
        stats = parallel.last_stats()
    finally:
        parallel.configure(cache_dir="")
    assert stats.cache_hits == 2 and stats.executed == 0
    assert warm == serial
    assert scale.format_scale_table(warm) == scale.format_scale_table(serial)
