"""Hierarchy scalability sweeps (deployment-plane grids).

Each grid point is an N-level aggregate tree compiled from one
``hierarchy_plan`` — no per-shape wiring.  The table lands in
``benchmarks/results/scale_<system>.txt``.

The cohort sweep at the bottom pushes the same grid to populations the
exact DES cannot touch — 10^4-10^5 users (docs/FIDELITY.md); the
10^6-user meanfield point and its >= 50x advantage over the projected
exact cost are checked in ``tests/core/test_fidelity.py``.
"""

import pytest

from benchmarks.conftest import emit
from repro.core.experiments import exp4, scale

# One shape per depth keeps the smoke grid under a minute.
SMOKE_GRID = ((1, 8), (2, 4), (3, 2))
FAST = dict(warmup=5.0, window=20.0)

# The fast tiers are cheap enough to run the paper-calibrated window.
FAST_TIER_WINDOW = dict(warmup=10.0, window=30.0)


@pytest.mark.parametrize("system", scale.SYSTEMS)
def test_scale_grid(system):
    """A depth-1/2/3 tree sweep per system."""
    rows = [
        scale.run_scale_point(system, depth, fanout, seed=1, **FAST)
        for depth, fanout in SMOKE_GRID
    ]
    emit(f"scale_{system}", scale.format_scale_table(rows))
    assert all(not r.result.crashed for r in rows)
    # Eight info servers behind one aggregate still answer queries.
    assert all(r.result.throughput > 0 for r in rows)


def test_deep_tree_beats_flat_mds():
    """§3.6's fix, quantified: 64 GRIS behind a depth-2 tree vs. one GIIS."""
    tree = scale.run_scale_point("mds", 2, 8, seed=1, **FAST)
    flat = exp4.run_point("mds-giis-all", 64, seed=1, **FAST)
    assert not tree.result.crashed
    # The tree parallelizes per-GRIS work across mid-level nodes.
    assert tree.result.response_time < flat.response_time


def test_cohort_large_population_sweep():
    """Cohort tier: stochastic per-epoch stepping at 10^4-10^5 users."""
    shapes = (("mds", 10_000), ("hawkeye", 100_000))
    rows = [
        scale.run_scale_point(
            system, 2, 10, seed=1, users=users,
            fidelity="cohort", **FAST_TIER_WINDOW,
        )
        for system, users in shapes
    ]
    emit("scale_fast_tiers", scale.format_scale_table(rows))
    assert all(r.result.fidelity == "cohort" for r in rows)
    assert all(r.result.population == users for r, (_, users) in zip(rows, shapes))
    # Batched stepping still counts the equivalent per-request events.
    assert all(r.result.sim_events > 0 for r in rows)
    assert all(r.result.throughput > 0 for r in rows)
