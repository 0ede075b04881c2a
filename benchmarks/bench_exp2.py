"""Regenerate Figures 9-12 (directory server vs. users)."""

from benchmarks.conftest import BENCH_WARMUP, BENCH_WINDOW, BENCH_X_USERS, assert_claims, emit
from repro.core.figures import reproduce_figure

FAST = dict(warmup=BENCH_WARMUP, window=BENCH_WINDOW)


def test_figures_9_to_12():
    """Regenerate Figures 9-12 rows (one shared sweep, four projections)."""
    cache: dict = {}
    figures = [
        reproduce_figure(n, seed=1, x_values=BENCH_X_USERS, sweep_cache=cache, **FAST)
        for n in (9, 10, 11, 12)
    ]
    for figure in figures:
        emit(f"figure{figure.number:02d}", figure.to_table())
    # GIIS/Manager scale well; the Registry is slower and hotter.
    assert_claims(cache, at_least=6)
