"""Regenerate Figures 13-16 (info server vs. collectors)."""

from benchmarks.conftest import BENCH_WARMUP, BENCH_WINDOW, assert_claims, emit
from repro.core.figures import reproduce_figure

FAST = dict(warmup=BENCH_WARMUP, window=BENCH_WINDOW)
X_COLLECTORS = (10, 50, 90)


def test_figures_13_to_16():
    """Regenerate Figures 13-16 rows (one shared sweep, four projections)."""
    cache: dict = {}
    figures = [
        reproduce_figure(n, seed=1, x_values=X_COLLECTORS, sweep_cache=cache, **FAST)
        for n in (13, 14, 15, 16)
    ]
    for figure in figures:
        emit(f"figure{figure.number:02d}", figure.to_table())
    # Cached GRIS holds ~7 q/s under 1 s at 90 collectors; the rest collapse.
    assert_claims(cache, at_least=3)
