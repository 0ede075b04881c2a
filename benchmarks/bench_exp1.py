"""Regenerate Figures 5-8 (information server vs. users).

One shared sweep, four projections; prints the rows and checks the
claims the sweep reads.
"""

from benchmarks.conftest import BENCH_WARMUP, BENCH_WINDOW, BENCH_X_USERS, assert_claims, emit
from repro.core.figures import reproduce_figure

FAST = dict(warmup=BENCH_WARMUP, window=BENCH_WINDOW)


def test_figures_5_to_8():
    """Regenerate Figures 5-8 rows (one shared sweep, four projections)."""
    cache: dict = {}
    figures = [
        reproduce_figure(n, seed=1, x_values=BENCH_X_USERS, sweep_cache=cache, **FAST)
        for n in (5, 6, 7, 8)
    ]
    for figure in figures:
        emit(f"figure{figure.number:02d}", figure.to_table())
    # Caching is decisive, R-GMA response grows with users, and four more.
    assert_claims(cache, at_least=6)
