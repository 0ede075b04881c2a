"""Regenerate Figures 5-8 (information server vs. users).

One shared sweep, four projections; prints the rows and checks the
headline shapes.
"""

from benchmarks.conftest import BENCH_WARMUP, BENCH_WINDOW, BENCH_X_USERS, emit
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
    # Headline checks: cache decisive; R-GMA response grows with users.
    fig5 = figures[0]
    cached = fig5.series_by_label("mds-gris-cache")
    uncached = fig5.series_by_label("mds-gris-nocache")
    assert cached.y_at(600) > 20 * uncached.y_at(600)
    fig6 = figures[1]
    rgma = fig6.series_by_label("rgma-ps-lucky")
    assert rgma.y_at(600) > rgma.y_at(100)
