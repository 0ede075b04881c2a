"""Regenerate Figures 13-16 (info server vs. collectors)."""

from benchmarks.conftest import BENCH_WARMUP, BENCH_WINDOW, emit
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
    fig13, fig14 = figures[0], figures[1]
    # Cached GRIS holds ~7 q/s under 1 s at 90 collectors; the rest collapse.
    assert fig13.series_by_label("mds-gris-cache").y_at(90) > 5
    assert fig14.series_by_label("mds-gris-cache").y_at(90) < 1.0
    for label in ("mds-gris-nocache", "hawkeye-agent", "rgma-ps"):
        assert fig13.series_by_label(label).y_at(90) < 1.0, label
        assert fig14.series_by_label(label).y_at(90) > 8.0, label
