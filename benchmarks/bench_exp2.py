"""Regenerate Figures 9-12 (directory server vs. users)."""

from benchmarks.conftest import BENCH_WARMUP, BENCH_WINDOW, BENCH_X_USERS, emit
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
    # Headline checks: GIIS/Manager scale well; Registry is slower and hotter.
    fig9, fig10, fig11, fig12 = figures
    assert fig9.series_by_label("mds-giis").y_at(600) > 80
    assert fig9.series_by_label("hawkeye-manager").y_at(600) > 80
    assert fig9.series_by_label("rgma-registry-lucky").y_at(600) < 40
    assert fig10.series_by_label("mds-giis").y_at(600) < 2.0
    assert fig11.series_by_label("rgma-registry-lucky").y_at(600) > 2.0
    # "the load of GIIS is nearly twice as bad as Hawkeye Manager"
    assert (
        fig12.series_by_label("mds-giis").y_at(600)
        > 1.7 * fig12.series_by_label("hawkeye-manager").y_at(600)
    )
