"""Regenerate Figures 17-20 (aggregate server scalability)."""

from benchmarks.conftest import BENCH_WARMUP, BENCH_WINDOW, assert_claims, emit
from repro.core.experiments import exp4
from repro.core.figures import FIGURES, points_to_series
from repro.core.results import Figure

FAST = dict(warmup=BENCH_WARMUP, window=BENCH_WINDOW)
X_BY_SYSTEM = {
    "mds-giis-all": (10, 100, 200, 300),  # 300 is the crash point
    "mds-giis-part": (10, 100, 500),
    "hawkeye-manager": (10, 200, 1000),
}


def test_figures_17_to_20():
    """Regenerate Figures 17-20 rows (per-series sweep grids, shared runs)."""
    points = {
        system: exp4.sweep(system, x_values=X_BY_SYSTEM[system], seed=1, **FAST)
        for system in exp4.SYSTEMS
    }
    figures = []
    for n in (17, 18, 19, 20):
        spec = FIGURES[n]
        fig = Figure(
            number=n,
            title=spec.title,
            xlabel=spec.xlabel,
            ylabel=spec.title.split(" vs.")[0],
        )
        for system, pts in points.items():
            fig.series.append(points_to_series(system, pts, spec.metric))
        figures.append(fig)
    for figure in figures:
        emit(f"figure{figure.number:02d}", figure.to_table())
    # Query-all crashes at 300 registered GRIS, exactly as observed, and
    # nothing aggregates >100 information servers at useful throughput.
    assert_claims({(exp4.__name__, s, 1): pts for s, pts in points.items()}, at_least=4)
