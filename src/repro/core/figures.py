"""Registry of Figures 5-20 and the ``repro-figures`` CLI.

Every figure of the paper's evaluation maps to one experiment set and
one of the four metrics.  :func:`reproduce_figure` runs the sweeps and
returns a populated :class:`~repro.core.results.Figure`;
``python -m repro.core.figures 5`` (or the ``repro-figures`` script)
prints the table the paper plotted.
"""

from __future__ import annotations

import argparse
import json
import operator
import pathlib
import sys
import typing as _t
from dataclasses import dataclass
from time import perf_counter

from repro.core import parallel
from repro.core.cliversion import add_version_argument
from repro.core.experiments import exp4
from repro.core.results import Figure, Series
from repro.core.runner import PointResult
from repro.core.study import METRICS, SETS

__all__ = ["FIGURES", "FigureSpec", "quick_x_values", "reproduce_figure", "main"]


@dataclass(frozen=True)
class FigureSpec:
    """What one paper figure plots."""

    number: int
    title: str
    experiment: _t.Any  # exp1..exp4 module
    metric: str
    xlabel: str


# Each experiment set plots the four metrics as four consecutive figures.
FIGURES: dict[int, FigureSpec] = {
    s.first_figure + i: FigureSpec(
        s.first_figure + i, f"{s.server} {label} vs. {s.axis}", s.experiment, metric, s.xlabel
    )
    for s in SETS
    for i, (metric, label) in enumerate(METRICS.items())
}


# CI half-widths exist for the two client-side metrics the adaptive
# replication controller tracks; host-side load metrics report means only.
_CI_EXTRACT = {
    "throughput": lambda r: r.ci.throughput_ci,
    "response_time": lambda r: r.ci.response_time_ci,
}


def points_to_series(label: str, points: _t.Sequence[PointResult], metric: str) -> Series:
    """Convert sweep results into one figure series (crashes become DNF).

    Adaptive-mode points (``point.ci`` set) annotate the series with
    their CI half-widths; exact-mode series carry none, keeping the
    committed tables byte-identical.
    """
    extract = operator.attrgetter(metric)
    ci_extract = _CI_EXTRACT.get(metric)
    series = Series(label=label)
    for point in points:
        if point.crashed:
            series.mark_dnf(point.x)
        else:
            hw = ci_extract(point) if ci_extract is not None and point.ci else None
            series.add(point.x, extract(point), ci=hw)
    return series


def reproduce_figure(
    number: int,
    seed: int = 1,
    *,
    systems: _t.Sequence[str] | None = None,
    x_values: _t.Sequence[int] | None = None,
    sweep_cache: dict | None = None,
    **kwargs: _t.Any,
) -> Figure:
    """Run the sweeps behind one paper figure and return it populated.

    ``sweep_cache`` lets callers share sweep results across the four
    figures of an experiment set (they plot the same runs four ways —
    pass the same dict to each call).
    """
    spec = FIGURES[number]
    exp = spec.experiment
    figure = Figure(
        number=number,
        title=spec.title,
        xlabel=spec.xlabel,
        ylabel=METRICS[spec.metric],
    )
    for system in systems or exp.SYSTEMS:
        cache_key = (exp.__name__, system, seed)
        if sweep_cache is not None and cache_key in sweep_cache:
            points = sweep_cache[cache_key]
        else:
            if x_values is not None:
                points = exp.sweep(system, x_values=x_values, seed=seed, **kwargs)
            else:
                points = exp.sweep(system, seed=seed, **kwargs)
            if sweep_cache is not None:
                sweep_cache[cache_key] = points
        figure.series.append(points_to_series(system, points, spec.metric))
    return figure


def quick_x_values(x_values: _t.Sequence[int]) -> tuple[int, ...]:
    """--quick downsampling: every len//3-th x value plus always the last.

    The endpoint is where the interesting saturation behaviour lives
    (600 users, 90 collectors), so it must survive the coarsening.
    """
    xs = tuple(x_values[:: max(1, len(x_values) // 3)])
    if xs[-1] != x_values[-1]:
        xs += (x_values[-1],)
    return xs


def main(argv: _t.Sequence[str] | None = None) -> int:
    """CLI: regenerate paper figures as text tables (and optional CSV)."""
    parser = argparse.ArgumentParser(
        prog="repro-figures",
        description="Regenerate figures 5-20 of Zhang/Freschl/Schopf (HPDC 2003).",
    )
    add_version_argument(parser)
    parser.add_argument(
        "figures",
        nargs="*",
        type=int,
        default=[],
        help="figure numbers (5-20); default: all",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--csv", action="store_true", help="emit CSV instead of tables")
    parser.add_argument("--chart", action="store_true", help="also draw ASCII charts")
    parser.add_argument(
        "--quick", action="store_true", help="coarse sweeps (4 x-values) for a fast look"
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="adaptive measurement: detect steady state per run, replicate "
        "points until CIs converge, annotate tables with ± half-widths",
    )
    parser.add_argument(
        "--fidelity",
        choices=("exact", "cohort", "meanfield"),
        default=None,
        help="simulation tier (docs/FIDELITY.md); the default exact tier "
        "reproduces the committed tables byte-identically, the fast tiers "
        "approximate figures 5-16 (figures 17-20 need the exact DES)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="run sweep points on N worker processes (default: $REPRO_JOBS or serial); "
        "tables are byte-identical to the serial output",
    )
    parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="point-cache directory (default with --cache: results/pointcache); "
        "repeated runs skip already-computed points",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="enable the point cache at the default location (results/pointcache)",
    )
    parser.add_argument(
        "--stats-json",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="write sweep-execution stats (jobs, cache hits, wall speedup) as JSON",
    )
    args = parser.parse_args(argv)
    wanted = args.figures or sorted(FIGURES)
    unknown = [n for n in wanted if n not in FIGURES]
    if unknown:
        parser.error(f"unknown figure numbers: {unknown} (valid: 5-20)")
    if args.fidelity not in (None, "exact"):
        if args.adaptive:
            parser.error("--adaptive needs the exact tier (drop --fidelity)")
        exp4_wanted = [n for n in wanted if FIGURES[n].experiment is exp4]
        if exp4_wanted:
            if args.figures:
                parser.error(
                    f"figures {exp4_wanted} model aggregation-interval effects "
                    "the fast tiers cannot capture; run them on the exact tier"
                )
            # Default "all figures" run: quietly keep 17-20 on what works.
            wanted = [n for n in wanted if n not in exp4_wanted]
    cache_dir = args.cache_dir
    if cache_dir is None and args.cache:
        cache_dir = pathlib.Path("results/pointcache")
    parallel.configure(jobs=args.jobs, cache_dir=cache_dir)

    before = parallel.counters_snapshot()
    start = perf_counter()
    # Group by experiment set so sweeps are shared.
    cache: dict = {}
    for number in wanted:
        kwargs: dict = {}
        if args.adaptive:
            kwargs["adaptive"] = True
        # "exact" is the default; omitting it keeps the point-cache keys
        # (and therefore warm caches) identical to pre-fidelity runs.
        if args.fidelity not in (None, "exact"):
            kwargs["fidelity"] = args.fidelity
        if args.quick:
            exp = FIGURES[number].experiment
            if exp is exp4:
                kwargs["x_values"] = None  # per-system defaults, already short
            else:
                kwargs["x_values"] = quick_x_values(exp.X_VALUES)
        figure = reproduce_figure(number, args.seed, sweep_cache=cache, **kwargs)
        if args.csv:
            sys.stdout.write(figure.to_csv())
        else:
            print(figure.to_table())
            if args.chart:
                print(figure.to_ascii_chart())
            print()

    # Execution stats go to stderr/JSON so stdout stays byte-identical
    # across serial, parallel and cached runs.
    wall = perf_counter() - start
    after = parallel.counters_snapshot()
    stats = {
        "jobs": parallel.default_jobs(),
        "points": int(after["points"] - before["points"]),
        "executed": int(after["executed"] - before["executed"]),
        "cache_hits": int(after["cache_hits"] - before["cache_hits"]),
        "busy_seconds": round(after["busy_seconds"] - before["busy_seconds"], 6),
        "wall_seconds": round(wall, 6),
        "wall_speedup": round((after["busy_seconds"] - before["busy_seconds"]) / wall, 4)
        if wall > 0
        else 0.0,
    }
    print(
        f"[sweep] jobs={stats['jobs']} points={stats['points']} "
        f"executed={stats['executed']} cache_hits={stats['cache_hits']} "
        f"wall={stats['wall_seconds']:.1f}s speedup={stats['wall_speedup']:.2f}x",
        file=sys.stderr,
    )
    if args.stats_json is not None:
        args.stats_json.parent.mkdir(parents=True, exist_ok=True)
        args.stats_json.write_text(json.dumps(stats, indent=2) + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
