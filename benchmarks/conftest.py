"""Shared helpers for the table regenerators.

Each ``bench_*`` module regenerates one family of committed tables and
*prints the same rows the paper plots* (writing them to
``benchmarks/results/`` as well, since pytest captures stdout), then
checks the paper's claims (:data:`repro.core.study.CLAIMS`) that its own
sweeps can answer.  Speed is measured by the ledger
(``benchmarks/ledger/``, see docs/BENCHMARKS.md), not here.
"""

from __future__ import annotations

import pathlib
import sys
import typing as _t

from repro.core.report import CLAIMS, evaluate
from repro.core.runner import PointResult

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# Coarser sweeps than the paper's tick marks keep `pytest benchmarks/`
# in minutes; the repro-figures CLI runs the full grids.
BENCH_X_USERS = (10, 100, 300, 600)
BENCH_WARMUP, BENCH_WINDOW = 10.0, 30.0


def emit(name: str, text: str) -> pathlib.Path:
    """Write a figure table to benchmarks/results/ and echo it live."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    # Bypass pytest's capture so the rows appear in the run log.
    sys.__stdout__.write(f"\n{text}\n[written to {path}]\n")
    sys.__stdout__.flush()
    return path


def assert_claims(sweeps: _t.Mapping[tuple, _t.Sequence[PointResult]], at_least: int) -> None:
    """Every claim row these sweeps read in full must hold.

    ``sweeps`` maps ``(experiment module name, system, seed)`` — the keys
    of ``reproduce_figure``'s ``sweep_cache`` — to a series' points.
    ``at_least`` rows must be answerable, so a grid that drifts away from
    the claims' x values cannot pass by checking nothing.
    """
    points = {(exp, system, p.x): p for (exp, system, _), pts in sweeps.items() for p in pts}
    rows = [c for c in CLAIMS if all((e.__name__, s, x) in points for e, s, x in c.points())]
    assert len(rows) >= at_least, [c.id for c in rows]
    failed = [o for o in (evaluate(c, points) for c in rows) if not o.passed]
    assert not failed, "\n".join(f"{o.claim.id}: {o.detail}" for o in failed)
