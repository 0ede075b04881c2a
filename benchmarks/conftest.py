"""Shared helpers for the table regenerators.

Each ``bench_*`` module regenerates one family of committed tables and
*prints the same rows the paper plots* (writing them to
``benchmarks/results/`` as well, since pytest captures stdout), then
asserts the headline shape of each.  Speed is measured by the ledger
(``benchmarks/ledger/``, see docs/BENCHMARKS.md), not here.
"""

from __future__ import annotations

import pathlib
import sys

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
