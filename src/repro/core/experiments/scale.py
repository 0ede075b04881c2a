"""Hierarchy scalability — deep aggregate trees the paper only sketched.

§3.6 ends with the suggestion that "a multi-layer architecture in which
each middle-level aggregate information server manages a subset of
information servers" would push the aggregation limits out.
:func:`repro.core.experiments.extensions.hierarchy_comparison` answers
that for one two-level MDS tree; this module sweeps the whole design
space for both systems that *have* an aggregate server (Table 1 — MDS
GIIS and Hawkeye Manager; R-GMA has none).

Every point is :func:`repro.core.experiments.scenarios.run_wired` on
a single :func:`repro.core.topology.catalog.hierarchy_plan` with the
system's ``SCALE_WIRING`` row: ``depth`` aggregate levels with
``fanout`` children per node, i.e. ``fanout**depth`` information
servers total, without a line of per-shape wiring here.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.core.experiments.common import MAX_EXACT_USERS, SCALE_WIRING, sweep_points, wiring
from repro.core.experiments.scenarios import run_wired
from repro.core.parallel import register_codec
from repro.core.params import StudyParams
from repro.core.runner import PointResult
from repro.core.scenario.model import PLAIN
from repro.core.topology.catalog import hierarchy_plan

__all__ = [
    "SYSTEMS",
    "DEPTHS",
    "FANOUTS",
    "USERS",
    "FAST_DEPTHS",
    "FAST_FANOUTS",
    "FAST_USERS",
    "MAX_EXACT_USERS",
    "ScalePoint",
    "run_scale_point",
    "sweep_scale",
    "format_scale_table",
]

SYSTEMS = tuple(SCALE_WIRING)

# The sweep grid: 2..512 information servers per tree.
DEPTHS = (1, 2, 3)
FANOUTS = (2, 4, 8)

USERS = 10

# The fast-tier grid (docs/FIDELITY.md): 10^4-server hierarchies under
# 10^5-10^6 concurrent users — two orders of magnitude past anything
# the exact DES can simulate in reasonable time (``MAX_EXACT_USERS``).
FAST_DEPTHS = (2, 4)
FAST_FANOUTS = (10, 100)
FAST_USERS = (10_000, 100_000, 1_000_000)


@register_codec
@dataclass(frozen=True)
class ScalePoint:
    """One tree shape: the compiled plan's shape plus the measured point."""

    system: str
    depth: int
    fanout: int
    servers: int  # fanout ** depth
    result: PointResult


def run_scale_point(
    system: str,
    depth: int,
    fanout: int,
    seed: int = 1,
    *,
    users: int = USERS,
    params: StudyParams | None = None,
    warmup: float | None = None,
    window: float | None = None,
    fidelity: str | None = None,
) -> ScalePoint:
    """Measure one (depth, fanout) tree under ``users`` concurrent queriers.

    ``fidelity`` selects the simulation tier (docs/FIDELITY.md).  The
    exact per-client DES is capped at ``MAX_EXACT_USERS``; the fast
    tiers take the grid to 10^6 users and 10^4-server trees.
    """
    servers = fanout**depth
    result = run_wired(
        hierarchy_plan(system, depth, fanout, seed), wiring(system, SCALE_WIRING), PLAIN, users,
        seed, label=f"{system}-tree-d{depth}", x=servers, params=params, warmup=warmup,
        window=window, fidelity=fidelity,
    ).result
    return ScalePoint(system, depth, fanout, servers, result)


def sweep_scale(
    system: str,
    seed: int = 1,
    *,
    depths: _t.Sequence[int] = DEPTHS,
    fanouts: _t.Sequence[int] = FANOUTS,
    **kwargs: _t.Any,
) -> list[ScalePoint]:
    """The full depth x fanout grid for one system."""
    grid = [(system, depth, fanout, seed) for depth in depths for fanout in fanouts]
    return sweep_points(run_scale_point, grid, **kwargs)


def format_scale_table(rows: _t.Sequence[ScalePoint]) -> str:
    """Fixed-width table of the grid for benchmark output."""
    header = (
        f"{'system':<10} {'depth':>5} {'fanout':>6} {'servers':>7} "
        f"{'thru(q/s)':>9} {'resp(s)':>8} {'cpu%':>6} {'load1':>6} {'state':>7}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        s = r.result.summary
        state = "CRASH" if r.result.crashed else "ok"
        lines.append(
            f"{r.system:<10} {r.depth:>5} {r.fanout:>6} {r.servers:>7} "
            f"{s.throughput:>9.2f} {s.response_time:>8.3f} "
            f"{s.cpu_load:>6.1f} {s.load1:>6.2f} {state:>7}"
        )
    return "\n".join(lines)
