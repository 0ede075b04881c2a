"""The ledger's declared workloads and metrics — names, units, directions.

``BENCHMARK.json`` at the repo root carries the same lists for the
driver; ``test_ledger.py`` keeps the two equal.  Later issues name their
claim as one metric on one workload from these tables.
"""

from __future__ import annotations

import math

FIGURES = ("figures_serial", "figures_pool_cache")
LIVE = ("live_small", "live_bulk", "live_mixed")
WORKLOADS = FIGURES + LIVE

WORKLOAD_WHY = {
    "figures_serial": "regenerate the 16 committed figure tables on the exact DES, jobs=1, no cache: "
    "engine, substrates and query planes do all the work; core.parallel and live.* do nothing",
    "figures_pool_cache": "same grid through the process pool into a fresh point cache, then 300 warm "
    "regenerations that simulate nothing: executor, pickling, cache key/get/put and result codecs",
    "live_small": "unmodelled live plane, three exp1 deployments with small replies, 2 closed-loop "
    "connections: connection setup, framing, admission and the asyncio op interpreter dominate",
    "live_bulk": "same listener path on a 100-GRIS GIIS query-all, 460 KB LDIF per reply: "
    "search, to_ldif and body transfer dominate, per-connection cost is under 5 %",
    "live_mixed": "Hawkeye manager with 200 ads, seeded 50/50 QUERY scans and ADVERTISE writes under "
    "one collector lock: a read gain that costs ingest shows as the two medians moving apart",
}


def bound_for(spread: float) -> float:
    """ISSUE 12's rule: ``max(0.10, 2 x spread)``, rounded up to a hundredth.

    ``spread`` is the widest quartile distance, as a share of the median,
    that the metric showed on any workload in any committed set of this
    commit's own runs (``recorded/set_*.json``, ``recorded/earlier_*.json``).
    The driver allows at most 0.25.
    """
    return min(0.25, max(0.10, math.ceil(round(200 * spread, 6)) / 100))


# (name, unit, better, bound, home workloads).  ``bound`` is the share of
# the parent's median by which the metric may worsen: ``bound_for`` of the
# recorded spreads (``test_ledger.py`` recomputes it), except ``setup_s``,
# which takes the driver's ceiling because set-up is short and the driver
# asks for it to have the largest bound.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25, WORKLOADS),
    ("wall_s", "s", "lower", 0.25, WORKLOADS),
    ("cpu_s", "s", "lower", 0.25, WORKLOADS),
    ("peak_rss_mb", "MB", "lower", 0.10, WORKLOADS),
    ("points_per_s", "points/s", "higher", 0.25, FIGURES),
    ("warm_regen_ms", "ms", "lower", 0.25, ("figures_pool_cache",)),
    ("req_per_s", "req/s", "higher", 0.25, LIVE),
    ("req_p50_ms", "ms", "lower", 0.25, LIVE),
    ("write_p50_ms", "ms", "lower", 0.25, ("live_mixed",)),
)
# The tenth end-to-end quantity.  It is 0 on every good run, so it cannot
# be a bounded metric of BENCHMARK.json (no median to take a share of);
# the driver reads it from the result line's ``failed``/``attempted``.
FAILED_SHARE = ("failed_share", "ratio", "lower")

# The driver wants every end-to-end metric on every workload.  Outside
# its home workloads a metric repeats the workload's own metric of the
# same kind, so the number is real, never constant, and gates nothing new.
ALIASES = {
    "figures_serial": {
        "req_per_s": "points_per_s",
        "warm_regen_ms": "ms_per_point",
        "req_p50_ms": "ms_per_point",
        "write_p50_ms": "ms_per_point",
    },
    "figures_pool_cache": {
        "req_per_s": "points_per_s",
        "req_p50_ms": "warm_regen_ms",
        "write_p50_ms": "warm_regen_ms",
    },
    "live_small": {
        "points_per_s": "req_per_s",
        "warm_regen_ms": "req_p50_ms",
        "write_p50_ms": "req_p50_ms",
    },
    "live_bulk": {
        "points_per_s": "req_per_s",
        "warm_regen_ms": "req_p50_ms",
        "write_p50_ms": "req_p50_ms",
    },
    "live_mixed": {"points_per_s": "req_per_s", "warm_regen_ms": "req_p50_ms"},
}


def _spans(*stems: str) -> tuple[tuple[str, str, str], ...]:
    out = []
    for stem in stems:
        out.append((f"{stem}_ms", "ms", "lower"))
        out.append((f"{stem}_calls", "count", "lower"))
    return tuple(out)


# (name, unit, better).  ``<stem>_ms`` is the busy total of the method's
# spans over the timed region; per call is ``_ms / _calls``.
PER_LAYER = (
    ("core.experiments.point_p50_ms", "ms", "lower"),
    ("core.experiments.point_p90_ms", "ms", "lower"),
    ("core.experiments.point_max_ms", "ms", "lower"),
    ("core.topology.compile_ms", "ms", "lower"),
    ("sim.engine.run_s", "s", "lower"),
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.us_per_event", "us", "lower"),
    ("sim.engine.core_self_s", "s", "lower"),
    ("sim.engine.core_share", "ratio", "lower"),
    ("sim.engine.probe_timeouts_per_s", "1/s", "higher"),
    ("sim.sharing.probe_jobs_per_s", "1/s", "higher"),
    ("sim.rpc.probe_calls_per_s", "1/s", "higher"),
    ("core.desruntime.probe_ops_per_s", "1/s", "higher"),
    *_spans(
        "mds.gris.search",
        "mds.giis.query",
        "hawkeye.agent.query",
        "hawkeye.manager.query",
        "hawkeye.manager.receive_ad",
        "rgma.producer_servlet.answer",
        "rgma.registry.lookup",
        "ldap.dit.search",
        "relational.database.query",
        "classad.collector.query",
        "classad.collector.advertise",
    ),
    ("ldap.ldif.encode_mb_per_s", "MB/s", "higher"),
    ("ldap.ldif.decode_mb_per_s", "MB/s", "higher"),
    ("classad.ads.serialize_mb_per_s", "MB/s", "higher"),
    ("classad.ads.deserialize_mb_per_s", "MB/s", "higher"),
    ("relational.types.encode_mb_per_s", "MB/s", "higher"),
    ("relational.types.decode_mb_per_s", "MB/s", "higher"),
    ("core.parallel.source_stamp_ms", "ms", "lower"),
    ("core.parallel.key_us", "us", "lower"),
    ("core.parallel.get_us", "us", "lower"),
    ("core.parallel.put_us", "us", "lower"),
    ("core.parallel.busy_s", "s", "lower"),
    ("core.parallel.pool_speedup", "x", "higher"),
    ("core.parallel.pool_overhead_s", "s", "lower"),
    ("core.parallel.pools_started", "count", "lower"),
    ("core.parallel.executed", "count", "lower"),
    ("core.parallel.cache_hits", "count", "higher"),
    ("core.figures.render_ms", "ms", "lower"),
    ("live.runtime.compile_ms", "ms", "lower"),
    ("live.runtime.start_ms", "ms", "lower"),
    ("live.runtime.service_ms", "ms", "lower"),
    ("live.runtime.service_self_us", "us", "lower"),
    ("live.runtime.requests", "count", "lower"),
    ("live.runtime.refusals", "count", "lower"),
    ("live.protocols.wire_ms", "ms", "lower"),
    ("live.protocols.reply_mb_per_s", "MB/s", "higher"),
    ("live.mds.req_per_s", "req/s", "higher"),
    ("live.mds.req_p50_ms", "ms", "lower"),
    ("live.hawkeye.req_per_s", "req/s", "higher"),
    ("live.hawkeye.req_p50_ms", "ms", "lower"),
    ("live.rgma.req_per_s", "req/s", "higher"),
    ("live.rgma.req_p50_ms", "ms", "lower"),
    ("live.loadgen.req_p90_ms", "ms", "lower"),
    ("live.loadgen.req_p99_ms", "ms", "lower"),
    ("live.loadgen.loop_lag_p90_ms", "ms", "lower"),
    ("sim.cohort.probe_point_s", "s", "lower"),
    ("core.fidelity.probe_point_ms", "ms", "lower"),
    ("ledger.span_coverage_share", "ratio", "higher"),
    ("ledger.trace_overhead_share", "ratio", "lower"),
    ("ledger.calibration_spin_s", "s", "lower"),
)

def benchmark_json(command: list[str], paths: list[str], run_seconds: int) -> dict:
    """The document the driver reads, built from the tables above."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": w, "why": WORKLOAD_WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _home in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
