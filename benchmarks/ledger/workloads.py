"""The five ledger workloads, run inside one fresh child process each.

Every workload is a closed loop over a fixed number of operations: the
sizes below were fitted on a 2-core box so that one run measures for
about ``RUN_SECONDS`` at the commit that added the ledger, and
``--seconds`` scales the operation counts, never a deadline.  Layers are
measured from outside, through their public functions; nothing under
``src/`` knows the ledger exists.

The grid constants and the expected replies are written out here (not
imported from ``bench_exp*`` or ``conftest.py``) and the 16 golden tables
are copied under ``golden/``, so edits elsewhere cannot shift the
benchmark.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import os
import pathlib
import platform
import random
import resource
import shutil
import statistics
import tempfile
from time import perf_counter

import metrics as M
import probes
from tracing import POINT_SPAN, Tracer

LEDGER_DIR = pathlib.Path(__file__).resolve().parent
GOLDEN_DIR = LEDGER_DIR / "golden"
WORK_DIR = LEDGER_DIR / ".work"  # scratch inside the checkout; gitignored

RUN_SECONDS = 12  # BENCHMARK.json run_seconds: what the sizes below were fitted to


# -- sizes --------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Grid:
    """The sweep grid behind the 16 committed tables (the ``bench_exp*`` grid)."""

    users: tuple[int, ...]
    collectors: tuple[int, ...]
    exp4_x: dict[str, tuple[int, ...]]
    warmup: float
    window: float

    @property
    def points(self) -> int:
        # exp1 has 5 series and exp2 4; one series of each (the UC consumer
        # variants) stops at 100 users.  exp3 has 4 series.  The sweep
        # counters must agree with this on every run.
        capped = sum(1 for users in self.users if users <= 100)
        return (
            7 * len(self.users)
            + 2 * capped
            + 4 * len(self.collectors)
            + sum(map(len, self.exp4_x.values()))
        )


FULL_GRID = Grid(
    users=(10, 100, 300, 600),
    collectors=(10, 50, 90),
    exp4_x={
        "mds-giis-all": (10, 100, 200, 300),  # 300 is the crash point
        "mds-giis-part": (10, 100, 500),
        "hawkeye-manager": (10, 200, 1000),
    },
    warmup=10.0,
    window=30.0,
)
SMOKE_GRID = Grid(
    users=(10,),
    collectors=(10,),
    exp4_x={"mds-giis-all": (10,), "mds-giis-part": (10,), "hawkeye-manager": (10,)},
    warmup=2.0,
    window=5.0,
)
SMOKE_DIVISOR = 20

# Operation counts at RUN_SECONDS on the builder's 2-core box (frozen).
BASE_SIZES = {
    "figures_serial": {"regenerations": 2},
    "figures_pool_cache": {"regenerations": 2, "warm_regenerations": 300},
    "live_small": {"connections": 2, "requests_per_connection": 4000, "warmup_requests": 300},
    "live_bulk": {"connections": 2, "requests_per_connection": 640, "warmup_requests": 50},
    "live_mixed": {
        "connections": 2,
        "requests_per_connection": 5400,
        "warmup_requests": 300,
        "ad_pool": 256,
    },
}
SCALED = ("regenerations", "requests_per_connection")  # grow with --seconds
SMOKED = ("warm_regenerations", "requests_per_connection", "warmup_requests")  # / 20


def sizes_for(workload: str, seconds: int, smoke: bool) -> dict:
    """Fixed operation counts of one run: a function of the arguments only."""
    sizes = dict(BASE_SIZES[workload])
    for key in SCALED:
        if key in sizes:
            # Never under two: regenerations are checked against each other, and a
            # traced run needs an untraced half and a traced half.
            sizes[key] = max(2, round(sizes[key] * seconds / RUN_SECONDS))
    if smoke:
        for key in SMOKED:
            if key in sizes:
                sizes[key] = max(2, sizes[key] // SMOKE_DIVISOR)
    if workload in M.FIGURES:
        sizes["grid"] = "smoke" if smoke else "full"
        sizes["points_per_regeneration"] = (SMOKE_GRID if smoke else FULL_GRID).points
    if workload == "figures_pool_cache":
        sizes["jobs"] = min(os.cpu_count() or 1, 4)
    return sizes


# -- bookkeeping ---------------------------------------------------------------


class Checks:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


def cpu_seconds() -> float:
    """User + system CPU of this process and the children it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


class _Span:
    """``with _Span(tracer, name):`` — a no-op when tracing is off."""

    def __init__(self, tracer: Tracer | None, name: str) -> None:
        self.tracer = tracer
        self.name_ix = tracer.name_id(name) if tracer is not None else -1

    def __enter__(self) -> None:
        if self.tracer is not None:
            self.sid, self.token = self.tracer.begin(self.name_ix)

    def __exit__(self, *exc) -> None:
        if self.tracer is not None:
            self.tracer.finish(self.sid, self.token)


def _span_metrics(totals: dict, out: dict) -> None:
    """``<stem>_ms`` / ``<stem>_calls`` for every wrapped substrate and plane."""
    for name, unit, _better in M.PER_LAYER:
        if unit == "count" and name.endswith("_calls"):
            stem = name[: -len("_calls")]
            row = totals.get(stem, {"calls": 0, "busy_s": 0.0})
            out[f"{stem}_ms"] = row["busy_s"] * 1e3
            out[name] = row["calls"]


# -- figures_serial / figures_pool_cache ----------------------------------------

def regenerate(seed: int, grid: Grid, tracer: Tracer | None):
    """One regeneration of the 16 tables: ``(tables, points)`` by figure / series."""
    from repro.core.experiments import exp4
    from repro.core.figures import FIGURES, points_to_series, reproduce_figure
    from repro.core.results import Figure

    fast = {"warmup": grid.warmup, "window": grid.window}
    tables: dict[int, str] = {}
    points: dict[tuple, list] = {}
    reproduce = _Span(tracer, "core.figures.reproduce")
    render = _Span(tracer, "core.figures.render")

    for numbers, xs in (
        ((5, 6, 7, 8), grid.users),
        ((9, 10, 11, 12), grid.users),
        ((13, 14, 15, 16), grid.collectors),
    ):
        shared: dict = {}  # the four figures of a set plot the same sweeps
        for system in FIGURES[numbers[0]].experiment.SYSTEMS:
            with reproduce:
                reproduce_figure(
                    numbers[0], seed, systems=[system], x_values=xs, sweep_cache=shared, **fast
                )
        for number in numbers:
            with render:
                tables[number] = reproduce_figure(
                    number, seed, x_values=xs, sweep_cache=shared, **fast
                ).to_table()
        points.update(shared)
    for system in exp4.SYSTEMS:
        # exp4.sweep carries its own span when traced (tracing.SWEEP_SPAN).
        points[("exp4", system, seed)] = exp4.sweep(
            system, x_values=grid.exp4_x[system], seed=seed, **fast
        )
    for number in (17, 18, 19, 20):
        spec = FIGURES[number]
        with render:
            figure = Figure(
                number=number,
                title=spec.title,
                xlabel=spec.xlabel,
                ylabel=spec.title.split(" vs.")[0],
            )
            for system in exp4.SYSTEMS:
                figure.series.append(
                    points_to_series(system, points[("exp4", system, seed)], spec.metric)
                )
            tables[number] = figure.to_table()
    return tables, points


def regenerate_exp3(seed: int, grid: Grid):
    """The cheapest experiment set again, serial and uncached: the peer copy."""
    from repro.core.figures import reproduce_figure

    shared: dict = {}
    tables = {
        n: reproduce_figure(
            n,
            seed=seed,
            x_values=grid.collectors,
            sweep_cache=shared,
            warmup=grid.warmup,
            window=grid.window,
        ).to_table()
        for n in (13, 14, 15, 16)
    }
    return tables, shared


def check_tables(tables: dict[int, str], golden_dir: pathlib.Path, checks: Checks, what: str) -> None:
    """Each table must equal its golden file byte for byte."""
    for number in sorted(tables):
        golden = (golden_dir / f"figure{number:02d}.txt").read_text()
        checks.check(tables[number] + "\n" == golden, f"{what}: figure {number} differs from golden")


def check_peers(ours, peer, checks: Checks, what: str) -> None:
    """Tables and points of ``peer`` must equal ours (peer may be a subset)."""
    tables, points = ours
    peer_tables, peer_points = peer
    for number in sorted(peer_tables):
        checks.check(tables[number] == peer_tables[number], f"{what}: figure {number} differs")
    for key in sorted(peer_points):
        checks.check(repr(points[key]) == repr(peer_points[key]), f"{what}: points {key} differ")


def run_figures(workload: str, args, tracer: Tracer | None, work_dir: pathlib.Path) -> dict:
    # Everything a regeneration imports is imported here, in set-up.
    from repro.core import figures, parallel  # noqa: F401
    from repro.core.topology import compile_plan  # noqa: F401  (registers the adapters)

    sizes = sizes_for(workload, args.seconds, args.smoke)
    grid = SMOKE_GRID if args.smoke else FULL_GRID
    pooled = workload == "figures_pool_cache"
    reps = sizes["regenerations"]
    # A traced run times its first half untraced, for the overhead figure.
    traced_from = reps // 2 if tracer is not None else reps
    checks = Checks()
    layer: dict[str, float] = {}

    # -- set-up: imports above, goldens, first source stamp, cache dirs ------
    golden_events = int((GOLDEN_DIR / "sim_events.txt").read_text())
    start = perf_counter()
    parallel.source_stamp()
    layer["core.parallel.source_stamp_ms"] = (perf_counter() - start) * 1e3
    cache_dirs = [
        pathlib.Path(tempfile.mkdtemp(prefix="pointcache-", dir=work_dir))
        for _ in range(reps if pooled else 0)
    ]
    parallel.configure(jobs=1, cache_dir="")
    setup_s = perf_counter() - args.t0
    if args.phase == "setup":
        return {"setup_s": setup_s}

    # -- timed region ---------------------------------------------------------
    cold: list[tuple] = []  # (tables, points) of each simulated regeneration
    cold_walls: list[float] = []
    cold_executed: list[float] = []
    warm_walls: list[list[float]] = []  # per regeneration
    warm_tables: list[dict[int, str]] = []
    warm_counts: list[tuple[float, float]] = []  # (executed, cache_hits) per warm regeneration
    region_cpu0, region_start = cpu_seconds(), perf_counter()
    plain_cpu1 = plain_end = traced_start = None  # the untraced part's end, the traced part's start
    for rep in range(reps):
        traced = rep >= traced_from
        if rep == traced_from:
            plain_cpu1, plain_end = cpu_seconds(), perf_counter()
            tracer.install()
            traced_start = perf_counter()
        if pooled:
            parallel.configure(jobs=sizes["jobs"], cache_dir=cache_dirs[rep])
        before = parallel.counters_snapshot()
        start = perf_counter()
        cold.append(regenerate(args.seed, grid, tracer if traced else None))
        cold_walls.append(perf_counter() - start)
        cold_executed.append(parallel.counters_snapshot()["executed"] - before["executed"])
        warm_walls.append([])
        for _ in range(sizes["warm_regenerations"] if pooled else 0):
            before = parallel.counters_snapshot()
            start = perf_counter()
            tables, _points = regenerate(args.seed, grid, tracer if traced else None)
            warm_walls[-1].append(perf_counter() - start)
            after = parallel.counters_snapshot()
            warm_tables.append(tables)
            warm_counts.append(
                (after["executed"] - before["executed"], after["cache_hits"] - before["cache_hits"])
            )
    region_cpu1, region_end = cpu_seconds(), perf_counter()
    if tracer is None:
        plain_cpu1, plain_end = region_cpu1, region_end
    else:
        tracer.remove()
        tracer.collect_spooled()

    # -- checks (untimed) -----------------------------------------------------
    executed = sum(cold_executed)
    checks.check(
        executed == grid.points * reps, f"simulated {executed:g} points, expected {grid.points * reps}"
    )
    events = [sum(p.sim_events for series in points.values() for p in series) for _t, points in cold]
    if args.seed == 1 and not args.smoke:
        for rep, (tables, _points) in enumerate(cold):
            check_tables(tables, GOLDEN_DIR, checks, f"regeneration {rep}")
            checks.check(
                events[rep] == golden_events,
                f"regeneration {rep}: sim.engine.events {events[rep]} != golden {golden_events}",
            )
    for rep in range(1, reps):
        check_peers(cold[0], cold[rep], checks, f"regeneration {rep} vs 0")
    for i, (tables, (ran, hits)) in enumerate(zip(warm_tables, warm_counts)):
        checks.check(
            ran == 0 and hits == grid.points,
            f"warm regeneration {i}: executed={ran:g} cache_hits={hits:g}, "
            f"expected 0 and {grid.points}",
        )
        checks.check(
            tables == cold[i // sizes["warm_regenerations"]][0],
            f"warm regeneration {i} differs from its cold tables",
        )
    parallel.configure(jobs=1, cache_dir="")
    check_peers(
        cold[0],
        regenerate_exp3(args.seed, grid),
        checks,
        "pooled vs serial (exp3)" if pooled else "second serial run (exp3)",
    )

    # -- end to end: plain totals of the untraced part of the region ------------
    plain_wall = plain_end - region_start
    plain_cold = sum(cold_walls[:traced_from])
    plain_points = sum(cold_executed[:traced_from])
    warm = [w for walls in warm_walls[:traced_from] for w in walls]
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": plain_wall,
        "cpu_s": plain_cpu1 - region_cpu0,
        "peak_rss_mb": peak_rss_mb(),
        "points_per_s": plain_points / plain_cold,
        "ms_per_point": plain_cold / max(plain_points, 1) * 1e3,
    }
    samples = {"points_per_s": int(plain_points)}
    if pooled:
        end_to_end["warm_regen_ms"] = statistics.median(warm) * 1e3
        samples["warm_regen_ms"] = len(warm)
    raw = {"cold_walls_s": cold_walls, "sim_events": events}

    if tracer is not None:
        traced_wall = region_end - traced_start
        traced_cold = sum(cold_walls[traced_from:])
        # Both halves do the same work per regeneration.
        layer["ledger.trace_overhead_share"] = (
            (traced_wall / (reps - traced_from)) / (plain_wall / traced_from) - 1.0
        )
        layer.update(
            _figures_layers(
                tracer,
                wall_s=traced_wall,
                cold_wall=traced_cold,
                events=sum(events[traced_from:]),
                jobs=sizes.get("jobs", 1),
                span=(traced_start, region_end),
            )
        )
        if not pooled:
            layer["sim.engine.probe_timeouts_per_s"] = probes.engine_timeouts_per_s()
            layer["sim.sharing.probe_jobs_per_s"] = probes.sharing_jobs_per_s()
            layer["sim.rpc.probe_calls_per_s"] = probes.rpc_calls_per_s()
            layer["core.desruntime.probe_ops_per_s"] = probes.desruntime_ops_per_s()
            cohort_s, meanfield_ms = probes.fast_tier_points()
            layer["sim.cohort.probe_point_s"] = cohort_s
            layer["core.fidelity.probe_point_ms"] = meanfield_ms
    return {
        "sizes": sizes,
        "checks": checks,
        "end_to_end": end_to_end,
        "per_layer": layer,
        "samples": samples,
        "raw": raw,
        "origin": traced_start if tracer is not None else region_start,
    }


def _figures_layers(tracer, *, wall_s, cold_wall, events, jobs, span) -> dict:
    """Per-layer numbers of the traced regenerations (``wall_s`` is their raw wall)."""
    totals = tracer.totals()
    out: dict[str, float] = {}
    _span_metrics(totals, out)
    point_ms = [d * 1e3 for d in tracer.durations(POINT_SPAN)]
    out["core.experiments.point_p50_ms"] = percentile(point_ms, 0.50)
    out["core.experiments.point_p90_ms"] = percentile(point_ms, 0.90)
    out["core.experiments.point_max_ms"] = max(point_ms, default=0.0)
    out["core.topology.compile_ms"] = totals["core.topology.compile"]["busy_s"] * 1e3
    run = totals["sim.engine.run"]
    out["sim.engine.run_s"] = run["busy_s"]
    out["sim.engine.events"] = events
    out["sim.engine.us_per_event"] = run["busy_s"] / max(events, 1) * 1e6
    out["sim.engine.core_self_s"] = run["self_s"]
    out["sim.engine.core_share"] = run["self_s"] / wall_s
    for op in ("key", "get", "put"):
        row = totals[f"core.parallel.{op}"]
        out[f"core.parallel.{op}_us"] = row["busy_s"] / max(row["calls"], 1) * 1e6
    sweeps = tracer.sweep_stats
    busy = sum(s["busy_s"] for s in sweeps)
    out["core.parallel.busy_s"] = busy
    out["core.parallel.pool_speedup"] = busy / cold_wall
    out["core.parallel.pool_overhead_s"] = cold_wall - busy / jobs
    out["core.parallel.pools_started"] = sum(1 for s in sweeps if s["jobs"] > 1 and s["executed"])
    out["core.parallel.executed"] = sum(s["executed"] for s in sweeps)
    out["core.parallel.cache_hits"] = sum(s["cache_hits"] for s in sweeps)
    out["core.figures.render_ms"] = totals["core.figures.render"]["busy_s"] * 1e3
    out["ledger.span_coverage_share"] = tracer.coverage([span])
    return out


# -- live_small / live_bulk / live_mixed -----------------------------------------

# Floats of the seven service bundles that are costs, holds or latencies
# (set to 0) versus fractions, exponents and intervals (kept).  Every float
# field must be in one of the two tables, so a new field fails loudly.
ZEROED_FLOATS = {
    "gris": ("cpu_per_query", "cpu_per_entry", "provider_hold"),
    "giis": ("cpu_per_query", "aggregate_cpu_coeff"),
    "agent": ("fetch_quad_coeff", "convoy_coeff", "cpu_per_query"),
    "producer_servlet": ("db_hold_linear", "db_hold_quad", "convoy_coeff", "cpu_per_query"),
    "consumer_servlet": ("cpu_per_query", "mediation_hold"),
    "registry": ("cpu_per_query",),
    "manager": ("cpu_per_query", "scan_cpu_per_ad", "ad_ingest_cpu", "ad_ingest_hold"),
}
KEPT_FLOATS = {
    "gris": ("provider_cpu_fraction",),
    "giis": ("aggregate_cpu_exp", "part_fraction"),
    "agent": ("fetch_cpu_fraction",),
    "producer_servlet": ("db_cpu_fraction",),
    "consumer_servlet": (),
    "registry": (),
    "manager": ("advertise_interval",),
}


def unmodelled_params():
    """``default_params()`` with every modelled cost, hold and latency at 0.

    Limits, thread pools, sizes, fractions and intervals are unchanged, so
    admission and the op streams are the study's; only the sleeps are gone
    and what remains is the software's own ceiling.
    """
    from repro.core.costmodel import ConnectionOverhead
    from repro.core.params import default_params

    params = default_params()
    bundles = {}
    for bundle_name, zeroed in ZEROED_FLOATS.items():
        bundle = getattr(params, bundle_name)
        changes: dict = {name: 0.0 for name in zeroed}
        for field in dataclasses.fields(bundle):
            value = getattr(bundle, field.name)
            if isinstance(value, ConnectionOverhead):
                changes[field.name] = dataclasses.replace(value, base=0.0, extra=0.0)
            elif isinstance(value, float) and field.name not in (
                *zeroed,
                *KEPT_FLOATS[bundle_name],
            ):
                raise ValueError(
                    f"{bundle_name}.{field.name} is a float the UNMODELLED rule does not "
                    "classify: add it to ZEROED_FLOATS or KEPT_FLOATS"
                )
        bundles[bundle_name] = dataclasses.replace(bundle, **changes)
    return dataclasses.replace(params, **bundles)


# What every reply must carry, per deployment (the live "golden").
EXPECTED = {
    "mds-gris-cache": {"entries": 12, "fetched": False},
    "hawkeye-agent": {"attrs": 95, "modules": 11},
    "rgma-ps-lucky": {"rows_per_round": 2, "tuples_per_round": 10},
    "mds-giis-all": {"entries": 1101},
    "hawkeye-manager": {"ads": 0, "scanned": 200},
    "hawkeye-manager:ingest": {"ok": True},
}
LIVE_DEPLOYMENTS = {
    "live_small": (("exp1", "mds-gris-cache"), ("exp1", "hawkeye-agent"), ("exp1", "rgma-ps-lucky")),
    "live_bulk": (("exp4", "mds-giis-all", 100),),
    "live_mixed": (("exp4", "hawkeye-manager", 200),),
}
DIALECT = {
    "mds-gris-cache": "mds",
    "mds-giis-all": "mds",
    "hawkeye-agent": "hawkeye",
    "hawkeye-manager": "hawkeye",
    "rgma-ps-lucky": "rgma",
}
CLIENT_QUERY = "live.clients.query"
CLIENT_ADVERTISE = "live.clients.advertise"
SERVICE_SPAN = "live.runtime.service"


def value_ok(system: str, value, dep) -> bool:
    """Is ``value`` the structured answer this deployment must give?"""
    expected = EXPECTED[system]
    if system != "rgma-ps-lucky":
        return value == expected
    # The publisher adds one round of tuples every 30 model seconds; the
    # reply may predate a round the counter already shows.
    rounds = dep.objects["ps"].tuples_buffered // expected["tuples_per_round"]
    rows = value.get("rows") if isinstance(value, dict) else None
    return rows in (rounds * expected["rows_per_round"], (rounds - 1) * expected["rows_per_round"])


def body_ok(system: str, value, body: str) -> bool:
    """Does the serialized body decode to what ``value`` announced, and re-encode equal?"""
    if DIALECT[system] == "mds":
        from repro.ldap.ldif import from_ldif, to_ldif

        entries = from_ldif(body)
        return len(entries) == value["entries"] and probes.ldif_lines(to_ldif(entries)) == probes.ldif_lines(body)
    if system == "hawkeye-agent":
        from repro.classad.ads import ClassAd

        ad = ClassAd.deserialize(body)
        return len(ad) == value["attrs"] and ad.serialize() == body
    if system == "rgma-ps-lucky":
        from repro.relational.types import decode_result, encode_result

        columns, rows = decode_result(body)
        return len(rows) == value["rows"] and encode_result(columns, rows) == body
    return body == ""  # the aggregate Manager answers counts only


class _Recorder:
    """What one deployment's closed loops observed, in completion order."""

    def __init__(self) -> None:
        self.latency: list[float] = []
        self.is_write: list[bool] = []
        self.wall_s = self.cpu_s = 0.0  # first request sent -> last reply read
        self.reads = self.writes = 0  # attempts
        self.errors: list[str] = []
        self.wrong = 0
        self.body_bytes = 0
        self.samples: list[tuple] = []  # every 100th (value, body), checked after the region

    def latencies(self, writes: bool) -> list[float]:
        return [s for s, w in zip(self.latency, self.is_write) if w == writes]


async def _connection(dep, system, ops, ads, rec: _Recorder, tracer: Tracer | None) -> None:
    """One closed-loop connection: the next request leaves when the reply is read."""
    from repro.errors import ReproError
    from repro.live.clients import line_query
    from repro.live.loadgen import query_once

    ingest_port = dep.ports.get("manager:ingest")
    query_ix = tracer.name_id(CLIENT_QUERY) if tracer is not None else -1
    advertise_ix = tracer.name_id(CLIENT_ADVERTISE) if tracer is not None else -1
    for i, op in enumerate(ops):
        write = op is not None
        if tracer is not None:
            sid, token = tracer.begin(advertise_ix if write else query_ix)
            tracer.op[sid] = sid
        start = perf_counter()
        try:
            if write:
                rec.writes += 1
                value, body = await line_query(
                    dep.host, ingest_port, {"ad": ads[op]}, verb="ADVERTISE"
                )
            else:
                rec.reads += 1
                value, body = await query_once(dep)
        except (ReproError, OSError, asyncio.IncompleteReadError) as exc:
            rec.errors.append(f"{system}: {type(exc).__name__}: {exc}")
            continue
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.finish(sid, token)
        rec.latency.append(elapsed)
        rec.is_write.append(write)
        rec.body_bytes += len(body)
        if not value_ok(f"{system}:ingest" if write else system, value, dep):
            rec.wrong += 1
        if i % 100 == 0 and not write:
            rec.samples.append((value, body))


async def _phase(dep, system, plans_ops, ads, tracer: Tracer | None) -> _Recorder:
    """All connections of one deployment, from first request to last reply."""
    rec = _Recorder()
    cpu0, start = cpu_seconds(), perf_counter()
    await asyncio.gather(*(_connection(dep, system, ops, ads, rec, tracer) for ops in plans_ops))
    rec.wall_s, rec.cpu_s = perf_counter() - start, cpu_seconds() - cpu0
    return rec


async def _loop_lag(lags: list[float], interval: float = 0.010) -> None:
    """A 10 ms ticker's lateness: how long the one event loop kept it waiting."""
    while True:
        due = perf_counter() + interval
        await asyncio.sleep(interval)
        lags.append(max(0.0, perf_counter() - due))


def _live_end_to_end(recorders: list[_Recorder], mixed: bool) -> tuple[dict, dict]:
    """End-to-end metrics and their sample counts: plain totals of the untraced phases."""
    done = sum(len(rec.latency) for rec in recorders)
    wall_s = sum(rec.wall_s for rec in recorders)
    reads = [s for rec in recorders for s in rec.latencies(writes=False)]
    out = {
        "wall_s": wall_s,
        "cpu_s": sum(rec.cpu_s for rec in recorders),
        "req_per_s": done / wall_s,
        "req_p50_ms": statistics.median(reads) * 1e3,
    }
    samples = {"req_per_s": done, "req_p50_ms": len(reads)}
    if mixed:
        writes = [s for rec in recorders for s in rec.latencies(writes=True)]
        out["write_p50_ms"] = statistics.median(writes) * 1e3
        samples["write_p50_ms"] = len(writes)
    return out, samples


async def _run_live(workload: str, args, tracer: Tracer | None) -> dict:
    import numpy as np

    from repro.core.topology import catalog
    from repro.hawkeye.advertise import synthesize_startd_ad
    from repro.live.loadgen import query_once
    from repro.live.runtime import AsyncioRuntime

    sizes = sizes_for(workload, args.seconds, args.smoke)
    mixed = workload == "live_mixed"
    pool = LIVE_DEPLOYMENTS[workload][0][2] if mixed else 0  # resident Startd ads
    checks = Checks()
    layer: dict[str, float] = {}
    rng = random.Random(args.seed)

    # -- set-up: compile, start, warm up; generate the inputs -----------------
    runtime = AsyncioRuntime(params=unmodelled_params(), time_scale=1.0)
    deployments = []
    compile_s = start_s = 0.0
    for kind, system, *servers in LIVE_DEPLOYMENTS[workload]:
        plan = getattr(catalog, f"{kind}_plan")(system, *servers)
        start = perf_counter()
        dep = runtime.compile(plan)
        compile_s += perf_counter() - start
        start = perf_counter()
        await dep.start()
        start_s += perf_counter() - start
        deployments.append((system, dep))
    try:
        for system, dep in deployments:
            for _ in range(sizes["warmup_requests"]):
                value, _body = await query_once(dep)
                checks.check(value_ok(system, value, dep), f"{system}: warm-up reply {value!r}")
        layer["live.runtime.compile_ms"] = compile_s * 1e3
        layer["live.runtime.start_ms"] = start_s * 1e3
        n = sizes["requests_per_connection"]
        ads: list[str] = []
        plans_ops: list[list] = [[None] * n for _ in range(sizes["connections"])]
        if mixed:
            for ops in plans_ops:
                # Exactly half writes, in a seeded order, drawing seeded ads.
                ops[: n // 2] = [rng.randrange(sizes["ad_pool"]) for _ in range(n // 2)]
                rng.shuffle(ops)
            ad_rng = np.random.default_rng(args.seed)
            ads = [
                synthesize_startd_ad(f"sim{rng.randrange(pool):04d}.pool", ad_rng).serialize()
                for _ in range(sizes["ad_pool"])
            ]
        setup_s = perf_counter() - args.t0
        if args.phase == "setup":
            return {"setup_s": setup_s}

        # -- timed region: the deployments in turn ------------------------------
        # A traced run sends the first half of every connection's requests
        # untraced and the second half traced, for the overhead figure.
        split = n // 2 if tracer is not None else n
        services = [svc for _s, dep in deployments for svc in dep.services.values()]
        lags: list[float] = []
        ticker = asyncio.ensure_future(_loop_lag(lags)) if tracer is not None else None
        plain: dict[str, _Recorder] = {}
        traced: dict[str, _Recorder] = {}
        traced_windows: list[tuple[float, float]] = []
        traced_requests = 0
        region_start = perf_counter()
        for system, dep in deployments:
            plain[system] = await _phase(dep, system, [ops[:split] for ops in plans_ops], ads, None)
            if tracer is not None:
                before = sum(svc.requests for svc in services)
                tracer.install()
                start = perf_counter()
                traced[system] = await _phase(
                    dep, system, [ops[split:] for ops in plans_ops], ads, tracer
                )
                traced_windows.append((start, perf_counter()))
                tracer.remove()
                traced_requests += sum(svc.requests for svc in services) - before
        if ticker is not None:
            ticker.cancel()
            await asyncio.gather(ticker, return_exceptions=True)

        # -- checks (untimed) -----------------------------------------------------
        for system, dep in deployments:
            recs = [r[system] for r in (plain, traced) if system in r]
            reads, writes = sum(r.reads for r in recs), sum(r.writes for r in recs)
            errors = [e for r in recs for e in r.errors]
            wrong = sum(r.wrong for r in recs)
            checks.attempted += reads + writes
            checks.failed += len(errors) + wrong
            checks.notes.extend(errors[: max(0, 20 - len(checks.notes))])
            if wrong:
                checks.notes.append(f"{system}: {wrong} replies carried a wrong value")
            for value, body in (s for r in recs for s in r.samples):
                checks.check(body_ok(system, value, body), f"{system}: body does not decode to {value!r}")
            entry = dep.entry_service
            checks.check(
                entry.requests == sizes["warmup_requests"] + reads and entry.refusals == 0,
                f"{system}: server counted {entry.requests} requests ({entry.refusals} refused), "
                f"clients sent {sizes['warmup_requests']} + {reads}",
            )
            if writes:
                ingest = dep.services["manager:ingest"]
                manager = dep.objects["manager"]
                written = sum(sum(r.is_write) for r in recs)
                background = manager.ads_received - pool - written
                checks.check(
                    ingest.requests == writes + background
                    and ingest.refusals == 0
                    and manager.pool_size == pool,
                    f"{system}: ingest counted {ingest.requests} requests, clients sent "
                    f"{writes} and {background} background ads arrived; pool {manager.pool_size}",
                )
        refusals = sum(svc.refusals for svc in services)
    finally:
        if tracer is not None:
            tracer.remove()
        for _system, dep in deployments:
            await dep.stop()

    end_to_end, samples = _live_end_to_end(list(plain.values()), mixed)
    end_to_end.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb())
    raw = {"phase_walls_s": {s: rec.wall_s for s, rec in plain.items()}}

    if tracer is not None:
        tracer.adopt(SERVICE_SPAN, (CLIENT_QUERY, CLIENT_ADVERTISE))
        totals = tracer.totals()
        _span_metrics(totals, layer)
        service = totals[SERVICE_SPAN]
        clients = [totals[name] for name in (CLIENT_QUERY, CLIENT_ADVERTISE) if name in totals]
        client_calls = sum(c["calls"] for c in clients)
        layer["live.runtime.service_ms"] = service["busy_s"] / max(service["calls"], 1) * 1e3
        layer["live.runtime.service_self_us"] = service["self_s"] / max(service["calls"], 1) * 1e6
        layer["live.runtime.requests"] = traced_requests
        layer["live.runtime.refusals"] = refusals
        # A client span's self time is what its adopted server span does not
        # cover: connect, framing, JSON, streams and body transfer, both ends.
        layer["live.protocols.wire_ms"] = (
            sum(c["self_s"] for c in clients) / max(client_calls, 1) * 1e3
        )
        layer["live.protocols.reply_mb_per_s"] = (
            sum(rec.body_bytes for rec in plain.values()) / 1e6 / end_to_end["wall_s"]
        )
        if workload == "live_small":
            for system, rec in plain.items():
                layer[f"live.{DIALECT[system]}.req_per_s"] = len(rec.latency) / rec.wall_s
                layer[f"live.{DIALECT[system]}.req_p50_ms"] = statistics.median(rec.latency) * 1e3
        every = [s for rec in plain.values() for s in rec.latency]
        layer["live.loadgen.req_p90_ms"] = percentile(every, 0.90) * 1e3
        layer["live.loadgen.req_p99_ms"] = percentile(every, 0.99) * 1e3
        layer["live.loadgen.loop_lag_p90_ms"] = percentile(lags, 0.90) * 1e3
        layer["sim.engine.run_s"] = totals["sim.engine.run"]["busy_s"]
        layer["ledger.span_coverage_share"] = tracer.coverage(traced_windows)
        # Seconds per request, traced half over untraced half.
        layer["ledger.trace_overhead_share"] = (
            sum(rec.wall_s for rec in traced.values())
            / sum(len(rec.latency) for rec in traced.values())
        ) / (end_to_end["wall_s"] / samples["req_per_s"]) - 1.0
        bodies = {s: [body for _v, body in rec.samples[:20]] for s, rec in plain.items()}
        ldif = probes.ldif_rates([b for s, bs in bodies.items() if DIALECT[s] == "mds" for b in bs])
        classad = probes.classad_rates(bodies.get("hawkeye-agent", []) + ads[:50])
        result_set = probes.result_set_rates(bodies.get("rgma-ps-lucky", []))
        for stem, verbs, rates in (
            ("ldap.ldif", ("encode", "decode"), ldif),
            ("classad.ads", ("serialize", "deserialize"), classad),
            ("relational.types", ("encode", "decode"), result_set),
        ):
            if rates is not None:
                layer[f"{stem}.{verbs[0]}_mb_per_s"], layer[f"{stem}.{verbs[1]}_mb_per_s"] = rates[:2]
                checks.check(rates[2] == 0, f"{stem}: {rates[2]} bodies changed in a round trip")
    return {
        "sizes": sizes,
        "checks": checks,
        "end_to_end": end_to_end,
        "per_layer": layer,
        "samples": samples,
        "raw": raw,
        "origin": traced_windows[0][0] if traced_windows else region_start,
    }


# -- entry point of the child process ---------------------------------------------


def run_child(args) -> dict:
    """Run one workload in this process and return its result record."""
    WORK_DIR.mkdir(exist_ok=True)
    work_dir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    tracer = Tracer(spool_dir=work_dir) if args.trace else None
    try:
        if args.workload in M.FIGURES:
            raw = run_figures(args.workload, args, tracer, work_dir)
        else:
            raw = asyncio.run(_run_live(args.workload, args, tracer))
        if args.phase == "setup":
            return raw
        checks: Checks = raw["checks"]
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "traced": bool(args.trace),
            "sizes": raw["sizes"],
            "env": environment(),
            "attempted": checks.attempted,
            "failed": checks.failed,
            "failures": checks.notes,
            "samples": raw["samples"],
            "end_to_end": raw["end_to_end"],
            "per_layer": raw["per_layer"],
            "raw": raw["raw"],
        }
        record["end_to_end"]["failed_share"] = checks.failed / max(checks.attempted, 1)
        record["per_layer"]["ledger.calibration_spin_s"] = probes.calibration_spin()
        if tracer is not None:
            tracer.inherit_ops()
            record["span_count"] = len(tracer)
            record["span_overruns"] = tracer.overruns()
            if args.trace_out:
                import json

                with open(args.trace_out, "w") as fh:
                    json.dump(tracer.to_json(raw["origin"]), fh)
        return record
    finally:
        if tracer is not None:
            tracer.remove()
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # leaves it only if another run is using it
