"""The paper's future-work experiments (§4 and §3.6), implemented.

The paper closes with four open questions; each has a runnable answer
here:

* :func:`wan_sweep` — "the experiments should be repeated to study
  performance in a WAN environment": Experiment-1 points under
  increasing WAN latency / decreasing WAN bandwidth between clients
  and servers.
* :func:`access_pattern_sweep` — "additional patterns of user access":
  Experiment-1 points under constant / exponential / Pareto / bursty
  think-time patterns of equal mean demand.
* :func:`aggregate_vs_direct` — "determine the difference between
  querying an aggregate information server and an information server
  for the same piece of information": response time of one host's data
  via its GRIS vs. via a GIIS aggregating five GRIS.
* :func:`hierarchy_comparison` — §3.6's suggested fix: "a multi-layer
  architecture in which each middle-level aggregate information server
  manages a subset of information servers" — a two-level GIIS tree vs.
  a flat GIIS over the same number of registrants.

Every plan-driven point runs the one point body,
:func:`repro.core.experiments.scenarios.run_wired` (the two-level tree
with the ``TWO_LEVEL_WIRING`` row); :func:`push_vs_pull` builds no plan.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.experiments import exp1
from repro.core.experiments.common import TWO_LEVEL_WIRING, sweep_points, uc_clients
from repro.core.experiments.scenarios import run_wired
from repro.core.params import default_params
from repro.core.runner import PointResult, new_run
from repro.core.scenario.model import PLAIN
from repro.core.topology.catalog import two_level_plan
from repro.errors import RequestTimeoutError, ServiceUnavailableError
from repro.sim.rpc import Request, Response, Service, call

__all__ = [
    "wan_sweep",
    "access_pattern_sweep",
    "aggregate_vs_direct",
    "hierarchy_comparison",
    "push_vs_pull",
    "PushPullResult",
    "WAN_PROFILES",
]

# (label, one-way latency s, shared bandwidth Mbps) — LAN up to a
# congested intercontinental path.
WAN_PROFILES: tuple[tuple[str, float, float], ...] = (
    ("lan", 0.0002, 1000.0),
    ("metro", 0.005, 155.0),
    ("uc-anl", 0.013, 45.0),
    ("cross-country", 0.040, 45.0),
    ("intercontinental", 0.090, 10.0),
)


def wan_sweep(
    system: str = "mds-gris-cache",
    users: int = 200,
    seed: int = 1,
    *,
    profiles: _t.Sequence[tuple[str, float, float]] = WAN_PROFILES,
    warmup: float | None = None,
    window: float | None = None,
) -> list[tuple[str, PointResult]]:
    """Run one Experiment-1 point under each WAN profile."""
    per_point = []
    for _label, latency, mbps in profiles:
        params = default_params()
        params = dataclasses.replace(
            params,
            testbed=dataclasses.replace(params.testbed, wan_latency=latency, wan_mbps=mbps),
        )
        per_point.append({"params": params})
    points = sweep_points(
        exp1.run_point,
        [(system, users, seed)] * len(per_point),
        point_kwargs=per_point,
        warmup=warmup,
        window=window,
    )
    return [(label, point) for (label, _l, _m), point in zip(profiles, points)]


def access_pattern_sweep(
    system: str = "mds-gris-cache",
    users: int = 200,
    seed: int = 1,
    *,
    patterns: _t.Sequence[str] = ("constant", "exponential", "pareto", "onoff"),
    warmup: float | None = None,
    window: float | None = None,
) -> list[tuple[str, PointResult]]:
    """Run one Experiment-1 point under each user access pattern."""
    per_point = []
    for pattern in patterns:
        params = default_params()
        params = dataclasses.replace(
            params, workload=dataclasses.replace(params.workload, pattern=pattern)
        )
        per_point.append({"params": params})
    points = sweep_points(
        exp1.run_point,
        [(system, users, seed)] * len(per_point),
        point_kwargs=per_point,
        warmup=warmup,
        window=window,
    )
    return list(zip(patterns, points))


def aggregate_vs_direct(
    users: int = 50,
    seed: int = 1,
    *,
    warmup: float | None = None,
    window: float | None = None,
) -> dict[str, PointResult]:
    """Same piece of information via the GRIS vs. via the GIIS.

    Both paths answer "(objectclass=MdsHost)" about lucky7; the GIIS
    aggregates five GRIS (lucky3-7) with data in cache, the direct path
    queries lucky7's GRIS itself.
    """
    out: dict[str, PointResult] = {}
    # Direct: the plain Experiment-1 cached-GRIS setup.
    out["direct-gris"] = exp1.run_point(
        "mds-gris-cache", users, seed, warmup=warmup, window=window
    )
    # Aggregate: Experiment-2's GIIS answering the same filter.
    from repro.core.experiments import exp2

    out["via-giis"] = exp2.run_point("mds-giis", users, seed, warmup=warmup, window=window)
    return out


# -- push vs pull ------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PushPullResult:
    """Outcome of one push-vs-pull notification scenario."""

    mode: str
    notifications: int
    mean_latency: float  # event occurrence -> subscriber notified
    server_cpu_pct: float
    messages: int  # wire messages carried


def push_vs_pull(
    watchers: int = 50,
    poll_interval: float = 10.0,
    seed: int = 1,
    *,
    event_rate: float = 0.2,
    warmup: float | None = None,
    window: float | None = None,
) -> dict[str, PushPullResult]:
    """§3.7's pull/push contrast, measured.

    ``watchers`` consumers want to know when a host's load crosses a
    threshold.  *Pull* (the MDS model): each watcher polls the
    information server every ``poll_interval`` seconds.  *Push* (the
    R-GMA model): the producer publishes each threshold event once and
    the servlet forwards it to every subscriber.

    Returns notification latency, server CPU, and wire messages for
    both modes over the same event stream.
    """
    from repro.core.params import default_params, measurement_window

    default_warmup, default_window = measurement_window()
    warmup = default_warmup if warmup is None else warmup
    window = default_window if window is None else window
    horizon = warmup + window
    out: dict[str, PushPullResult] = {}

    for mode in ("pull", "push"):
        run = new_run(seed, monitored=("lucky3",))
        sim, net = run.sim, run.net
        server = run.testbed.lucky["lucky3"]
        clients = uc_clients(run, watchers)
        rng = run.rng.stream("events", mode)
        # The shared event stream: threshold crossings at ``event_rate``.
        event_times = []
        t = float(rng.exponential(1.0 / event_rate))
        while t < horizon:
            event_times.append(t)
            t += float(rng.exponential(1.0 / event_rate))
        current_event: dict[str, float | None] = {"since": None}
        latencies: list[float] = []
        notified = 0

        def eventer() -> _t.Generator:
            for when in event_times:
                yield sim.timeout(when - sim.now)
                current_event["since"] = sim.now

        sim.spawn(eventer(), name="eventer")

        if mode == "pull":
            # Poll handler: cheap status check per request.
            def handler(service: Service, request: Request) -> _t.Generator:
                yield server.compute(0.004)
                since = current_event["since"]
                fired = since is not None
                current = since
                return Response(value={"fired": fired, "since": current}, size=900)

            service = Service(sim, net, server, "poll", handler, max_threads=64)

            def watcher(client) -> _t.Generator:
                nonlocal notified
                local = run.rng.stream("watcher", client.name)
                yield sim.timeout(float(local.uniform(0.0, poll_interval)))
                seen: float | None = None
                while True:
                    try:
                        value = yield from call(sim, net, client, service, None, size=400)
                    except (ServiceUnavailableError, RequestTimeoutError):
                        value = {"fired": False, "since": None}
                    if value["fired"] and value["since"] != seen:
                        seen = value["since"]
                        if sim.now >= warmup:
                            latencies.append(sim.now - value["since"])
                            notified += 1
                    yield sim.timeout(poll_interval)

            for client in clients:
                sim.spawn(watcher(client), name=f"poll:{client.name}")
        else:
            # Push: one publication per event fans out to subscribers.
            def pusher() -> _t.Generator:
                for when in event_times:
                    yield sim.timeout(max(0.0, when - sim.now))
                    yield server.compute(0.004 + 0.0005 * watchers)  # fan-out work
                    workers = [
                        sim.spawn(_notify(sim, net, server, client, when), name="notify")
                        for client in clients
                    ]
                    yield sim.all_of(workers)
                    for worker in workers:
                        if worker.ok and sim.now >= warmup:
                            latencies.append(worker.value)
                            # one notification per subscriber per event

            def _notify(sim, net, server, client, when) -> _t.Generator:
                yield from net.transfer(server, client, 900)
                return sim.now - when

            sim.spawn(pusher(), name="pusher")

        sim.run(until=horizon)
        if mode == "push":
            notified = len(latencies)
        cpu_pct, _load1 = run.testbed.monitor.window_average(server, warmup, horizon)
        out[mode] = PushPullResult(
            mode=mode,
            notifications=notified,
            mean_latency=(sum(latencies) / len(latencies)) if latencies else float("nan"),
            server_cpu_pct=cpu_pct,
            messages=net.messages,
        )
    return out


# -- multi-layer hierarchy -------------------------------------------------


def hierarchy_comparison(
    registrants: int = 100,
    users: int = 10,
    seed: int = 1,
    *,
    warmup: float | None = None,
    window: float | None = None,
) -> dict[str, PointResult]:
    """Flat GIIS over N GRIS vs. a two-level tree over the same N.

    The tree uses ~sqrt(N) mid-level GIIS, each aggregating ~sqrt(N)
    GRIS on its own Lucky node, under one top GIIS on lucky0.
    """
    out: dict[str, PointResult] = {}

    # --- flat ----------------------------------------------------------------
    from repro.core.experiments import exp4

    out["flat"] = exp4.run_point(
        "mds-giis-all", registrants, seed, users=users, warmup=warmup, window=window
    )

    # --- two-level ------------------------------------------------------------
    out["two-level"] = run_wired(
        two_level_plan(registrants, seed), TWO_LEVEL_WIRING, PLAIN, users, seed,
        label="giis-two-level", x=registrants, warmup=warmup, window=window,
    ).result
    return out
