"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation varies one calibrated mechanism and prints the resulting
curve, showing which mechanism produces which published effect:

* GRIS cache TTL sweep      — the cache/no-cache gap of Figures 5-6;
* ProducerServlet pool size — thread-pool limits are *not* the R-GMA
  bottleneck (the serialized buffer DB is);
* GIIS backlog sweep        — accept-queue refusal creates the
  fast-but-flat directory saturation of Figures 9-10;
* Manager advertise interval— background ad traffic drives the Exp-4
  load curve.
"""

import dataclasses

from benchmarks.conftest import emit
from repro.core.experiments import exp1, exp2, exp4
from repro.core.params import default_params

FAST = dict(warmup=5.0, window=20.0)


def test_ablation_gris_cachettl(benchmark, benchjson):
    """Sweep the GRIS cachettl between the paper's two extremes."""
    from repro.core.experiments.common import build_gris, uc_clients
    from repro.core.desruntime import kernel_service
    from repro.core.kernels import GrisKernel
    from repro.core.runner import drive, new_run
    from repro.sim.resources import Mutex

    def sweep():
        rows = []
        for ttl in (0.0, 5.0, 30.0, float("inf")):
            run = new_run(seed=11, monitored=("lucky7",))
            gris = build_gris(run, collectors=10, cached=False, seed=11)
            gris.cache.ttl = ttl
            if ttl > 0:
                gris.search(now=0.0)
            host = run.testbed.lucky["lucky7"]
            kernel = GrisKernel(
                gris,
                run.params.gris,
                providers_lock=Mutex(run.sim, name=f"gris:{gris.hostname}:providers"),
            )
            service = kernel_service(run.sim, run.net, host, kernel.spec())
            point = drive(
                run, system=f"ttl={ttl}", x=ttl, service=service,
                clients=uc_clients(run, 200), server_host=host,
                payload_fn=lambda uid: None, request_size=480, **FAST,
            )
            rows.append((ttl, point.throughput, point.response_time))
        return rows

    rows = benchmark.pedantic(
        lambda: benchjson.timed("ablation_gris_cachettl", sweep, config={"users": 200, **FAST}),
        rounds=1,
        iterations=1,
    )
    table = "GRIS cachettl ablation (200 users)\n" + "\n".join(
        f"  ttl={ttl!s:>6}s  {x:7.2f} q/s  {r:7.2f} s" for ttl, x, r in rows
    )
    emit("ablation_gris_cachettl", table)
    # Monotone: longer TTL, more throughput; the extremes match Fig 5.
    assert rows[0][1] < 2.5
    assert rows[-1][1] > 30
    assert rows[0][1] <= rows[1][1] <= rows[-1][1] + 1e-6


def test_ablation_producer_servlet_threads(benchmark, benchjson):
    """Doubling servlet threads does not lift the R-GMA cap (lock-bound)."""

    def sweep():
        rows = []
        for threads in (16, 64, 256):
            params = default_params()
            params = dataclasses.replace(
                params,
                producer_servlet=dataclasses.replace(
                    params.producer_servlet, max_threads=threads
                ),
            )
            point = exp1.run_point("rgma-ps-lucky", 300, seed=11, params=params, **FAST)
            rows.append((threads, point.throughput))
        return rows

    rows = benchmark.pedantic(
        lambda: benchjson.timed("ablation_ps_threads", sweep, config={"users": 300, **FAST}),
        rounds=1,
        iterations=1,
    )
    emit(
        "ablation_ps_threads",
        "ProducerServlet thread-pool ablation (300 users)\n"
        + "\n".join(f"  threads={t:<4d} {x:6.2f} q/s" for t, x in rows),
    )
    xs = [x for _t, x in rows]
    assert max(xs) - min(xs) < 0.25 * max(xs)  # within 25%: pool is not the cap


def test_ablation_giis_backlog(benchmark, benchjson):
    """Larger backlogs trade refusals for queueing delay on the GIIS."""

    def sweep():
        rows = []
        for backlog in (8, 24, 512):
            params = default_params()
            params = dataclasses.replace(
                params, giis=dataclasses.replace(params.giis, backlog=backlog)
            )
            point = exp2.run_point("mds-giis", 600, seed=11, params=params, **FAST)
            rows.append((backlog, point.throughput, point.response_time, point.summary.refused))
        return rows

    rows = benchmark.pedantic(
        lambda: benchjson.timed("ablation_giis_backlog", sweep, config={"users": 600, **FAST}),
        rounds=1,
        iterations=1,
    )
    emit(
        "ablation_giis_backlog",
        "GIIS backlog ablation (600 users)\n"
        + "\n".join(
            f"  backlog={b:<4d} {x:7.2f} q/s  {r:6.2f} s  {ref:6d} refused"
            for b, x, r, ref in rows
        ),
    )
    # Deeper backlog -> fewer refusals but slower successful responses.
    assert rows[0][3] > rows[-1][3]
    assert rows[-1][2] > rows[0][2]


def test_ablation_manager_advertise_interval(benchmark, benchjson):
    """Faster advertising raises Manager load and erodes query throughput."""

    def sweep():
        rows = []
        for interval in (10.0, 30.0, 120.0):
            params = default_params()
            params = dataclasses.replace(
                params,
                manager=dataclasses.replace(params.manager, advertise_interval=interval),
            )
            point = exp4.run_point("hawkeye-manager", 400, seed=11, params=params, **FAST)
            rows.append((interval, point.throughput, point.cpu_load))
        return rows

    rows = benchmark.pedantic(
        lambda: benchjson.timed("ablation_manager_interval", sweep, config={"machines": 400, **FAST}),
        rounds=1,
        iterations=1,
    )
    emit(
        "ablation_manager_interval",
        "Manager advertise-interval ablation (400 machines)\n"
        + "\n".join(f"  every {i:5.0f}s  {x:6.2f} q/s  cpu={c:5.1f}%" for i, x, c in rows),
    )
    assert rows[0][1] <= rows[-1][1] + 0.2  # more ads, no more query throughput
    assert rows[0][2] > rows[-1][2]  # more ads, hotter manager
