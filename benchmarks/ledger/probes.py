"""Short probes: one layer's public API, called directly, outside any workload.

Each probe does a fixed number of operations and returns a rate.  They
run only in traced runs, after the timed region, so they never touch an
end-to-end number.  Codec probes take their inputs from reply bodies the
live workloads captured and double as round-trip checks.
"""

from __future__ import annotations

from time import perf_counter


def calibration_spin() -> float:
    """Seconds for a fixed pure-Python spin; reads two machines side by side."""
    start = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) & 0xFFFFFFFF
    return perf_counter() - start


def _best(fn, repeats: int = 3) -> float:
    """Smallest wall time of ``repeats`` calls (probes want the quiet run)."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def engine_timeouts_per_s(n: int = 100_000) -> float:
    """``n`` timeouts through one spawned process: heap + process resume."""
    from repro.sim.engine import Simulator

    def run() -> None:
        sim = Simulator()

        def ticker():
            for _ in range(n):
                yield sim.timeout(0.001)

        sim.spawn(ticker())
        sim.run()
        if sim.events_processed < n:
            raise RuntimeError("engine probe lost events")

    return n / _best(run)


def sharing_jobs_per_s(n: int = 30_000) -> float:
    """``n`` overlapping jobs through one 2-server processor-sharing queue."""
    from repro.sim.engine import Simulator
    from repro.sim.sharing import ProcessorSharing

    def run() -> None:
        sim = Simulator()
        ps = ProcessorSharing(sim, rate=1.0, servers=2)

        def job(arrival: float, work: float):
            yield sim.timeout(arrival)
            yield ps.serve(work)

        for i in range(n):
            # A fixed low-discrepancy pattern: ~20 jobs in service at a time.
            sim.spawn(job((i * 0.618034) % 1.0 * n / 40.0, 0.05 + (i % 7) * 0.1))
        sim.run()
        if ps.snapshot().completed != n:
            raise RuntimeError("sharing probe lost jobs")

    return n / _best(run)


def _echo_rig():
    from repro.core.params import TestbedParams
    from repro.core.testbed import build_testbed
    from repro.sim.engine import Simulator

    sim = Simulator()
    testbed = build_testbed(sim, TestbedParams(), monitored=())
    return sim, testbed


def rpc_calls_per_s(n: int = 5_000) -> float:
    """``n`` blocking ``rpc.call`` round trips to an echo ``Service``."""
    from repro.sim.rpc import Response, Service, call

    def run() -> None:
        sim, tb = _echo_rig()

        def handler(service, request):
            yield service.host.compute(0.001)
            return Response(value=request.payload, size=256)

        service = Service(sim, tb.net, tb.lucky["lucky7"], "echo", handler)
        done: list[int] = []

        def client():
            for i in range(n):
                done.append((yield from call(sim, tb.net, tb.uc[0], service, i)))

        sim.spawn(client())
        sim.run(until=n * 0.1)  # >3x the round trips need
        if done != list(range(n)):
            raise RuntimeError("rpc probe lost calls")

    return n / _best(run)


def desruntime_ops_per_s(n: int = 2_000, k: int = 8) -> float:
    """``n`` requests to a ``kernel_service`` whose kernel yields ``k`` ops."""
    from repro.core.desruntime import kernel_service
    from repro.core.kernels.ops import CLOCK, Compute, KernelResponse, KernelSpec
    from repro.sim.rpc import call

    def handle(payload):
        for i in range(k // 2):
            yield Compute(0.0005)
            yield CLOCK
        return KernelResponse(value=payload, size=128)

    def run() -> None:
        sim, tb = _echo_rig()
        spec = KernelSpec("probe", handle, max_threads=4, backlog=16)
        service = kernel_service(sim, tb.net, tb.lucky["lucky7"], spec)
        done: list[int] = []

        def client():
            for i in range(n):
                done.append((yield from call(sim, tb.net, tb.uc[0], service, i)))

        sim.spawn(client())
        sim.run(until=n * 0.1)  # >3x the round trips need
        if done != list(range(n)):
            raise RuntimeError("desruntime probe lost requests")

    return n * k / _best(run)


def fast_tier_points() -> tuple[float, float]:
    """(cohort seconds, mean-field milliseconds) for one 100 000-user point."""
    from repro.core.experiments import exp1

    def point(tier: str):
        result = exp1.run_point("mds-gris-cache", 100_000, fidelity=tier)
        if result.crashed or result.throughput <= 0:
            raise RuntimeError(f"{tier} probe point produced no throughput")

    cohort = _best(lambda: point("cohort"), repeats=1)
    meanfield = _best(lambda: point("meanfield"))
    return cohort, meanfield * 1e3


def _codec_rates(bodies: list[str], decode, encode, canonical=str, min_bytes: int = 2_000_000):
    """(encode MB/s, decode MB/s, bodies that did not survive the round trip)."""
    if not bodies:
        return None
    rounds = max(1, min_bytes // max(1, sum(len(b) for b in bodies)))
    start = perf_counter()
    for _ in range(rounds):
        decoded = [decode(b) for b in bodies]
    decode_s = perf_counter() - start
    start = perf_counter()
    for _ in range(rounds):
        encoded = [encode(d) for d in decoded]
    encode_s = perf_counter() - start
    volume = rounds * sum(len(b.encode()) for b in bodies) / 1e6
    broken = sum(1 for body, again in zip(bodies, encoded) if canonical(body) != canonical(again))
    return volume / encode_s, volume / decode_s, broken


def ldif_lines(text: str) -> list[str]:
    """LDIF compared line by line: decoding moves the RDN attribute first."""
    return sorted(text.splitlines())


def ldif_rates(bodies: list[str]):
    from repro.ldap.ldif import from_ldif, to_ldif

    return _codec_rates(bodies, from_ldif, to_ldif, canonical=ldif_lines)


def classad_rates(bodies: list[str]):
    from repro.classad.ads import ClassAd

    return _codec_rates(bodies, ClassAd.deserialize, ClassAd.serialize)


def result_set_rates(bodies: list[str]):
    from repro.relational.types import decode_result, encode_result

    return _codec_rates(bodies, decode_result, lambda decoded: encode_result(*decoded))
