"""The asyncio runtime: real listeners, real clients, DES semantics.

Every test compiles a catalog plan with a small ``time_scale`` so the
model clock runs 20-50x faster than the wall clock; queries go through
actual TCP connections on 127.0.0.1 (port 0 at bind, OS-assigned port
read back off the runtime handle).
"""

import asyncio
import dataclasses
import pathlib
import subprocess
import sys

import pytest

from repro.classad.ads import ClassAd
from repro.core.kernels.ops import Compute, KernelResponse, KernelSpec
from repro.core.params import default_params
from repro.core.topology.catalog import (
    catalog_entries,
    exp1_plan,
    exp2_plan,
    two_level_plan,
)
from repro.errors import ServiceUnavailableError
from repro.ldap.ldif import from_ldif
from repro.live.clients import line_query
from repro.live.loadgen import query_once, reduce_log, run_load
from repro.live.runtime import AsyncioRuntime, LiveClock, LiveService

TS = 0.02  # wall seconds per model second: 50x compression


def in_loop(coro):
    return asyncio.run(coro)


# -- lifecycle ---------------------------------------------------------------


def test_port_zero_binding_reports_real_ports():
    async def main():
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan("mds-gris-cache"))
        assert dep.ports == {}  # nothing bound before start
        async with dep:
            assert dep.running
            assert set(dep.ports) == set(dep.services)
            assert all(port > 0 for port in dep.ports.values())
            assert len(set(dep.ports.values())) == len(dep.ports)
            assert dep.entry in dep.ports
        assert not dep.running
        assert dep.ports == {}  # stop() clears the handle

    in_loop(main())


def test_repeated_start_stop_rebinds_cleanly():
    async def main():
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan("hawkeye-agent"))
        for _ in range(3):
            async with dep:
                value, _body = await query_once(dep)
                assert value["attrs"] > 0

    in_loop(main())


def test_double_start_is_an_error():
    async def main():
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan("mds-gris-cache"))
        async with dep:
            with pytest.raises(RuntimeError):
                await dep.start()

    in_loop(main())


# -- one query per system, wire body parsed back -----------------------------


def test_mds_query_returns_parseable_ldif():
    async def main():
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan("mds-gris-cache"))
        async with dep:
            value, body = await query_once(dep)
        assert value["entries"] > 0
        entries = from_ldif(body)
        assert len(entries) == value["entries"]

    in_loop(main())


def test_hawkeye_query_returns_parseable_classad():
    async def main():
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan("hawkeye-agent"))
        async with dep:
            value, body = await query_once(dep)
        ad = ClassAd.deserialize(body)
        assert len(ad) == value["attrs"]

    in_loop(main())


def test_rgma_mediated_query_crosses_two_services():
    # entry=cs is a mediator: the query hops CS -> PS over a second
    # real socket before the answer comes back.
    async def main():
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan("rgma-ps-uc"))
        async with dep:
            value, _body = await query_once(dep)
        assert value["rows"] >= 0

    in_loop(main())


def test_fanout_tree_aggregates_children():
    async def main():
        plan = two_level_plan(4)  # two mid GIIS, fan ~2 each, fanout top
        dep = AsyncioRuntime(time_scale=TS).compile(plan)
        async with dep:
            top, _ = await query_once(dep)
            mid, _ = await query_once(dep, "mid0")
        assert top["entries"] > mid["entries"] > 0

    in_loop(main())


def test_unknown_verb_is_a_protocol_error():
    from repro.live.clients import ProtocolError

    async def main():
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan("mds-gris-cache"))
        async with dep:
            port = dep.ports[dep.entry]
            with pytest.raises(ProtocolError):
                await line_query(dep.host, port, {"x": 1}, verb="BOGUS")

    in_loop(main())


# -- admission control -------------------------------------------------------


def _slow_kernel_spec(seconds):
    def handle(payload):
        yield Compute(seconds)
        return KernelResponse(value="done", size=10)

    return KernelSpec("slow", handle, max_threads=1, backlog=1)


def test_admission_refuses_past_threads_plus_backlog():
    async def main():
        service = LiveService(_slow_kernel_spec(0.2), LiveClock(0.1))
        results = await asyncio.gather(
            *(service.request(None) for _ in range(4)), return_exceptions=True
        )
        refused = [r for r in results if isinstance(r, ServiceUnavailableError)]
        served = [r for r in results if isinstance(r, KernelResponse)]
        # 1 thread + 1 backlog slot: exactly two of four get through.
        assert len(served) == 2
        assert len(refused) == 2
        assert service.refusals == 2

    in_loop(main())


def test_cancelled_waiter_releases_its_place_in_the_queue():
    async def main():
        service = LiveService(_slow_kernel_spec(0.2), LiveClock(0.1))
        first = asyncio.ensure_future(service.request(None))
        queued = asyncio.ensure_future(service.request(None))
        await asyncio.sleep(0)
        assert (service.admission.active, service.admission.queued) == (1, 1)
        queued.cancel()
        await asyncio.gather(first, queued, return_exceptions=True)
        stats = service.stats
        assert (stats.completed, stats.errors) == (1, 1)
        assert service.admission.open == 0
        assert isinstance(await service.request(None), KernelResponse)  # not wedged

    in_loop(main())


def test_run_load_with_refusals_conserves_every_arrival():
    # One handler thread and no accept queue at the GIIS: six users
    # collide, some are refused, and the server-side books must balance.
    params = default_params()
    params = dataclasses.replace(
        params, giis=dataclasses.replace(params.giis, max_threads=1, backlog=0)
    )

    async def main():
        dep = AsyncioRuntime(params, time_scale=TS).compile(exp2_plan("mds-giis"))
        async with dep:
            result = await run_load(dep, users=6, duration=10.0, seed=7)
            service = dep.entry_service
            stats, still_open = service.stats, service.admission.open
        return result, stats, still_open

    result, stats, still_open = in_loop(main())
    assert result.protocol_errors == 0
    assert stats.refused > 0 and stats.completed > 0
    assert stats.arrived == (
        stats.refused + stats.dropped + stats.completed + stats.errors + still_open
    )
    assert still_open == 0
    assert len(stats.refusal_log) == stats.refused


def test_des_only_edges_are_skipped_with_notes():
    plan = catalog_entries()["faults-mds-registration"]()
    dep = AsyncioRuntime(time_scale=TS).compile(plan)
    assert any("soft-state registrar" in note for note in dep.skipped)


def test_registration_door_answers_register_and_renew_over_a_socket():
    plan = catalog_entries()["faults-mds-registration"]()

    async def main():
        dep = AsyncioRuntime(time_scale=TS).compile(plan)
        giis = dep.objects["giis"]
        async with dep:
            port = dep.ports["giis:registration"]

            async def register(payload):
                value, _body = await line_query(dep.host, port, payload, verb="REGISTER")
                return value

            assert await register({"op": "renew", "name": "lucky3"}) == {"renewed": True}
            assert await register({"op": "renew", "name": "nobody"}) == {"renewed": False}
            giis.unregister("lucky3")
            before = giis.registrant_count
            assert await register({"op": "renew", "name": "lucky3"}) == {"renewed": False}
            assert await register(
                {"op": "register", "name": "lucky3", "ttl": 6.0}
            ) == {"registered": True}
            assert giis.registrant_count == before + 1
            assert dep.services["giis:registration"].stats.completed == 4

    in_loop(main())


# -- determinism across hash seeds -------------------------------------------

_FIRST_AD_SCRIPT = """
import asyncio
from repro.core.topology.catalog import exp4_plan
from repro.live.runtime import AsyncioRuntime

async def main():
    dep = AsyncioRuntime().compile(exp4_plan("hawkeye-manager", 3))
    async with dep:
        await asyncio.sleep(0)  # one loop turn: every advertiser publishes its first ad
        ads = dep.objects["manager"].collector.ads()
    for text in sorted(ad.serialize() for ad in ads):
        print(text)

asyncio.run(main())
"""


def test_live_advertisers_publish_the_same_ads_under_any_hash_seed():
    repo = pathlib.Path(__file__).resolve().parents[2]

    def first_ads(hash_seed):
        proc = subprocess.run(
            [sys.executable, "-c", _FIRST_AD_SCRIPT],
            capture_output=True,
            cwd=repo,
            env={
                "PYTHONPATH": str(repo / "src"),
                "PATH": "/usr/bin:/bin",
                "PYTHONHASHSEED": hash_seed,
            },
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    ads = first_ads("0")
    assert ads.count(b"Machine") >= 3
    assert ads == first_ads("1")


# -- closed-loop load --------------------------------------------------------


def test_run_load_produces_a_window_summary():
    async def main():
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan("mds-gris-cache"))
        async with dep:
            result = await run_load(dep, users=3, duration=8.0, seed=5)
        return result

    result = in_loop(main())
    assert result.protocol_errors == 0
    summary = reduce_log(result)
    assert summary.completed > 0
    assert summary.throughput > 0
    assert summary.response_time > 0
    assert summary.errors == 0
