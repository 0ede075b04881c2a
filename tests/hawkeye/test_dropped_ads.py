"""Experiment-4 advertisers drop refused ads, and nothing else.

A refused or failed push is a missed update and the advertiser carries
on; a bug in the request path (here a ``TypeError``) must surface, on
the DES and on the asyncio runtime alike.  Both runtimes host the same
advertiser loop, so the failure is injected where the push lands: the
Manager's ingest service.
"""

import asyncio

import pytest

from repro.core.runner import new_run
from repro.core.topology import compile_plan
from repro.core.topology.catalog import exp4_plan
from repro.errors import ServiceUnavailableError
from repro.live.runtime import AsyncioRuntime

ERRORS = {
    "refused": ServiceUnavailableError("ingest refused"),
    "bug": TypeError("a bug in the request path"),
}


def des_advertisers(monkeypatch, error):
    """Run three DES advertisers whose every push raises ``error``."""

    def failing_handler(service, request):
        raise error
        yield  # a generator, like every service handler

    run = new_run(1)
    spawn, advertisers = run.sim.spawn, []

    def recording_spawn(generator, name=None):
        process = spawn(generator, name=name)
        if name and name.startswith("adv:"):
            advertisers.append(process)
        return process

    monkeypatch.setattr(run.sim, "spawn", recording_spawn)
    dep = compile_plan(exp4_plan("hawkeye-manager", 3), run)
    dep.services["manager:ingest"].handler = failing_handler
    run.sim.run(until=100.0)  # three 30 s intervals
    assert len(advertisers) == 3
    return advertisers


def test_des_advertiser_drops_a_refused_ad(monkeypatch):
    assert not any(process.triggered for process in des_advertisers(monkeypatch, ERRORS["refused"]))


def test_des_advertiser_does_not_swallow_a_type_error(monkeypatch):
    for process in des_advertisers(monkeypatch, ERRORS["bug"]):
        assert process.triggered and not process.ok
        assert process.value is ERRORS["bug"]


async def live_advertisers(error):
    """Run three live advertisers whose every push raises ``error``.

    Returns how many pushes reached the ingest door and what ``stop()``
    raised (None when it returned cleanly).
    """
    dep = AsyncioRuntime(time_scale=0.002).compile(exp4_plan("hawkeye-manager", 3))
    pushes = []

    async def failing_request(payload):
        pushes.append(payload)
        raise error

    dep.services["manager:ingest"].request = failing_request
    await dep.start()
    await asyncio.sleep(0.5)  # ~8 intervals
    try:
        await dep.stop()
    except Exception as exc:  # noqa: BLE001 - the test inspects what surfaced
        return len(pushes), exc
    return len(pushes), None


@pytest.mark.parametrize("error", ["refused", "bug"])
def test_live_advertiser_drops_only_refused_ads(error):
    pushes, raised = asyncio.run(live_advertisers(ERRORS[error]))
    if error == "refused":
        assert raised is None
        assert pushes > 3  # every advertiser kept pushing after its refusal
    else:
        assert raised is ERRORS["bug"]
        assert pushes == 3  # each advertiser died on its first push
