"""Experiment-4 advertisers drop refused ads, and nothing else.

A refused or failed push is a missed update and the advertiser carries
on; a bug in the request path (here a ``TypeError``) must surface, on
the DES and on the asyncio runtime alike.
"""

import asyncio

import pytest

from repro.core.runner import new_run
from repro.core.topology import hawkeye as des_hawkeye
from repro.core.topology.adapters import compile_plan
from repro.core.topology.catalog import exp4_plan
from repro.errors import ServiceUnavailableError
from repro.live.runtime import AsyncioRuntime

ERRORS = {
    "refused": ServiceUnavailableError("ingest refused"),
    "bug": TypeError("a bug in the request path"),
}


def des_advertisers(monkeypatch, error):
    """Run three DES advertisers whose every push raises ``error``."""

    def failing_call(*args, **kwargs):
        raise error
        yield  # a generator, like rpc.call

    monkeypatch.setattr(des_hawkeye, "call", failing_call)
    run = new_run(1)
    spawn, advertisers = run.sim.spawn, []

    def recording_spawn(generator, name=None):
        process = spawn(generator, name=name)
        if name and name.startswith("adv:"):
            advertisers.append(process)
        return process

    monkeypatch.setattr(run.sim, "spawn", recording_spawn)
    compile_plan(exp4_plan("hawkeye-manager", 3), run)
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
    """Run three live advertisers whose every push raises ``error``; the finished ones."""
    dep = AsyncioRuntime(time_scale=0.002).compile(exp4_plan("hawkeye-manager", 3))

    async def failing_request(payload):
        raise error

    dep.services["manager:ingest"].request = failing_request
    async with dep:
        done, _pending = await asyncio.wait(dep._tasks, timeout=0.5)  # ~8 intervals
        return [task.exception() for task in done]


@pytest.mark.parametrize("error", ["refused", "bug"])
def test_live_advertiser_drops_only_refused_ads(error):
    finished = asyncio.run(live_advertisers(ERRORS[error]))
    assert finished == ([] if error == "refused" else [ERRORS["bug"]] * 3)
