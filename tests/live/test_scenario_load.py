"""Scenario-driven load on the live asyncio plane (workload models only)."""

import asyncio
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.scenario.model import (
    ArrivalModel,
    ChurnModel,
    MixComponent,
    Scenario,
    ScenarioError,
    WanWeather,
)
from repro.core.topology.catalog import exp1_plan
from repro.live import loadgen
from repro.live.loadgen import reduce_log, run_load
from repro.live.runtime import AsyncioRuntime

TS = 0.02


def in_loop(coro):
    return asyncio.run(coro)


def test_mix_and_flash_scenario_drives_load():
    scenario = Scenario(
        name="live-mix",
        arrivals=(ArrivalModel(kind="flash", at=1.0, duration=4.0, peak=3.0),),
        mix=(
            MixComponent(fraction=0.5, pattern="constant"),
            MixComponent(fraction=0.5, pattern="exponential"),
        ),
    )

    async def main():
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan("mds-gris-cache"))
        async with dep:
            result = await run_load(
                dep, users=4, duration=8.0, seed=3, scenario=scenario
            )
        summary = reduce_log(result)
        assert summary.completed > 0
        assert result.protocol_errors == 0

    in_loop(main())


def test_environment_scenarios_are_rejected():
    async def main():
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan("mds-gris-cache"))
        async with dep:
            for scenario in (
                Scenario(name="churny", churn=ChurnModel()),
                Scenario(name="stormy", wan=WanWeather(rate=0.1)),
            ):
                with pytest.raises(ScenarioError, match="exact|DES"):
                    await run_load(dep, users=1, duration=1.0, scenario=scenario)

    in_loop(main())


class _Recording:
    """A numpy Generator that logs every draw it makes."""

    def __init__(self, rng, log):
        self._rng = rng
        self._log = log

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            value = method(*args, **kwargs)
            self._log.append((name, args, kwargs, np.asarray(value).tolist()))
            return value

        return draw


def test_empty_scenario_matches_scenario_free_run(monkeypatch):
    """A no-model scenario must not change a single think draw."""

    def run_once(scenario):
        draws: dict[object, list] = {}

        def default_rng(seed):
            return _Recording(np.random.default_rng(seed), draws.setdefault(seed, []))

        # run_load builds each user's generator (start spread and think
        # sampler) through its module's numpy.
        shim = SimpleNamespace(random=SimpleNamespace(default_rng=default_rng))
        monkeypatch.setattr(loadgen, "np", shim)

        async def main():
            dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan("mds-gris-cache"))
            async with dep:
                return await run_load(dep, users=3, duration=6.0, seed=7, scenario=scenario)

        result = in_loop(main())
        summary = reduce_log(result)
        assert summary.completed > 0
        assert summary.errors == 0 and result.protocol_errors == 0
        return draws

    plain = run_once(None)
    empty = run_once(Scenario(name="empty"))
    # How many requests fit in the wall-clock run may differ by a
    # boundary request, so each user's draws (start spread first, then
    # one think per request) are compared over their common prefix.
    assert set(plain) == set(empty) == {(7, uid) for uid in range(3)}
    for seed, draws in plain.items():
        common = min(len(draws), len(empty[seed]))
        assert common >= 1
        assert draws[:common] == empty[seed][:common]
