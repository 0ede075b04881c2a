"""The Agent's batched draws against one scalar numpy call per reading.

``DrawPlan`` reproduces numpy's ``Generator.integers``/``uniform`` on a
PCG64 word batch; the Agent and ``synthesize_startd_ad`` build their ads
from it.  Each is held to the scalar reference in :mod:`tests.hawkeye.oracle`:
same values, same bytes, same counts, same generator state afterwards.
"""

import random

import numpy as np
import pytest

from repro.hawkeye import Agent, Module, replicated_modules, synthesize_startd_ad
from repro.core.draws import DrawPlan, Integers, Uniform
from tests.hawkeye import oracle


def scalar_draws(rng, specs):
    out = []
    for spec in specs:
        if isinstance(spec, Uniform):
            x = float(rng.uniform(spec.lo, spec.hi))
            out.append(x if spec.digits is None else round(x, spec.digits))
        else:
            out.append(int(rng.integers(spec.lo, spec.hi)))
    return out


def random_specs(pick, count):
    specs = []
    for _ in range(count):
        roll = pick.random()
        if roll < 0.25:
            lo, width = pick.choice([0.0, -3.0, 1.5]), pick.choice([2.0, 12_500.0, 1e6])
            specs.append(Uniform(lo, lo + width, pick.choice([None, 1, 3])))
        elif roll < 0.30:
            specs.append(Integers(-4, -4 + 2**32))  # the whole 32-bit range
        else:
            lo = pick.randrange(-100, 100)
            specs.append(Integers(lo, lo + pick.randrange(1, 60_000)))
    return specs


def assert_lockstep(rng, reference):
    """Same state, and the same draws next from it."""
    assert rng.bit_generator.state == reference.bit_generator.state
    assert int(rng.integers(0, 1000)) == int(reference.integers(0, 1000))
    assert float(rng.uniform()) == float(reference.uniform())


@pytest.mark.parametrize("buffered", [0, 1])
def test_draw_plan_matches_scalar_numpy_calls(buffered):
    pick = random.Random(buffered)
    for seed in range(200):
        specs = random_specs(pick, pick.randrange(0, 40))
        plan = DrawPlan(specs)
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:  # leave the upper half of a word in PCG64's 32-bit buffer
            assert int(rng.integers(0, 10)) == int(reference.integers(0, 10))
        assert rng.bit_generator.state["has_uint32"] == buffered
        for _ in range(3):
            got, want = plan.draw(rng), scalar_draws(reference, specs)
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
            assert rng.bit_generator.state == reference.bit_generator.state
        assert_lockstep(rng, reference)


def test_lemire_rejections_pull_words_past_the_batch():
    # 2**32 mod (2**31 + 1) = 2**31 - 1: about half of all draws are rejected.
    specs = [Integers(5, 5 + 2**31 + 1), Uniform(0.0, 1.0)] * 20
    plan = DrawPlan(specs)
    for seed in range(50):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = np.random.default_rng(seed).bit_generator
        batch.random_raw(20 + 10)  # 20 uniform words, 20 halves: the no-rejection batch
        assert plan.draw(rng) == scalar_draws(reference, specs)
        assert rng.bit_generator.state["state"] != batch.state["state"]  # drew past it
        assert_lockstep(rng, reference)


def test_draw_plan_rejects_ranges_it_cannot_reproduce():
    for spec in (Integers(3, 4), Integers(0, 2**32 + 1)):
        with pytest.raises(ValueError):
            DrawPlan([spec])


# -- the Agent ---------------------------------------------------------------

MODULE_SETS = {
    "one": lambda: replicated_modules(1),
    "default": lambda: replicated_modules(11),
    "fifty": lambda: replicated_modules(50),
    "limit": lambda: replicated_modules(98),
    "duplicates": lambda: [
        Module("vmstat"),
        Module("df", exec_cost=0.1),
        Module("vmstat", nattrs=3),
        Module("VMSTAT", nattrs=12),  # same keys, new spellings
        Module("mystery", nattrs=1),
    ],
    "nattrs": lambda: [Module(n, nattrs=k) for n, k in [("network", 2), ("os", 20), ("x", 9)]],
}


def assert_same_answer(answer, reference):
    ad, modules_run, exec_cost, integration_ops = reference
    text = ad.serialize()
    assert answer.ad.sized_text() == (text, len(text) + 2)
    assert answer.ad.serialize() == text
    assert answer.ad.names() == ad.names()
    assert len(answer.ad) == len(ad)
    assert answer.modules_run == modules_run
    assert answer.exec_cost == exec_cost
    assert answer.integration_ops == integration_ops


@pytest.mark.parametrize("modules", sorted(MODULE_SETS))
def test_agent_matches_the_scalar_oracle(modules):
    for seed in range(5):
        mods = MODULE_SETS[modules]()
        agent = Agent("lucky4.mcs.anl.gov", mods, seed=seed)
        rng = np.random.default_rng(seed)
        for q in range(6):
            now = 30 * q if q % 2 else 30.5 * q  # int and float clocks
            answer = agent.query(now=now)
            assert_same_answer(answer, oracle.integrate(mods, "lucky4.mcs.anl.gov", rng, now))
            assert_lockstep(agent._rng, rng)


def test_query_module_matches_the_scalar_oracle():
    mods = MODULE_SETS["duplicates"]()
    agent = Agent("m", mods, seed=3)
    rng = np.random.default_rng(3)
    for name, now in [("df", 1.5), ("vmstat", 2), ("mystery", 3.0), ("VMSTAT", 4)]:
        module = next(m for m in mods if m.name == name)
        answer = agent.query_module(name, now=now)
        fragment = oracle.collect(module, "m", rng, now)
        assert_same_answer(answer, (fragment, 1, module.exec_cost, len(fragment)))
        assert_lockstep(agent._rng, rng)
        assert_same_answer(agent.query(now=now), oracle.integrate(mods, "m", rng, now))


def test_synthesized_ads_match_the_scalar_oracle():
    for seed in range(10):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for i in range(8):
            machine, now, nattrs = f"sim{i:04d}.pool", 30.0 * i, (40, 40, 12, 5)[i % 4]
            ad = synthesize_startd_ad(machine, rng, now=now, nattrs=nattrs)
            want = oracle.synthesize_startd_ad(machine, reference, now=now, nattrs=nattrs)
            assert ad.serialize() == want.serialize()
            assert rng.bit_generator.state == reference.bit_generator.state
        assert_lockstep(rng, reference)
