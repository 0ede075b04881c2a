"""Tests for Hawkeye: modules, agent integration, manager, advertise."""

import numpy as np
import pytest

from repro.errors import ServiceCrashError
from repro.hawkeye import (
    MAX_MODULES,
    Agent,
    Manager,
    Module,
    make_default_modules,
    replicated_modules,
    synthesize_startd_ad,
)


# -- modules -----------------------------------------------------------------


def test_standard_install_has_eleven_modules():
    modules = make_default_modules()
    assert len(modules) == 11


def test_replicated_modules_clone_vmstat():
    modules = replicated_modules(90)
    assert len(modules) == 90
    assert sum(1 for m in modules if m.name.startswith("vmstat#")) == 79


def test_module_collect_produces_classad():
    module = Module("vmstat")
    ad = Agent("lucky4", [module], seed=0).query_module("vmstat", now=3.0).ad
    assert ad.eval("vmstat_LastUpdate") == 3.0
    assert 0.0 <= ad.eval("vmstat_CpuLoad") <= 2.0
    assert len(ad) == len(module.plan) == module.nattrs


# -- agent ---------------------------------------------------------------


def test_agent_integrates_modules_into_startd_ad():
    agent = Agent("lucky4.mcs.anl.gov", make_default_modules(), seed=1)
    answer = agent.integrate(now=10.0)
    ad = answer.ad
    assert ad.eval("MyType") == "Machine"
    assert ad.eval("Machine") == "lucky4.mcs.anl.gov"
    assert answer.modules_run == 11
    assert answer.exec_cost == pytest.approx(11 * 0.02)
    # All module attrs merged in.
    assert ad.eval("vmstat_CpuLoad") is not None
    assert len(ad) > 11 * 5


def test_agent_integration_ops_superlinear():
    small = Agent("a", replicated_modules(10), seed=1).integrate().integration_ops
    big = Agent("b", replicated_modules(90), seed=1).integrate().integration_ops
    # 9x the modules must cost much more than 9x the merges.
    assert big > 25 * small


def test_agent_query_recollects_every_time():
    agent = Agent("m", make_default_modules(), seed=1)
    a1 = agent.query(now=0.0)
    a2 = agent.query(now=1.0)
    assert a1.modules_run == a2.modules_run == 11
    assert agent.queries == 2
    assert a1.ad.eval("vmstat_CpuLoad") != a2.ad.eval("vmstat_CpuLoad")  # fresh readings


def test_agent_query_single_module():
    agent = Agent("m", make_default_modules(), seed=1)
    answer = agent.query_module("df", now=5.0)
    assert answer.modules_run == 1
    assert answer.ad.eval("df_DiskFreeMB") is not None
    with pytest.raises(KeyError):
        agent.query_module("nonesuch")


def test_agent_module_limit_crashes_startd():
    agent = Agent("m", replicated_modules(MAX_MODULES), seed=0)
    with pytest.raises(ServiceCrashError):
        agent.add_module(Module("one-too-many"))
    assert agent.crashed
    with pytest.raises(ServiceCrashError):
        agent.query()


def test_agent_startd_ad_counter():
    agent = Agent("m", make_default_modules(), seed=1)
    ad, answer = agent.make_startd_ad(now=0.0)
    assert agent.ads_sent == 1
    assert ad is answer.ad


# -- manager -----------------------------------------------------------------


@pytest.fixture
def pool():
    manager = Manager("lucky3")
    agents = []
    for i in range(6):
        agent = Agent(f"lucky{i}.mcs.anl.gov", make_default_modules(), seed=i)
        manager.register_agent(agent)
        ad, _answer = agent.make_startd_ad(now=0.0)
        manager.receive_ad(ad, now=0.0)
        agents.append(agent)
    return manager, agents


def test_manager_stores_pool_ads(pool):
    manager, agents = pool
    assert manager.pool_size == 6
    assert manager.agent_count == 6


def test_manager_query_machine_indexed(pool):
    manager, _ = pool
    answer = manager.query_machine("lucky2.mcs.anl.gov")
    assert answer.index_hit
    assert len(answer.ads) == 1
    assert answer.scanned == 1


def test_manager_constraint_query_scans(pool):
    manager, _ = pool
    answer = manager.query("CpuLoad > 100")  # matches nothing: worst case
    assert answer.ads == []
    assert answer.scanned == 6
    assert answer.ops >= 6


def test_manager_agent_directory(pool):
    manager, agents = pool
    agent = manager.agent_address("LUCKY3.mcs.anl.gov")
    assert agent is agents[3]
    assert manager.agent_address("ghost") is None


def test_manager_ad_replacement(pool):
    manager, agents = pool
    ad, _ = agents[0].make_startd_ad(now=60.0)
    manager.receive_ad(ad, now=60.0)
    assert manager.pool_size == 6  # replaced, not duplicated
    assert manager.ads_received == 7


def test_manager_expiry(pool):
    manager, _ = pool
    assert manager.expire(now=10_000.0) == 6
    assert manager.pool_size == 0


def advertise(manager, machine, rng, now):
    """One ``hawkeye_advertise`` run: a synthetic Startd ad, delivered."""
    ad = synthesize_startd_ad(machine, rng, now)
    manager.receive_ad(ad, now=now)
    return ad


def test_manager_query_follows_receive_expire_and_remove(pool):
    """A repeated constraint is answered from the pool as it is now."""
    manager, _ = pool
    constraint = "hawkeye_metric0 >= 0"  # only hawkeye_advertise ads carry it
    empty = manager.query(constraint)
    assert empty.ads == [] and empty.scanned == 6 and not empty.index_hit

    rng = np.random.default_rng(3)
    first = advertise(manager, "sim0001.pool", rng, now=100.0)
    second = advertise(manager, "sim0002.pool", rng, now=500.0)
    answer = manager.query(constraint)
    assert answer.ads == [first, second] and answer.scanned == 8
    assert answer.ops > empty.ops

    replacement = advertise(manager, "sim0001.pool", rng, now=600.0)
    assert manager.query(constraint).ads == [replacement, second]  # same slot, new ad

    assert manager.expire(now=1_000.0) == 6  # the agents' ads, advertised at 0
    after_expiry = manager.query(constraint)
    assert after_expiry.ads == [replacement, second] and after_expiry.scanned == 2

    assert manager.collector.remove("sim0002.pool")
    after_remove = manager.query(constraint)
    assert after_remove.ads == [replacement] and after_remove.scanned == 1
    assert manager.expire(now=2_000.0) == 1
    gone = manager.query(constraint)
    assert gone.ads == [] and gone.scanned == 0 and gone.ops == 0


# -- triggers -------------------------------------------------------------


def test_trigger_fires_on_matching_machines(pool):
    manager, _ = pool
    from repro.hawkeye import Trigger

    killed = []
    trigger = Trigger.from_requirements(
        "high-load",
        "TARGET.vmstat_CpuLoad >= 0.0",  # matches every machine
        lambda ad: killed.append(str(ad.get_scalar("Machine"))),
    )
    manager.submit_trigger(trigger)
    firings = manager.check_triggers(now=5.0)
    assert len(firings) == 6
    assert len(killed) == 6
    assert all(f.trigger_name == "high-load" for f in firings)


def test_trigger_no_match_no_firing(pool):
    manager, _ = pool
    from repro.hawkeye import Trigger

    trigger = Trigger.from_requirements(
        "impossible", "TARGET.vmstat_CpuLoad > 50", lambda ad: None
    )
    manager.submit_trigger(trigger)
    assert manager.check_triggers() == []
    assert manager.triggers.evaluations > 0  # work was still done


def test_trigger_withdraw(pool):
    manager, _ = pool
    from repro.hawkeye import Trigger

    manager.submit_trigger(Trigger.from_requirements("t", "TRUE", lambda ad: None))
    assert manager.triggers.withdraw("t")
    assert not manager.triggers.withdraw("t")
    assert manager.check_triggers() == []


# -- hawkeye_advertise ----------------------------------------------------------


def test_synthesize_startd_ad_shape():
    ad = synthesize_startd_ad("sim0001.pool", np.random.default_rng(0), now=1.0)
    assert ad.eval("Machine") == "sim0001.pool"
    assert len(ad) >= 40


def test_advertise_delivers_to_manager():
    manager = Manager("m")
    rng = np.random.default_rng(0)
    advertise(manager, "fake1", rng, now=0.0)
    assert manager.pool_size == 1
    advertise(manager, "fake1", rng, now=30.0)
    assert manager.pool_size == 1  # replacement, not growth
    assert manager.ads_received == 2
