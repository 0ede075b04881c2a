"""Integration tests for the fault experiments.

Short windows keep the module fast; the assertions target the
qualitative resilience story — outages dent goodput, retries recover
it, soft state re-registers — plus exact determinism from the seed.
"""

import dataclasses

import pytest

from repro.core.experiments import exp1, faults
from repro.core.experiments.scenarios import run_scenario_point
from repro.core.runner import new_run
from repro.core.scenario.apply import apply_scenario
from repro.core.scenario.model import FaultModel, Outage, Scenario
from repro.core.topology import compile_plan
from repro.core.topology.catalog import exp1_plan

FAST = dict(warmup=5.0, window=20.0)


def fault_point(system, users, seed=1, schedule="outage", **knobs):
    """One baseline/faulted pair; ``knobs`` tune the schedule's FaultModel."""
    scenario = faults.fault_scenario(schedule, FAST["warmup"], FAST["window"])
    scenario = dataclasses.replace(
        scenario, faults=dataclasses.replace(scenario.faults, **knobs)
    )
    (point,) = faults.sweep(system, scenario, x_values=(users,), seed=seed, **FAST)
    return point


class TestRunFaultPoint:
    def test_outage_dents_goodput_and_recovers(self):
        r = fault_point("mds-gris-cache", 50)
        base, res = r.baseline.resilience, r.faulted.resilience
        assert base is not None and res is not None
        assert base.downtime == 0.0
        assert res.downtime == pytest.approx(0.2 * FAST["window"])
        assert res.goodput < base.goodput  # the outage costs something
        # In-flight requests drain during the outage, but the success
        # rate still dips below the healthy pre-outage level.
        assert res.during_outage_rate < res.pre_outage_rate
        assert r.recovered_fraction > 0.7
        assert res.attempts > res.logical_calls - res.breaker_rejections

    def test_deterministic_from_seed(self):
        a = fault_point("mds-gris-cache", 30, seed=9)
        b = fault_point("mds-gris-cache", 30, seed=9)
        assert a.faulted.resilience == b.faulted.resilience
        assert a.baseline.summary == b.baseline.summary

    def test_flapping_injects_three_outages(self):
        r = fault_point("hawkeye-agent", 30, schedule="flapping")
        res = r.faulted.resilience
        assert res is not None
        assert res.downtime == pytest.approx(3 * 0.06 * FAST["window"])

    def test_registration_scenario_re_registers(self):
        r = fault_point("mds-registration", 20)
        # The outage (4 s) outlives the lease ttl (6 s) minus the renew
        # interval, so leases expire and every registrar re-registers.
        assert r.extras["missed_cycles"] >= 1
        assert r.extras["re_registrations"] >= 1
        assert r.extras["registered_at_end"] == 5
        assert r.extras["renewals"] > r.extras["re_registrations"]

    def test_advertise_scenario_misses_ads(self):
        r = fault_point("hawkeye-advertise", 20)
        assert r.extras["ads_missed"] >= 1
        assert r.extras["ads_delivered"] >= 1
        # The Agents advertise every 10 s; the outage stretches a gap past it.
        assert r.extras["max_staleness"] > 10.0

    def test_unknown_system_and_schedule(self):
        with pytest.raises(ValueError):
            fault_point("no-such-system", 10)
        with pytest.raises(ValueError):
            fault_point("mds-giis", 10, schedule="meteor")

    def test_drop_layer_on_top_of_schedule(self):
        # breaker=False so rejected-without-a-try calls don't dilute the
        # amplification figure below 1.
        r = fault_point("mds-giis", 30, drop=0.2, breaker=False)
        res = r.faulted.resilience
        assert res is not None
        # Drops add retries beyond what the outage alone provokes.
        assert res.retries > 0
        assert res.breaker_rejections == 0
        assert r.retry_amplification > 1.0


class TestExp1FaultWiring:
    CRASH = Scenario(name="crash", faults=FaultModel(outages=(Outage(10.0, 4.0),)))

    def test_rgma_faults_land_on_producer_servlet(self):
        point = run_scenario_point("rgma-ps-lucky", self.CRASH, 20, seed=1, **FAST)
        r = point.result
        assert not r.crashed
        assert r.resilience is not None
        assert r.resilience.downtime == pytest.approx(4.0)
        # The same plan and scenario, installed by hand: the outage lands
        # on the plan's fault target, the ProducerServlet.
        run = new_run(1, monitored=("lucky3",))
        dep = compile_plan(exp1_plan("rgma-ps-lucky", 1), run)
        apply_scenario(self.CRASH, run, dep, horizon=25.0)
        run.sim.run(until=25.0)
        (ps,) = dep.fault_targets
        assert ps.name.startswith("ps:")
        assert ps.outage_log == [(10.0, 14.0)]

    def test_baseline_run_has_no_resilience_summary(self):
        r = exp1.run_point("mds-gris-cache", 10, seed=1, **FAST)
        assert r.resilience is None
