"""Integration tests for the fault experiments.

Short windows keep the module fast; the assertions target the
qualitative resilience story — outages dent goodput, retries recover
it, soft state re-registers, stale mediation plans bridge registry
outages — plus exact determinism from the seed.
"""

import pytest

from repro.core.desruntime import kernel_service
from repro.core.experiments import exp1, faults
from repro.core.kernels import ProducerServletKernel, RegistryKernel
from repro.core.params import default_params
from repro.core.runner import new_run
from repro.errors import ServiceUnavailableError
from repro.rgma.producer import make_default_producers
from repro.rgma.producer_servlet import ProducerServlet
from repro.rgma.registry import Registry
from repro.rgma.resilience import MediatorStats, mediated_query
from repro.sim.faults import CrashRestartSchedule, FaultPlan, install_faults
from repro.sim.resources import Mutex
from repro.sim.rpc import RetryPolicy

FAST = dict(warmup=5.0, window=20.0)


class TestRunFaultPoint:
    def test_outage_dents_goodput_and_recovers(self):
        r = faults.run_fault_point("mds-gris-cache", 50, seed=1, **FAST)
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
        a = faults.run_fault_point("mds-gris-cache", 30, seed=9, **FAST)
        b = faults.run_fault_point("mds-gris-cache", 30, seed=9, **FAST)
        assert a.faulted.resilience == b.faulted.resilience
        assert a.baseline.summary == b.baseline.summary

    def test_flapping_injects_three_outages(self):
        r = faults.run_fault_point("hawkeye-agent", 30, seed=1, schedule="flapping", **FAST)
        res = r.faulted.resilience
        assert res is not None
        assert res.downtime == pytest.approx(3 * 0.06 * FAST["window"])

    def test_registration_scenario_re_registers(self):
        r = faults.run_fault_point("mds-registration", 20, seed=1, **FAST)
        # The outage (4 s) outlives the lease ttl (6 s) minus the renew
        # interval, so leases expire and every registrar re-registers.
        assert r.extras["missed_cycles"] >= 1
        assert r.extras["re_registrations"] >= 1
        assert r.extras["registered_at_end"] == 5
        assert r.extras["renewals"] > r.extras["re_registrations"]

    def test_advertise_scenario_misses_ads(self):
        r = faults.run_fault_point("hawkeye-advertise", 20, seed=1, **FAST)
        assert r.extras["ads_missed"] >= 1
        assert r.extras["ads_delivered"] >= 1
        assert r.extras["max_staleness"] > faults.ADVERTISE_INTERVAL

    def test_unknown_system_and_schedule(self):
        with pytest.raises(ValueError):
            faults.run_fault_point("no-such-system", 10, **FAST)
        with pytest.raises(ValueError):
            faults.run_fault_point("mds-giis", 10, schedule="meteor", **FAST)

    def test_drop_layer_on_top_of_schedule(self):
        # breaker=False so rejected-without-a-try calls don't dilute the
        # amplification figure below 1.
        r = faults.run_fault_point("mds-giis", 30, seed=1, drop=0.2, breaker=False, **FAST)
        res = r.faulted.resilience
        assert res is not None
        # Drops add retries beyond what the outage alone provokes.
        assert res.retries > 0
        assert res.breaker_rejections == 0
        assert r.retry_amplification > 1.0


class TestExp1FaultWiring:
    def test_rgma_faults_land_on_producer_servlet(self):
        plan = FaultPlan(schedule=CrashRestartSchedule.single(10.0, 4.0))
        retry = RetryPolicy(max_attempts=3, base_backoff=0.5, jitter=0.0)
        r = exp1.run_point("rgma-ps-lucky", 20, seed=1, retry=retry, faults=plan, **FAST)
        assert not r.crashed
        assert r.resilience is not None
        assert r.resilience.downtime == pytest.approx(4.0)
        (ps,) = plan.installed_on
        assert ps.name.startswith("ps:")
        assert ps.outage_log == [(10.0, 14.0)]

    def test_baseline_run_has_no_resilience_summary(self):
        r = exp1.run_point("mds-gris-cache", 10, seed=1, **FAST)
        assert r.resilience is None


class TestMediatedQuery:
    """Registry lookups fall back to cached plans during an outage."""

    def _scenario(self):
        run = new_run(3, default_params(), monitored=("lucky1",))
        p = run.params
        registry = Registry("lucky1")
        servlet = ProducerServlet("lucky3-ps")
        for producer in make_default_producers("lucky3.mcs.anl.gov", 5, seed=3):
            servlet.attach(producer, registry, now=0.0, lease=1e9)
        servlet.publish_all(now=0.0)
        reg_svc = kernel_service(
            run.sim,
            run.net,
            run.testbed.lucky["lucky1"],
            RegistryKernel(registry, p.registry).spec(),
        )
        ps_kernel = ProducerServletKernel(
            servlet, p.producer_servlet, db_lock=Mutex(run.sim, name="ps:db")
        )
        ps_svc = kernel_service(
            run.sim, run.net, run.testbed.lucky["lucky3"], ps_kernel.spec()
        )
        return run, reg_svc, ps_svc

    def test_stale_plan_bridges_registry_outage(self):
        run, reg_svc, ps_svc = self._scenario()
        install_faults(
            run.sim, [reg_svc], FaultPlan(schedule=CrashRestartSchedule.single(5.0, 10.0))
        )
        stats = MediatorStats()
        answers = []

        def consumer(sim):
            for _ in range(3):  # t=0 fresh, t=8 stale, t=16 fresh again
                answer = yield from mediated_query(
                    sim,
                    run.net,
                    run.testbed.uc[0],
                    reg_svc,
                    ps_svc,
                    "SELECT * FROM cpuLoad",
                    "cpuLoad",
                    lookup_retry=RetryPolicy(max_attempts=2, base_backoff=0.5, jitter=0.0),
                    stats=stats,
                )
                answers.append(answer)
                yield sim.timeout(8.0)

        run.sim.spawn(consumer(run.sim))
        run.sim.run(until=20.0)
        assert len(answers) == 3
        assert all(a["rows"] > 0 for a in answers)
        assert stats.lookups == 2
        assert stats.stale_plans_used == 1
        assert stats.lookup_failures == 0
        assert stats.queries == 3

    def test_no_cached_plan_means_failure(self):
        run, reg_svc, ps_svc = self._scenario()
        reg_svc.fail("down from the start")
        stats = MediatorStats()
        outcomes = []

        def consumer(sim):
            try:
                yield from mediated_query(
                    sim,
                    run.net,
                    run.testbed.uc[0],
                    reg_svc,
                    ps_svc,
                    "SELECT * FROM cpuLoad",
                    "cpuLoad",
                    stats=stats,
                )
            except ServiceUnavailableError:
                outcomes.append("failed")

        run.sim.spawn(consumer(run.sim))
        run.sim.run(until=5.0)
        assert outcomes == ["failed"]
        assert stats.lookup_failures == 1
        assert stats.queries == 0
