"""Integration tests: each experiment reproduces the paper's key shapes.

These use short (5 s warm-up + 20 s) windows so the whole module stays
fast; the assertions target the *qualitative* findings of the paper,
which are robust to the shorter window.
"""

import pytest

from repro.core.experiments import exp1, exp2, exp3, exp4

FAST = dict(warmup=5.0, window=20.0)


# -- Experiment 1 ------------------------------------------------------------


class TestExp1:
    def test_cached_gris_scales_with_users(self):
        low = exp1.run_point("mds-gris-cache", 50, seed=1, **FAST)
        high = exp1.run_point("mds-gris-cache", 400, seed=1, **FAST)
        # "near linear relationship with the number of concurrent users"
        assert high.throughput > 4 * low.throughput
        assert high.throughput > 60

    def test_cached_gris_600_users(self):
        """The heaviest Exp-1 point still scales."""
        r = exp1.run_point("mds-gris-cache", 600, seed=1, **FAST)
        assert r.throughput > 60

    @pytest.mark.parametrize("system", exp1.SYSTEMS)
    def test_every_system_completes_at_100_users(self, system):
        r = exp1.run_point(system, 100, seed=1, **FAST)
        assert r.summary.completed > 0

    def test_uncached_gris_caps_below_two(self):
        r = exp1.run_point("mds-gris-nocache", 200, seed=1, **FAST)
        assert r.throughput < 2.0  # "does not exceed 2 queries per second"
        assert r.throughput > 1.0

    def test_caching_is_decisive(self):
        cached = exp1.run_point("mds-gris-cache", 200, seed=1, **FAST)
        uncached = exp1.run_point("mds-gris-nocache", 200, seed=1, **FAST)
        assert cached.throughput > 15 * uncached.throughput

    def test_gris_cache_response_plateau(self):
        """~4 s response for >=50 users (Fig 6)."""
        r200 = exp1.run_point("mds-gris-cache", 200, seed=1, **FAST)
        r400 = exp1.run_point("mds-gris-cache", 400, seed=1, **FAST)
        assert 2.5 < r200.response_time < 5.5
        assert 2.5 < r400.response_time < 5.5

    def test_agent_saturates_between_gris_variants(self):
        agent = exp1.run_point("hawkeye-agent", 300, seed=1, **FAST)
        assert 25 < agent.throughput < 70

    def test_rgma_response_grows_with_users(self):
        # (The short test window truncates queueing delay, so the growth
        # factor here is below the full-window ~3x.)
        r100 = exp1.run_point("rgma-ps-lucky", 100, seed=1, **FAST)
        r300 = exp1.run_point("rgma-ps-lucky", 300, seed=1, **FAST)
        assert r300.response_time > 1.4 * r100.response_time
        assert r300.throughput < 15  # the ProducerServlet cap

    def test_uc_variant_rejects_more_than_100_users(self):
        with pytest.raises(ValueError):
            exp1.run_point("rgma-ps-uc", 200, seed=1, **FAST)

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            exp1.run_point("nonesuch", 10, seed=1, **FAST)

    def test_sweep_skips_uc_points_beyond_limit(self):
        points = exp1.sweep("rgma-ps-uc", x_values=(10, 600), seed=1, **FAST)
        assert [p.x for p in points] == [10]


# -- Experiment 2 ------------------------------------------------------------


class TestExp2:
    @pytest.mark.parametrize("system", ("mds-giis", "hawkeye-manager", "rgma-registry-lucky"))
    def test_every_system_completes_at_300_users(self, system):
        r = exp2.run_point(system, 300, seed=1, **FAST)
        assert r.summary.completed > 0

    def test_giis_good_scalability(self):
        r = exp2.run_point("mds-giis", 400, seed=1, **FAST)
        assert r.throughput > 80
        assert r.response_time < 2.0  # "remains relatively small (less than 2s)"

    def test_manager_good_scalability(self):
        r = exp2.run_point("hawkeye-manager", 400, seed=1, **FAST)
        assert r.throughput > 80
        assert r.response_time < 2.5

    def test_giis_load_roughly_twice_manager(self):
        giis = exp2.run_point("mds-giis", 400, seed=1, **FAST)
        manager = exp2.run_point("hawkeye-manager", 400, seed=1, **FAST)
        assert giis.cpu_load > 1.7 * manager.cpu_load

    def test_registry_lower_throughput_higher_load(self):
        registry = exp2.run_point("rgma-registry-lucky", 400, seed=1, **FAST)
        giis = exp2.run_point("mds-giis", 400, seed=1, **FAST)
        assert registry.throughput < giis.throughput / 3
        assert registry.load1 > 2 * giis.load1
        # Fig 11's tall R-GMA curve (the 60 s load1 EWMA has not fully
        # converged inside the short test window; full runs reach ~5).
        assert registry.load1 > 2.0

    def test_registry_variants_similar(self):
        """"little difference between the performances ... when accessed by
        two different kinds of simulated Consumers" (§3.4)."""
        lucky = exp2.run_point("rgma-registry-lucky", 100, seed=1, **FAST)
        uc = exp2.run_point("rgma-registry-uc", 100, seed=1, **FAST)
        assert uc.throughput == pytest.approx(lucky.throughput, rel=0.25)


# -- Experiment 3 ------------------------------------------------------------


class TestExp3:
    def test_cached_gris_still_fast_at_90_collectors(self):
        r = exp3.run_point("mds-gris-cache", 90, seed=1, **FAST)
        # "7 queries per second with a less than 1-second response time"
        assert r.throughput > 5.0
        assert r.response_time < 1.0

    def test_others_collapse_at_90_collectors(self):
        for system in ("mds-gris-nocache", "hawkeye-agent", "rgma-ps"):
            r = exp3.run_point(system, 90, seed=1, **FAST)
            assert r.throughput < 1.0, system  # "less than 1 query per second"
            # "over 10-second response times" — truncated slightly by the
            # short test window; full runs exceed 10 s for all three.
            assert r.response_time > 8.0, system

    def test_degradation_with_collectors(self):
        small = exp3.run_point("hawkeye-agent", 10, seed=1, **FAST)
        big = exp3.run_point("hawkeye-agent", 90, seed=1, **FAST)
        assert big.throughput < small.throughput / 5


# -- Experiment 4 ------------------------------------------------------------


class TestExp4:
    def test_giis_queryall_degrades(self):
        small = exp4.run_point("mds-giis-all", 10, seed=1, **FAST)
        big = exp4.run_point("mds-giis-all", 200, seed=1, **FAST)
        assert small.throughput > 5.0
        assert not big.crashed  # the last surviving point before the crash
        assert big.throughput < 1.0
        assert big.response_time > 10.0

    def test_giis_queryall_crashes_past_200(self):
        r = exp4.run_point("mds-giis-all", 300, seed=1, **FAST)
        assert r.crashed
        assert r.throughput == 0.0

    def test_giis_querypart_survives_500(self):
        r = exp4.run_point("mds-giis-part", 500, seed=1, **FAST)
        assert not r.crashed
        # Still badly degraded.
        assert r.throughput < 1.0

    def test_querypart_cheaper_than_queryall(self):
        part = exp4.run_point("mds-giis-part", 100, seed=1, **FAST)
        full = exp4.run_point("mds-giis-all", 100, seed=1, **FAST)
        assert part.throughput > full.throughput

    def test_manager_degrades_with_pool_size(self):
        small = exp4.run_point("hawkeye-manager", 10, seed=1, **FAST)
        big = exp4.run_point("hawkeye-manager", 1000, seed=1, **FAST)
        assert small.throughput > 4.0
        assert not big.crashed
        assert big.throughput < 1.0
        assert big.response_time > 10.0

    def test_no_aggregate_server_capable_past_100(self):
        """The paper's conclusion: no aggregate server handles >100 well."""
        for system, servers in (("mds-giis-all", 200), ("hawkeye-manager", 400)):
            r = exp4.run_point(system, servers, seed=1, **FAST)
            assert r.throughput < 2.0, system
