"""Benchmarks for the declarative scenario plane.

Runs every named scenario on a representative system, checks the
headline scenario invariants (conservation under churn, real message
loss under WAN weather, a flash crowd that actually raises measured
throughput), and runs a small metamorphic fuzz batch.
"""

import pytest

from benchmarks.conftest import BENCH_WARMUP, BENCH_WINDOW, emit
from repro.core.experiments import exp1, scenarios

FAST = dict(warmup=BENCH_WARMUP, window=BENCH_WINDOW)

# One representative system per named scenario: the cached GRIS for the
# arrival spike, the Java Registry for churn (its unregisters are
# explicit, unlike MDS's silent soft-state expiry), the GIIS behind the
# client WAN for weather, the Agent for the client mix.
SCENARIO_SYSTEMS = (
    ("flash-crowd", "mds-gris-cache", 100),
    ("churn-diurnal", "rgma-registry-uc", 50),
    ("wan-weather", "mds-giis", 50),
    ("client-mix", "hawkeye-agent", 100),
)

#: Fuzz batch seed — distinct from CI's SMOKE_SEED so this batch
#: exercises a second fixed trajectory.
FUZZ_SEED = 20030915
FUZZ_COUNT = 3


@pytest.mark.parametrize("name,system,users", SCENARIO_SYSTEMS)
def test_named_scenario_point(name, system, users):
    """One exact-DES point per named scenario, audit invariants checked."""
    point = scenarios.run_scenario_point(system, name, users, seed=1, **FAST)
    audit = point.audit
    assert audit is not None and audit.client_ok > 0
    for svc_name, svc in audit.services.items():
        assert svc.arrived == svc.accounted, svc_name
        assert svc.max_concurrent <= svc.capacity, svc_name
    if name == "churn-diurnal":
        assert audit.churn_leaves > 0
        assert audit.churn_rejoins <= audit.churn_leaves
        assert audit.directory_unregisters > 0
    if name == "wan-weather":
        assert audit.wan_episodes > 0
        assert audit.messages_lost > 0


def test_flash_crowd_raises_throughput():
    """The spike adds offered load; an unsaturated GRIS must serve it."""
    plain = exp1.run_point("mds-gris-cache", 100, seed=1, **FAST)
    under = scenarios.run_scenario_point("mds-gris-cache", "flash-crowd", 100, seed=1, **FAST)
    assert under.result.throughput >= plain.throughput * 0.98


def test_fuzz_batch():
    """A small fixed-seed metamorphic batch must come back green."""
    from repro.core.scenario.fuzz import run_fuzz

    report = run_fuzz(FUZZ_SEED, FUZZ_COUNT)
    assert report.count == FUZZ_COUNT
    assert not report.failures, [r.violations for r in report.failures]


def test_scenario_tables():
    """Emit the named-scenario table (all four, representative systems)."""
    rows = [
        scenarios.run_scenario_point(system, name, users, seed=1, **FAST)
        for name, system, users in SCENARIO_SYSTEMS
    ]
    emit("scenario_named", scenarios.format_scenario_table(rows))
    assert all(r.result.throughput > 0 for r in rows)
