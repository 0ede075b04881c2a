"""Benchmarks for the fault-injection experiments.

Re-runs representative Exp-1/Exp-2 points plus the two native control-
plane scenarios under a crash/restart schedule, and checks the headline
resilience claims: retries recover most of the no-fault goodput after
the outage, and the circuit breaker caps retry amplification.
"""

import dataclasses

import pytest

from benchmarks.conftest import BENCH_WARMUP, BENCH_WINDOW, emit
from repro.core.experiments import faults

FAST = dict(warmup=BENCH_WARMUP, window=BENCH_WINDOW)

# One representative per system family, plus the native control planes.
FAULT_SYSTEMS = (
    "mds-gris-cache",
    "hawkeye-agent",
    "rgma-ps-lucky",
    "mds-giis",
    "mds-registration",
    "hawkeye-advertise",
)

# With max_attempts=4 the worst-case storm is 4 wire tries per logical
# call; the breaker must keep the realized run-level figure well below.
AMPLIFICATION_BOUND = 2.0
RECOVERY_FLOOR = 0.8


def fault_point(system, schedule, **knobs):
    """The baseline/faulted pair at 100 users; ``knobs`` tune the FaultModel."""
    scenario = faults.fault_scenario(schedule, BENCH_WARMUP, BENCH_WINDOW)
    scenario = dataclasses.replace(
        scenario, faults=dataclasses.replace(scenario.faults, **knobs)
    )
    (point,) = faults.sweep(system, scenario, x_values=(100,), seed=1, **FAST)
    return point


@pytest.mark.parametrize("system", FAULT_SYSTEMS)
def test_point_outage_100_users(system):
    """One mid-window outage at 100 users: recovery and amplification."""
    result = fault_point(system, "outage")
    res = result.faulted.resilience
    assert res is not None and res.downtime > 0
    # Retries claw back most of the clean-run goodput after the restart.
    assert result.recovered_fraction >= RECOVERY_FLOOR
    # The breaker keeps the retry storm bounded.
    assert result.retry_amplification <= AMPLIFICATION_BOUND


def test_breaker_caps_amplification():
    """Same outage with and without the breaker: rejections replace tries."""
    guarded = fault_point("mds-gris-cache", "flapping")
    naked = fault_point("mds-gris-cache", "flapping", breaker=False)
    g, n = guarded.faulted.resilience, naked.faulted.resilience
    assert g is not None and n is not None
    assert g.breaker_rejections > 0
    assert n.breaker_rejections == 0
    # Fewer wire attempts reach the dead service when the breaker trips.
    assert g.attempts < n.attempts
    assert guarded.retry_amplification <= naked.retry_amplification


def test_fault_tables():
    """Emit the resilience tables for both fault schedules."""
    rows = {
        schedule: [fault_point(system, schedule) for system in FAULT_SYSTEMS]
        for schedule in faults.SCHEDULES
    }
    for schedule, results in rows.items():
        emit(f"faults_{schedule}", faults.format_fault_table(results))
    # The soft-state registrars re-register after the long outage ...
    outage = {r.system: r for r in rows["outage"]}
    assert outage["mds-registration"].extras["re_registrations"] >= 1
    assert outage["mds-registration"].extras["registered_at_end"] == 5
    # ... and the Manager misses ads during the outage but Agents stay on.
    assert outage["hawkeye-advertise"].extras["ads_missed"] >= 1
    assert outage["hawkeye-advertise"].extras["ads_delivered"] >= 1
