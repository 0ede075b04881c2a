"""Fidelity tiers: cross-validation, invariants, and exact-tier identity.

Three families of guarantees (docs/FIDELITY.md):

* **Cross-validation** — the cohort and meanfield tiers must track the
  exact DES on throughput / response / load1 for the exp1-exp3
  scenarios at small populations, within tolerances calibrated against
  the committed engines (cohort is the tighter tier; meanfield trades
  accuracy for closed-form speed).
* **Metamorphic invariants** — properties that must hold regardless of
  calibration: request conservation, monotone saturation, determinism.
* **Exact-tier identity** — passing ``fidelity="exact"`` (or a plan
  whose nodes omit the field) must reproduce the default run *exactly*,
  bit for bit, so the committed figure tables and plan files cannot
  drift.
"""

import dataclasses
from time import perf_counter

import pytest

from repro.core.experiments import exp1, exp2, exp3, scale
from repro.core.experiments.scenarios import run_scenario_point
from repro.core.fidelity import (
    FAST_TIERS,
    FidelityError,
    fast_point,
    load1_ramp,
    model_for_plan,
    projected_exact_cost,
    require_plain_run,
    solve_meanfield,
    tier_for_plan,
)
from repro.core.params import default_params
from repro.core.scenario.model import FaultModel, Outage, Scenario, ScenarioError
from repro.core.topology import FIDELITY_TIERS
from repro.core.topology.catalog import exp1_plan, exp2_plan, exp4_plan, hierarchy_plan
from repro.core.topology.plan import PlanError
from repro.core.topology.planfile import dumps, loads
from repro.sim.cohort import CohortEngine

# The paper-calibrated fast window (repro.core.params.measurement_window).
WINDOW = dict(warmup=10.0, window=30.0)

# Cheapest possible exact runs for the identity checks.
TINY = dict(warmup=5.0, window=20.0)


def _rel(fast: float, exact: float) -> float:
    return abs(fast - exact) / exact if exact else abs(fast)


def _load1_close(fast: float, exact: float, abs_tol: float, rel_tol: float) -> bool:
    return abs(fast - exact) <= max(abs_tol, rel_tol * exact)


# -- cross-validation --------------------------------------------------------

# (module, args, users) -> per-tier tolerances, calibrated against the
# committed engines with ~30% headroom over the observed deviation.
# ``mf_resp`` is None where the exact measurement is window-censored
# (steady-state response exceeds the window, so the DES only sees the
# early transients; the cohort tier reproduces the censoring, the
# meanfield tier reports the true steady state — docs/FIDELITY.md).
SCENARIOS = [
    pytest.param(exp1, ("mds-gris-cache",), 50, 0.30, id="gris-cache-50"),
    pytest.param(exp1, ("mds-gris-nocache",), 10, 0.30, id="gris-nocache-10"),
    pytest.param(exp1, ("hawkeye-agent",), 50, 0.30, id="agent-50"),
    pytest.param(exp1, ("rgma-ps-lucky",), 50, None, id="ps-lucky-50"),
    pytest.param(exp2, ("mds-giis",), 50, 0.30, id="giis-50"),
    pytest.param(exp2, ("hawkeye-manager",), 50, 0.30, id="manager-50"),
    pytest.param(exp2, ("rgma-registry-lucky",), 10, 0.30, id="registry-10"),
]

COHORT_X_TOL = 0.08
COHORT_R_TOL = 0.15
MEANFIELD_X_TOL = 0.15


@pytest.mark.parametrize("exp, args, users, mf_resp", SCENARIOS)
def test_fast_tiers_track_exact(exp, args, users, mf_resp):
    exact = exp.run_point(*args, users, seed=1, **WINDOW)
    cohort = exp.run_point(*args, users, seed=1, fidelity="cohort", **WINDOW)
    meanfield = exp.run_point(*args, users, seed=1, fidelity="meanfield", **WINDOW)

    assert _rel(cohort.throughput, exact.throughput) <= COHORT_X_TOL
    assert _rel(cohort.response_time, exact.response_time) <= COHORT_R_TOL
    assert _load1_close(cohort.load1, exact.load1, abs_tol=0.5, rel_tol=0.35)

    assert _rel(meanfield.throughput, exact.throughput) <= MEANFIELD_X_TOL
    if mf_resp is not None:
        assert _rel(meanfield.response_time, exact.response_time) <= mf_resp
    assert _load1_close(meanfield.load1, exact.load1, abs_tol=1.1, rel_tol=0.40)


def test_exp3_collector_axis_tracks_exact():
    """Exp3 varies collectors, not users — the model axis the tiers share."""
    exact = exp3.run_point("mds-gris-nocache", 50, seed=1, **WINDOW)
    for tier in FAST_TIERS:
        fast = exp3.run_point("mds-gris-nocache", 50, seed=1, fidelity=tier, **WINDOW)
        assert _rel(fast.throughput, exact.throughput) <= 0.15
        assert fast.fidelity == tier
        assert fast.x == 50


def test_fast_point_metadata_round_trip():
    point = exp1.run_point("mds-gris-cache", 200, seed=1, fidelity="cohort", **WINDOW)
    assert point.fidelity == "cohort"
    assert point.population == 200
    assert point.sim_events > 0
    mf = exp1.run_point("mds-gris-cache", 200, seed=1, fidelity="meanfield", **WINDOW)
    assert mf.fidelity == "meanfield"
    assert mf.sim_events == 0  # closed-form: no events processed


# -- metamorphic invariants --------------------------------------------------


def _cohort_engine(plan, users: int, seed: int = 1) -> CohortEngine:
    p = default_params()
    model = model_for_plan(plan, p)
    return CohortEngine(model, users, workload=p.workload, seed=seed)


def test_cohort_conserves_requests_without_refusals():
    engine = _cohort_engine(exp1_plan("mds-gris-cache"), 50)
    engine.run(**WINDOW)
    assert engine.refused_total == 0
    assert engine.issued == engine.completed_total


def test_cohort_conserves_requests_under_refusal():
    # 600 users against the Manager's 128 threads + 64 backlog slots.
    engine = _cohort_engine(exp2_plan("hawkeye-manager"), 600)
    engine.run(**WINDOW)
    assert engine.refused_total > 0
    assert engine.issued == engine.completed_total + engine.refused_total


def test_cohort_refuses_only_past_capacity():
    small = _cohort_engine(exp2_plan("hawkeye-manager"), 10)
    small.run(**WINDOW)
    assert small.refused_total == 0


def test_meanfield_saturation_is_monotone():
    """Throughput and response must grow monotonically with population."""
    results = [
        exp1.run_point("mds-gris-cache", n, seed=1, fidelity="meanfield", **WINDOW)
        for n in (10, 50, 100, 300, 600)
    ]
    xs = [r.throughput for r in results]
    rs = [r.response_time for r in results]
    assert all(b >= a for a, b in zip(xs, xs[1:]))
    assert all(b >= a * 0.999 for a, b in zip(rs, rs[1:]))


def test_meanfield_is_deterministic():
    a = exp1.run_point("mds-gris-cache", 300, seed=1, fidelity="meanfield", **WINDOW)
    b = exp1.run_point("mds-gris-cache", 300, seed=1, fidelity="meanfield", **WINDOW)
    assert a.summary == b.summary  # closed form: no stochastic state
    # The seed only enters through the representative service-demand
    # calibration, so a different seed moves the answer marginally.
    c = exp1.run_point("mds-gris-cache", 300, seed=7, fidelity="meanfield", **WINDOW)
    assert _rel(c.throughput, a.throughput) <= 0.05


def test_cohort_seed_determinism():
    a = exp1.run_point("mds-gris-cache", 100, seed=3, fidelity="cohort", **WINDOW)
    b = exp1.run_point("mds-gris-cache", 100, seed=3, fidelity="cohort", **WINDOW)
    c = exp1.run_point("mds-gris-cache", 100, seed=4, fidelity="cohort", **WINDOW)
    assert a.summary == b.summary
    assert c.summary != a.summary


def test_load1_ramp_shape():
    # The 1-minute EMA ramp: longer windows converge toward 1.
    assert 0.0 < load1_ramp(10.0, 30.0) < load1_ramp(60.0, 600.0) < 1.0


def test_projected_exact_cost():
    assert projected_exact_cost(2.0, 10, 1_000_000) == pytest.approx(200_000.0)
    with pytest.raises(ValueError):
        projected_exact_cost(0.0, 10, 100)
    with pytest.raises(ValueError):
        projected_exact_cost(1.0, 0, 100)


def test_meanfield_million_user_point_beats_projected_exact():
    """The headline fast-tier point: 10^6 users on a 10^4-server tree.

    The exact DES is capped at ``scale.MAX_EXACT_USERS``, so the
    comparison projects a measured small-population exact point linearly
    in users — a deliberate *under*-estimate of the true exact cost,
    which makes the >= 50x requirement conservative.
    """
    exact_users = 10
    start = perf_counter()
    exact = scale.run_scale_point("mds", 2, 4, seed=1, users=exact_users, **TINY)
    exact_wall = perf_counter() - start
    assert not exact.result.crashed

    start = perf_counter()
    point = scale.run_scale_point(
        "mds", 4, 10, seed=1, users=1_000_000, fidelity="meanfield", **WINDOW
    )
    fast_wall = perf_counter() - start
    assert point.servers == 10_000
    assert point.result.fidelity == "meanfield"
    assert point.result.population == 1_000_000
    assert point.result.throughput > 0
    projected = projected_exact_cost(exact_wall, exact_users, 1_000_000)
    assert projected / fast_wall >= 50.0, (
        f"meanfield point took {fast_wall:.3f}s vs projected exact {projected:.1f}s"
    )


# -- feature gating ----------------------------------------------------------


def test_fast_tiers_reject_fault_and_adaptive_runs():
    require_plain_run("cohort")  # plain runs pass
    with pytest.raises(FidelityError):
        require_plain_run("meanfield", adaptive=True)
    with pytest.raises(FidelityError):
        require_plain_run("warpspeed")
    with pytest.raises(FidelityError):
        exp1.run_point("rgma-ps-lucky", 10, fidelity="cohort", adaptive=True, **TINY)
    crash = Scenario(name="crash", faults=FaultModel(outages=(Outage(2.0, 1.0),)))
    with pytest.raises(ScenarioError, match="faults"):
        run_scenario_point("rgma-ps-lucky", crash, 10, fidelity="cohort", **TINY)
    # The control planes' wire loops have no fast model either.
    with pytest.raises(FidelityError, match="exact tier"):
        run_scenario_point("mds-registration", "flash-crowd", 10, fidelity="meanfield", **TINY)


def test_exp4_plans_have_no_fast_model():
    with pytest.raises(FidelityError):
        model_for_plan(exp4_plan("mds-giis-all", 8))


def test_fast_point_rejects_the_exact_tier():
    with pytest.raises(FidelityError):
        fast_point(exp1_plan("mds-gris-cache"), system="s", x=1, users=1, tier="exact")


def test_scale_exact_cap_names_the_fast_tiers():
    with pytest.raises(ValueError, match="cohort"):
        scale.run_scale_point("mds", 2, 4, users=scale.MAX_EXACT_USERS + 1)
    # The same population sails through on a fast tier.
    point = scale.run_scale_point(
        "mds", 2, 4, users=scale.MAX_EXACT_USERS + 1, fidelity="meanfield", **WINDOW
    )
    assert point.result.population == scale.MAX_EXACT_USERS + 1


# -- exact-tier identity -----------------------------------------------------


def test_fidelity_exact_is_bit_identical_to_default():
    default = exp1.run_point("mds-gris-cache", 10, seed=1, **TINY)
    explicit = exp1.run_point("mds-gris-cache", 10, seed=1, fidelity="exact", **TINY)
    assert explicit == default


def test_sweep_normalizes_exact_to_the_same_cache_key():
    default = exp1.sweep("mds-gris-cache", x_values=[10], seed=1, **TINY)
    explicit = exp1.sweep("mds-gris-cache", x_values=[10], seed=1, fidelity="exact", **TINY)
    assert explicit == default


def test_plan_fidelity_round_trip():
    plan = exp1_plan("mds-gris-cache")
    assert tier_for_plan(plan) == "exact"
    # Plans predating fidelity tiers serialize byte-identically: the
    # default tier is omitted from the JSON.
    assert '"fidelity"' not in dumps(plan)
    assert loads(dumps(plan)) == plan

    entry = plan.node(plan.entry)
    fast = dataclasses.replace(
        plan, nodes=tuple(
            dataclasses.replace(n, fidelity="cohort") if n.name == entry.name else n
            for n in plan.nodes
        )
    )
    fast.validate()
    assert tier_for_plan(fast) == "cohort"
    assert '"fidelity": "cohort"' in dumps(fast)
    assert loads(dumps(fast)) == fast


def test_plan_rejects_unknown_fidelity():
    plan = exp1_plan("mds-gris-cache")
    bad = dataclasses.replace(
        plan, nodes=tuple(dataclasses.replace(n, fidelity="psychic") for n in plan.nodes)
    )
    with pytest.raises(PlanError, match="fidelity"):
        bad.validate()
    assert "exact" in FIDELITY_TIERS and set(FAST_TIERS) < set(FIDELITY_TIERS)


def test_hierarchy_plan_drives_both_fast_tiers():
    p = default_params()
    plan = hierarchy_plan("mds", 2, 4)
    model = model_for_plan(plan, p)
    sol = solve_meanfield(model, 1000, think=p.workload.think_time,
                          retry_wait=p.workload.retry_wait)
    assert sol.throughput > 0
    point = fast_point(plan, system="mds-tree-d2", x=16, users=1000, tier="cohort")
    assert point.fidelity == "cohort" and point.summary.throughput > 0
