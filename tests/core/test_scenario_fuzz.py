"""Tests for the metamorphic scenario fuzzer (determinism + invariants)."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.scenario.fuzz import (
    FuzzCase,
    _shrink_candidates,
    audit_violations,
    case_from_doc,
    case_to_doc,
    check_case,
    draw_case,
    load_case,
    minimize,
    run_fuzz,
    save_case,
)
from repro.core.scenario.model import Scenario, ScenarioError, WanWeather
from repro.core.experiments.scenarios import RunAudit, ServiceAudit

REPO = Path(__file__).resolve().parents[2]

#: The fixed CI smoke seed (mirrored in .github/workflows/ci.yml).
SMOKE_SEED = 20030623

#: (system, users, seed, window) of the smoke seed's case 0.
FIRST_SMOKE_CASE = ("rgma-ps-lucky", 23, 5, 12.1)


class TestDrawDeterminism:
    def test_same_seed_same_cases(self):
        assert [draw_case(11, i) for i in range(8)] == [
            draw_case(11, i) for i in range(8)
        ]

    def test_different_indices_differ(self):
        cases = {draw_case(11, i).scenario.name for i in range(8)}
        assert len(cases) == 8

    def test_draws_are_independent_of_worker_count(self):
        """REPRO_JOBS must never perturb what the fuzzer draws or checks."""
        script = (
            "from repro.core.scenario.fuzz import draw_case, case_to_doc\n"
            "import json\n"
            "print(json.dumps([case_to_doc(draw_case(5, i)) for i in range(4)]))\n"
        )
        outs = []
        for jobs in ("1", "4"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                cwd=REPO,
                env={"PYTHONPATH": str(REPO / "src"), "REPRO_JOBS": jobs, "PATH": "/usr/bin:/bin"},
            )
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_faults_come_from_their_own_stream(self):
        """Adding fault draws left every other draw of every case unchanged."""
        cases = [draw_case(SMOKE_SEED, i) for i in range(12)]
        assert any(c.scenario.faults is not None for c in cases)
        assert any(c.scenario.faults is None for c in cases)
        assert all(c.system != "hawkeye-advertise" for c in cases)
        # The first smoke case as drawn before faults existed.
        first = cases[0]
        assert (first.system, first.users, first.seed, first.window) == FIRST_SMOKE_CASE

    def test_shrinking_drops_faults_first(self):
        case = next(
            draw_case(SMOKE_SEED, i)
            for i in range(50)
            if draw_case(SMOKE_SEED, i).scenario.faults is not None
        )
        first = next(_shrink_candidates(case))
        assert first.scenario == dataclasses.replace(case.scenario, faults=None)

    def test_case_doc_round_trip(self):
        case = draw_case(3, 2)
        doc = json.loads(json.dumps(case_to_doc(case)))
        assert case_from_doc(doc) == case

    def test_case_doc_rejects_unknown_and_missing_fields(self):
        doc = case_to_doc(draw_case(3, 2))
        with pytest.raises(ScenarioError, match="unknown"):
            case_from_doc({**doc, "extra": 1})
        doc.pop("system")
        with pytest.raises(ScenarioError, match="missing"):
            case_from_doc(doc)


class TestInvariants:
    def _audit(self, **overrides):
        service = ServiceAudit(
            arrived=10, refused=1, completed=8, errors=1, dropped=0,
            open_at_end=0, max_concurrent=3, capacity=16, down_at_end=False,
        )
        base = dict(
            horizon=20.0, window_start=4.0, window_end=20.0,
            services={"svc": service}, client_ok=8, cache_hits=3, cache_lookups=9,
        )
        base.update(overrides)
        return RunAudit(**base)

    def test_clean_audit_has_no_violations(self):
        assert audit_violations(self._audit()) == []

    def test_conservation_violation_detected(self):
        bad = ServiceAudit(
            arrived=10, refused=0, completed=8, errors=0, dropped=0,
            open_at_end=0, max_concurrent=3, capacity=16, down_at_end=False,
        )
        violations = audit_violations(self._audit(services={"svc": bad}, client_ok=8))
        assert any("conservation" in v for v in violations)

    def test_capacity_violation_detected(self):
        bad = ServiceAudit(
            arrived=10, refused=1, completed=8, errors=1, dropped=0,
            open_at_end=0, max_concurrent=99, capacity=16, down_at_end=False,
        )
        violations = audit_violations(self._audit(services={"svc": bad}))
        assert any("capacity" in v for v in violations)

    def test_goodput_bound_detected(self):
        violations = audit_violations(self._audit(client_ok=50))
        assert any("goodput" in v for v in violations)

    def test_cache_bounds_detected(self):
        violations = audit_violations(self._audit(cache_hits=12, cache_lookups=9))
        assert any("cache-bounds" in v for v in violations)

    def test_stuck_down_detected(self):
        bad = ServiceAudit(
            arrived=10, refused=1, completed=8, errors=1, dropped=0,
            open_at_end=0, max_concurrent=3, capacity=16, down_at_end=True,
        )
        violations = audit_violations(
            self._audit(
                services={"svc": bad}, churn_leaves=2, churn_rejoins=2,
                last_churn_end=10.0, ok_after_recovery=3,
            )
        )
        assert any("stuck-down" in v for v in violations)
        # An injected outage that has ended counts like a rejoined churn node ...
        after_outage = audit_violations(
            self._audit(services={"svc": bad}, last_outage_end=12.0)
        )
        assert any("stuck-down" in v for v in after_outage)
        # ... but one still running at the horizon legitimately holds it down.
        mid_outage = audit_violations(
            self._audit(services={"svc": bad}, last_outage_end=25.0)
        )
        assert not any("stuck-down" in v for v in mid_outage)

    def test_recovery_gated_by_min_tail(self):
        audit = self._audit(
            churn_leaves=2, churn_rejoins=2, last_churn_end=10.0, ok_after_recovery=0
        )
        assert any("recovery" in v for v in audit_violations(audit))
        # A long enough required tail waives the check (slow think times).
        assert not any(
            "recovery" in v for v in audit_violations(audit, min_tail=30.0)
        )


class TestFuzzSmoke:
    def test_fixed_seed_smoke_holds_all_invariants(self):
        report = run_fuzz(SMOKE_SEED, 4)
        assert report.count == 4
        assert not report.failures, [r.violations for r in report.failures]

    def test_run_fuzz_is_reproducible(self):
        first = run_fuzz(13, 2)
        second = run_fuzz(13, 2)
        assert [r.case for r in first.reports] == [r.case for r in second.reports]
        assert [r.violations for r in first.reports] == [
            r.violations for r in second.reports
        ]
        assert [r.throughput for r in first.reports] == [
            r.throughput for r in second.reports
        ]

    def test_minimize_refuses_passing_case(self):
        case = FuzzCase(
            system="mds-gris-cache", users=5, seed=1, warmup=4.0, window=8.0,
            scenario=Scenario(name="benign"),
        )
        with pytest.raises(ScenarioError, match="passing"):
            minimize(case)

    def test_save_and_load_case(self, tmp_path):
        case = draw_case(17, 0)
        path = tmp_path / "case.json"
        save_case(case, path)
        assert load_case(path) == case

    def test_load_case_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ScenarioError, match="JSON object"):
            load_case(path)
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="JSON"):
            load_case(path)

    def test_check_case_flags_wan_loss_accounting(self):
        """The corpus regression: WAN loss mid-mediation stays conserved."""
        case = FuzzCase(
            system="rgma-ps-uc", users=4, seed=6, warmup=4.0, window=12.7,
            scenario=Scenario(
                name="wan-loss",
                seed=8849,
                wan=WanWeather(
                    rate=0.038, mean_duration=4.759, extra_latency=0.028, loss=0.177
                ),
            ),
        )
        result = check_case(case, metamorphic=False)
        assert result.ok, result.violations
