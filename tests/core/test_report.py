"""Tests for the reproduction scorecard and the claim rows it checks."""

from dataclasses import fields

import pytest

from repro.core.experiments import exp1, exp2, exp3, exp4
from repro.core.experiments.common import within_cap
from repro.core.figures import FIGURES
from repro.core.metrics import MetricsSummary
from repro.core.report import CLAIMS, ClaimOutcome, evaluate, render_report, run_report
from repro.core.runner import PointResult
from repro.core.study import Claim


def test_all_claims_have_distinct_ids():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))
    assert len(CLAIMS) >= 20


def test_claims_cover_all_four_experiment_sets():
    figures = {c.figure for c in CLAIMS}
    assert figures & {5, 6, 7, 8}
    assert figures & {9, 10, 11, 12}
    assert figures & {13, 14, 15, 16}
    assert figures & {17, 18, 19, 20}


def test_every_claim_reads_its_figure_grid():
    """Each reading is a point its figure's sweep plots; one reading is its metric."""
    for claim in CLAIMS:
        spec = FIGURES[claim.figure]
        exp = spec.experiment
        for reading_exp, system, x in claim.points():
            assert reading_exp is exp, claim.id
            assert system in exp.SYSTEMS, (claim.id, system)
            grid = exp.X_VALUES[system] if exp is exp4 else exp.X_VALUES
            if exp in (exp1, exp2):  # the UC variants stop at 100 users
                grid = within_cap(system, grid)
            assert x in grid, (claim.id, system, x)
        attrs = {r[3] for r in claim.readings.values() if len(r) == 4}
        assert attrs & {spec.metric, "crashed"}, claim.id


@pytest.mark.slow
def test_full_scorecard_passes():
    """The headline integration test: every published claim reproduces."""
    outcomes = run_report(seed=1, warmup=5.0, window=20.0)
    failed = [o for o in outcomes if not o.passed]
    assert not failed, "\n".join(f"{o.claim.id}: {o.detail}" for o in failed)


class _Exp:
    """A stand-in experiment module: only its name keys the points."""

    __name__ = "fake"


_EXP = _Exp()


def _point(x, **summary) -> PointResult:
    zeros = {f.name: 0 for f in fields(MetricsSummary)}
    return PointResult(system="s", x=x, summary=MetricsSummary(**{**zeros, **summary}))


def _claim(bounds, detail="X={x:.1f}", **readings) -> Claim:
    readings = readings or {"x": (_EXP, "s", 1, "throughput")}
    return Claim("demo", 5, "demo claim", readings, tuple(bounds), detail)


def test_evaluate_bounds_and_detail():
    points = {("fake", "s", x): _point(x, throughput=y) for x, y in ((1, 6.0), (2, 1.5))}
    readings = {
        "x": (_EXP, "s", 1, "throughput"),
        "y": (_EXP, "s", 2, "throughput"),
        "ratio": ("x", "/", "y"),
        "third": ("x", "/", 3),
        "step": ("x", "-", "y"),
    }
    ok = evaluate(_claim([("x", ">", 2.5, "y"), ("y", "<", "third"), ("step", ">", 3)],
                         detail="{ratio:.0f}x, step {step}", **readings), points)
    assert ok == ClaimOutcome(ok.claim, True, "4x, step 4.5")
    miss = evaluate(_claim([("x", ">", 6.0)]), points)
    assert (miss.passed, miss.detail) == (False, "X=6.0")


def test_check_exception_becomes_failure():
    outcome = evaluate(_claim([("x", ">", 0)]), {("fake", "s", 1): ValueError("bad point")})
    assert not outcome.passed
    assert outcome.detail == "check raised ValueError: bad point"
    missing = evaluate(_claim([("x", ">", 0)]), {})
    assert not missing.passed and missing.detail.startswith("check raised KeyError")


def test_check_bug_propagates():
    """Only measured-data failures become FAIL lines; a bug in a row surfaces."""
    points = {("fake", "s", 1): _point(1, throughput=1.0)}
    with pytest.raises(KeyError):
        evaluate(_claim([("x", "<", 0), ("x", "<=", 2)]), points)
    with pytest.raises(KeyError):
        evaluate(_claim([("x", ">", 0)], detail="Y={y:.1f}"), points)


def test_each_series_is_swept_once_and_its_failure_fails_its_claims(monkeypatch):
    calls = []

    def fake(exp):
        def sweep(system, x_values, seed, warmup, window, adaptive):
            calls.append((exp, system, tuple(x_values), seed, warmup, window, adaptive))
            if exp is exp3:
                raise ValueError("no collectors")
            return [_point(x, throughput=1.0) for x in x_values]

        return sweep

    for exp in (exp1, exp2, exp3, exp4):
        monkeypatch.setattr(exp, "sweep", fake(exp))
    outcomes = run_report(seed=7, warmup=1.0, window=2.0)
    assert len(calls) == len({call[:2] for call in calls})
    assert (exp1, "mds-gris-cache", (100, 200, 600), 7, 1.0, 2.0, False) in calls
    failed = {o.claim.id for o in outcomes if o.detail == "check raised ValueError: no collectors"}
    assert failed == {c.id for c in CLAIMS if FIGURES[c.figure].experiment is exp3}


def test_render_report_format():
    outcomes = [
        ClaimOutcome(claim=_claim([]), passed=True, detail="X=1"),
        ClaimOutcome(claim=_claim([]), passed=False, detail="X=0"),
    ]
    text = render_report(outcomes)
    assert "[PASS]" in text and "[FAIL]" in text
    assert "1/2 claims reproduced" in text
