"""Tests for the reproduction scorecard."""

import pytest

from repro.core.report import CLAIMS, ClaimOutcome, render_report, run_report


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


@pytest.mark.slow
def test_full_scorecard_passes():
    """The headline integration test: every published claim reproduces."""
    outcomes = run_report(seed=1, warmup=5.0, window=20.0)
    failed = [o for o in outcomes if not o.passed]
    assert not failed, "\n".join(f"{o.claim.id}: {o.detail}" for o in failed)


def test_render_report_format():
    from repro.core.report import Claim

    outcomes = [
        ClaimOutcome(
            claim=Claim(id="x", figure=5, text="demo claim", check=lambda ctx: (True, "")),
            passed=True,
            detail="X=1",
        ),
        ClaimOutcome(
            claim=Claim(id="y", figure=9, text="other", check=lambda ctx: (False, "")),
            passed=False,
            detail="X=0",
        ),
    ]
    text = render_report(outcomes)
    assert "[PASS]" in text and "[FAIL]" in text
    assert "1/2 claims reproduced" in text


def test_check_exception_becomes_failure():
    from repro.core import report as report_mod
    from repro.core.report import Claim

    boom = Claim(
        id="boom", figure=5, text="raises", check=lambda ctx: (_ for _ in ()).throw(ValueError("x"))
    )
    original = list(report_mod.CLAIMS)
    report_mod.CLAIMS.clear()
    report_mod.CLAIMS.append(boom)
    try:
        outcomes = run_report(seed=1, warmup=1.0, window=2.0)
        assert len(outcomes) == 1
        assert not outcomes[0].passed
        assert "ValueError" in outcomes[0].detail
    finally:
        report_mod.CLAIMS.clear()
        report_mod.CLAIMS.extend(original)


def test_check_bug_propagates():
    """Only measured-data failures become FAIL lines; a bug in a check surfaces."""
    from repro.core import report as report_mod
    from repro.core.report import Claim

    def buggy(ctx):
        return None + 1

    original = list(report_mod.CLAIMS)
    report_mod.CLAIMS[:] = [Claim(id="bug", figure=5, text="buggy", check=buggy)]
    try:
        with pytest.raises(TypeError):
            run_report(seed=1, warmup=1.0, window=2.0)
    finally:
        report_mod.CLAIMS[:] = original
