"""Topology plane vs. legacy wiring: the refactor must be invisible.

Every experiment module now compiles a declarative
:class:`~repro.core.topology.plan.DeploymentPlan`;
:mod:`tests.core.legacy_wiring` preserves the hand-built wiring it
replaced.  For one point of each Experiment set 1-4 the two paths must
agree *exactly* — same metrics, same event count, same rendered figure
rows — because the compiler replays the identical construction order
(materialize, connect, expose, activate) against the same RNG streams.
"""

import pytest

from repro.core.experiments import exp1, exp2, exp3, exp4
from repro.core.figures import points_to_series
from tests.core import legacy_wiring as legacy

FAST = dict(warmup=5.0, window=20.0)

POINTS = [
    ("exp1", "mds-gris-cache", 50),
    ("exp1", "hawkeye-agent", 50),
    ("exp1", "rgma-ps-uc", 50),
    ("exp1", "rgma-ps-lucky", 50),
    ("exp2", "mds-giis", 50),
    ("exp2", "hawkeye-manager", 50),
    ("exp2", "rgma-registry-lucky", 50),
    ("exp3", "mds-gris-nocache", 30),
    ("exp3", "rgma-ps", 50),
    ("exp4", "mds-giis-all", 100),
    ("exp4", "mds-giis-part", 100),
    ("exp4", "hawkeye-manager", 100),
]

_NEW = {"exp1": exp1, "exp2": exp2, "exp3": exp3, "exp4": exp4}
_OLD = {
    "exp1": legacy.exp1_point,
    "exp2": legacy.exp2_point,
    "exp3": legacy.exp3_point,
    "exp4": legacy.exp4_point,
}


@pytest.mark.parametrize("exp,system,x", POINTS, ids=[f"{e}-{s}" for e, s, _ in POINTS])
def test_point_is_byte_identical(exp, system, x):
    old = _OLD[exp](system, x, 1, **FAST)
    new = _NEW[exp].run_point(system, x, 1, **FAST)
    # The full measured state, not a tolerance comparison.
    assert new.summary == old.summary
    assert new.crashed == old.crashed
    assert new.crash_reason == old.crash_reason
    assert new.sim_events == old.sim_events
    assert new.resilience == old.resilience


def test_figure_rows_render_identically():
    """The committed metric tables cannot move: same series, byte for byte."""
    old_pts = [legacy.exp1_point("mds-gris-cache", u, 1, **FAST) for u in (10, 50)]
    new_pts = [exp1.run_point("mds-gris-cache", u, 1, **FAST) for u in (10, 50)]
    for metric in ("throughput", "response_time", "load1", "cpu_load"):
        old_series = points_to_series("mds-gris-cache", old_pts, metric)
        new_series = points_to_series("mds-gris-cache", new_pts, metric)
        assert new_series == old_series
