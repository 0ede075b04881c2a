"""The reproduction scorecard: every headline claim, checked live.

Checks the paper's quantitative claims — the :data:`~repro.core.study.CLAIMS`
rows of :mod:`repro.core.study` — against freshly-run sweeps, and prints a
PASS/FAIL table.  This is the artifact to run after touching any cost model::

    python -m repro.core.report            # ~10 s on a 2-core box
    python -m repro.core.report --fast     # coarse windows, ~4 s

Each series the claims read is swept once through its experiment's
``sweep()`` (the path the figures take, so ``REPRO_JOBS`` and the point
cache apply), and only at the x values the claims read.
"""

from __future__ import annotations

import argparse
import operator
import typing as _t
from dataclasses import dataclass

from repro.core.cliversion import add_version_argument
from repro.core.runner import PointResult
from repro.core.study import CLAIMS, Claim
from repro.errors import ReproError

__all__ = ["Claim", "CLAIMS", "ClaimOutcome", "evaluate", "measure", "run_report", "main"]


@dataclass(frozen=True)
class ClaimOutcome:
    claim: Claim
    passed: bool
    detail: str


# What a check can fail with on a measured point: a simulation or substrate
# error, an empty series, a missing point.  Each is one FAIL line with its
# context; anything else (a malformed row among them) is a bug and propagates.
_CHECK_FAILURES = (ReproError, ArithmeticError, LookupError, ValueError)

_COMPARE = {"<": operator.lt, ">": operator.gt}
_DERIVE = {"/": lambda a, b: a / max(b, 1e-9), "-": operator.sub}

Points = _t.Mapping[tuple, PointResult | Exception]


def measure(
    seed: int = 1,
    warmup: float | None = None,
    window: float | None = None,
    adaptive: bool = False,
) -> dict[tuple, PointResult | Exception]:
    """Every point the :data:`CLAIMS` read, keyed ``(experiment name, system, x)``.

    A series whose sweep raises one of the check failures maps each of
    its points to that exception.  ``adaptive`` measures every point by
    replication until its CI converges (:mod:`repro.core.stats`).
    """
    series: dict[tuple, set[int]] = {}
    for claim in CLAIMS:
        for exp, system, x in claim.points():
            series.setdefault((exp, system), set()).add(x)
    points: dict[tuple, PointResult | Exception] = {}
    for (exp, system), xs in series.items():
        try:
            swept = exp.sweep(
                system, x_values=sorted(xs), seed=seed, warmup=warmup, window=window,
                adaptive=adaptive,
            )
        except _CHECK_FAILURES as exc:
            points.update(dict.fromkeys([(exp.__name__, system, x) for x in xs], exc))
        else:
            points.update({(exp.__name__, system, p.x): p for p in swept})
    return points


def evaluate(claim: Claim, points: Points) -> ClaimOutcome:
    """Check one claim row against measured points (see :mod:`repro.core.study`)."""
    values: dict[str, _t.Any] = {}
    try:
        for name, spec in claim.readings.items():
            if len(spec) == 4:
                exp, system, x, attr = spec
                point = points[(exp.__name__, system, x)]
                if isinstance(point, Exception):
                    raise point
                values[name] = getattr(point, attr)
    except _CHECK_FAILURES as exc:
        return ClaimOutcome(claim, False, f"check raised {type(exc).__name__}: {exc}")

    def value(term: str | float) -> _t.Any:
        return values[term] if isinstance(term, str) else term

    for name, spec in claim.readings.items():
        if len(spec) == 3:
            a, op, b = spec
            values[name] = _DERIVE[op](value(a), value(b))
    # Every bound is computed, so a malformed one surfaces even after a miss.
    held = [
        _COMPARE[op](values[name], rhs[0] * values[rhs[1]] if len(rhs) == 2 else value(rhs[0]))
        for name, op, *rhs in claim.bounds
    ]
    return ClaimOutcome(claim, all(held), claim.detail.format(**values))


def run_report(
    seed: int = 1,
    warmup: float | None = None,
    window: float | None = None,
    adaptive: bool = False,
) -> list[ClaimOutcome]:
    """Evaluate every claim; returns the outcomes in declaration order."""
    points = measure(seed, warmup, window, adaptive)
    return [evaluate(claim, points) for claim in CLAIMS]


def render_report(outcomes: _t.Sequence[ClaimOutcome]) -> str:
    """The PASS/FAIL table."""
    lines = ["Reproduction scorecard — Zhang/Freschl/Schopf (HPDC 2003)"]
    lines.append("=" * len(lines[0]))
    passed = sum(1 for o in outcomes if o.passed)
    for o in outcomes:
        mark = "PASS" if o.passed else "FAIL"
        lines.append(
            f"[{mark}] fig {o.claim.figure:>2d}  {o.claim.id:<26s} {o.claim.text}"
        )
        lines.append(f"        measured: {o.detail}")
    lines.append("-" * len(lines[1]))
    lines.append(f"{passed}/{len(outcomes)} claims reproduced")
    return "\n".join(lines)


def render_adaptive_appendix(points: Points) -> str:
    """Mean ± CI table of every adaptively-measured point."""
    lines = ["", "Adaptive measurements (mean ± 95% CI half-width over replications)"]
    lines.append("-" * len(lines[-1]))
    for (exp_name, system, x), p in sorted(points.items()):
        ci = getattr(p, "ci", None)
        if ci is None:
            continue
        mark = "" if ci.converged else "  [CI not converged at replication cap]"
        lines.append(
            f"  {exp_name.rsplit('.', 1)[-1]}:{system}@{x}: "
            f"X={p.throughput:.2f}±{ci.throughput_ci:.2f} q/s, "
            f"R={p.response_time:.2f}±{ci.response_time_ci:.2f} s "
            f"(n={ci.replications}){mark}"
        )
    return "\n".join(lines)


def main(argv: _t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-report", description=__doc__)
    add_version_argument(parser)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--fast", action="store_true", help="coarse 20 s windows")
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="replicated steady-state measurement: detect each run's warm-up "
        "from its own metric stream and replicate until CIs converge",
    )
    args = parser.parse_args(argv)
    warmup, window = (5.0, 20.0) if args.fast else (None, None)
    points = measure(args.seed, warmup, window, args.adaptive)
    outcomes = [evaluate(claim, points) for claim in CLAIMS]
    print(render_report(outcomes))
    if args.adaptive:
        print(render_adaptive_appendix(points))
    return 0 if all(o.passed for o in outcomes) else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
