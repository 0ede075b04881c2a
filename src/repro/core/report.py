"""The reproduction scorecard: every headline claim, checked live.

Encodes the paper's quantitative claims (one per row of EXPERIMENTS.md)
as executable checks over freshly-run sweeps, and prints a PASS/FAIL
table.  This is the artifact to run after touching any cost model::

    python -m repro.core.report            # ~2-4 minutes
    python -m repro.core.report --fast     # coarse windows, ~1 minute

Sweeps are shared across claims, so the whole scorecard costs about as
much as one full figure regeneration per experiment set.
"""

from __future__ import annotations

import argparse
import typing as _t
from dataclasses import dataclass

from repro.core.cliversion import add_version_argument
from repro.core.experiments import exp1, exp2, exp3, exp4
from repro.core.experiments.common import adaptive_point
from repro.core.runner import PointResult
from repro.errors import ReproError

__all__ = ["Claim", "CLAIMS", "ClaimOutcome", "run_report", "main"]


class _Context:
    """Lazily-run, shared experiment points.

    With ``adaptive`` set, every point is estimated by replication
    until its CI converges (:mod:`repro.core.stats`) instead of a
    single fixed-window run; claims then check replication means.
    """

    def __init__(
        self,
        seed: int,
        warmup: float | None,
        window: float | None,
        adaptive: bool = False,
    ) -> None:
        self.seed = seed
        self.warmup = warmup
        self.window = window
        self.adaptive = adaptive
        self._points: dict[tuple, PointResult] = {}

    def point(self, exp: _t.Any, system: str, x: int) -> PointResult:
        key = (exp.__name__, system, x)
        if key not in self._points:
            if self.adaptive:
                self._points[key] = adaptive_point(
                    exp.run_point, system, x, self.seed, warmup=self.warmup, window=self.window
                )
            else:
                self._points[key] = exp.run_point(
                    system, x, self.seed, warmup=self.warmup, window=self.window
                )
        return self._points[key]

    def measured_points(self) -> dict[tuple, PointResult]:
        """Every point the claims touched (for the adaptive appendix)."""
        return dict(self._points)


CheckFn = _t.Callable[[_Context], tuple[bool, str]]


@dataclass(frozen=True)
class Claim:
    """One published claim and its executable check."""

    id: str
    figure: int
    text: str  # the paper's claim, paraphrased
    check: CheckFn


@dataclass(frozen=True)
class ClaimOutcome:
    claim: Claim
    passed: bool
    detail: str


def _claim(id: str, figure: int, text: str) -> _t.Callable[[CheckFn], CheckFn]:
    def register(fn: CheckFn) -> CheckFn:
        CLAIMS.append(Claim(id=id, figure=figure, text=text, check=fn))
        return fn

    return register


CLAIMS: list[Claim] = []


@_claim("gris-cache-linear", 5, "cached GRIS throughput near-linear with users")
def _c1(ctx: _Context) -> tuple[bool, str]:
    low = ctx.point(exp1, "mds-gris-cache", 100).throughput
    high = ctx.point(exp1, "mds-gris-cache", 600).throughput
    return high > 4 * low and high > 60, f"X(100)={low:.1f}, X(600)={high:.1f} q/s"


@_claim("gris-nocache-cap", 5, "uncached GRIS never exceeds 2 queries/second")
def _c2(ctx: _Context) -> tuple[bool, str]:
    x = ctx.point(exp1, "mds-gris-nocache", 300).throughput
    return 0.5 < x < 2.0, f"X(300)={x:.2f} q/s"


@_claim("caching-decisive", 5, "caching buys the GRIS >20x throughput at scale")
def _c3(ctx: _Context) -> tuple[bool, str]:
    cached = ctx.point(exp1, "mds-gris-cache", 600).throughput
    uncached = ctx.point(exp1, "mds-gris-nocache", 600).throughput
    ratio = cached / max(uncached, 1e-9)
    return ratio > 20, f"{ratio:.0f}x"


@_claim("gris-cache-plateau", 6, "cached GRIS responses ~4 s and stable for >=50 users")
def _c4(ctx: _Context) -> tuple[bool, str]:
    r200 = ctx.point(exp1, "mds-gris-cache", 200).response_time
    r600 = ctx.point(exp1, "mds-gris-cache", 600).response_time
    ok = 2.5 < r200 < 5.5 and 2.5 < r600 < 5.5 and abs(r600 - r200) < 1.5
    return ok, f"R(200)={r200:.2f}s, R(600)={r600:.2f}s"


@_claim("rgma-response-linear", 6, "ProducerServlet response grows with users")
def _c5(ctx: _Context) -> tuple[bool, str]:
    r100 = ctx.point(exp1, "rgma-ps-lucky", 100).response_time
    r600 = ctx.point(exp1, "rgma-ps-lucky", 600).response_time
    return r600 > 1.8 * r100, f"R(100)={r100:.1f}s, R(600)={r600:.1f}s"


@_claim("agent-mid-pack", 5, "Agent saturates between the GRIS variants (~40-60 q/s)")
def _c6(ctx: _Context) -> tuple[bool, str]:
    x = ctx.point(exp1, "hawkeye-agent", 300).throughput
    return 25 < x < 70, f"X(300)={x:.1f} q/s"


@_claim("gris-cache-cpu", 8, "cached GRIS host reaches ~60% CPU at 600 users")
def _c7(ctx: _Context) -> tuple[bool, str]:
    cpu = ctx.point(exp1, "mds-gris-cache", 600).cpu_load
    return 40 < cpu < 80, f"cpu={cpu:.0f}%"


@_claim("giis-scales", 9, "GIIS saturates near 100 q/s with good scalability")
def _c8(ctx: _Context) -> tuple[bool, str]:
    x = ctx.point(exp2, "mds-giis", 600).throughput
    return x > 80, f"X(600)={x:.0f} q/s"


@_claim("manager-scales", 9, "Manager scales comparably to the GIIS")
def _c9(ctx: _Context) -> tuple[bool, str]:
    x = ctx.point(exp2, "hawkeye-manager", 600).throughput
    return x > 80, f"X(600)={x:.0f} q/s"


@_claim("registry-slower", 9, "Registry throughput well below GIIS/Manager")
def _c10(ctx: _Context) -> tuple[bool, str]:
    reg = ctx.point(exp2, "rgma-registry-lucky", 600).throughput
    giis = ctx.point(exp2, "mds-giis", 600).throughput
    return reg < giis / 3, f"registry={reg:.0f}, giis={giis:.0f} q/s"


@_claim("giis-fast-responses", 10, "GIIS responses stay <2 s even at 600 users")
def _c11(ctx: _Context) -> tuple[bool, str]:
    r = ctx.point(exp2, "mds-giis", 600).response_time
    return r < 2.0, f"R(600)={r:.2f}s"


@_claim("registry-hot", 11, "Registry load1 far above GIIS/Manager")
def _c12(ctx: _Context) -> tuple[bool, str]:
    reg = ctx.point(exp2, "rgma-registry-lucky", 600).load1
    giis = ctx.point(exp2, "mds-giis", 600).load1
    return reg > 2 * giis and reg > 2.0, f"registry={reg:.1f}, giis={giis:.1f}"


@_claim("giis-cpu-2x-manager", 12, "GIIS CPU load nearly twice the Manager's")
def _c13(ctx: _Context) -> tuple[bool, str]:
    giis = ctx.point(exp2, "mds-giis", 600).cpu_load
    manager = ctx.point(exp2, "hawkeye-manager", 600).cpu_load
    return giis > 1.7 * manager, f"giis={giis:.0f}%, manager={manager:.0f}%"


@_claim("gris-cache-90-collectors", 13, "cached GRIS still ~7 q/s, <1 s at 90 collectors")
def _c14(ctx: _Context) -> tuple[bool, str]:
    p = ctx.point(exp3, "mds-gris-cache", 90)
    return p.throughput > 5 and p.response_time < 1.0, (
        f"X={p.throughput:.1f} q/s, R={p.response_time:.2f}s"
    )


@_claim("collectors-collapse", 13, "Agent/ProducerServlet/uncached GRIS <1 q/s at 90 collectors")
def _c15(ctx: _Context) -> tuple[bool, str]:
    xs = {
        s: ctx.point(exp3, s, 90).throughput
        for s in ("mds-gris-nocache", "hawkeye-agent", "rgma-ps")
    }
    return all(x < 1.0 for x in xs.values()), ", ".join(
        f"{s}={x:.2f}" for s, x in xs.items()
    )


@_claim("collectors-slow", 14, "those servers also exceed ~10 s responses at 90 collectors")
def _c16(ctx: _Context) -> tuple[bool, str]:
    rs = {
        s: ctx.point(exp3, s, 90).response_time
        for s in ("mds-gris-nocache", "hawkeye-agent", "rgma-ps")
    }
    return all(r > 8.0 for r in rs.values()), ", ".join(f"{s}={r:.1f}s" for s, r in rs.items())


@_claim("giis-all-degrades", 17, "GIIS query-all below 1 q/s by 200 registered GRIS")
def _c17(ctx: _Context) -> tuple[bool, str]:
    x = ctx.point(exp4, "mds-giis-all", 200).throughput
    return 0 < x < 1.0, f"X(200)={x:.2f} q/s"


@_claim("giis-crash", 17, "GIIS crashes on query-all past 200 registered GRIS")
def _c18(ctx: _Context) -> tuple[bool, str]:
    p = ctx.point(exp4, "mds-giis-all", 300)
    return p.crashed, f"crashed={p.crashed} ({p.crash_reason or 'no reason'})"


@_claim("querypart-survives", 17, "query-part reaches 500 registered GRIS without crashing")
def _c19(ctx: _Context) -> tuple[bool, str]:
    p = ctx.point(exp4, "mds-giis-part", 500)
    return (not p.crashed) and p.throughput < 1.0, f"X(500)={p.throughput:.2f} q/s"


@_claim("manager-agg-degrades", 17, "Manager below 1 q/s with 1000 advertising machines")
def _c20(ctx: _Context) -> tuple[bool, str]:
    x = ctx.point(exp4, "hawkeye-manager", 1000).throughput
    return 0 < x < 1.0, f"X(1000)={x:.2f} q/s"


@_claim("no-aggregation-past-100", 17, "no aggregate server is useful beyond ~100 registrants")
def _c21(ctx: _Context) -> tuple[bool, str]:
    xs = {
        "giis-all@200": ctx.point(exp4, "mds-giis-all", 200).throughput,
        "manager@400": ctx.point(exp4, "hawkeye-manager", 400).throughput,
    }
    return all(x < 2.5 for x in xs.values()), ", ".join(f"{k}={v:.2f}" for k, v in xs.items())


# What a check can fail with on a measured point: a simulation or substrate
# error, an empty series, a missing point, a degenerate ratio.  Each is one
# FAIL line with its context; anything else is a bug and propagates.
_CHECK_FAILURES = (ReproError, ArithmeticError, LookupError, ValueError)


def run_report(
    seed: int = 1,
    warmup: float | None = None,
    window: float | None = None,
    adaptive: bool = False,
    context_out: list | None = None,
) -> list[ClaimOutcome]:
    """Evaluate every claim; returns the outcomes in registration order.

    ``adaptive`` switches point estimation to replicated steady-state
    measurements; ``context_out``, when a list, receives the shared
    :class:`_Context` so callers can render the measured points.
    """
    ctx = _Context(seed, warmup, window, adaptive)
    if context_out is not None:
        context_out.append(ctx)
    outcomes = []
    for claim in CLAIMS:
        try:
            passed, detail = claim.check(ctx)
        except _CHECK_FAILURES as exc:
            passed, detail = False, f"check raised {type(exc).__name__}: {exc}"
        outcomes.append(ClaimOutcome(claim=claim, passed=passed, detail=detail))
    return outcomes


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


def render_adaptive_appendix(points: dict[tuple, PointResult]) -> str:
    """Mean ± CI table of every adaptively-measured point."""
    lines = ["", "Adaptive measurements (mean ± 95% CI half-width over replications)"]
    lines.append("-" * len(lines[-1]))
    for (exp_name, system, x), p in sorted(points.items()):
        ci = p.ci
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
    contexts: list = []
    outcomes = run_report(
        seed=args.seed,
        warmup=warmup,
        window=window,
        adaptive=args.adaptive,
        context_out=contexts,
    )
    print(render_report(outcomes))
    if args.adaptive and contexts:
        print(render_adaptive_appendix(contexts[0].measured_points()))
    return 0 if all(o.passed for o in outcomes) else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
