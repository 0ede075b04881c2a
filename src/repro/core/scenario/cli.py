"""``repro-scenario`` — check, run and fuzz declarative scenarios.

Subcommands:

* ``list``                  — named scenarios plus their models;
* ``show NAME|FILE``        — validate and summarize one scenario;
* ``check FILE...``         — round-trip every ``*.scenario.json``
  through the codec and compile its paired plan on the DES and the
  live asyncio runtime (the CI ``scenario-check`` step);
* ``run SYSTEM SCENARIO``   — one measurement point under a scenario;
* ``fuzz``                  — the seeded metamorphic fuzzer (CI
  ``fuzz-smoke``); failing cases are minimized and saved as repro
  files;
* ``replay FILE...``        — re-check saved fuzz cases (the committed
  ``tests/fuzz_corpus/``).
"""

from __future__ import annotations

import argparse
import json
import sys
import typing as _t
from pathlib import Path

from repro.core.cliversion import add_version_argument
from repro.core.experiments.scenarios import (
    NAMED_SCENARIOS,
    SYSTEMS,
    format_scenario_table,
    resolve_scenario,
    run_scenario_point,
)
from repro.core.scenario import codec
from repro.core.scenario.model import Scenario, ScenarioError

__all__ = ["main", "build_parser"]


def _describe(scenario: Scenario) -> str:
    parts = []
    for model in scenario.arrivals:
        if model.kind == "diurnal":
            parts.append(
                f"diurnal(period={model.period:g}, amplitude={model.amplitude:g})"
            )
        else:
            parts.append(
                f"flash(at={model.at:g}, duration={model.duration:g}, "
                f"peak={model.peak:g})"
            )
    if scenario.churn is not None:
        parts.append(
            f"churn(session={scenario.churn.session_time:g}, "
            f"down={scenario.churn.downtime:g})"
        )
    if scenario.wan is not None:
        wan = scenario.wan
        drawn = f"rate={wan.rate:g}" if wan.rate else f"{len(wan.episodes)} explicit"
        parts.append(f"wan({drawn}, loss={wan.loss:g})")
    if scenario.mix:
        parts.append(
            "mix(" + ", ".join(f"{c.fraction:.0%} {c.pattern}" for c in scenario.mix) + ")"
        )
    if scenario.faults is not None:
        faults = scenario.faults
        parts.append(
            f"faults(outages={len(faults.outages)}, drop={faults.drop:g}, "
            f"stall={faults.stall:g}, breaker={'on' if faults.breaker else 'off'})"
        )
    return "; ".join(parts) if parts else "empty (changes nothing)"


def _cmd_list(args: argparse.Namespace) -> int:
    width = max(map(len, NAMED_SCENARIOS), default=0)
    for name, thunk in NAMED_SCENARIOS.items():
        print(f"{name:<{width}}  {_describe(thunk())}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    scenario = resolve_scenario(args.name)
    print(f"scenario {scenario.name!r} (seed {scenario.seed})")
    if scenario.description:
        print(f"  {scenario.description}")
    print(f"  models: {_describe(scenario)}")
    if scenario.plan:
        print(f"  paired plan: {scenario.plan}")
    exact = scenario.requires_exact()
    print(f"  tiers: {'exact only (' + ', '.join(exact) + ')' if exact else 'all'}")
    return 0


def _compile_pair(scenario: Scenario, *, runtimes: str) -> None:
    """Compile the scenario's paired plan on the requested runtimes."""
    from repro.core.topology import catalog, planfile

    entries = catalog.catalog_entries()
    if scenario.plan in entries:
        plan = entries[scenario.plan]()
    elif Path(scenario.plan).exists():
        plan = planfile.load(scenario.plan)
    else:
        raise ScenarioError(
            f"paired plan {scenario.plan!r} is neither a catalog entry nor a file"
        )
    plan.validate()
    if "des" in runtimes:
        from repro.core.runner import new_run
        from repro.core.topology import compile_plan

        compile_plan(plan, new_run(1))
    if "live" in runtimes:
        from repro.live.runtime import AsyncioRuntime

        AsyncioRuntime().compile(plan)


def _cmd_check(args: argparse.Namespace) -> int:
    failures = 0
    for path in args.paths:
        try:
            text = Path(path).read_text()
            scenario = codec.loads(text)
            if codec.loads(codec.dumps(scenario)) != scenario:
                raise ScenarioError("codec round-trip changed the scenario")
            if scenario.plan:
                _compile_pair(scenario, runtimes=args.runtimes)
            paired = f", plan {scenario.plan}" if scenario.plan else ""
            print(f"ok   {path}: {scenario.name} ({_describe(scenario)}{paired})")
        except (ScenarioError, OSError, ValueError) as exc:
            failures += 1
            print(f"FAIL {path}: {exc}")
    return 1 if failures else 0


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_scenario_point(
        args.system,
        args.scenario,
        args.users,
        args.seed,
        warmup=args.warmup,
        window=args.window,
        fidelity=args.fidelity,
    )
    if args.json:
        doc: dict[str, _t.Any] = {
            "system": result.system,
            "scenario": result.scenario,
            "users": result.x,
            "throughput": result.result.throughput,
            "response_time": result.result.response_time,
        }
        if result.audit is not None:
            doc["audit"] = {
                "client_ok": result.audit.client_ok,
                "client_refused": result.audit.client_refused,
                "churn_leaves": result.audit.churn_leaves,
                "churn_rejoins": result.audit.churn_rejoins,
                "wan_episodes": result.audit.wan_episodes,
                "messages_lost": result.audit.messages_lost,
            }
            if result.audit.control:
                doc["control"] = result.audit.control
        print(json.dumps(doc, indent=2))
    else:
        print(format_scenario_table([result]))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.core.scenario.fuzz import minimize, run_fuzz, save_case

    report = run_fuzz(
        args.seed,
        args.count,
        metamorphic=not args.no_metamorphic,
        log=print,
    )
    failures = report.failures
    if not failures:
        print(f"fuzz seed {args.seed}: {args.count} cases, all invariants held")
        return 0
    print(f"fuzz seed {args.seed}: {len(failures)}/{args.count} cases FAILED")
    if args.save_failures:
        out = Path(args.save_failures)
        out.mkdir(parents=True, exist_ok=True)
        for failure in failures:
            case = failure.case
            if args.minimize:
                print(f"minimizing {case.label} ...")
                case = minimize(case, metamorphic=not args.no_metamorphic)
            path = out / f"{case.scenario.name}.json"
            save_case(case, path)
            print(f"saved repro: {path}")
    return 1


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.core.scenario.fuzz import check_case, load_case

    failures = 0
    for path in args.paths:
        case = load_case(path)
        result = check_case(case, metamorphic=not args.no_metamorphic)
        if result.ok:
            print(f"ok   {path}: {case.label}")
        else:
            failures += 1
            print(f"FAIL {path}: {case.label}")
            for violation in result.violations:
                print(f"    {violation}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scenario",
        description="Check, run and fuzz declarative measurement scenarios.",
    )
    add_version_argument(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the named scenarios")

    p_show = sub.add_parser("show", help="validate and summarize one scenario")
    p_show.add_argument("name", help="named scenario or *.scenario.json path")

    p_check = sub.add_parser(
        "check", help="round-trip scenario files and compile their paired plans"
    )
    p_check.add_argument("paths", nargs="+", help="*.scenario.json files")
    p_check.add_argument(
        "--runtimes",
        default="des,live",
        help="comma-set of runtimes to compile paired plans on (des,live,none)",
    )

    p_run = sub.add_parser("run", help="run one measurement point under a scenario")
    p_run.add_argument("system", choices=SYSTEMS)
    p_run.add_argument("scenario", help="named scenario or *.scenario.json path")
    p_run.add_argument("--users", type=int, default=50)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--warmup", type=float, default=None)
    p_run.add_argument("--window", type=float, default=None)
    p_run.add_argument(
        "--fidelity",
        choices=("exact", "cohort", "meanfield"),
        default=None,
        help="fast tiers accept scenarios without churn, WAN weather or faults only",
    )
    p_run.add_argument("--json", action="store_true")

    p_fuzz = sub.add_parser("fuzz", help="run the seeded metamorphic fuzzer")
    p_fuzz.add_argument("--seed", type=int, required=True)
    p_fuzz.add_argument("--count", type=int, default=10)
    p_fuzz.add_argument(
        "--no-metamorphic",
        action="store_true",
        help="single-run invariants only (skip doubled/extended partner runs)",
    )
    p_fuzz.add_argument(
        "--save-failures", metavar="DIR", help="write failing cases as JSON repros"
    )
    p_fuzz.add_argument(
        "--minimize",
        action="store_true",
        help="shrink failing cases before saving them",
    )

    p_replay = sub.add_parser("replay", help="re-check saved fuzz cases")
    p_replay.add_argument("paths", nargs="+", help="fuzz-case JSON files")
    p_replay.add_argument("--no-metamorphic", action="store_true")

    return parser


def main(argv: _t.Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "show": _cmd_show,
        "check": _cmd_check,
        "run": _cmd_run,
        "fuzz": _cmd_fuzz,
        "replay": _cmd_replay,
    }
    try:
        return handlers[args.command](args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
