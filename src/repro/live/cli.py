"""``repro-serve``: boot a deployment plan as real localhost services.

Two subcommands:

* ``serve`` — compile a catalog plan onto the asyncio runtime, bind
  every exposed service on an OS-assigned port, print the port map and
  serve until interrupted (or ``--duration`` model seconds).
* ``twin`` — run the same plan under the DES *and* the live plane,
  compare the client-observed throughput/latency curves, and exit
  non-zero on protocol errors or divergence beyond ``--tolerance``
  (the CI live-plane gate).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import typing as _t

from repro.core.cliversion import add_version_argument

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve a monitoring-services deployment plan over real sockets.",
    )
    add_version_argument(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="boot a plan and serve until interrupted")
    serve.add_argument("plan", help="catalog plan name (see repro-topology list)")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="wall seconds per model second (default 1.0 = real time)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="model seconds to serve (0 = until Ctrl-C)",
    )

    twin = sub.add_parser("twin", help="compare the DES and live runtimes on one plan")
    twin.add_argument("plan", help="catalog plan name")
    twin.add_argument("--users", type=int, default=5, help="closed-loop users")
    twin.add_argument("--warmup", type=float, default=5.0, help="DES warm-up seconds")
    twin.add_argument(
        "--window", type=float, default=20.0, help="DES measurement window seconds"
    )
    twin.add_argument(
        "--duration",
        type=float,
        default=None,
        help="live run length in model seconds (default: warmup + window)",
    )
    twin.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="wall seconds per live model second",
    )
    twin.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative divergence tolerance (default 0.35)",
    )
    twin.add_argument("--seed", type=int, default=1)
    twin.add_argument(
        "--json", action="store_true", help="emit the comparison as JSON"
    )
    return parser


def _load_plan(name: str) -> _t.Any:
    from repro.core.topology.catalog import catalog_entries

    entries = catalog_entries()
    if name not in entries:
        known = ", ".join(sorted(entries))
        raise SystemExit(f"unknown plan {name!r}; known plans: {known}")
    return entries[name]()


async def _serve(args: argparse.Namespace) -> int:
    from repro.live.runtime import AsyncioRuntime

    plan = _load_plan(args.plan)
    runtime = AsyncioRuntime(time_scale=args.time_scale, host=args.host)
    dep = runtime.compile(plan)
    await dep.start()
    try:
        print(f"{plan.name}: {len(dep.ports)} service(s) listening on {args.host}")
        for name, port in sorted(dep.ports.items()):
            marker = " (entry)" if name == dep.entry else ""
            print(f"  {name:<24} port {port}{marker}")
        if args.duration > 0:
            await asyncio.sleep(dep.clock.wall(args.duration))
        else:
            print("serving; Ctrl-C to stop")
            while True:
                await asyncio.sleep(3600)
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        await dep.stop()
    return 0


def _twin(args: argparse.Namespace) -> int:
    from repro.live.twin import DEFAULT_TOLERANCE, format_report, run_twin

    plan = _load_plan(args.plan)
    report = run_twin(
        plan,
        args.users,
        warmup=args.warmup,
        window=args.window,
        duration=args.duration,
        time_scale=args.time_scale,
        tolerance=args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE,
        seed=args.seed,
    )
    if args.json:
        print(
            json.dumps(
                {
                    "plan": report.plan,
                    "users": report.users,
                    "des": {
                        "throughput": report.des_throughput,
                        "response_time": report.des_response,
                        "completed": report.des_completed,
                    },
                    "live": {
                        "throughput": report.live.throughput,
                        "response_time": report.live.response_time,
                        "completed": report.live.completed,
                        "refused": report.live.refused,
                        "errors": report.live.errors,
                    },
                    "throughput_delta": report.throughput_delta,
                    "response_delta": report.response_delta,
                    "protocol_errors": report.protocol_errors,
                    "tolerance": report.tolerance,
                    "ok": report.ok,
                },
                indent=2,
            )
        )
    else:
        print(format_report(report))
    return 0 if report.ok else 1


def main(argv: _t.Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        try:
            return asyncio.run(_serve(args))
        except KeyboardInterrupt:
            return 0
    return _twin(args)


if __name__ == "__main__":
    sys.exit(main())
