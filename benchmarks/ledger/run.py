"""The performance ledger: five workloads, end to end and layer by layer.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed S] [--seconds T]
                                     [--trace 0|1] [--smoke] [--out FILE] [--trace-out FILE]

Each workload runs in a fresh child process.  ``--trace 0`` measures the
end-to-end metrics (set-up is repeated in extra children and its median
reported); ``--trace 1`` runs the first half of the workload untraced and
the second half traced, and reports the per-layer metrics with the
tracing overhead between the two halves.
Every metric is printed by name with its unit; the last line of standard
output is the driver's JSON object.  The exit code is non-zero when any
check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
from time import perf_counter

import metrics as M
from workloads import RUN_SECONDS, run_child

LEDGER_DIR = pathlib.Path(__file__).resolve().parent
SRC = LEDGER_DIR.parents[1] / "src"
SETUP_RUNS = 5  # set-ups per untraced run; setup_s is their median
CHILD_TIMEOUT = 170.0  # the driver allows a run 180 s
SCRUBBED_ENV = ("REPRO_JOBS", "REPRO_POINTCACHE", "REPRO_FULL", "REPRO_QUERY_COMPILE")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="ledger", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=M.WORKLOADS, default=None, help="default: all five")
    parser.add_argument("--seed", type=int, default=1, help="golden-byte checks apply at seed 1")
    parser.add_argument(
        "--seconds",
        type=int,
        default=RUN_SECONDS,
        help="nominal measuring time; scales the fixed operation counts (default %(default)s)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every count / 20; not comparable")
    parser.add_argument("--out", type=pathlib.Path, help="append the run records to this JSON file")
    parser.add_argument("--trace-out", type=pathlib.Path, help="write the span list (needs --trace 1)")
    parser.add_argument("--phase", choices=("setup", "measure"), help=argparse.SUPPRESS)  # child only
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)  # child only: spawn instant
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")
    if args.trace_out and not (args.trace and args.workload):
        parser.error("--trace-out needs --trace 1 and one --workload")
    return args


def spawn(args: argparse.Namespace, phase: str, trace: int) -> dict:
    """Run one phase of one workload in a fresh interpreter; return its JSON."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    command = [
        sys.executable,
        str(LEDGER_DIR / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--phase", phase,
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    if trace and args.trace_out:
        command += ["--trace-out", str(args.trace_out)]
    # perf_counter is CLOCK_MONOTONIC: the child subtracts this instant from
    # its own reading when the timed region starts, so set-up includes the
    # interpreter's start.
    command += ["--t0", repr(perf_counter())]
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT, check=False
    )
    if done.returncode != 0:
        raise SystemExit(f"ledger: {args.workload} {phase} child exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(args: argparse.Namespace) -> dict:
    """All children of one workload; returns the merged run record."""
    if args.trace:
        record = spawn(args, "measure", trace=1)
    else:
        setups = [spawn(args, "setup", trace=0)["setup_s"] for _ in range(SETUP_RUNS - 1)]
        record = spawn(args, "measure", trace=0)
        setups.append(record["end_to_end"]["setup_s"])
        record["raw"]["setup_runs_s"] = setups
        record["end_to_end"]["setup_s"] = statistics.median(setups)
        record["samples"]["setup_s"] = len(setups)
    measured = record["end_to_end"]
    for name, source in M.ALIASES[record["workload"]].items():
        measured[name] = measured[source]
    return record


def report(record: dict) -> None:
    """Every metric by name, with its unit; then the checks."""
    workload = record["workload"]
    mode = "traced" if record["traced"] else "untraced"
    smoke = ", smoke: not comparable" if record["smoke"] else ""
    print(f"== {workload}  seed {record['seed']}  {mode}{smoke}  sizes {record['sizes']}")
    if record["traced"]:
        rows = [(n, u, record["per_layer"].get(n)) for n, u, _b in M.PER_LAYER]
        print(f"   {record['span_count']} spans, {record['span_overruns']} outside their parent")
    else:
        rows = [(n, u, record["end_to_end"][n]) for n, u, *_ in M.END_TO_END + (M.FAILED_SHARE,)]
    aliases = M.ALIASES[workload]
    for name, unit, value in rows:
        if value is None:
            continue  # a layer this workload has no number for
        note = f"   (= {aliases[name]}: no home on this workload)" if name in aliases else ""
        count = record["samples"].get(name)
        note += f"   n={count}" if count else ""
        print(f"   {name:<40s} {value:>16.6g} {unit}{note}")
    print(f"   checks: {record['attempted']} attempted, {record['failed']} failed")
    for line in record["failures"]:
        print(f"   FAILED {line}")


def driver_line(record: dict) -> str:
    """The one JSON object the benchmark contract asks for."""
    if record["traced"]:
        # Every per-layer metric, 0 where the workload never enters the layer.
        values = {n: (u, record["per_layer"].get(n, 0.0)) for n, u, _b in M.PER_LAYER}
    else:
        values = {n: (u, record["end_to_end"][n]) for n, u, *_ in M.END_TO_END}
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {n: {"value": v, "unit": u} for n, (u, v) in values.items()},
        }
    )


def append_records(path: pathlib.Path, records: list[dict]) -> None:
    existing = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(existing + records, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"ledger: {SRC}/repro not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))  # the workloads import repro lazily
    args = parse_args(argv)
    if args.phase is not None:  # a child: do the work, print one JSON line
        print(json.dumps(run_child(args)))
        return 0

    records = []
    for workload in [args.workload] if args.workload else M.WORKLOADS:
        args.workload = workload
        record = run_workload(args)
        report(record)
        records.append(record)
        print(driver_line(record), flush=True)
    if args.out:
        append_records(args.out, records)
    return 1 if any(r["failed"] for r in records) else 0


if __name__ == "__main__":
    raise SystemExit(main())
