"""Compare two sets of ledger runs, one row per (workload, end-to-end metric).

    python3 benchmarks/ledger/compare.py A.json B.json

``A`` is the parent (or the first set), ``B`` the change (or the second
set); each file is what ``run.py --out`` appended to.  A row reads

    ok          B's median is no worse than A's by more than the bound
    worse       it is
    unresolved  the run-to-run spread of either side is wider than the
                bound, and the two sides' runs overlap

The exit code is 1 on any ``worse`` row or any rise in ``failed_share``,
2 when the two sets cannot be compared (sizes, seeds, ``--smoke`` or
traced runs differ), else 0.
"""

from __future__ import annotations

import json
import statistics
import sys

import metrics as M


class Incomparable(ValueError):
    """The two sets were not produced by the same benchmark settings."""


def load(path: str) -> dict[str, list[dict]]:
    """Untraced run records of one file, grouped by workload."""
    with open(path) as fh:
        records = json.load(fh)
    if any(r["smoke"] for r in records):
        raise Incomparable(f"{path} holds --smoke runs, which are not comparable")
    by_workload: dict[str, list[dict]] = {}
    for record in records:
        if not record["traced"]:
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """(``ok`` / ``worse`` / ``unresolved``, share by which B's median is worse)."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if spread > bound:
        if better == "lower":
            b_all_better, b_all_worse = max(b) < min(a), min(b) > max(a)
        else:
            b_all_better, b_all_worse = min(b) > max(a), max(b) < min(a)
        if b_all_better:
            return "ok", worse_by
        if not (b_all_worse and worse_by > bound):
            return "unresolved", worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def compare(a_sets: dict[str, list[dict]], b_sets: dict[str, list[dict]]) -> list[dict]:
    if sorted(a_sets) != sorted(b_sets):
        raise Incomparable(f"workloads differ: {sorted(a_sets)} vs {sorted(b_sets)}")
    rows = []
    for workload in M.WORKLOADS:
        if workload not in a_sets:
            continue
        a_runs, b_runs = a_sets[workload], b_sets[workload]
        for field in ("sizes", "seconds"):
            a_values = {json.dumps(r[field], sort_keys=True) for r in a_runs}
            b_values = {json.dumps(r[field], sort_keys=True) for r in b_runs}
            if a_values != b_values or len(a_values) != 1:
                raise Incomparable(f"{workload}: {field} differ: {a_values} vs {b_values}")
        if sorted(r["seed"] for r in a_runs) != sorted(r["seed"] for r in b_runs):
            raise Incomparable(f"{workload}: the two sets ran different seeds")
        for name, unit, better, bound, home in M.END_TO_END:
            if workload not in home:
                continue  # an alias of a home metric: already a row of its own
            a = [r["end_to_end"][name] for r in a_runs]
            b = [r["end_to_end"][name] for r in b_runs]
            word, worse_by = verdict(a, b, better, bound)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": unit,
                    "a": quartiles(a),
                    "b": quartiles(b),
                    "n": (len(a), len(b)),
                    "bound": bound,
                    "worse_by": worse_by,
                    "verdict": word,
                }
            )
        shares = [
            sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
            for runs in (a_runs, b_runs)
        ]
        rows.append(
            {
                "workload": workload,
                "metric": M.FAILED_SHARE[0],
                "unit": M.FAILED_SHARE[1],
                "a": (shares[0],) * 3,
                "b": (shares[1],) * 3,
                "n": (len(a_runs), len(b_runs)),
                "bound": 0.0,
                "worse_by": shares[1] - shares[0],
                "verdict": "worse" if shares[1] > shares[0] else "ok",
            }
        )
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<19s} {'metric':<14s} {'unit':<9s} {'A q1 / median / q3':>32s} "
        f"{'B q1 / median / q3':>32s} {'n':>7s} {'bound':>6s} {'worse by':>9s}  verdict"
    ]
    for row in rows:
        a = " / ".join(f"{v:.4g}" for v in row["a"])
        b = " / ".join(f"{v:.4g}" for v in row["b"])
        n = f"{row['n'][0]}+{row['n'][1]}"
        lines.append(
            f"{row['workload']:<19s} {row['metric']:<14s} {row['unit']:<9s} {a:>32s} {b:>32s} "
            f"{n:>7s} {row['bound']:>6.2f} {row['worse_by']:>+9.3f}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        rows = compare(load(argv[0]), load(argv[1]))
    except Incomparable as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
