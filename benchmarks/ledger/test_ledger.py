"""Checks of the ledger itself (``PYTHONPATH=src python -m pytest benchmarks/ledger``).

Everything runs at ``--smoke`` size, so the whole file stays under a
minute; the full-size numbers are the benchmark's job, not a test's.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import re
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

import compare
import metrics as M
import run
import workloads
from tracing import ASYNC_WRAPS, EXPERIMENT_MODULES, METHOD_WRAPS, Tracer

LEDGER_DIR = pathlib.Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def ledger(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
        check=False,
    )


def child_args(workload: str, *, trace: int = 0):
    return run.parse_args(
        ["--workload", workload, "--smoke", "--trace", str(trace), "--phase", "measure",
         "--t0", repr(perf_counter())]
    )  # fmt: skip


def test_declared_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == M.benchmark_json(
        ["python3", "benchmarks/ledger/run.py"], ["benchmarks/ledger"], workloads.RUN_SECONDS
    )
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names + [M.FAILED_SHARE[0]])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for workload, aliases in M.ALIASES.items():
        homes = {n for n, _u, _b, _bound, home in M.END_TO_END if workload in home}
        assert homes | set(aliases) == {n for n, *_ in M.END_TO_END}
        assert not homes & set(aliases)


def test_bounds_follow_the_stated_rule_on_the_recorded_sets():
    widest: dict[str, float] = {}  # per metric, over every workload that emits it and both sets
    for name in ("set_a.json", "set_b.json", "earlier_a.json", "earlier_b.json"):
        for runs in compare.load(str(LEDGER_DIR / "recorded" / name)).values():
            assert len(runs) == 10
            for metric, *_ in M.END_TO_END:
                q1, median, q3 = compare.quartiles([r["end_to_end"][metric] for r in runs])
                widest[metric] = max(widest.get(metric, 0.0), (q3 - q1) / median)
    for metric, _unit, _better, bound, _home in M.END_TO_END:
        expected = 0.25 if metric == "setup_s" else M.bound_for(widest[metric])
        assert bound == expected, (metric, widest[metric])


@pytest.mark.parametrize("workload", ["figures_pool_cache", "live_mixed"])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    done = ledger("--workload", workload, "--smoke")
    assert done.returncode == 0, done.stdout
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [n for n, *_ in M.END_TO_END]
    for name, unit, *_ in M.END_TO_END + (M.FAILED_SHARE,):
        assert any(
            re.match(rf"\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b", line) for line in lines
        ), name
        if name != M.FAILED_SHARE[0]:
            assert result["metrics"][name]["unit"] == unit
            assert result["metrics"][name]["value"] > 0
    assert "not comparable" in lines[0]


@pytest.mark.parametrize("workload", M.WORKLOADS)
def test_traced_run_prints_per_layer_metrics_and_nested_spans(workload, tmp_path):
    spans_path, out_path = tmp_path / "spans.json", tmp_path / "runs.json"
    done = ledger(
        "--workload", workload, "--smoke", "--trace", "1",
        "--trace-out", str(spans_path), "--out", str(out_path),
    )  # fmt: skip
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == [n for n, _u, _b in M.PER_LAYER]
    for name, unit, _better in M.PER_LAYER:
        assert result["metrics"][name]["unit"] == unit

    (record,) = json.loads(out_path.read_text())
    assert record["smoke"] and record["traced"] and record["span_overruns"] == 0
    assert {"nproc", "python", "platform"} <= set(record["env"])
    assert record["seed"] == 1 and record["sizes"] and record["samples"]
    layer = record["per_layer"]
    assert set(layer) <= set(result["metrics"])
    assert layer["ledger.calibration_spin_s"] > 0 and "ledger.trace_overhead_share" in layer
    assert layer["ledger.span_coverage_share"] > 0.9
    for name, unit, _better in M.PER_LAYER:
        if name in layer:
            assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$", done.stdout, re.M), name
    if workload in M.LIVE:
        assert layer["sim.engine.run_s"] == 0 and "sim.engine.events" not in layer
        assert layer["live.runtime.requests"] > 0 and layer["live.runtime.refusals"] == 0
    else:
        assert layer["sim.engine.events"] > 0 and "live.runtime.requests" not in layer
        assert (layer["core.parallel.pools_started"] > 0) == (workload == "figures_pool_cache")

    trace = json.loads(spans_path.read_text())
    assert all(NAME.match(n) for n in trace["names"])
    spans = trace["spans"]
    assert len(spans) == record["span_count"]
    for _name, start, end, parent, _op in spans:
        assert end >= start
        if parent >= 0:
            assert spans[parent][1] - 1e-6 <= start and end <= spans[parent][2] + 1e-6


def test_corrupted_golden_table_raises_failed_share(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(workloads.GOLDEN_DIR, golden)
    tables = {n: (golden / f"figure{n:02d}.txt").read_text().removesuffix("\n") for n in range(5, 21)}
    checks = workloads.Checks()
    workloads.check_tables(tables, golden, checks, "test")
    assert (checks.attempted, checks.failed) == (16, 0)

    target = golden / "figure05.txt"
    target.write_text(target.read_text().replace("1", "7", 1))
    workloads.check_tables(tables, golden, checks, "test")
    assert (checks.attempted, checks.failed) == (32, 1)
    assert "figure 5" in checks.notes[0]


def test_wrong_expected_reply_raises_failed_share(monkeypatch):
    monkeypatch.setitem(workloads.EXPECTED, "hawkeye-agent", {"attrs": 96, "modules": 11})
    record = workloads.run_child(child_args("live_small"))
    sizes = record["sizes"]
    agent_requests = sizes["warmup_requests"] + sizes["connections"] * sizes["requests_per_connection"]
    assert record["failed"] == agent_requests
    assert record["end_to_end"]["failed_share"] > 0
    assert any("hawkeye-agent" in note for note in record["failures"])


def test_wrappers_are_removed_after_a_traced_run():
    def targets():
        for module, cls_name, method, _span in METHOD_WRAPS + ASYNC_WRAPS:
            yield getattr(importlib.import_module(module), cls_name), method
        for module in EXPERIMENT_MODULES:
            yield importlib.import_module(module), "run_point"
            yield importlib.import_module(module), "sweep"

    before = [getattr(owner, attr) for owner, attr in targets()]
    tracer = Tracer()
    tracer.install()
    assert all(hasattr(getattr(owner, attr), "__wrapped__") for owner, attr in targets())
    tracer.remove()
    assert [getattr(owner, attr) for owner, attr in targets()] == before

    record = workloads.run_child(child_args("live_mixed", trace=1))
    assert record["failed"] == 0 and record["span_count"] > 0
    assert [getattr(owner, attr) for owner, attr in targets()] == before


def test_unmodelled_params_zero_costs_and_keep_limits():
    from repro.core.params import default_params

    modelled, bare = default_params(), workloads.unmodelled_params()
    for bundle, zeroed in workloads.ZEROED_FLOATS.items():
        for name in zeroed:
            assert getattr(getattr(bare, bundle), name) == 0.0
        for name in workloads.KEPT_FLOATS[bundle]:
            assert getattr(getattr(bare, bundle), name) == getattr(getattr(modelled, bundle), name)
    assert bare.gris.conn_overhead.latency(500) == 0.0
    assert bare.giis.max_threads == modelled.giis.max_threads
    assert bare.workload == modelled.workload and bare.testbed == modelled.testbed


def _record(workload: str, seed: int, wall: float, **extra) -> dict:
    values = {n: 1.0 for n, *_ in M.END_TO_END}
    values["wall_s"] = wall
    return {
        "workload": workload, "seed": seed, "seconds": 12, "smoke": False, "traced": False,
        "sizes": {"n": 1}, "attempted": 10, "failed": 0, "end_to_end": values, **extra,
    }  # fmt: skip


def test_compare_verdicts_and_refusals(tmp_path):
    def write(name: str, records: list[dict]) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(records))
        return str(path)

    base = write("a.json", [_record("live_bulk", s, 10.0 + 0.01 * s) for s in (1, 2, 3)])
    same = write("b.json", [_record("live_bulk", s, 10.2 + 0.01 * s) for s in (1, 2, 3)])
    slow = write("c.json", [_record("live_bulk", s, 13.5 + 0.01 * s) for s in (1, 2, 3)])
    noisy = write("d.json", [_record("live_bulk", s, w) for s, w in ((1, 8.0), (2, 10.5), (3, 13.0))])
    failing = write("e.json", [_record("live_bulk", s, 10.0, failed=1) for s in (1, 2, 3)])
    assert compare.main([base, same]) == 0
    assert compare.main([base, slow]) == 1
    assert compare.main([base, failing]) == 1
    rows = {r["metric"]: r for r in compare.compare(compare.load(base), compare.load(noisy))}
    assert rows["wall_s"]["verdict"] == "unresolved" and rows["cpu_s"]["verdict"] == "ok"
    assert compare.main([base, noisy]) == 0

    for name, records in (
        ("seeds.json", [_record("live_bulk", s, 10.0) for s in (4, 5, 6)]),
        ("sizes.json", [_record("live_bulk", s, 10.0, sizes={"n": 2}) for s in (1, 2, 3)]),
        ("smoke.json", [_record("live_bulk", s, 10.0, smoke=True) for s in (1, 2, 3)]),
    ):
        assert compare.main([base, write(name, records)]) == 2
