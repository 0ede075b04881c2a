"""Benchmarks for the future-work extensions (paper §4, §3.6).

Not figures from the paper — these are the experiments the paper says
should be run next, so they get the same treatment: one sweep each,
with the resulting rows printed and archived.
"""

from benchmarks.conftest import emit
from repro.core.experiments.extensions import (
    access_pattern_sweep,
    aggregate_vs_direct,
    hierarchy_comparison,
    push_vs_pull,
    wan_sweep,
)

FAST = dict(warmup=10.0, window=30.0)


def test_ext_wan_environment():
    """§4: 'the experiments should be repeated ... in a WAN environment'."""
    # 30 users: below every server's saturation knee, so the WAN delta
    # passes straight through to client response times.  (At saturation
    # a closed loop pins response at ~N/X_cap regardless of path
    # latency — asserting there would test the noise.)
    results = {
        system: wan_sweep(system, users=30, seed=1, **FAST)
        for system in ("mds-gris-cache", "hawkeye-agent")
    }
    lines = ["WAN environment sweep (30 users)"]
    for system, rows in results.items():
        for label, p in rows:
            lines.append(
                f"  {system:16s} {label:18s} {p.throughput:7.2f} q/s  {p.response_time:6.3f} s"
            )
    emit("ext_wan", "\n".join(lines))
    agent = dict(results["hawkeye-agent"])
    # Two extra one-way latencies x ~2 message pairs ≈ 0.18 s minimum gap.
    assert agent["intercontinental"].response_time > agent["lan"].response_time + 0.1


def test_ext_access_patterns():
    """§4: 'additional patterns of user access'."""
    rows = access_pattern_sweep("mds-gris-cache", users=300, seed=1, **FAST)
    emit(
        "ext_access_patterns",
        "Access-pattern sweep (GRIS cache, 300 users)\n"
        + "\n".join(
            f"  {label:12s} {p.throughput:7.2f} q/s  {p.response_time:6.2f} s"
            for label, p in rows
        ),
    )
    assert all(p.throughput > 20 for _label, p in rows)


def test_ext_aggregate_vs_direct():
    """§4: GIIS vs. GRIS for the same piece of information."""
    results = {
        users: aggregate_vs_direct(users=users, seed=1, **FAST)
        for users in (10, 50, 200)
    }
    lines = ["Aggregate (GIIS) vs direct (GRIS), same query"]
    for users, out in results.items():
        lines.append(
            f"  users={users:<4d} direct {out['direct-gris'].response_time:5.2f} s"
            f"  via-giis {out['via-giis'].response_time:5.2f} s"
        )
    emit("ext_aggregate_vs_direct", "\n".join(lines))
    assert results[200]["via-giis"].response_time < results[200]["direct-gris"].response_time


def test_ext_push_vs_pull():
    """§3.7's pull/push contrast measured over one event stream."""
    results = {
        interval: push_vs_pull(
            watchers=50, poll_interval=interval, seed=1, warmup=10.0, window=60.0
        )
        for interval in (2.0, 10.0, 30.0)
    }
    lines = ["Push vs pull notification (50 watchers)"]
    for interval, out in results.items():
        pull, push = out["pull"], out["push"]
        lines.append(
            f"  poll={interval:4.0f}s  pull: {pull.mean_latency:6.2f}s latency,"
            f" {pull.messages:5d} msgs, cpu {pull.server_cpu_pct:4.2f}%"
            f"   push: {push.mean_latency:6.3f}s, {push.messages:5d} msgs,"
            f" cpu {push.server_cpu_pct:4.2f}%"
        )
    emit("ext_push_vs_pull", "\n".join(lines))
    for out in results.values():
        assert out["push"].mean_latency < out["pull"].mean_latency


def test_ext_multilayer_hierarchy():
    """§3.6's proposed fix: two-level GIIS tree vs. flat aggregation."""
    results = {n: hierarchy_comparison(n, users=10, seed=1, **FAST) for n in (49, 100, 196)}
    lines = ["Two-level GIIS hierarchy vs flat (10 users)"]
    for n, out in results.items():
        lines.append(
            f"  registrants={n:<4d} flat {out['flat'].throughput:6.2f} q/s"
            f" @ {out['flat'].response_time:5.2f} s   two-level"
            f" {out['two-level'].throughput:6.2f} q/s @ {out['two-level'].response_time:5.2f} s"
        )
    emit("ext_hierarchy", "\n".join(lines))
    for out in results.values():
        assert out["two-level"].throughput >= out["flat"].throughput
