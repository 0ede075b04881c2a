"""Tests for the Ganglia-like monitor and the damped load averages."""

import math

import pytest

from repro.sim import Host, Simulator
from repro.sim.loadavg import LoadAverage
from repro.sim.monitor import Ganglia


def test_sampling_interval_drives_record_times():
    """Samples land every ``interval`` seconds, starting one interval in."""
    sim = Simulator()
    host = Host(sim, "h")
    monitor = Ganglia(sim, [host], interval=5.0)
    sim.run(until=26.0)
    times = [s.time for s in monitor.series(host)]
    assert times == [5.0, 10.0, 15.0, 20.0, 25.0]


def test_custom_interval_respected():
    sim = Simulator()
    host = Host(sim, "h")
    monitor = Ganglia(sim, [host], interval=2.0)
    sim.run(until=7.0)
    assert [s.time for s in monitor.series(host)] == [2.0, 4.0, 6.0]


def test_idle_host_reports_zero_cpu_and_load():
    sim = Simulator()
    host = Host(sim, "h")
    monitor = Ganglia(sim, [host], interval=5.0)
    sim.run(until=30.0)
    assert all(s.cpu_pct == 0.0 for s in monitor.series(host))
    assert all(s.load1 == 0.0 for s in monitor.series(host))


def test_busy_host_cpu_percent_tracks_utilization():
    """A host computing flat out shows ~100% CPU over full intervals."""
    sim = Simulator()
    host = Host(sim, "h")
    monitor = Ganglia(sim, [host], interval=5.0)

    def burner(sim):
        for _ in range(20):
            yield host.compute(1.0)

    # One burner per core: cpu_pct is busy time across all CPUs.
    for _ in range(host.cpu.servers):
        sim.spawn(burner(sim))
    sim.run(until=16.0)
    samples = monitor.series(host)
    assert all(s.cpu_pct == pytest.approx(100.0, abs=1.0) for s in samples)


def test_single_job_on_multicore_host_shows_partial_cpu():
    """One runnable job only busies 1/cores of the host."""
    sim = Simulator()
    host = Host(sim, "h")
    monitor = Ganglia(sim, [host], interval=5.0)

    def burner(sim):
        yield host.compute(1e9)

    sim.spawn(burner(sim))
    sim.run(until=11.0)
    expected = 100.0 / host.cpu.servers
    assert all(
        s.cpu_pct == pytest.approx(expected, abs=1.0) for s in monitor.series(host)
    )


def test_load1_damps_toward_run_queue_length():
    """load1 rises along 1 - exp(-t/60) toward the sustained queue length."""
    sim = Simulator()
    host = Host(sim, "h")
    monitor = Ganglia(sim, [host], interval=5.0)
    jobs = 3

    def burner(sim):
        # Keep exactly `jobs` runnable forever (single-core PS: each job
        # makes slow progress, so the queue never drains).
        yield host.compute(1e9)

    for _ in range(jobs):
        sim.spawn(burner(sim))
    sim.run(until=121.0)

    samples = monitor.series(host)
    load1 = [s.load1 for s in samples]
    # Monotone rise, never overshooting the queue length.
    assert all(b >= a for a, b in zip(load1, load1[1:]))
    assert load1[-1] <= jobs
    # Matches the closed form of the EMA with a 60 s time constant.
    decay = math.exp(-5.0 / 60.0)
    expected = jobs * (1.0 - decay ** len(samples))
    assert load1[-1] == pytest.approx(expected, rel=1e-12)
    # Two minutes in, the one-minute average has mostly converged.
    assert load1[-1] > 0.8 * jobs


def test_loadavg_sample_matches_kernel_formula():
    la = LoadAverage()
    la.sample(2.0, 5.0)
    decay = math.exp(-5.0 / 60.0)
    assert la.load1 == pytest.approx(2.0 * (1.0 - decay), rel=1e-12)
    la.sample(2.0, 5.0)
    assert la.load1 == pytest.approx(2.0 * (1.0 - decay * decay), rel=1e-12)


def test_loadavg_ignores_nonpositive_dt():
    la = LoadAverage()
    la.sample(5.0, 0.0)
    la.sample(5.0, -1.0)
    assert la.load1 == 0.0


def test_loadavg_decay_cache_is_bit_identical():
    """Memoized decays must equal fresh computation exactly."""
    la_a, la_b = LoadAverage(), LoadAverage()
    la_a.sample(1.5, 7.25)  # populates the cache for dt=7.25
    la_b.sample(1.5, 7.25)  # hits it
    assert la_a.load1 == la_b.load1
    expected = 1.5 * (1.0 - math.exp(-7.25 / 60.0))
    assert la_a.load1 == expected


def test_loadavg_load1_bits_are_pinned():
    """A fixed sample series lands on the exact doubles the paper-figure
    tables were generated with (uneven spacing, a zero-dt skip, a long
    gap): any change to the EMA expression or its decay cache shows."""
    series = [(3.0, 5.0), (0.0, 5.0), (7.0, 5.0), (2.5, 2.5), (1.0, 12.0),
              (4.0, 5.0), (0.0, 0.0), (9.0, 5.0), (11.0, 60.0), (2.0, 0.7)]
    pinned = [0.23986675611203012, 0.2206880692161274, 0.7627319230523645,
              0.8336307764195611, 0.8637884002889881, 1.1145460345901883,
              1.1145460345901883, 1.7450321223080536, 7.5952875890950375,
              7.530388547751814]
    la = LoadAverage()
    observed = []
    for runnable, dt in series:
        la.sample(runnable, dt)
        observed.append(la.load1)
    assert observed == pinned


def test_window_average_selects_only_window_samples():
    sim = Simulator()
    host = Host(sim, "h")
    monitor = Ganglia(sim, [host], interval=5.0)

    def burner(sim):
        yield host.compute(1e9)

    for _ in range(host.cpu.servers):
        sim.spawn(burner(sim))
    sim.run(until=61.0)
    cpu_all, load_all = monitor.window_average(host, 0.0, 60.0)
    cpu_late, load_late = monitor.window_average(host, 40.0, 60.0)
    assert cpu_all == pytest.approx(100.0, abs=1.0)
    # load1 climbs over the run, so the late window averages higher.
    assert load_late > load_all > 0.0
    # An empty window reports zeros rather than raising.
    assert monitor.window_average(host, 1000.0, 2000.0) == (0.0, 0.0)
