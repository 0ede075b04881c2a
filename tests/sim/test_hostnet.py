"""Tests for hosts, load averages, network transfers and monitoring."""

import math

import pytest

from repro.sim import Ganglia, Host, LoadAverage, Network, Simulator


def make_pair(sim, nic_mbps=100.0):
    net = Network(sim)
    a = Host(sim, "a", site="left", nic_mbps=nic_mbps)
    b = Host(sim, "b", site="right", nic_mbps=nic_mbps)
    return net, a, b


def test_compute_takes_cpu_seconds():
    sim = Simulator()
    host = Host(sim, "h", cpus=1, cpu_rate=1.0)
    done = []

    def job(sim):
        yield host.compute(0.5)
        done.append(sim.now)

    sim.spawn(job(sim))
    sim.run()
    assert done == [pytest.approx(0.5)]


def test_cpu_rate_scales_compute():
    sim = Simulator()
    fast = Host(sim, "fast", cpus=1, cpu_rate=2.0)
    done = []

    def job(sim):
        yield fast.compute(1.0)
        done.append(sim.now)

    sim.spawn(job(sim))
    sim.run()
    assert done == [pytest.approx(0.5)]


def test_dual_cpu_runs_two_jobs_in_parallel():
    sim = Simulator()
    host = Host(sim, "lucky", cpus=2)
    done = []

    def job(sim):
        yield host.compute(1.0)
        done.append(sim.now)

    sim.spawn(job(sim))
    sim.spawn(job(sim))
    sim.run()
    assert done == [pytest.approx(1.0), pytest.approx(1.0)]


def test_runnable_counts_only_cpu_jobs():
    sim = Simulator()
    host = Host(sim, "h")
    observed = []

    def cpu_job(sim):
        yield host.compute(10.0)

    def sleeper(sim):
        yield sim.timeout(10.0)

    def observer(sim):
        yield sim.timeout(1.0)
        observed.append(host.runnable)

    sim.spawn(cpu_job(sim))
    sim.spawn(cpu_job(sim))
    sim.spawn(sleeper(sim))
    sim.spawn(observer(sim))
    sim.run(until=2.0)
    assert observed == [2]


def test_transfer_latency_only_for_small_message():
    sim = Simulator()
    net, a, b = make_pair(sim)
    net.set_latency("left", "right", 0.025)
    done = []

    def mover(sim):
        yield from net.transfer(a, b, 1)  # 1 byte: bandwidth time negligible
        done.append(sim.now)

    sim.spawn(mover(sim))
    sim.run()
    assert done[0] == pytest.approx(0.025, abs=1e-3)


def test_transfer_bandwidth_for_large_message():
    sim = Simulator()
    net, a, b = make_pair(sim, nic_mbps=100.0)  # 12.5 MB/s
    done = []

    def mover(sim):
        yield from net.transfer(a, b, 12_500_000)  # 1 second per NIC
        done.append(sim.now)

    sim.spawn(mover(sim))
    sim.run()
    # Sender NIC + receiver NIC serialization: ~2 seconds.
    assert done[0] == pytest.approx(2.0, rel=0.01)


def test_same_host_transfer_is_loopback():
    sim = Simulator()
    net, a, _ = make_pair(sim)
    done = []

    def mover(sim):
        yield from net.transfer(a, a, 10_000_000)
        done.append(sim.now)

    sim.spawn(mover(sim))
    sim.run()
    assert done[0] < 0.001


def test_concurrent_transfers_share_nic():
    sim = Simulator()
    net, a, b = make_pair(sim, nic_mbps=100.0)
    done = []

    def mover(sim):
        yield from net.transfer(a, b, 12_500_000)
        done.append(sim.now)

    sim.spawn(mover(sim))
    sim.spawn(mover(sim))
    sim.run()
    # Two flows share both NICs: each takes ~2x longer on the sender side,
    # then receivers drain staggered; total well above the solo 2 s.
    assert all(t > 3.0 for t in done)


def test_shared_link_is_extra_bottleneck():
    sim = Simulator()
    net, a, b = make_pair(sim, nic_mbps=1000.0)
    net.add_shared_link("left", "right", 8.0)  # 1 MB/s WAN
    done = []

    def mover(sim):
        yield from net.transfer(a, b, 1_000_000)
        done.append(sim.now)

    sim.spawn(mover(sim))
    sim.run()
    assert done[0] == pytest.approx(1.0, rel=0.05)


def test_network_accounting():
    sim = Simulator()
    net, a, b = make_pair(sim)

    def mover(sim):
        yield from net.transfer(a, b, 1000)

    sim.spawn(mover(sim))
    sim.run()
    assert net.messages == 1
    assert net.bytes_transferred == 1000


def test_loadavg_converges_to_constant_load():
    la = LoadAverage()
    for _ in range(1000):
        la.sample(3.0, 5.0)
    assert la.load1 == pytest.approx(3.0, rel=1e-6)


def test_loadavg_decay_rate_matches_kernel_formula():
    la = LoadAverage()
    la.sample(1.0, 5.0)
    expected = 1.0 - math.exp(-5.0 / 60.0)
    assert la.load1 == pytest.approx(expected)


def test_loadavg_ignores_nonpositive_dt():
    la = LoadAverage()
    la.sample(5.0, 0.0)
    assert la.load1 == 0.0


def test_ganglia_samples_cpu_and_load():
    sim = Simulator()
    host = Host(sim, "h", cpus=1)
    mon = Ganglia(sim, [host], interval=5.0)

    def busy(sim):
        # Keep the CPU 100% busy for 30 seconds.
        yield host.compute(30.0)

    sim.spawn(busy(sim))
    sim.run(until=30.0)
    samples = mon.series(host)
    assert len(samples) == 6
    assert all(s.cpu_pct == pytest.approx(100.0) for s in samples)
    assert samples[-1].load1 > samples[0].load1  # load1 ramping toward 1


def test_ganglia_window_average():
    sim = Simulator()
    host = Host(sim, "h", cpus=1)
    mon = Ganglia(sim, [host], interval=5.0)

    def busy(sim):
        yield host.compute(10.0)

    sim.spawn(busy(sim))
    sim.run(until=20.0)
    cpu, _load1 = mon.window_average(host, 0.0, 10.0)
    assert cpu == pytest.approx(100.0)
    cpu_idle, _ = mon.window_average(host, 10.1, 20.0)
    assert cpu_idle == pytest.approx(0.0, abs=1e-6)


def test_ganglia_empty_window():
    sim = Simulator()
    host = Host(sim, "h")
    mon = Ganglia(sim, [host])
    assert mon.window_average(host, 0, 100) == (0.0, 0.0)
