"""Tests for multi-seed replication statistics."""

import math

import pytest

from repro.core.experiments import exp3
from repro.core.metrics import MetricsSummary
from repro.core.runner import PointResult
from repro.core.stats import (
    ReplicateStat,
    replicate_point,
    summarize_replicates,
    t_critical,
)


def fake_point(throughput, crashed=False):
    return PointResult(
        system="s",
        x=1,
        summary=MetricsSummary(
            throughput=throughput,
            response_time=throughput / 10,
            load1=0.1,
            cpu_load=5.0,
            completed=1,
            refused=0,
            timeouts=0,
            errors=0,
            window=10.0,
        ),
        crashed=crashed,
    )


def test_t_critical_values():
    assert t_critical(1) == pytest.approx(12.706)
    assert t_critical(4) == pytest.approx(2.776)
    assert t_critical(12) == pytest.approx(2.179)  # its own row, not df=15's 2.131
    assert t_critical(15) == pytest.approx(2.131)
    assert t_critical(1000) == pytest.approx(1.96)
    with pytest.raises(ValueError):
        t_critical(0)


def test_interval_uses_the_true_critical_value_between_table_rows():
    # 13 replicates -> df = 12, which the old private table rounded up to
    # the df = 15 value and so reported an interval 2 % too narrow.
    values = [10.0 + 0.5 * i for i in range(13)]
    stat = summarize_replicates([fake_point(v) for v in values])["throughput"]
    mean = sum(values) / 13
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / 12)
    assert stat.half_width == pytest.approx(2.179 * sd / math.sqrt(13))


def test_summarize_mean_and_interval():
    points = [fake_point(x) for x in (10.0, 12.0, 14.0)]
    stats = summarize_replicates(points)
    assert stats["throughput"].mean == pytest.approx(12.0)
    assert stats["throughput"].n == 3
    # s = 2, half = 4.303 * 2/sqrt(3)
    assert stats["throughput"].half_width == pytest.approx(4.303 * 2 / math.sqrt(3), rel=1e-3)
    assert stats["throughput"].low < 12.0 < stats["throughput"].high


def test_single_replicate_infinite_interval():
    stats = summarize_replicates([fake_point(5.0)])
    assert stats["throughput"].mean == 5.0
    assert math.isinf(stats["throughput"].half_width)


def test_crashed_replicates_excluded():
    points = [fake_point(10.0), fake_point(0.0, crashed=True), fake_point(14.0)]
    stats = summarize_replicates(points)
    assert stats["throughput"].n == 2
    assert stats["throughput"].mean == pytest.approx(12.0)


def test_all_crashed_gives_nan():
    stats = summarize_replicates([fake_point(0.0, crashed=True)])
    assert stats["throughput"].n == 0
    assert math.isnan(stats["throughput"].mean)


def test_stat_str():
    text = str(ReplicateStat(mean=1.5, half_width=0.25, n=5))
    assert "1.500" in text and "0.250" in text and "n=5" in text


def test_replicate_real_experiment_point():
    points = replicate_point(
        exp3.run_point, "mds-gris-cache", 10, seeds=(1, 2, 3), warmup=2.0, window=8.0
    )
    assert len(points) == 3
    stats = summarize_replicates(points)
    assert stats["throughput"].n == 3
    # Seeds vary the noise, not the physics: tight interval around ~6.5.
    assert 4.0 < stats["throughput"].mean < 9.0
    assert stats["throughput"].half_width < 0.5 * stats["throughput"].mean
