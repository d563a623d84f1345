"""Unit tests for latency percentile tracking."""

import random

import pytest

from repro.metrics.latency import LatencyReservoir, percentile


def make_reservoir(**kwargs):
    """A reservoir drawing from a fixed-seed stream."""
    kwargs.setdefault("rng", random.Random(17))
    return LatencyReservoir(**kwargs)


class TestPercentile:
    def test_median_of_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_p100_is_max(self):
        assert percentile([5, 9, 1], 100) == 9

    def test_p0_is_min(self):
        assert percentile([5, 9, 1], 0) == 1

    def test_p90(self):
        samples = list(range(1, 101))
        assert percentile(samples, 90) == 90

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestLatencyReservoir:
    def test_small_streams_exact(self):
        reservoir = make_reservoir(bucket_width=1.0, capacity=100)
        for latency in (1.0, 2.0, 3.0):
            reservoir.add(0.5, latency)
        assert reservoir.percentile_at(0.5, 100) == 3.0

    def test_per_bucket_isolation(self):
        reservoir = make_reservoir()
        reservoir.add(0.5, 1.0)
        reservoir.add(1.5, 100.0)
        assert reservoir.percentile_at(0.0, 50) == 1.0
        assert reservoir.percentile_at(1.0, 50) == 100.0

    def test_missing_bucket_is_none(self):
        assert make_reservoir().percentile_at(9.0, 50) is None

    def test_percentile_series_sorted(self):
        reservoir = make_reservoir()
        for t in (2.5, 0.5, 1.5):
            reservoir.add(t, t)
        series = reservoir.percentile_series(50)
        assert [point[0] for point in series] == [0.0, 1.0, 2.0]

    def test_reservoir_sampling_stays_bounded(self):
        reservoir = make_reservoir(capacity=64)
        for i in range(10_000):
            reservoir.add(0.5, float(i))
        assert reservoir.count() == 10_000
        assert len(reservoir._buckets[0].samples) == 64

    def test_reservoir_percentile_approximates(self):
        rng = random.Random(3)
        reservoir = make_reservoir(capacity=512)
        for __ in range(20_000):
            reservoir.add(0.5, rng.random())
        p90 = reservoir.percentile_at(0.5, 90)
        assert 0.85 <= p90 <= 0.95

    def test_overall_mean_exact(self):
        reservoir = make_reservoir(capacity=2)
        for latency in (1.0, 2.0, 3.0, 4.0):
            reservoir.add(0.5, latency)
        assert reservoir.overall_mean() == pytest.approx(2.5)

    def test_empty_reservoir_reports_none(self):
        reservoir = make_reservoir()
        assert reservoir.overall_percentile(90) is None
        assert reservoir.overall_mean() is None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            make_reservoir(capacity=0)
