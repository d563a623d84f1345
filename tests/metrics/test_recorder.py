"""Unit tests for the operation recorder."""

import pytest

from repro.metrics.recorder import OpRecorder
from repro.sim.rng import RngRegistry


def make_recorder(**kwargs):
    """A recorder drawing from a fixed-seed registry."""
    kwargs.setdefault("rng_registry", RngRegistry(17))
    return OpRecorder(**kwargs)


class TestReads:
    def test_hit_and_miss_counted(self):
        recorder = make_recorder()
        recorder.record_read(0.0, 0.001, hit=True, instance="i0")
        recorder.record_read(0.0, 0.002, hit=False, instance="i0")
        assert recorder.cache_hits == 1
        assert recorder.datastore_reads == 1
        assert recorder.overall_hit_ratio() == 0.5

    def test_store_direct_reads_not_lookups(self):
        recorder = make_recorder()
        recorder.record_read(0.0, 0.001, hit=False, instance=None,
                             store_direct=True)
        assert recorder.store_direct_reads == 1
        assert recorder.hit_ratio.overall_ratio() == 0.0
        assert recorder.reads == 1

    def test_per_instance_hit_tracking(self):
        recorder = make_recorder()
        recorder.record_read(0.0, 0.001, hit=True, instance="a")
        recorder.record_read(0.0, 0.001, hit=False, instance="b")
        assert recorder.per_instance_hits["a"].overall_ratio() == 1.0
        assert recorder.per_instance_hits["b"].overall_ratio() == 0.0

    def test_latency_recorded(self):
        recorder = make_recorder()
        recorder.record_read(0.0, 0.010, hit=True, instance="a")
        assert recorder.read_latency.overall_mean() == pytest.approx(0.010)


class TestWrites:
    def test_write_counted_with_latency(self):
        recorder = make_recorder()
        recorder.record_write(0.0, 0.005)
        assert recorder.writes == 1
        assert recorder.write_latency.overall_mean() == pytest.approx(0.005)

    def test_suspended_write_flagged(self):
        recorder = make_recorder()
        recorder.record_write(0.0, 0.1, suspended_for=0.05)
        assert recorder.suspended_writes == 1


class TestAggregates:
    def test_throughput_buckets(self):
        recorder = make_recorder()
        recorder.record_read(0.0, 0.5, hit=True, instance="a")
        recorder.record_write(0.0, 0.6)
        recorder.record_read(0.0, 1.5, hit=True, instance="a")
        assert recorder.throughput.counts() == [(0.0, 2), (1.0, 1)]

    def test_ops_total(self):
        recorder = make_recorder()
        recorder.record_read(0.0, 0.1, hit=True, instance="a")
        recorder.record_write(0.0, 0.1)
        assert recorder.ops() == 2

    def test_backoff_and_refresh_counters(self):
        recorder = make_recorder()
        recorder.record_backoff()
        recorder.record_config_refresh()
        assert recorder.lease_backoffs == 1
        assert recorder.config_refreshes == 1

    def test_summary_keys(self):
        recorder = make_recorder()
        recorder.record_read(0.0, 0.1, hit=True, instance="a")
        summary = recorder.summary()
        for key in ("reads", "writes", "hit_ratio", "p90_read_latency"):
            assert key in summary
