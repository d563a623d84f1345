"""Unit tests for the Facebook-like workload model."""

import random

import pytest

from repro.errors import WorkloadError
from repro.workload.facebook import MEAN_VALUE_SIZE, FacebookWorkload


@pytest.fixture
def workload():
    return FacebookWorkload(record_count=1000, rng=random.Random(1),
                            mean_inter_arrival=1e-3)


class TestTraceGeneration:
    def test_records_ordered_in_time(self, workload):
        trace = list(workload.generate(duration=1.0))
        times = [r.time for r in trace]
        assert times == sorted(times)
        assert all(0 <= t < 1.0 for t in times)

    def test_request_rate_matches_inter_arrival(self, workload):
        trace = list(workload.generate(duration=5.0))
        rate = len(trace) / 5.0
        assert rate == pytest.approx(1000.0, rel=0.2)

    def test_read_fraction(self, workload):
        trace = list(workload.generate(duration=5.0))
        reads = sum(1 for r in trace if r.op == "read")
        assert reads / len(trace) == pytest.approx(0.95, abs=0.02)

    def test_start_time_offset(self, workload):
        trace = list(workload.generate(duration=1.0, start_time=10.0))
        assert all(10.0 <= r.time < 11.0 for r in trace)

    def test_writes_carry_sizes(self, workload):
        trace = list(workload.generate(duration=5.0))
        writes = [r for r in trace if r.op == "write"]
        assert writes and all(r.size >= 1 for r in writes)


class TestSizes:
    def test_value_size_memoized_per_key(self, workload):
        key = workload.keyspace.key(0)
        assert workload.value_size(key) == workload.value_size(key)

    def test_mean_value_size_near_published(self):
        workload = FacebookWorkload(record_count=20_000,
                                    rng=random.Random(2))
        sizes = [workload.value_size(workload.keyspace.key_for_id(i))
                 for i in range(5_000)]
        assert sum(sizes) / len(sizes) == pytest.approx(MEAN_VALUE_SIZE,
                                                        rel=0.15)

    def test_populate_records_sizes(self, workload, sim):
        from repro.datastore.store import DataStore
        store = DataStore(sim)
        workload.populate(store)
        assert len(store) == 1000
        key = workload.keyspace.key(0)
        assert store.record_size(key) == workload.value_size(key)


class TestValidation:
    def test_bad_inter_arrival_rejected(self):
        with pytest.raises(WorkloadError):
            FacebookWorkload(record_count=100, mean_inter_arrival=0,
                             rng=random.Random(1))

    def test_mean_request_rate(self, workload):
        assert workload.mean_request_rate() == pytest.approx(1000.0)
