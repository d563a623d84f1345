"""Client-side operation recorder.

One :class:`OpRecorder` is shared by all clients of an experiment; it
feeds the per-second series the paper plots:

* hit ratio (cache hits / lookups) — cluster-wide and per instance;
* throughput (completed operations per second);
* read-latency percentiles;
* stale reads (delegated to the consistency oracle by the client).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.metrics.bucketing import bucket_index
from repro.metrics.latency import LatencyReservoir
from repro.metrics.series import TimeSeries, WindowedCounter
from repro.sim.rng import RngRegistry

__all__ = ["OpRecorder"]


class OpRecorder:
    """Aggregates every completed client operation."""

    def __init__(self, bucket_width: float = 1.0,
                 latency_capacity: int = 512,
                 *, rng_registry: RngRegistry):
        self.bucket_width = bucket_width
        self.throughput = TimeSeries(bucket_width)
        self.hit_ratio = WindowedCounter(bucket_width)
        # Reservoir sampling draws from named registry streams so the
        # summaries are reproducible from the experiment seed alone.
        self.read_latency = LatencyReservoir(
            bucket_width, latency_capacity,
            rng=rng_registry.stream("metrics.read_latency"))
        self.write_latency = LatencyReservoir(
            bucket_width, latency_capacity,
            rng=rng_registry.stream("metrics.write_latency"))
        #: Hit ratio keyed by the instance that served the lookup.
        self.per_instance_hits: Dict[str, WindowedCounter] = {}
        self.reads = 0
        self.writes = 0
        self.cache_hits = 0
        self.datastore_reads = 0
        self.store_direct_reads = 0
        self.suspended_writes = 0
        self.lease_backoffs = 0
        self.config_refreshes = 0

    def _instance_counter(self, instance: str) -> WindowedCounter:
        counter = self.per_instance_hits.get(instance)
        if counter is None:
            counter = self.per_instance_hits[instance] = WindowedCounter(
                self.bucket_width)
        return counter

    def record_read(self, start: float, end: float, hit: bool,
                    instance: Optional[str], store_direct: bool = False) -> None:
        # Every series shares bucket_width: one bucket per operation.
        bucket = bucket_index(end, self.bucket_width)
        self.reads += 1
        self.throughput.add(end, bucket=bucket)
        self.read_latency.add(end, end - start, bucket=bucket)
        if store_direct:
            self.store_direct_reads += 1
            return  # bypassed the cache entirely: not a lookup
        self.hit_ratio.observe(end, hit, bucket=bucket)
        if hit:
            self.cache_hits += 1
        else:
            self.datastore_reads += 1
        if instance is not None:
            self._instance_counter(instance).observe(end, hit, bucket=bucket)

    def record_write(self, start: float, end: float,
                     suspended_for: float = 0.0) -> None:
        bucket = bucket_index(end, self.bucket_width)
        self.writes += 1
        self.throughput.add(end, bucket=bucket)
        self.write_latency.add(end, end - start, bucket=bucket)
        if suspended_for > 0:
            self.suspended_writes += 1

    def record_backoff(self) -> None:
        self.lease_backoffs += 1

    def record_config_refresh(self) -> None:
        self.config_refreshes += 1

    # -- summaries ---------------------------------------------------------
    def overall_hit_ratio(self) -> float:
        return self.hit_ratio.overall_ratio()

    def ops(self) -> int:
        return self.reads + self.writes

    def summary(self) -> Dict[str, float]:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "cache_hits": self.cache_hits,
            "datastore_reads": self.datastore_reads,
            "store_direct_reads": self.store_direct_reads,
            "hit_ratio": self.overall_hit_ratio(),
            "lease_backoffs": self.lease_backoffs,
            "mean_read_latency": self.read_latency.overall_mean() or 0.0,
            "p90_read_latency": self.read_latency.overall_percentile(90) or 0.0,
            "p99_read_latency": self.read_latency.overall_percentile(99) or 0.0,
        }
